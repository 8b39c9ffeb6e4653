"""Gradual acceptability semantics and their structural property checks.

Four scoring rules are supported.  Three are fixed points computed by Picard
iteration from the all-ones vector:

* ``hbs``: sigma(a) = 1 / (1 + sum of attacker degrees)
* ``car``: sigma(a) = 1 / (1 + k + (sum of attacker degrees) / k) with k
  attackers, and 1 when unattacked
* ``max``: sigma(a) = 1 / (1 + max of attacker degrees)

The fourth, ``cs``, scores by damped alternating counts of attacker chains:
with adjacency M (rows index targets), normalisation N equal to the largest
in-degree and damping factor alpha, the degree vector solves
(I + alpha * M / N) v = 1.  The series view of that solution converges for
any alpha below 1, and a user-supplied normalisation below the largest
in-degree is rejected because the guarantee is lost.

``coalition_degrees`` solves many copies of one framework at once, each with
some of one target's incoming attacks removed, for the Shapley intensities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DivergentSeriesError, NonConvergenceError, UnknownArgumentError
from .framework import ArgumentationFramework, Attack
from .verdicts import PrincipleVerdict, exceeds, falsify, probe, trial

KINDS = ("hbs", "car", "max", "cs")

DEFAULT_DAMPING = 0.98
DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 10**6
CHECK_TOLERANCE = 1e-7
# Float cells one chunk of coalition rows may keep in its working arrays
# (about 8 MB); larger frameworks get fewer rows per chunk.
COALITION_CELLS = 1 << 20


@dataclass(frozen=True)
class CountingConfig:
    """Damping factor and optional normalisation override for ``cs``."""

    damping: float = DEFAULT_DAMPING
    norm_override: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie strictly between 0 and 1")
        if self.norm_override is not None and self.norm_override <= 0.0:
            raise ValueError("norm_override must be positive")


@dataclass(frozen=True)
class SemanticsSpec:
    """Which scoring rule to run and how precisely to run it."""

    kind: str
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    counting: CountingConfig = field(default_factory=CountingConfig)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown semantics {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie strictly between 0 and 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


class Weighting(Mapping[str, float]):
    """Total map from arguments to acceptability degrees in [0, 1]."""

    __slots__ = ("_degrees",)

    def __init__(self, degrees: Mapping[str, float]):
        cleaned: dict[str, float] = {}
        for a, raw in degrees.items():
            value = float(raw)
            # Tolerate float overshoot from the solvers, nothing more.
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(f"degree {value!r} for {a!r} outside [0, 1]")
            cleaned[a] = min(1.0, max(0.0, value))
        self._degrees = dict(sorted(cleaned.items()))

    def __getitem__(self, argument: str) -> float:
        try:
            return self._degrees[argument]
        except KeyError:
            raise UnknownArgumentError(argument) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._degrees)

    def __len__(self) -> int:
        return len(self._degrees)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}: {d:.6f}" for a, d in self._degrees.items())
        return f"Weighting({{{inner}}})"

    def as_dict(self) -> dict[str, float]:
        return dict(self._degrees)


def counting_norm(af: ArgumentationFramework, config: CountingConfig) -> float | None:
    """The normalisation ``cs`` would use on this framework, None if attack-free."""
    return _norm_for(af.max_in_degree(), config)


def _norm_for(top: int, config: CountingConfig) -> float | None:
    if config.norm_override is not None:
        if config.norm_override < top:
            raise DivergentSeriesError(
                f"norm_override {config.norm_override:g} is below the largest"
                f" in-degree {top}"
            )
        return config.norm_override
    return float(top) if top > 0 else None


def _counting_degrees(af: ArgumentationFramework, spec: SemanticsSpec) -> list[float]:
    n = len(af.arguments)
    norm = counting_norm(af, spec.counting)
    if norm is None:
        return [1.0] * n
    index = {a: i for i, a in enumerate(af.arguments)}
    matrix = np.zeros((n, n))
    for s, t in af.attacks:
        matrix[index[t], index[s]] = 1.0
    system = np.eye(n) + (spec.counting.damping / norm) * matrix
    return np.linalg.solve(system, np.ones(n)).tolist()


def _step(kind: str, current: list[float], attacker_index: list[tuple[int, ...]]) -> list[float]:
    result = []
    for attackers in attacker_index:
        if kind == "hbs":
            result.append(1.0 / (1.0 + sum(current[i] for i in attackers)))
        elif kind == "car":
            k = len(attackers)
            if k == 0:
                result.append(1.0)
            else:
                mean = sum(current[i] for i in attackers) / k
                result.append(1.0 / (1.0 + k + mean))
        else:
            worst = max((current[i] for i in attackers), default=0.0)
            result.append(1.0 / (1.0 + worst))
    return result


def _fixed_point(
    af: ArgumentationFramework, spec: SemanticsSpec, initial_value: float
) -> list[float]:
    index = {a: i for i, a in enumerate(af.arguments)}
    attacker_index = [
        tuple(index[b] for b in af.attackers(a)) for a in af.arguments
    ]
    current = [float(initial_value)] * len(af.arguments)
    residual = float("inf")
    for _ in range(spec.max_iterations):
        updated = _step(spec.kind, current, attacker_index)
        residual = max(abs(x - y) for x, y in zip(updated, current)) if updated else 0.0
        current = updated
        if residual <= spec.tolerance:
            return current
    raise NonConvergenceError(spec.max_iterations, residual)


@lru_cache(maxsize=32768)
def _cached_degrees(af: ArgumentationFramework, spec: SemanticsSpec) -> Weighting:
    if spec.kind == "cs":
        values = _counting_degrees(af, spec)
    else:
        values = _fixed_point(af, spec, 1.0)
    return Weighting(dict(zip(af.arguments, values)))


def degrees(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    initial_value: float = 1.0,
) -> Weighting:
    """Acceptability degree of every argument under the chosen semantics.

    ``initial_value`` seeds the Picard iteration; any start in [0, 1] reaches
    the same fixed point, which the uniqueness tests exploit.  ``cs`` solves a
    linear system and ignores it.
    """
    if not af.arguments:
        raise ValueError("degrees need at least one argument")
    if not 0.0 <= initial_value <= 1.0:
        raise ValueError("initial_value must lie in [0, 1]")
    if initial_value == 1.0 or spec.kind == "cs":
        return _cached_degrees(af, spec)
    return Weighting(dict(zip(af.arguments, _fixed_point(af, spec, initial_value))))


def coalition_degrees(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    rows: Sequence[tuple[int, int]],
) -> list[float]:
    """Degree of each row's target once a coalition of its attacks is removed.

    A row is ``(t, mask)``: ``t`` indexes ``af.arguments``, and bit ``i`` of
    ``mask`` removes the attack from the target's ``i``-th attacker in sorted
    order.  Each value equals, bit for bit,
    ``degrees(af.delete_attacks(removed), spec)[af.arguments[t]]``, and a
    failure raises what that call would raise for the first failing row.  The
    rows are solved together, in chunks of at most ``COALITION_CELLS`` working
    cells, without building or caching the reduced frameworks.
    """
    if not rows:
        return []
    n = len(af.arguments)
    table = _attacker_table(af)
    width = table.shape[1]
    targets = np.array([t for t, _ in rows], dtype=np.intp)
    nbytes = (width + 7) // 8
    packed = np.frombuffer(
        b"".join(m.to_bytes(nbytes, "little") for _, m in rows), dtype=np.uint8
    ).reshape(len(rows), nbytes)
    removed = np.unpackbits(packed, axis=1, bitorder="little")[:, :width]
    # The target's own attackers, with the removed ones sent to the sentinel.
    own = np.where(removed == 1, n, table[targets])
    if spec.kind == "cs":
        solve, cells = _counting_rows, n * (n + 1)
    else:
        # State, sweep, running total and one gathered slot per row.
        solve, cells = _picard_rows, 4 * (n + 1)
    chunk = max(1, COALITION_CELLS // cells)
    values: list[float] = []
    for start in range(0, len(rows), chunk):
        part = slice(start, start + chunk)
        solved = solve(spec, table, targets[part], own[part])
        # Clipped into [0, 1] as ``Weighting`` clips a solver's overshoot.
        values.extend(np.clip(solved, 0.0, 1.0).tolist())
    return values


def _attacker_table(af: ArgumentationFramework) -> np.ndarray:
    """Attacker indices of every argument in sorted-source order.

    Rows are padded to a common width (at least one) with ``n``, the index of
    a sentinel whose degree is always 0.0: adding it leaves a sum unchanged,
    and it never wins a max over degrees.
    """
    n = len(af.arguments)
    index = {a: i for i, a in enumerate(af.arguments)}
    table = np.full((n, max(1, af.max_in_degree())), n, dtype=np.intp)
    for i, a in enumerate(af.arguments):
        sources = [index[b] for b in af.attackers(a)]
        table[i, : len(sources)] = sources
    return table


def _update(kind: str, slots: Iterator[np.ndarray], count: np.ndarray) -> np.ndarray:
    """``_step``'s rule from attacker degrees given slot by slot.

    Summing one slot at a time keeps ``sum``'s left-to-right order, so the
    result is bit-identical to ``_step``.  ``count`` is the attacker count.
    """
    total = next(slots).copy()
    for values in slots:
        if kind == "max":
            np.maximum(total, values, out=total)
        else:
            total += values
    if kind == "car":
        # An unattacked argument has total 0.0, so dividing by 1 keeps it at 1.
        return 1.0 / ((1.0 + count) + total / np.maximum(count, 1))
    return 1.0 / (1.0 + total)


def _picard_rows(
    spec: SemanticsSpec, table: np.ndarray, targets: np.ndarray, own: np.ndarray
) -> np.ndarray:
    # state[:, r] is row r's degree vector plus the sentinel: a column per
    # row, so each gather copies contiguous runs of rows.
    n, width = table.shape
    count = (table < n).sum(axis=1)[:, None]
    kept = (own < n).sum(axis=1)
    state = np.ones((n + 1, len(targets)))
    state[n] = 0.0
    live = np.arange(len(targets))
    values = np.empty(len(targets))
    for _ in range(spec.max_iterations):
        cols = np.arange(len(live))
        swept = _update(spec.kind, (state[table[:, j]] for j in range(width)), count)
        swept[targets, cols] = _update(
            spec.kind, (state[own[:, j], cols] for j in range(width)), kept
        )
        residual = np.abs(swept - state[:n]).max(axis=0)
        done = residual <= spec.tolerance
        if done.any():
            values[live[done]] = swept[targets[done], cols[done]]
            going = ~done
            if not going.any():
                return values
            live, targets = live[going], targets[going]
            own, kept = own[going], kept[going]
            residual, swept, state = residual[going], swept[:, going], state[:, going]
        state[:n] = swept
    raise NonConvergenceError(spec.max_iterations, float(residual[0]))


def _counting_rows(
    spec: SemanticsSpec, table: np.ndarray, targets: np.ndarray, own: np.ndarray
) -> np.ndarray:
    n = len(table)
    count = (table < n).sum(axis=1)
    # Only the target's in-degree changes, so a row's largest in-degree is
    # the larger of its kept attackers and the top over the other arguments.
    ranked = np.sort(count)
    first, second = ranked[-1], (ranked[-2] if n > 1 else 0)
    others = np.where(count[targets] == first, second, first)
    tops = np.maximum(others, (own < n).sum(axis=1))
    norms = [_norm_for(int(top), spec.counting) for top in tops]
    scale = np.array([0.0 if m is None else spec.counting.damping / m for m in norms])
    matrix = np.zeros((n, n))
    matrix[np.repeat(np.arange(n), count), table[table < n]] = 1.0
    systems = matrix * scale[:, None, None]
    rows, slots = np.nonzero(own != table[targets])
    systems[rows, targets[rows], table[targets[rows], slots]] = 0.0
    systems += np.eye(n)
    solved = np.linalg.solve(systems, np.ones((len(targets), n, 1)))[:, :, 0]
    values = solved[np.arange(len(targets)), targets]
    values[[m is None for m in norms]] = 1.0
    return values


def weighting_payload(
    af: ArgumentationFramework, spec: SemanticsSpec, weighting: Weighting
) -> dict:
    """JSON-ready view of a weighting, with the solver parameters used."""
    if spec.kind == "cs":
        norm = counting_norm(af, spec.counting)
        params: dict = {"alpha": spec.counting.damping, "norm": norm}
    else:
        params = {"tolerance": spec.tolerance, "max_iterations": spec.max_iterations}
    return {
        "semantics": spec.kind,
        "params": params,
        "degrees": weighting.as_dict(),
    }


# -- structural property checks -----------------------------------------


def check_independence(
    spec: SemanticsSpec,
    pairs: Iterable[tuple[ArgumentationFramework, ArgumentationFramework]],
    tolerance: float = CHECK_TOLERANCE,
) -> PrincipleVerdict:
    """Search disjoint pairs for a degree changed by joining the frameworks."""
    return falsify("independence", spec.kind, tolerance, _union_trials(spec, pairs))


def _union_trials(spec, pairs):
    # One trial per pair, comparing the degree of each of its arguments.
    for left, right in pairs:
        if set(left.arguments) & set(right.arguments):
            raise ValueError("independence pairs must have disjoint arguments")
        yield _union_probes(spec, left, right)


def _union_probes(spec, left, right):
    joined = degrees(left.union(right), spec)
    for part in (left, right):
        alone = degrees(part, spec)
        for y in part.arguments:
            yield probe(
                alone[y],
                joined[y],
                frameworks=(left, right),
                targets=(y,),
                description="degree changed by a disjoint union",
            )


def check_directionality(
    spec: SemanticsSpec,
    instances: Iterable[tuple[ArgumentationFramework, Attack]],
    tolerance: float = CHECK_TOLERANCE,
) -> PrincipleVerdict:
    """Search attack additions for a degree change outside the target's reach."""
    return falsify(
        "directionality", spec.kind, tolerance, _addition_trials(spec, instances)
    )


def _addition_trials(spec, instances):
    # One trial per added attack, comparing every argument beyond its reach.
    for af, attack in instances:
        source, target = attack
        if source not in af:
            raise UnknownArgumentError(source)
        if target not in af:
            raise UnknownArgumentError(target)
        if af.has_attack(source, target):
            raise ValueError(f"attack {attack!r} is already present")
        yield _addition_probes(spec, af, attack)


def _addition_probes(spec, af, attack):
    target = attack[1]
    augmented = ArgumentationFramework.of(af.arguments, af.attacks + (attack,))
    before = degrees(af, spec)
    after = degrees(augmented, spec)
    for y in af.arguments:
        if y == target or augmented.has_path(target, y):
            continue
        yield probe(
            before[y],
            after[y],
            frameworks=(af, augmented),
            targets=(y,),
            attack=attack,
            description="degree changed beyond the added attack's reach",
        )


def check_attack_removal_monotonicity(
    spec: SemanticsSpec,
    corpus: Iterable[ArgumentationFramework],
    removal_cap: int = 3,
    tolerance: float = CHECK_TOLERANCE,
) -> PrincipleVerdict:
    """Search for an argument whose degree drops when attacks on it are removed."""
    return falsify(
        "attack-removal-monotonicity",
        spec.kind,
        tolerance,
        _removal_trials(spec, corpus, removal_cap),
        relation=exceeds,
    )


def _removal_trials(spec, corpus, removal_cap):
    for af in corpus:
        base = degrees(af, spec)
        for a in af.arguments:
            incoming = af.attacks_on(a)
            for size in range(1, min(removal_cap, len(incoming)) + 1):
                for removed in combinations(incoming, size):
                    after = degrees(af.delete_attacks(removed), spec)
                    yield trial(
                        base[a],
                        after[a],
                        frameworks=(af,),
                        targets=(a,),
                        removed_attacks=removed,
                        description="degree dropped after removing attacks",
                    )
