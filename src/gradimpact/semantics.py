"""Gradual acceptability semantics and their structural property checks.

Four scoring rules are supported.  Three are fixed points computed by Picard
iteration, from the all-ones vector unless another start is given:

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

Every solve runs on one kernel per kind: a Picard loop over a state with one
column per framework, or a stack of linear systems.  ``degrees`` solves one
framework; ``coalition_degrees`` solves many copies of it at once, each with
some of one target's incoming attacks removed, for the Shapley intensities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


@lru_cache(maxsize=32768)
def _cached_degrees(af: ArgumentationFramework, spec: SemanticsSpec) -> Weighting:
    return _solve(af, spec, 1.0)


def _solve(af: ArgumentationFramework, spec: SemanticsSpec, start: float) -> Weighting:
    # The unreduced framework is a single row that removes no attack.
    nothing = np.zeros((1, 1), dtype=bool)
    solved = _solve_rows(spec, _attackers(af), np.zeros(1, dtype=np.intp), nothing, start)
    return Weighting(dict(zip(af.arguments, solved[:, 0].tolist())))


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
    return _solve(af, spec, initial_value)


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
    graph = _attackers(af)
    # Every row that removes nothing solves the unreduced framework, so they
    # all read one system, placed where the first of them stands.
    systems: dict[tuple[int, int], int] = {}
    picks = np.array(
        [systems.setdefault((t, m) if m else (0, 0), len(systems)) for t, m in rows]
    )
    targets = np.array([t for t, _ in rows], dtype=np.intp)
    heads = np.array([t for t, _ in systems], dtype=np.intp)
    width = max(1, int(graph.count[heads].max()))
    nbytes = (width + 7) // 8
    packed = np.frombuffer(
        b"".join(m.to_bytes(nbytes, "little") for _, m in systems), dtype=np.uint8
    ).reshape(len(systems), nbytes)
    removed = np.unpackbits(packed, axis=1, count=width, bitorder="little") == 1
    # Per system, cs keeps its matrix and right-hand side; Picard its state,
    # the gathered attacker degrees (the sums among them), the sweep, its
    # change, the attacker counts and the solution.
    m = len(graph.sources)
    cells = n * (n + 1) if spec.kind == "cs" else 5 * (n + 1) + m
    chunk = max(1, COALITION_CELLS // cells)
    values = np.empty(len(rows))
    for start in range(0, len(systems), chunk):
        part = slice(start, start + chunk)
        solved = _solve_rows(spec, graph, heads[part], removed[part])
        mine = np.flatnonzero((picks >= start) & (picks < start + chunk))
        values[mine] = solved[targets[mine], picks[mine] - start]
    # Clipped into [0, 1] as ``Weighting`` clips a solver's overshoot.
    return np.clip(values, 0.0, 1.0).tolist()


class _Attackers(NamedTuple):
    """Every argument's attacker indices in sorted-source order, end to end.

    The attackers of argument ``i`` are ``sources[first[i]:][:count[i]]``, so
    the whole framework takes O(n + m) memory, however high an in-degree.
    """

    count: np.ndarray
    first: np.ndarray
    sources: np.ndarray


def _attackers(af: ArgumentationFramework) -> _Attackers:
    index = {a: i for i, a in enumerate(af.arguments)}
    lists = [af.attackers(a) for a in af.arguments]
    count = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    sources = np.fromiter(
        map(index.__getitem__, chain.from_iterable(lists)),
        dtype=np.intp,
        count=int(count.sum()),
    )
    return _Attackers(count, np.cumsum(count) - count, sources)


def _solve_rows(
    spec: SemanticsSpec,
    graph: _Attackers,
    targets: np.ndarray,
    removed: np.ndarray,
    start: float = 1.0,
) -> np.ndarray:
    """Degree vectors, a column per row, each with its removed attacks gone.

    Row ``r`` drops the attack from the ``j``-th attacker of ``targets[r]``
    wherever ``removed[r, j]`` is set; ``start`` seeds the Picard iteration
    and ``cs`` ignores it.
    """
    if spec.kind == "cs":
        return _counting_rows(spec, graph, targets, removed)
    return _picard_rows(spec, graph, targets, removed, start)


def _update(kind: str, total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The scoring rule, from each argument's folded attacker degrees.

    ``total`` is the sum of the attacker degrees (their max for ``max``) and
    ``count`` the attacker count, which ``car`` divides by.
    """
    if kind == "car":
        # An unattacked argument has total 0.0, so dividing by 1 keeps it at 1.
        return 1.0 / ((1.0 + count) + total / np.maximum(count, 1))
    return 1.0 / (1.0 + total)


class _SweepPlan(NamedTuple):
    """How one Picard sweep gathers and folds every attacker degree.

    Arguments are held in order of falling in-degree, ``rank`` mapping an
    index (and the sentinel ``n``, whose degree is always 0.0) to its place,
    and ``count`` is their attacker count in that order.  Those with more
    than ``j`` attackers are then a prefix, so attacker slot ``j`` folds into
    one slice.  A sweep gathers ``state[index]`` in one go; the attack at
    edge ``e`` of ``_Attackers.sources`` lands at ``where[e]``.  The first
    ``n`` entries are every argument's slot 0 (the sentinel for the
    unattacked) and become the running totals; each ``(c, lo)`` of ``folds``
    then folds entries ``lo:lo + c`` into the first ``c`` totals.  Past a
    cut, the few arguments still attacked (hubs) fold the run of their
    remaining attackers at once, hub ``h`` the run ``runs[h]``; a run costs
    about three slot folds, and the cut minimises that cost per sweep.  A
    sweep thus costs O(n + m) per row, and every sum keeps the left-to-right
    order of the sorted attackers, so each semantics has exactly one
    floating-point result.
    """

    rank: np.ndarray
    count: np.ndarray
    index: np.ndarray
    where: np.ndarray
    folds: list[tuple[int, int]]
    runs: list[slice]


def _sweep_plan(graph: _Attackers) -> _SweepPlan:
    # Built in plain Python: a handful of list passes is cheaper than the
    # numpy calls it would take on the small frameworks solved most often.
    count, first = graph.count.tolist(), graph.first.tolist()
    sources = graph.sources.tolist()
    n = len(count)
    order = sorted(range(n), key=count.__getitem__, reverse=True)
    rank = [0] * (n + 1)
    for r, i in enumerate(order):
        rank[i] = r
    rank[n] = n
    # depth[j] is the number of arguments with more than j attackers.
    top = count[order[0]]
    depth = [0] * (top + 1)
    for k in count:
        if k:
            depth[k - 1] += 1
    for j in reversed(range(top)):
        depth[j] += depth[j + 1]
    cut = min(range(top + 1), key=lambda j: j + 3 * depth[j])
    index, where = [n] * n, [0] * len(sources)

    def place(e: int) -> None:
        where[e] = len(index)
        index.append(rank[sources[e]])

    for r in range(depth[0] if cut else 0):
        e = first[order[r]]
        where[e], index[r] = r, rank[sources[e]]
    folds, runs = [], []
    for j in range(1, cut):
        folds.append((depth[j], len(index)))
        for i in order[: depth[j]]:
            place(first[i] + j)
    for i in order[: depth[cut]]:
        lo = len(index)
        for e in range(first[i] + cut, first[i] + count[i]):
            place(e)
        runs.append(slice(lo, len(index)))
    return _SweepPlan(
        np.array(rank),
        np.array([count[i] for i in order]),
        np.array(index, dtype=np.intp),
        np.array(where, dtype=np.intp),
        folds,
        runs,
    )


def _picard_rows(
    spec: SemanticsSpec,
    graph: _Attackers,
    targets: np.ndarray,
    removed: np.ndarray,
    start: float,
) -> np.ndarray:
    # state[:, r] is row r's degree vector, in the plan's order, plus the
    # sentinel: a column per row, so each gather copies contiguous runs.
    plan = _sweep_plan(graph)
    n, rows = len(plan.count), len(targets)
    # A removed attack stays in the gather with degree 0.0, which leaves a
    # sum or a max over degrees as it is; only car's count drops it.
    count = plan.count[:, None]
    r, j = np.nonzero(removed)
    if r.size:
        dropped = plan.where[graph.first[targets[r]] + j], r
        count = count.repeat(rows, axis=1)
        count[plan.rank[targets], np.arange(rows)] -= removed.sum(axis=1)
    fold = np.maximum if spec.kind == "max" else np.add
    state = np.full((n + 1, rows), float(start))
    state[n] = 0.0
    # A solved row keeps sweeping, but its bar drops below any residual, so
    # only its first solution counts.
    bar = np.full(rows, spec.tolerance)
    values = np.empty((n, rows))
    for _ in range(spec.max_iterations):
        gathered = state[plan.index]
        if r.size:
            gathered[dropped] = 0.0
        total = gathered[:n]
        for c, lo in plan.folds:
            head = total[:c]
            fold(head, gathered[lo : lo + c], out=head)
        for h, run in enumerate(plan.runs):
            # Folding the total into the run's first degree, then
            # accumulating, keeps the left-to-right order of a slot fold.
            tail = gathered[run]
            fold(tail[0], total[h], out=tail[0])
            total[h] = fold.accumulate(tail)[-1]
        swept = _update(spec.kind, total, count)
        residual = np.abs(swept - state[:n]).max(axis=0)
        solved = residual <= bar
        if solved.any():
            values[:, solved] = swept[:, solved]
            bar[solved] = -1.0
            if bar.max() < 0.0:
                return values[plan.rank[:n]]
        state[:n] = swept
    raise NonConvergenceError(spec.max_iterations, float(residual[bar >= 0.0][0]))


def _counting_rows(
    spec: SemanticsSpec, graph: _Attackers, targets: np.ndarray, removed: np.ndarray
) -> np.ndarray:
    n = len(graph.count)
    count = graph.count
    # Only the target's in-degree changes, so a row's largest in-degree is
    # the larger of its kept attackers and the top over the other arguments.
    ranked = np.sort(count)
    top, runner_up = ranked[-1], (ranked[-2] if n > 1 else 0)
    others = np.where(count[targets] == top, runner_up, top)
    tops = np.maximum(others, count[targets] - removed.sum(axis=1))
    norms = [_norm_for(int(t), spec.counting) for t in tops]
    scale = np.array([0.0 if m is None else spec.counting.damping / m for m in norms])
    if not scale.any():
        # Attack-free frameworks score 1 everywhere: there is nothing to solve.
        return np.ones((n, len(targets)))
    # Each system I + scale * M is assembled in place, in its one array.
    systems = np.zeros((len(targets), n, n))
    systems[:, np.repeat(np.arange(n), count), graph.sources] = scale[:, None]
    rows, slots = np.nonzero(removed)
    heads = targets[rows]
    systems[rows, heads, graph.sources[graph.first[heads] + slots]] = 0.0
    diagonal = np.arange(n)
    systems[:, diagonal, diagonal] += 1.0
    solved = np.linalg.solve(systems, np.ones((len(targets), n, 1)))[:, :, 0]
    solved[[m is None for m in norms]] = 1.0
    return solved.T


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
