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

Every solve runs on one of two kernels: a Picard loop over a state with one
column per framework, or a stack of dense linear systems.  ``cs`` takes the
dense solve while one n x (n + 1) system fits ``COALITION_CELLS`` (n up to
1,023); there it is far cheaper, since a sweep can need over a thousand
steps when alpha * M / N contracts slowly.  Larger frameworks sweep
``cs`` as one more Picard rule, sigma(a) = 1 - (alpha / N) * (sum of
attacker degrees) from the all-ones vector, in O(n + m) memory.  With
q = alpha * (largest in-degree) / N, a sweep contracts the error by q in
the max norm, so it stops once a step is at most tolerance * (1 - q) / q,
which bounds the error of every degree by the tolerance.  A sweep gathers
every attacker's degree edge by edge and folds them into their targets with
one ``ufunc.at`` scatter, which applies its indices in order, so each sum
(or max) runs over the sorted attackers left to right, and every semantics
has exactly one floating-point result.

A framework derived from another by dropping attacks is a mask over the
parent's attacks: bit e drops the e-th attack in (target, source) order,
the edge order of a sweep (``attack_bits``).  Deleting arguments is the
mask that drops every attack touching them; they stay, isolated, and change
no other degree (a dense ``cs`` solve, one row and column larger for each,
can round an ulp apart).  ``degrees`` solves one mask of a framework, and
``coalition_degrees`` many at once, without building the derived frameworks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
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
# Attacks on one argument that the monotonicity check removes at most at once.
REMOVAL_CAP = 3
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
        norm = self.norm_override
        if norm is not None and not 0.0 < norm < math.inf:
            raise ValueError("norm_override must be finite and positive")


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
def _cached_degrees(
    af: ArgumentationFramework, spec: SemanticsSpec, mask: int
) -> Weighting:
    graph = _attackers(af)
    solved = _solve_rows(spec, graph, _unpack([mask], len(graph.sources)))
    return Weighting(dict(zip(af.arguments, solved[:, 0].tolist())))


def degrees(
    af: ArgumentationFramework, spec: SemanticsSpec, mask: int = 0
) -> Weighting:
    """Acceptability degree of every argument under the chosen semantics.

    A nonzero ``mask`` scores a framework derived from ``af``: bit ``e``
    drops the ``e``-th attack in ``attack_bits`` order.  The result equals,
    bit for bit, the degrees of ``af.delete_attacks`` of those attacks.  On
    frameworks of up to 1,023 arguments ``cs`` solves a linear system, and
    ``tolerance`` and ``max_iterations`` play no part; larger ones are swept,
    within ``tolerance`` of the exact degrees, and can raise
    ``NonConvergenceError``.
    """
    if not af.arguments:
        raise ValueError("degrees need at least one argument")
    if mask < 0 or mask >> len(af.attacks):
        raise ValueError(f"mask {mask:#x} names attacks the framework lacks")
    return _cached_degrees(af, spec, mask)


def coalition_degrees(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    rows: Sequence[tuple[int, int]],
) -> list[float]:
    """Degree of each row's target in a framework derived from ``af``.

    A row is ``(t, mask)``: ``t`` indexes ``af.arguments``, and ``mask``
    drops attacks as in ``degrees``.  Each value equals, bit for bit,
    ``degrees(af, spec, mask)[af.arguments[t]]``, and a failure raises what
    that call would raise for the first failing row.  Rows with one mask
    read one solve; the masks are solved together, in chunks of at most
    ``COALITION_CELLS`` working cells, without building or caching the
    derived frameworks.
    """
    if not rows:
        return []
    n = len(af.arguments)
    graph = _attackers(af)
    systems: dict[int, int] = {}
    picks = np.array([systems.setdefault(mask, len(systems)) for _, mask in rows])
    targets = np.array([t for t, _ in rows], dtype=np.intp)
    masks = list(systems)
    # Per system, a dense cs solve keeps its matrix and right-hand side; a
    # sweep (cs on larger frameworks too) keeps n cells each of state, totals,
    # sweep, change, attacker counts and solution, and m each of gathered
    # attacker degrees and their ``bins`` index (8 bytes, as a float).
    m = len(graph.sources)
    cells = n * (n + 1) if _dense(spec, n) else 6 * n + 2 * m
    chunk = max(1, COALITION_CELLS // cells)
    values = np.empty(len(rows))
    for start in range(0, len(masks), chunk):
        solved = _solve_rows(spec, graph, _unpack(masks[start : start + chunk], m))
        mine = np.flatnonzero((picks >= start) & (picks < start + chunk))
        values[mine] = solved[targets[mine], picks[mine] - start]
    # Clipped into [0, 1] as ``Weighting`` clips a solver's overshoot.
    return np.clip(values, 0.0, 1.0).tolist()


@lru_cache(maxsize=4096)
def attack_bits(af: ArgumentationFramework) -> Mapping[Attack, int]:
    """The bit of each attack in the mask of a framework derived from ``af``.

    Attacks are numbered in (target, source) order, so the attacks on one
    argument hold consecutive bits, in the order of its sorted attackers.
    """
    order = sorted(af.attacks, key=lambda attack: attack[::-1])
    return MappingProxyType({attack: e for e, attack in enumerate(order)})


class _Attackers(NamedTuple):
    """The n arguments and m attacks of a framework, in O(n + m) memory.

    Edge ``e``, the attack of bit ``e`` in ``attack_bits``, runs from
    ``sources[e]`` to ``heads[e]``.  A sweep gathers ``state[sources]`` and
    scatters each edge's degree into the total of its head, in edge order,
    so every total runs over that argument's sorted attackers left to right.
    """

    n: int
    heads: np.ndarray
    sources: np.ndarray


@lru_cache(maxsize=4096)
def _attackers(af: ArgumentationFramework) -> _Attackers:
    index = {a: i for i, a in enumerate(af.arguments)}
    bits = attack_bits(af)
    heads = np.fromiter((index[t] for _, t in bits), dtype=np.intp, count=len(bits))
    sources = np.fromiter((index[s] for s, _ in bits), dtype=np.intp, count=len(bits))
    return _Attackers(len(index), heads, sources)


def _unpack(masks: Sequence[int], m: int) -> np.ndarray:
    """One row of m flags per mask: ``removed[r, e]`` drops edge e in row r."""
    nbytes = (m + 7) // 8
    packed = np.frombuffer(
        b"".join(mask.to_bytes(nbytes, "little") for mask in masks), dtype=np.uint8
    ).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=m, bitorder="little") == 1


def _solve_rows(
    spec: SemanticsSpec, graph: _Attackers, removed: np.ndarray
) -> np.ndarray:
    """Degree vectors, a column per row, each without its removed edges."""
    solve = _counting_rows if _dense(spec, graph.n) else _picard_rows
    return solve(spec, graph, removed)


def _dense(spec: SemanticsSpec, n: int) -> bool:
    """Whether ``cs`` solves n x n systems: only while one fits a chunk."""
    return spec.kind == "cs" and n * (n + 1) <= COALITION_CELLS


def _kept_counts(graph: _Attackers, removed: np.ndarray) -> np.ndarray:
    """The attackers each argument keeps in each row, a column per row."""
    rows = len(removed)
    bins = graph.heads[:, None] * rows + np.arange(rows)
    kept = np.bincount(bins[~removed.T], minlength=graph.n * rows)
    return kept.reshape(-1, rows)


def _counting_scales(
    spec: SemanticsSpec, count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's largest in-degree and ``damping / N``, 0.0 without a norm."""
    tops = count.max(axis=0)
    norms = [_norm_for(int(t), spec.counting) for t in tops]
    scale = np.array([0.0 if m is None else spec.counting.damping / m for m in norms])
    return tops, scale


def _update(
    kind: str, total: np.ndarray, count: np.ndarray, scale: np.ndarray | None
) -> np.ndarray:
    """The scoring rule, from each argument's folded attacker degrees.

    ``total`` is the sum of the attacker degrees (their max for ``max``),
    ``count`` the attacker count, which ``car`` divides by, and ``scale``
    each row's ``damping / N`` for ``cs``.
    """
    if kind == "cs":
        return 1.0 - scale * total
    if kind == "car":
        # An unattacked argument has total 0.0, so dividing by 1 keeps it at 1.
        return 1.0 / ((1.0 + count) + total / np.maximum(count, 1))
    return 1.0 / (1.0 + total)


def _picard_rows(
    spec: SemanticsSpec, graph: _Attackers, removed: np.ndarray
) -> np.ndarray:
    # state[:, r] is row r's degree vector: a column per row, so each gather
    # copies contiguous runs.  Edge e's degree lands in bin
    # heads[e] * rows + r of the flattened totals.
    n, rows = graph.n, len(removed)
    bins = (graph.heads[:, None] * rows + np.arange(rows)).ravel()
    # A removed edge stays in the gather with degree 0.0, which leaves a
    # sum or a max over degrees as it is; only the counts drop it.
    dropped = np.nonzero(removed.T)
    count = _kept_counts(graph, removed)
    fold = np.maximum if spec.kind == "max" else np.add
    state = np.ones((n, rows))
    scale, bar = None, np.full(rows, spec.tolerance)
    if spec.kind == "cs":
        # A cs row contracts by q = scale * top in the max norm, so a step of
        # at most tolerance * (1 - q) / q leaves an error of at most
        # tolerance; a row with q = 0 is attack-free and stops at once.
        tops, scale = _counting_scales(spec, count)
        q = scale * tops
        with np.errstate(divide="ignore"):
            bar = spec.tolerance * (1.0 - q) / q
    # A solved row keeps sweeping, but its bar drops below any residual, so
    # only its first solution counts.
    values = np.empty((n, rows))
    for _ in range(spec.max_iterations):
        gathered = state[graph.sources]
        gathered[dropped] = 0.0
        # ``ufunc.at`` applies its indices in order, so every total is the
        # left-to-right sum (or max) of the sorted attackers, from 0.0.
        total = np.zeros((n, rows))
        fold.at(total.reshape(-1), bins, gathered.reshape(-1))
        swept = _update(spec.kind, total, count, scale)
        residual = np.abs(swept - state).max(axis=0)
        solved = residual <= bar
        if solved.any():
            values[:, solved] = swept[:, solved]
            bar[solved] = -1.0
            if bar.max() < 0.0:
                return values
        state = swept
    raise NonConvergenceError(spec.max_iterations, float(residual[bar >= 0.0][0]))


def _counting_rows(
    spec: SemanticsSpec, graph: _Attackers, removed: np.ndarray
) -> np.ndarray:
    n, rows = graph.n, len(removed)
    _, scale = _counting_scales(spec, _kept_counts(graph, removed))
    if not scale.any():
        # Attack-free frameworks score 1 everywhere: there is nothing to solve.
        return np.ones((n, rows))
    # Each system I + scale * M is assembled in place, in its one array.
    systems = np.zeros((rows, n, n))
    systems[:, graph.heads, graph.sources] = scale[:, None]
    r, e = np.nonzero(removed)
    systems[r, graph.heads[e], graph.sources[e]] = 0.0
    diagonal = np.arange(n)
    systems[:, diagonal, diagonal] += 1.0
    solved = np.linalg.solve(systems, np.ones((rows, n, 1)))[:, :, 0]
    solved[scale == 0.0] = 1.0
    return solved.T


def weighting_payload(
    af: ArgumentationFramework, spec: SemanticsSpec, weighting: Weighting
) -> dict:
    """JSON-ready view of a weighting, with the solver parameters used; ``cs``
    names ``tolerance`` and ``max_iterations`` only where it sweeps."""
    params = {"tolerance": spec.tolerance, "max_iterations": spec.max_iterations}
    if spec.kind == "cs":
        norm = counting_norm(af, spec.counting)
        counting = {"alpha": spec.counting.damping, "norm": norm}
        params = counting if _dense(spec, len(af.arguments)) else counting | params
    return {
        "semantics": spec.kind,
        "params": params,
        "degrees": weighting.as_dict(),
    }


# -- structural property checks -----------------------------------------


def check_independence(
    spec: SemanticsSpec,
    pairs: Iterable[tuple[ArgumentationFramework, ArgumentationFramework]],
) -> PrincipleVerdict:
    """Search disjoint pairs for a degree changed by joining the frameworks."""
    return falsify(
        "independence", spec.kind, CHECK_TOLERANCE, _union_trials(spec, pairs)
    )


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
) -> PrincipleVerdict:
    """Search attack additions for a degree change outside the target's reach."""
    return falsify(
        "directionality", spec.kind, CHECK_TOLERANCE, _addition_trials(spec, instances)
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
) -> PrincipleVerdict:
    """Search for an argument whose degree drops when attacks on it are removed."""
    return falsify(
        "attack-removal-monotonicity",
        spec.kind,
        CHECK_TOLERANCE,
        _removal_trials(spec, corpus),
        relation=exceeds,
    )


def _removal_trials(spec, corpus):
    for af in corpus:
        base = degrees(af, spec)
        bits = attack_bits(af)
        for a in af.arguments:
            incoming = af.attacks_on(a)
            for size in range(1, min(REMOVAL_CAP, len(incoming)) + 1):
                for removed in combinations(incoming, size):
                    mask = sum(1 << bits[attack] for attack in removed)
                    after = degrees(af, spec, mask)
                    yield trial(
                        base[a],
                        after[a],
                        frameworks=(af,),
                        targets=(a,),
                        removed_attacks=removed,
                        description="degree dropped after removing attacks",
                    )
