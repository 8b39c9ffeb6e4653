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

A solve is a stack of systems, each a (framework, mask) pair, on one of two
kernels.  The Picard kernel lays the systems out as disjoint blocks of one
flat state, block after block, each block holding its framework's
arguments and only the attacks its mask keeps; every block stops on its own
residual, and a block that never gets there fails alone.  The other kernel
solves dense linear systems, a batch of blocks of one size.  ``cs`` takes
the dense solve while one n x (n + 1) system fits ``COALITION_CELLS`` (n up
to 1,023); there it is far cheaper, since a sweep can need over a thousand
steps when alpha * M / N contracts slowly.  Larger frameworks sweep ``cs``
as one more Picard rule, sigma(a) = 1 - (alpha / N) * (sum of attacker
degrees) from the all-ones vector, in O(n + m) memory.

Every Picard block stops on its first step of at most ``tolerance``, and
that step bounds the error of each of its degrees: every rule is antitone
(more attacker degree never raises a degree), so from the all-ones start,
which lies above the fixed point, the iterates alternate around it entry by
entry, and each degree lies between the last two iterates.  A sweep gathers
every kept attacker's degree edge by edge and folds them into their targets
with one ``ufunc.at`` scatter, which applies its indices in order, so each
sum (or max) runs over the sorted attackers left to right, and every
semantics has exactly one floating-point result, whatever else shares the
stack.

A framework derived from another by dropping attacks is a mask over the
parent's attacks: bit e drops the e-th attack in (target, source) order,
the edge order of a sweep (``attack_bits``).  Deleting arguments is the
mask that drops every attack touching them; they stay, isolated, and change
no other degree (a dense ``cs`` solve, one row and column larger for each,
can round an ulp apart).  ``solve_systems`` stacks masks of many
frameworks without building the derived frameworks, and
``solve_coalitions`` reads one target's degree per coalition of its
attacks, numbered over its sorted attackers (``grouped_rows``), for many
frameworks at once, keeping from each chunk only the degrees it reads.

Shapley coalitions under dense ``cs`` are the exception: a coalition of
t's attacks changes only row t of I + (alpha / N) M, so
``solve_coalitions`` factors one system per (framework, norm) pair and
reads every coalition as a Sherman-Morrison rank-one update of it
(``_rank_one_rows``).  Its values lie within 1e-14 of a dense solve of each
derived framework (the largest move measured against one is 5.8e-16, on
300 arguments), not bit for bit; ``degrees`` and the ``dv`` masks keep the
dense solve.

One table owns every solved result (``Systems``).  It numbers each
framework and (framework, mask) system on first use, and keeps each kind
of result end to end in one flat array: the degrees solved here, and the
Shapley intensities and ``si`` resolvents that ``attribution`` and
``impact`` file in it.  Every library call (``degrees``, ``shapley_all``,
the ``imp_*`` impacts) reads the one process table, which is cleared in
place once it numbers 2^15 entries or holds 2^22 values; an audit numbers
its cells in a table of its own.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations, repeat
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DivergentSeriesError,
    GradimpactError,
    NonConvergenceError,
    UnknownArgumentError,
)
from .framework import ArgumentationFramework, Attack
if TYPE_CHECKING:
    from .verdicts import PrincipleVerdict

KINDS = ("hbs", "car", "max", "cs")
MEASURES = ("dv", "dv-original", "si")

DEFAULT_DAMPING = 0.98
DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 10**6
CHECK_TOLERANCE = 1e-7
# Attacks on one argument that the monotonicity check removes at most at once.
REMOVAL_CAP = 3
# Float cells one chunk of a stacked solve may keep in its working arrays
# (about 8 MB); larger frameworks get fewer systems per chunk.
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


    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.tolerance, self.max_iterations, self.counting))

    def __hash__(self) -> int:
        # The dataclass's hash, computed once: specs key the flats of the
        # solved-results table, which every impact query reads.
        return self._hash

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown semantics {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie strictly between 0 and 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def _clipped(argument: str, value: float) -> float:
    # Tolerate float overshoot from the solvers, nothing more.
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise ValueError(f"degree {value!r} for {argument!r} outside [0, 1]")
    return min(1.0, max(0.0, value))


class Weighting(Mapping[str, float]):
    """Total map from arguments to acceptability degrees in [0, 1].

    It keeps the degrees as a tuple in the order of its arguments, and
    builds the map from argument to degree on its first read.
    """

    __slots__ = ("_arguments", "_values", "_degrees")

    def __init__(self, degrees: Mapping[str, float]):
        cleaned = {a: _clipped(a, float(raw)) for a, raw in degrees.items()}
        self._degrees = dict(sorted(cleaned.items()))
        self._arguments = tuple(self._degrees)
        self._values = tuple(self._degrees.values())

    @classmethod
    def _solved(cls, arguments: tuple[str, ...], solved: np.ndarray) -> Weighting:
        """The weighting of a degree vector in the order of ``arguments``,
        already checked and clipped as the constructor does."""
        weighting = cls.__new__(cls)
        weighting._arguments = arguments
        weighting._values = tuple(solved.tolist())
        weighting._degrees = None
        return weighting

    @property
    def vector(self) -> tuple[float, ...]:
        """The degrees in the order of the framework's arguments."""
        return self._values

    @property
    def _by_argument(self) -> dict[str, float]:
        if self._degrees is None:
            self._degrees = dict(sorted(zip(self._arguments, self._values)))
        return self._degrees

    def __getitem__(self, argument: str) -> float:
        try:
            return self._by_argument[argument]
        except KeyError:
            raise UnknownArgumentError(argument) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_argument)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}: {d:.6f}" for a, d in self._by_argument.items())
        return f"Weighting({{{inner}}})"

    def as_dict(self) -> dict[str, float]:
        return dict(self._by_argument)


def counting_norm(af: ArgumentationFramework, config: CountingConfig) -> float | None:
    """The normalisation ``cs`` would use on this framework, None if attack-free."""
    return _norm_for(top_in_degree(af), config)


def top_in_degree(af: ArgumentationFramework) -> int:
    """The largest in-degree, read from the edge arrays."""
    graph = _attackers(af)
    return int(np.diff(graph.first, append=graph.m).max(initial=0))


def _norm_for(top: int, config: CountingConfig) -> float | None:
    if config.norm_override is not None:
        if config.norm_override < top:
            raise DivergentSeriesError(
                f"norm_override {config.norm_override:g} is below the largest"
                f" in-degree {top}"
            )
        return config.norm_override
    return float(top) if top > 0 else None


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class Systems:
    """The frameworks and (framework, mask) systems that degree and impact
    reads name, each numbered on first use, and what was solved of them,
    each kind of result end to end in a ``_Flat`` of its own key: the
    clipped degrees of each system per spec (``degrees``), and per
    framework what the module that owns the algorithm files in ``flat``,
    ``attribution`` its edge-order intensities and ``impact`` its
    resolvents.  It also keeps the Shapley plans ``attribution`` makes
    (``plans``) and each framework's ``cs`` normalisation (``norm_spec``).

    Every library call reads and fills the process table (``_library``),
    and an audit its own, so a system that recurs across windows, cells or
    principles is numbered once and solved once per semantics.
    ``cache_info`` counts the degree systems read without a solve as hits
    and those solved as misses."""

    def __init__(self) -> None:
        self.hits = self.misses = 0
        self.clear()

    def clear(self) -> None:
        """Drop every entry, keeping the counts."""
        self.frameworks: list[ArgumentationFramework] = []
        self.systems: list[tuple[int, int]] = []
        self._ids: dict = {}
        self._flats: dict = {}
        self._norms: dict = {}
        self.plans: dict = {}

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, LIBRARY_SIZE, len(self.systems))

    def cache_clear(self) -> None:
        """Drop every entry and reset the counts, as ``functools.lru_cache`` does."""
        self.hits = self.misses = 0
        self.clear()

    def framework(self, af: ArgumentationFramework) -> int:
        return self._number(af, self.frameworks)

    def system(self, fid: int, mask: int) -> int:
        return self._number((fid, mask), self.systems)

    def _number(self, key, numbered: list) -> int:
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = len(numbered)
            numbered.append(key)
        return found

    def norm_spec(self, fid: int, spec: SemanticsSpec) -> SemanticsSpec:
        """The spec that scores the systems of framework ``fid`` with its
        normalisation: under ``cs``, ``spec`` with that norm as override,
        one object per framework, as ``solve_systems`` groups a framework's
        systems by identity."""
        if spec.kind != "cs":
            return spec
        found = self._norms.get((fid, spec))
        if found is None:
            norm = counting_norm(self.frameworks[fid], spec.counting)
            counting = replace(spec.counting, norm_override=norm)
            found = spec if norm is None else replace(spec, counting=counting)
            self._norms[fid, spec] = found
        return found

    def degrees(
        self, spec: SemanticsSpec, sids: np.ndarray, own_norm: bool = False
    ) -> tuple[_Flat, np.ndarray]:
        """The degrees under ``spec`` and the offsets of ``sids`` in them,
        the missing systems solved in one stack, checked and clipped as
        ``degrees`` does.  Under ``cs`` a system is scored with its
        framework's normalisation (``norm_spec``), or with ``own_norm`` with
        its own, in a flat of its own."""
        own_norm = own_norm and spec.kind == "cs"
        solved = self.flat(("degrees", spec, own_norm), len(self.systems))
        missing = solved.missing(sids)
        if missing is None:
            self.hits += sids.size
            return solved, solved.offsets[sids]
        self.hits += sids.size - len(missing)
        batch, found = [], []
        for sid in missing:
            fid, mask = self.systems[sid]
            af = self.frameworks[fid]
            try:
                if not af.arguments:
                    raise ValueError("degrees need at least one argument")
                batch.append((af, spec if own_norm else self.norm_spec(fid, spec), mask))
                found.append(sid)
            except (GradimpactError, ValueError) as error:
                solved.fail(sid, error)
        self.misses += len(batch)
        solved.add(list(zip(found, solve_systems(batch))), self._checked)
        return solved, solved.offsets[sids]

    def _checked(self, sid: int, vector: np.ndarray) -> ValueError | None:
        """The error ``degrees`` raises for a solved entry outside [0, 1]."""
        arguments = self.frameworks[self.systems[sid][0]].arguments
        try:
            list(map(_clipped, arguments, vector.tolist()))
        except ValueError as error:
            return error
        return None

    def own_degrees(self, spec: SemanticsSpec, frameworks: Sequence) -> list:
        """Each framework's ``degrees`` vector under ``spec`` (its system
        of no mask), or the error ``degrees`` would raise."""
        sids = [self.system(self.framework(af), 0) for af in frameworks]
        solved, starts = self.degrees(spec, np.array(sids, dtype=np.intp))
        starts = starts.tolist()
        return [
            solved.failures[sid] if at < 0 else solved.values[at : at + len(af)]
            for sid, at, af in zip(sids, starts, frameworks)
        ]

    def flat(self, key, size: int) -> _Flat:
        """The flat of ``key``, grown to ``size`` entries; a key of None
        gets a flat of its own, kept nowhere."""
        flat = self._flats.get(key)
        if flat is None:
            flat = _Flat()
            if key is not None:
                self._flats[key] = flat
        flat.grow(size)
        return flat


class _Flat:
    """Vectors end to end in one array: entry i's from ``offsets[i]`` on,
    -1 while missing and -2 once it failed, its failure in ``failures``.
    ``used`` values are filled, and the failures that are not errors hold
    ``held`` more, ``size`` each."""

    def __init__(self) -> None:
        self.offsets = np.zeros(0, dtype=np.intp)
        self.values = np.zeros(0)
        self.used = self.held = 0
        self.failures: dict[int, object] = {}

    def grow(self, size: int) -> None:
        if size > len(self.offsets):
            grown = np.full(max(size, 2 * len(self.offsets)), -1, dtype=np.intp)
            grown[: len(self.offsets)] = self.offsets
            self.offsets = grown

    def missing(self, ids: np.ndarray) -> list[int] | None:
        """The entries of ``ids`` still missing, each once, or None."""
        missing = self.offsets[ids] == -1
        if not np.count_nonzero(missing):
            return None
        return list(dict.fromkeys(ids[missing].tolist()))

    def fail(self, i: int, failure) -> None:
        self.offsets[i] = -2
        self.failures[i] = failure
        if not isinstance(failure, Exception):
            self.held += failure.size

    def forget_errors(self) -> None:
        """Mark each entry that failed with an error missing again."""
        errors = [i for i, f in self.failures.items() if isinstance(f, Exception)]
        self.offsets[errors] = -1
        for i in errors:
            del self.failures[i]

    def add(self, found: list, check=None) -> None:
        """File each ``(i, vector)``, or its failure if not an array.  With
        ``check``, a vector it finds an error in fails with that error, and
        the rest are clipped into [0, 1]."""
        kept = []
        for i, vector in found:
            if isinstance(vector, np.ndarray):
                kept.append((i, vector))
            else:
                self.fail(i, vector)
        joined = np.concatenate([vector for _, vector in kept] or [self.values[:0]])
        if check is not None:
            low, high = joined.min(initial=0.0), joined.max(initial=1.0)
            if not (low >= -1e-9 and high <= 1.0 + 1e-9):
                found = [(i, check(i, vector) or vector) for i, vector in kept]
                return self.add(found, check)
            if low < 0.0 or high > 1.0:
                np.clip(joined, 0.0, 1.0, out=joined)
        end = self.used + len(joined)
        if end > len(self.values):
            grown = np.empty(max(end, 2 * len(self.values)))
            grown[: self.used] = self.values[: self.used]
            self.values = grown
        self.values[self.used : end] = joined
        for i, vector in kept:
            self.offsets[i] = self.used
            self.used += len(vector)


# The process table is cleared once it numbers more frameworks and systems
# than this, or holds more solved values (32 MB).
LIBRARY_SIZE, LIBRARY_CELLS = 1 << 15, 1 << 22
_library = Systems()
# perfbench's tracer counts degree solves as misses of this, the old store's name.
_cached_degrees = _library


@contextmanager
def library_table() -> Iterator[Systems]:
    """The process table for one library call: cleared in place first if
    past its bound, and left without the call's errors or Shapley plans,
    so a failing call is solved afresh each time."""
    table = _library
    held = sum(flat.used + flat.held for flat in table._flats.values())
    if len(table._ids) > LIBRARY_SIZE or held > LIBRARY_CELLS:
        table.clear()
    try:
        yield table
    finally:
        for flat in table._flats.values():
            if flat.failures:
                flat.forget_errors()
        table.plans.clear()


def degrees(
    af: ArgumentationFramework, spec: SemanticsSpec, mask: int = 0
) -> Weighting:
    """Acceptability degree of every argument under the chosen semantics.

    A nonzero ``mask`` scores a framework derived from ``af``: bit ``e``
    drops the ``e``-th attack in ``attack_bits`` order.  The result equals,
    bit for bit, the degrees of ``af.delete_attacks`` of those attacks,
    scored under ``cs`` with the derived framework's own normalisation.  On
    frameworks of up to 1,023 arguments ``cs`` solves a linear system, and
    ``tolerance`` and ``max_iterations`` play no part; larger ones are swept,
    within ``tolerance`` of the exact degrees, and can raise
    ``NonConvergenceError``.

    The degrees are read from the process table, which keeps each solved
    vector checked and clipped into [0, 1]; a system it lacks is solved
    alone and filed there, and a failure stays out of it.  Each read builds
    a ``Weighting``, whose map from argument to degree is built on its
    first read by name; its ``vector`` reads the degrees without it.
    """
    if not af.arguments:
        raise ValueError("degrees need at least one argument")
    if mask < 0 or mask >> len(af.attacks):
        raise ValueError(f"mask {mask:#x} names attacks the framework lacks")
    with library_table() as table:
        sid = table.system(table.framework(af), mask)
        solved, (at,) = table.degrees(spec, np.array([sid]), own_norm=mask != 0)
        if at < 0:
            raise solved.failures[sid]
        return Weighting._solved(af.arguments, solved.values[at : at + len(af.arguments)])


System = tuple[ArgumentationFramework, SemanticsSpec, int]


# A framework's coalition systems ``(af, masks, counts, targets)``: the
# system of ``masks[s]`` is read at the next ``counts[s]`` of ``targets``.
Grouped = tuple[ArgumentationFramework, list[int], np.ndarray, np.ndarray]


def grouped_rows(
    af: ArgumentationFramework, rows: Sequence[tuple[int, int]]
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """``(t, coalition)`` rows grouped by mask in the order of first use:
    each mask, its count of rows, their targets mask by mask, and the row
    of each of them.  A coalition with a bit at or past its target's
    in-degree raises ``ValueError``."""
    first = _attackers(af).first.tolist() + [len(af.attacks)]
    by_mask: dict[int, list[int]] = {}
    for r, (t, coalition) in enumerate(rows):
        if coalition >> (first[t + 1] - first[t]):
            raise ValueError(
                f"row {(t, coalition)} names attacks beyond the"
                f" {first[t + 1] - first[t]} on argument {t}"
            )
        by_mask.setdefault(coalition << first[t], []).append(r)
    order = np.fromiter(chain.from_iterable(by_mask.values()), np.intp, len(rows))
    counts = np.fromiter(map(len, by_mask.values()), np.intp, len(by_mask))
    targets = np.fromiter((t for t, _ in rows), np.intp, len(rows))[order]
    return list(by_mask), counts, targets, order


def solve_coalitions(
    spec: SemanticsSpec, jobs: Sequence[Grouped]
) -> list[np.ndarray | GradimpactError]:
    """Each ``Grouped`` job's reads under ``spec``, mask after mask, or the
    error of its first failing mask.  A nonzero mask drops attacks on one
    argument, a coalition of them, and is read there.

    Under ``hbs``, ``car``, ``max`` and swept ``cs``, each value equals, bit
    for bit, that mask's ``degrees`` of its target, clipped into [0, 1] as
    ``Weighting`` clips a solver's overshoot: every job's masks share one
    ``solve_systems`` stack, each chunk of which hands on only the entries
    read.  Dense ``cs`` jobs take rank-one updates of one solve per
    framework and norm (``_rank_one_rows``): each value is within 1e-14 of
    a dense solve of the derived framework, not equal to it bit for bit.
    """
    results: list = [None] * len(jobs)
    swept, dense = [], []
    for j, (af, _, _, targets) in enumerate(jobs):
        (dense if len(targets) and _dense(spec, len(af.arguments)) else swept).append(j)
    if swept:
        systems = [(jobs[j][0], spec, mask) for j in swept for mask in jobs[j][1]]
        counts = np.concatenate([jobs[j][2] for j in swept])
        targets = np.concatenate([jobs[j][3] for j in swept])
        solved, failed = solve_systems(systems, (counts, targets))
        solved = np.clip(solved, 0.0, 1.0)
        reads = np.cumsum([0] + [len(jobs[j][3]) for j in swept])
        for n, j in enumerate(swept):
            results[j] = solved[reads[n] : reads[n + 1]]
        # Each job ends with the failure of its first failing mask.
        ends = np.cumsum([len(jobs[j][1]) for j in swept])
        for i in sorted(failed, reverse=True):
            results[swept[int(np.searchsorted(ends, i, "right"))]] = failed[i]
    rows = []
    for af, masks, counts, targets in (jobs[j] for j in dense):
        # Each read's coalition, over its target's sorted attackers.
        shifts = _attackers(af).first[targets].tolist()
        masks = chain.from_iterable(map(repeat, masks, counts.tolist()))
        coalitions = [mask >> shift for mask, shift in zip(masks, shifts)]
        rows.append((af, targets, coalitions))
    for j, result in zip(dense, _rank_one_rows(spec, rows) if rows else ()):
        results[j] = result
    return results


def solve_systems(
    systems: Sequence[System], reads: tuple[np.ndarray, np.ndarray] | None = None
) -> list[np.ndarray | GradimpactError] | tuple[np.ndarray, dict[int, GradimpactError]]:
    """The degree vector of each ``(af, spec, mask)`` system, in the order of
    ``af.arguments``, or the error ``degrees(af, spec, mask)`` would raise.

    Systems of one spec share one Picard stack, and dense ``cs`` systems of
    one spec and size one batch of linear systems; each stack is cut into chunks
    of at most ``COALITION_CELLS`` working cells.  A system's result does not
    depend on what else is solved with it.  Each result is a view of its
    chunk.  With ``reads``, a pair ``(counts, targets)`` of integer arrays,
    system i is read only at the next ``counts[i]`` of ``targets``: the
    result is then one flat array of every read, system after system,
    gathered out of each chunk in one copy, and the error of each failing
    system by its index.
    """
    if reads is not None:
        counts, targets = reads
        starts = np.cumsum(counts) - counts
        flat = np.zeros(len(targets))
        failed: dict[int, GradimpactError] = {}
    results: list = [None] * len(systems)
    frameworks: dict[tuple[int, int], list[int]] = {}
    for i, (af, spec, _) in enumerate(systems):
        # By identity: hashing a framework walks all its attacks.
        frameworks.setdefault((id(af), id(spec)), []).append(i)
    stacks: dict[tuple, list] = {}
    for members in frameworks.values():
        af, spec, _ = systems[members[0]]
        graph = _attackers(af)
        # Per system, a dense cs solve keeps its matrix and right-hand side,
        # and a sweep (cs on larger frameworks too) n cells each of state,
        # totals, sweep, change, attacker counts and solution; both keep m
        # each of heads, sources, and gathered degrees or matrix indices, and
        # cut them from a copy of the padded edges (8 bytes, as a float).
        n, dense = graph.n, _dense(spec, graph.n)
        cells = (n * (n + 1) if dense else 6 * n) + 4 * graph.m
        stacks.setdefault((spec, n if dense else 0), []).append((graph, cells, members))
    for (spec, dense_n), parts in stacks.items():
        solve = _counting_rows if dense_n else _picard_rows
        for chunk in _chunks(parts):
            graphs = [graph for graph, _ in chunk]
            ids = [i for _, i in chunk]
            values, blocks, errors = solve(spec, graphs, [systems[i][2] for i in ids])
            if reads is None:
                for b, (start, graph, i) in enumerate(zip(blocks.tolist(), graphs, ids)):
                    results[i] = errors.get(b, values[start : start + graph.n])
                continue
            ids = np.array(ids, dtype=np.intp)
            n = counts[ids]
            # Where the chunk's reads go, system by system.
            at = np.arange(n.sum()) + np.repeat(starts[ids] - (np.cumsum(n) - n), n)
            flat[at] = values[np.repeat(blocks, n) + targets[at]]
            failed.update((int(ids[b]), error) for b, error in errors.items())
    return results if reads is None else (flat, failed)


def _chunks(parts: list) -> Iterator[list[tuple[_Attackers, int]]]:
    """The (graph, system) pairs of a stack, in chunks of at most
    ``COALITION_CELLS`` working cells (at least one system each)."""
    chunk: list[tuple[_Attackers, int]] = []
    cells = 0
    for graph, size, members in parts:
        for i in members:
            if chunk and cells + size > COALITION_CELLS:
                yield chunk
                chunk, cells = [], 0
            chunk.append((graph, i))
            cells += size
    if chunk:
        yield chunk


@lru_cache(maxsize=4096)
def attack_bits(af: ArgumentationFramework) -> Mapping[Attack, int]:
    """The bit of each attack in the mask of a framework derived from ``af``.

    Attacks are numbered in (target, source) order, so the attacks on one
    argument hold consecutive bits, in the order of its sorted attackers:
    bit e is edge e of ``_attackers``, which solves read without this map.
    """
    attacks, order = af.attacks, _attackers(af).order.tolist()
    return MappingProxyType({attacks[e]: bit for bit, e in enumerate(order)})


def attack_masks(
    af: ArgumentationFramework, arguments: Iterable[str]
) -> tuple[int, int]:
    """The masks, numbered as in ``attack_bits``, of the attacks on
    ``arguments`` and of the attacks they make."""
    bits = attack_bits(af)
    into = out = 0
    for a in arguments:
        attackers = af.attackers(a)
        if attackers:
            # The attacks on one argument hold consecutive bits.
            into |= ((1 << len(attackers)) - 1) << bits[(attackers[0], a)]
        for t in af.attacked_by(a):
            out |= 1 << bits[(a, t)]
    return into, out


class _Attackers(NamedTuple):
    """The n arguments and m attacks of a framework, in O(n + m) memory.

    Edge ``e``, the attack of bit ``e`` in ``attack_bits`` and
    ``af.attacks[order[e]]``, runs from ``sources[e]`` to ``heads[e]``, so
    the edges run over the targets in order, and over each target's sorted
    attackers, from edge ``first[t]`` of argument t on.  Both edge arrays
    are padded with unused edges to a whole number of bytes of mask.
    """

    n: int
    m: int
    heads: np.ndarray
    sources: np.ndarray
    first: np.ndarray
    order: np.ndarray


@lru_cache(maxsize=4096)
def _attackers(af: ArgumentationFramework) -> _Attackers:
    index, pairs = af.positions, af.attacks
    n, m = len(index), len(pairs)
    ends = np.array([[index[s] for s, _ in pairs], [index[t] for _, t in pairs]], np.intp)
    # ``af.attacks`` is sorted by source, then target, so a stable sort by
    # target puts them in (target, source) order.
    order = ends[1].argsort(kind="stable")
    edges = np.zeros((2, 8 * ((m + 7) // 8)), dtype=np.intp)
    edges[:, :m] = ends[:, order]
    sources, heads = edges
    first = np.searchsorted(heads[:m], np.arange(n))
    return _Attackers(n, m, heads, sources, first, order)


def _blocks(
    graphs: Sequence[_Attackers], masks: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One flat layout of a stack of (graph, mask) blocks.

    Block b holds ``sizes[b]`` arguments from ``starts[b]`` on; an edge kept
    by its block's mask runs from ``sources`` to ``heads`` in the flat
    numbering.  The kept edges stay in block order, and in edge order within
    a block, so every argument's attackers stay sorted.
    """
    sizes = np.fromiter((graph.n for graph in graphs), dtype=np.intp, count=len(graphs))
    starts = np.cumsum(sizes) - sizes
    if any(masks):
        # A block keeps the edges its mask leaves, and none of its padding.
        keeps = [(1 << graph.m) - 1 ^ mask for graph, mask in zip(graphs, masks)]
        packed = b"".join(
            keep.to_bytes(len(graph.heads) // 8, "little")
            for keep, graph in zip(keeps, graphs)
        )
        kept = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
        kept = kept.view(bool)
        counts = [keep.bit_count() for keep in keeps]
        heads = np.concatenate([graph.heads for graph in graphs])[kept]
        sources = np.concatenate([graph.sources for graph in graphs])[kept]
    else:
        # Every block keeps all of its graph's edges.
        counts = [graph.m for graph in graphs]
        heads = np.concatenate([graph.heads[: graph.m] for graph in graphs])
        sources = np.concatenate([graph.sources[: graph.m] for graph in graphs])
    shift = np.repeat(starts, counts)
    heads += shift
    sources += shift
    return sizes, starts, heads, sources


def _dense(spec: SemanticsSpec, n: int) -> bool:
    """Whether ``cs`` solves n x n systems: only while one fits a chunk."""
    return spec.kind == "cs" and n * (n + 1) <= COALITION_CELLS


def _counting_scales(
    spec: SemanticsSpec, count: np.ndarray, starts: np.ndarray, errors: dict
) -> np.ndarray:
    """Each block's ``damping / N``, 0.0 without a norm.

    A block whose norm is refused gets its error in ``errors``.
    """
    scale = np.zeros(len(starts))
    for b, top in enumerate(np.maximum.reduceat(count, starts).tolist()):
        try:
            norm = _norm_for(top, spec.counting)
        except DivergentSeriesError as error:
            errors[b] = error
            continue
        if norm is not None:
            scale[b] = spec.counting.damping / norm
    return scale


def _update(kind: str, total: np.ndarray, fixed: tuple) -> np.ndarray:
    """The scoring rule, from each argument's folded attacker degrees.

    ``total`` is the sum of the attacker degrees (their max for ``max``),
    and ``fixed`` what the rule reads that stays fixed over the sweeps:
    each argument's ``damping / N`` for ``cs``; for ``car``, 1 + k and the
    divisor max(k, 1) of an argument of k attackers.
    """
    if kind == "cs":
        (scale,) = fixed
        return 1.0 - scale * total
    if kind == "car":
        # An unattacked argument has total 0.0, so dividing by 1 keeps it at 1.
        base, divisor = fixed
        return 1.0 / (base + total / divisor)
    return 1.0 / (1.0 + total)


def _picard_rows(
    spec: SemanticsSpec, graphs: Sequence[_Attackers], masks: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, dict[int, GradimpactError]]:
    """Sweep a stack of blocks until each block's step is at most the
    tolerance, which bounds the error of each of its degrees.

    Returns the flat degrees, each block's start in them, and the error of
    each block that failed.
    """
    sizes, starts, heads, sources = _blocks(graphs, masks)
    width = int(sizes.sum())
    count = np.bincount(heads, minlength=width)
    errors: dict[int, GradimpactError] = {}
    fixed: tuple = ()
    if spec.kind == "cs":
        # An attack-free block, or one whose norm was refused, has scale 0
        # and stops at once.
        fixed = (np.repeat(_counting_scales(spec, count, starts, errors), sizes),)
    elif spec.kind == "car":
        fixed = (1.0 + count, np.maximum(count, 1))
    fold = np.maximum if spec.kind == "max" else np.add
    state = np.ones(width)
    # A block that never settles reads 0.0.
    values = np.zeros(width)
    # A solved block keeps sweeping, but its bar drops below any residual,
    # so only its first solution counts.
    bar = np.full(len(starts), spec.tolerance)
    for _ in range(spec.max_iterations):
        # ``ufunc.at`` applies its indices in order, so every total is the
        # left-to-right sum (or max) of the sorted attackers, from 0.0.
        total = np.zeros(width)
        fold.at(total, heads, state[sources])
        swept = _update(spec.kind, total, fixed)
        residual = np.maximum.reduceat(np.abs(swept - state), starts)
        solved = residual <= bar
        if solved.any():
            np.copyto(values, swept, where=np.repeat(solved, sizes))
            bar[solved] = -1.0
            if bar.max() < 0.0:
                return values, starts, errors
        state = swept
    for b in np.flatnonzero(bar >= 0.0).tolist():
        errors[b] = NonConvergenceError(spec.max_iterations, float(residual[b]))
    return values, starts, errors


def _counting_rows(
    spec: SemanticsSpec, graphs: Sequence[_Attackers], masks: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, dict[int, GradimpactError]]:
    """Solve one dense system per block, all of one size, as ``_picard_rows``
    returns its blocks."""
    sizes, starts, heads, sources = _blocks(graphs, masks)
    n, rows = graphs[0].n, len(graphs)
    errors: dict[int, GradimpactError] = {}
    scale = _counting_scales(spec, np.bincount(heads, minlength=n * rows), starts, errors)
    if not scale.any():
        # Attack-free frameworks score 1 everywhere: there is nothing to solve.
        return np.ones(n * rows), starts, errors
    systems = _dense_systems(n, heads, sources, scale)
    solved = np.linalg.solve(systems, np.ones((rows, n, 1)))[:, :, 0]
    solved[scale == 0.0] = 1.0
    return solved.reshape(-1), starts, errors


def _dense_systems(
    n: int, heads: np.ndarray, sources: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Each block's I + scale * M, for blocks of n arguments laid out by
    ``_blocks``, assembled in place in one array; ``heads`` and ``sources``
    are used up."""
    systems = np.zeros((len(scale), n, n))
    # Both ends of a block's edge count from b * n, so its entry (b, h, s)
    # lies at h * n + s % n of the flat systems.
    values = scale[heads // n]
    np.remainder(sources, n, out=sources)
    heads *= n
    heads += sources
    systems.reshape(-1)[heads] = values
    diagonal = np.arange(n)
    systems[:, diagonal, diagonal] += 1.0
    return systems


def _rank_one_rows(
    spec: SemanticsSpec,
    jobs: Sequence[tuple[ArgumentationFramework, np.ndarray, Sequence[int]]],
) -> list[np.ndarray | GradimpactError]:
    """The dense ``cs`` coalition rows of ``(af, targets, coalitions)``
    jobs that share ``spec``, each job with at least one row: row r scores
    ``targets[r]`` with ``coalitions[r]`` of its attacks dropped.

    Removing a coalition C of t's attacks changes only row t of B = I + s M,
    s = damping / N, so with v = B^-1 1 and w = B^-1 e_t, Sherman and
    Morrison give t's degree as v_t + w_t s (sum of v over C's sources) /
    (1 - s (sum of w over them)).  The norm N is the derived framework's, so
    it moves only when t alone holds the top in-degree and loses attacks;
    such a row starts instead from B with row t emptied at the lower norm,
    where its kept attacks are the update.  Every B is strictly diagonally
    dominant, like each derived system, so the denominators never vanish;
    each is factored once per (framework, norm) pair, the pairs of one size
    and kind in one batched solve (``_base_solutions``).  A row's value
    depends only on its own pair and coalition, whatever else is evaluated
    with it, and is clipped into [0, 1] as a swept row is.
    """
    results: list = [None] * len(jobs)
    graphs = [_attackers(af) for af, _, _ in jobs]
    sizes, starts, heads, sources = _blocks(graphs, [0] * len(graphs))
    counts = np.bincount(heads, minlength=int(sizes.sum()))
    first = np.cumsum(counts) - counts
    tops = np.maximum.reduceat(counts, starts)
    holders = counts == np.repeat(tops, sizes)
    alone = (np.add.reduceat(holders, starts, dtype=np.intp) == 1) & (tops > 0)
    # The argument that alone holds its framework's top in-degree, if any.
    hub = holders & np.repeat(alone, sizes)
    second = np.maximum.reduceat(np.where(hub, 0, counts), starts)
    hub_of = np.zeros(len(jobs), dtype=np.intp)
    hub_at = np.flatnonzero(hub)
    hub_of[np.repeat(np.arange(len(jobs)), sizes)[hub_at]] = hub_at

    # Each row's coalition, as bits over its target's attackers in edge order.
    lengths = [len(targets) for _, targets, _ in jobs]
    rows = sum(lengths)
    job = np.repeat(np.arange(len(jobs)), lengths)
    target = starts[job] + np.concatenate([targets for _, targets, _ in jobs])
    indegree = counts[target]
    width = int(indegree.max())
    coalitions = chain.from_iterable(coalitions for _, _, coalitions in jobs)
    packed = b"".join(c.to_bytes((width + 7) // 8, "little") for c in coalitions)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    bits = bits.reshape(rows, -1 if width else 0)[:, :width]
    top = tops[job]
    derived = np.where(
        hub[target], np.maximum(top - bits.sum(axis=1, dtype=np.intp), second[job]), top
    )

    override = spec.counting.norm_override
    solve = derived > 0
    if override is not None:
        refused = np.flatnonzero(derived > override)
        firsts = refused[np.diff(job[refused], prepend=-1) != 0]
        failed = np.zeros(len(jobs), dtype=bool)
        failed[job[firsts]] = True
        solve &= ~failed[job]
        for r in firsts.tolist():
            try:
                _norm_for(int(derived[r]), spec.counting)
            except DivergentSeriesError as error:
                results[job[r]] = error
    # One base system per (framework, norm) pair the rows need: the
    # framework's own norm, or a lower one with the hub's row emptied.
    norm = top if override is not None else derived
    stride = int(tops.max()) + 1
    code = job * stride + norm
    present = np.zeros(len(jobs) * stride, dtype=bool)
    present[code[solve]] = True
    base_job, base_norm = np.divmod(np.flatnonzero(present), stride)
    emptied = base_norm < tops[base_job]
    scale = spec.counting.damping / (
        np.full(len(base_job), override) if override is not None else base_norm
    )
    # An emptied base drops its hub's attacks, which hold consecutive bits.
    hubs = hub_of[base_job]
    hub_bits = (first[hubs] - first[starts[base_job]]).tolist()
    masks = [
        ((1 << k) - 1) << bit if empty else 0
        for k, bit, empty in zip(counts[hubs].tolist(), hub_bits, emptied.tolist())
    ]
    offsets, columns, flat = _base_solutions(
        [graphs[j] for j in base_job.tolist()],
        masks,
        np.where(emptied, hubs - starts[base_job], -1),
        scale,
    )

    picked = np.flatnonzero(solve)
    base = (np.cumsum(present) - 1)[code[picked]]
    t = target[picked] - starts[job[picked]]
    count, edge, lowered = indegree[picked], first[target[picked]], emptied[base]
    start, offset, c, s = starts[job[picked]], offsets[base], columns[base], scale[base]
    # Column t of B^-1 in a full base's solution, column 1 in an emptied one.
    column = np.where(lowered, 1, t + 1)
    at = offset + t * c
    v_t, w_t = flat[at], flat[at + column]
    sum_v, sum_w = np.zeros(len(picked)), np.zeros(len(picked))
    bits = bits[picked]
    for j in range(width):
        valid = j < count
        source = sources[np.minimum(edge + j, len(sources) - 1)] - start
        at = offset + np.where(valid, source, t) * c
        # +1 for each removed attack; in an emptied base, -1 for each kept one.
        weight = bits[:, j] - (lowered & valid).astype(float)
        sum_v += weight * flat[at]
        sum_w += weight * flat[at + column]
    values = np.ones(rows)
    values[picked] = v_t + w_t * (s * sum_v) / (1.0 - s * sum_w)
    values = np.clip(values, 0.0, 1.0)
    bounds = list(accumulate(lengths))
    return [
        values[lo:hi] if result is None else result
        for result, lo, hi in zip(results, [0] + bounds, bounds)
    ]


def _base_solutions(
    graphs: Sequence[_Attackers],
    masks: Sequence[int],
    hubs: np.ndarray,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve each base system B = I + scale * M of ``_rank_one_rows``, the
    matrix of a graph with its mask's attacks dropped.

    A full base (hub -1) solves B [v | W] = [1 | I], so W = B^-1; an emptied
    one, whose mask drops every attack on its hub, solves [1 | e_hub].
    Bases of one size and kind share one batched solve, cut into batches of
    at most ``COALITION_CELLS`` working cells.  Returns each base's offset
    in the flat solutions, its column count, and the flat solutions, row by
    row.
    """
    groups: dict[tuple[int, bool], list[int]] = {}
    for b, (graph, hub) in enumerate(zip(graphs, hubs.tolist())):
        groups.setdefault((graph.n, hub >= 0), []).append(b)
    offsets = np.zeros(len(graphs), dtype=np.intp)
    columns = np.zeros(len(graphs), dtype=np.intp)
    parts, done = [], 0
    for (n, emptied), members in groups.items():
        c = 2 if emptied else n + 1
        step = max(1, COALITION_CELLS // (n * (n + 2 * c)))
        for lo in range(0, len(members), step):
            chunk = members[lo : lo + step]
            ids, size = np.array(chunk, dtype=np.intp), len(chunk)
            _, _, heads, sources = _blocks([graphs[b] for b in chunk], [masks[b] for b in chunk])
            systems = _dense_systems(n, heads, sources, scale[ids])
            rhs = np.zeros((size, n, c))
            rhs[:, :, 0] = 1.0
            if emptied:
                rhs[np.arange(size), hubs[ids], 1] = 1.0
            else:
                diagonal = np.arange(n)
                rhs[:, diagonal, diagonal + 1] = 1.0
            parts.append(np.linalg.solve(systems, rhs).reshape(-1))
            offsets[ids] = done + np.arange(size) * (n * c)
            columns[ids] = c
            done += size * n * c
    return offsets, columns, np.concatenate(parts) if parts else np.zeros(0)


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
    from .verdicts import falsify
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
    from .verdicts import probe
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
    from .verdicts import falsify
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
    from .verdicts import probe
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
    from .verdicts import exceeds, falsify
    return falsify(
        "attack-removal-monotonicity",
        spec.kind,
        CHECK_TOLERANCE,
        _removal_trials(spec, corpus),
        relation=exceeds,
    )


def _removal_trials(spec, corpus):
    from .verdicts import trial
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
