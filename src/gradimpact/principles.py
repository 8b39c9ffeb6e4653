"""Falsification audits for nine principles of impact measures.

Each principle states an equality or an existence claim about impact values.
The checkers search a corpus of frameworks for counterexamples: they derive
the instances a principle quantifies over (renamings, disjoint unions, attack
additions, automorphic argument pairs, subject sets), evaluate both sides,
and stop at the first gap beyond tolerance.  A verdict records the outcome,
the number of instances tried and, on failure, a replayable witness.

The principles:

* anonymity: impact is invariant under renaming the arguments
* independence: impact is unchanged by joining an unrelated framework
* balanced: set impact decomposes as the sum over a member split
* void: the empty set has zero impact
* directionality: impact is unchanged by attack additions that cannot
  reach the evaluated argument
* minimisation: subject members with no path to the evaluated argument
  can be dropped
* zero: a single argument with no path to the evaluated argument has
  zero impact
* symmetry: automorphic arguments receive mirrored impacts
* existence: every argument scored below one has some set with nonzero
  impact

A membership test, renaming instance or path premise treats each argument
as trivially reaching itself, so reflexive corner cases are excluded where
the statements would otherwise contradict the expected satisfaction pattern.

The instances of every principle but existence depend only on the corpus and
the seed, and name impacts without a measure or semantics.  An audit draws
each such principle's trials once, lazily, and its eight measure ×
semantics cells read them in search order.  Existence reads a cell's
degrees to pick its premises and its measure to pick its candidate sets, so
each cell draws its own, and a premise's probe is drawn once per measure.

A cell evaluates its trials a window at a time, as integer arrays.  Each
impact is planned once per principle and measure as a row of integers
(``impact.Rows``): a deletion impact's target and two system ids, or an
``si`` impact's framework id and member entries.  The audit numbers every
(framework, mask) system, and every framework, in one table
(``semantics.Systems``), so a system that recurs across windows, cells or
principles is solved once per semantics, into that semantics' flat array of
clipped degrees.  A window's plan is made by the first cell that reads its
probes and reused by the others; the cell then gathers both sides of every
probe from the flat arrays and compares them at once (``falsify``).  A
standalone ``check_principle`` draws, plans and numbers its own.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from itertools import combinations
from operator import is_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .automorphisms import DEFAULT_CAP, find_automorphisms
from .errors import IncompleteMatrixError, UnsupportedInstanceError
from .fixtures import chain_pair, disjoint_pair, fixture_frameworks, showcase_af
from .framework import ArgumentationFramework, Attack
from .generate import GeneratorConfig, random_af
from .impact import ImpactQuery, Rows, evaluate_rows, plan_row, stack_rows
from .semantics import CHECK_TOLERANCE, KINDS, MEASURES, SemanticsSpec, Systems
from .verdicts import (
    COUNTEREXAMPLE,
    NO_COUNTEREXAMPLE,
    PrincipleVerdict,
    Relation,
    _drawn,
    differs,
    falsify,
    trial,
)

PRINCIPLES = (
    "anonymity",
    "independence",
    "balanced",
    "void",
    "directionality",
    "minimisation",
    "zero",
    "symmetry",
    "existence",
)

RESTRICTED_SCOPE = "max-indegree>=2"
# Search budgets: the targets, draws or argument pairs a check tries per
# framework, and the framework size up to which every subject is enumerated.
QUERIES = 3
SUBSET_CAP = 3

@dataclass(frozen=True)
class AuditConfig:
    """Corpus schedule and evaluation parameters for a full audit."""

    graph_count: int = 500
    size_range: tuple[int, int] = (2, 7)
    probability_range: tuple[float, float] = (0.3, 0.3)
    seed: int = 42
    tolerance: float = CHECK_TOLERANCE
    measures: tuple[str, ...] = ("dv", "si")
    semantics: tuple[str, ...] = KINDS
    include_fixtures: bool = True

    def __post_init__(self) -> None:
        if self.graph_count < 0:
            raise ValueError("graph_count must be non-negative")
        lo, hi = self.size_range
        if not 1 <= lo <= hi:
            raise ValueError("size_range must satisfy 1 <= low <= high")
        plo, phi = self.probability_range
        if not 0.0 <= plo <= phi <= 1.0:
            raise ValueError("probability_range must satisfy 0 <= low <= high <= 1")
        _check_tolerance(self.tolerance)
        for label, names, known in (
            ("measure", self.measures, MEASURES),
            ("semantics", self.semantics, KINDS),
        ):
            for i, name in enumerate(names):
                if name not in known:
                    raise ValueError(f"unknown {label} {name!r}")
                # A repeated name would run and report its cells twice.
                if name in names[:i]:
                    raise ValueError(f"{label} {name!r} is listed twice")


def _check_tolerance(tolerance: float) -> None:
    # A NaN gap compares false against any bound, so every cell would pass.
    if not 0.0 <= tolerance < math.inf:
        raise ValueError("tolerance must be finite and non-negative")


def corpus_frameworks(config: AuditConfig) -> tuple[ArgumentationFramework, ...]:
    """The seeded random graphs an audit draws, without the fixtures."""
    rng = random.Random(f"corpus:{config.seed}")
    lo, hi = config.size_range
    plo, phi = config.probability_range
    out = []
    for i in range(config.graph_count):
        count = rng.randint(lo, hi)
        probability = plo if plo == phi else rng.uniform(plo, phi)
        out.append(
            random_af(
                GeneratorConfig(
                    argument_count=count,
                    attack_probability=probability,
                    allow_self_attacks=(i % 4 == 0),
                    seed=rng.randrange(2**32),
                )
            )
        )
    return tuple(out)


def fixture_entries(principle: str) -> tuple[ArgumentationFramework | tuple, ...]:
    """Bundled corpus entries for one principle, shaped instances included."""
    base = fixture_frameworks()
    if principle == "independence":
        return (disjoint_pair(),) + base
    if principle == "directionality":
        return (chain_pair(),) + base
    if principle == "balanced":
        return ((showcase_af(), ("a8",), "a10", "a4"),) + base
    return base


# -- evaluation context --------------------------------------------------


class _Combined(NamedTuple):
    """A comparison side computed from several impacts, which ``combine``
    reads lazily, in order, from an iterator of their values.  It always
    reads the first ``ahead``, which are solved ahead; a later one is solved
    only if it is read."""

    queries: tuple[ImpactQuery, ...]
    combine: Callable[[Iterator[float]], float]
    ahead: int


class _Window(NamedTuple):
    """A window's probes as one batch of rows.  Side 2k is probe k's lhs
    and 2k + 1 its rhs: the constant sides are filled in ``base``, the
    impact side at ``at[i]`` reads row ``row[i]``, and each combined side
    is ``(position, side, row of its first impact evaluated ahead)``."""

    rows: Rows
    base: np.ndarray
    at: np.ndarray
    row: np.ndarray
    combined: list[tuple[int, _Combined, int]]


@dataclass(frozen=True)
class _Context:
    """What one cell evaluates its trials' impacts under: its measure and
    semantics, and shared with the principle's other cells under the
    measure, the rows of its impact queries, its windows planned as rows,
    by number, with the probes each was planned from, the existence probes
    drawn so far, and the table the rows are numbered in."""

    measure: str
    spec: SemanticsSpec
    tolerance: float
    plans: dict
    windows: list = field(default_factory=list)
    probes: dict = field(default_factory=dict)
    table: Systems = field(default_factory=Systems)

    def resolve(self, probes: list, number: int):
        """The lhs and rhs of a window's probes, from one batch of rows, and
        the error of each probe whose evaluation failed, its lhs first.  A
        window is planned by the first cell that reads these very probes."""
        windows = self.windows
        planned = windows[number] if number < len(windows) else ((), None)
        if len(planned[0]) == len(probes) and all(map(is_, planned[0], probes)):
            window = planned[1]
        else:
            window = self._plan(probes)
            windows[number:] = [(probes, window)]
        values, failed, _ = self._evaluated(window.rows)
        sides = window.base.copy()
        sides[window.at] = values[window.row]
        errors = {}
        if failed:
            at = zip(window.at.tolist(), window.row.tolist())
            errors = {position: failed[row] for position, row in at if row in failed}
        for position, side, first in window.combined:
            try:
                sides[position] = side.combine(self._read(side, values, failed, first))
            except Exception as error:  # raised where the search meets it
                errors[position] = error
        # A probe's lhs error, if any, comes before its rhs error.
        by_probe = {at // 2: errors[at] for at in sorted(errors, reverse=True)}
        return sides[0::2], sides[1::2], by_probe

    def _evaluated(self, rows):
        return evaluate_rows(self.table, self.measure, self.spec, rows)

    def _row(self, query: ImpactQuery):
        row = self.plans.get(query)
        if row is None:
            row = self.plans[query] = plan_row(self.table, self.measure, query)
        return row

    def _plan(self, probes: list) -> _Window:
        rows, at, row, combined = [], [], [], []
        base = np.zeros(2 * len(probes))
        for position, side in enumerate(side for entry in probes for side in entry[:2]):
            if isinstance(side, ImpactQuery):
                at.append(position)
                row.append(len(rows))
                rows.append(self._row(side))
            elif isinstance(side, _Combined):
                combined.append((position, side, len(rows)))
                rows.extend(map(self._row, side.queries[: side.ahead]))
            else:
                base[position] = side
        at, row = np.array(at, np.intp), np.array(row, np.intp)
        return _Window(stack_rows(self.measure, rows), base, at, row, combined)

    def _read(self, side: _Combined, values, failed: dict, first: int):
        # A combined side's impacts, those past ``ahead`` evaluated when read.
        for j, query in enumerate(side.queries):
            row = first + j
            if j >= side.ahead:
                rows = stack_rows(self.measure, [self._row(query)])
                (values, failed, _), row = self._evaluated(rows), 0
            if row in failed:
                raise failed[row]
            yield values[row]


def _rng(seed: int, label: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{label}:{index}")


def _random_subset(
    rng: random.Random, args: Sequence[str], probability: float = 0.4
) -> tuple[str, ...]:
    return tuple(a for a in args if rng.random() < probability)


def _subject_candidates(
    af: ArgumentationFramework, target: str, rng: random.Random, cap: int
) -> list[tuple[str, ...]]:
    if len(af.arguments) <= cap:
        args = af.arguments
        return [
            c
            for size in range(len(args) + 1)
            for c in combinations(args, size)
        ]
    out: list[tuple[str, ...]] = []
    attackers = af.attackers(target)
    if attackers:
        out.append(attackers)
        out.append((attackers[0],))
    upstream = [u for u in af.attack_structure(target) if u != target]
    out.extend((u,) for u in upstream[:3])
    out.append(_random_subset(rng, af.arguments))
    seen: set[tuple[str, ...]] = set()
    unique = []
    for c in out:
        c = tuple(sorted(set(c)))
        if c not in seen:
            seen.add(c)
            unique.append(c)
    return unique


def _attacked_first(af: ArgumentationFramework) -> list[str]:
    return sorted(af.arguments, key=lambda a: (-af.in_degree(a), a))


# -- per-principle trial streams -----------------------------------------
#
# Each stream yields the trials of one principle in search order, one probe
# per trial, whose sides are impact queries that ``falsify`` resolves a
# window at a time, under the cell's measure and semantics, and then
# compares.  Every stream but existence's reads only the seed's rngs, so a
# cell's measure and semantics never change what it draws.  Shaped
# instances are the corpus entries besides plain frameworks that a
# principle accepts.


def _anonymity(seed, plain, shaped):
    for i, af in enumerate(plain):
        rng = _rng(seed, "anonymity", i)
        order = list(af.arguments)
        rng.shuffle(order)
        mapping = {original: f"m{j}" for j, original in enumerate(order)}
        renamed = af.rename(mapping)
        for _ in range(QUERIES):
            target = rng.choice(af.arguments)
            subject = _random_subset(rng, af.arguments)
            image = tuple(sorted(mapping[x] for x in subject))
            yield trial(
                ImpactQuery(af, subject, target),
                ImpactQuery(renamed, image, mapping[target]),
                frameworks=(af, renamed),
                subjects=(subject, image),
                targets=(target, mapping[target]),
                mapping=tuple(sorted(mapping.items())),
                description="impact changed under renaming",
            )


def _is_framework_pair(entry: tuple) -> bool:
    return len(entry) == 2 and all(
        isinstance(e, ArgumentationFramework) for e in entry
    )


def _independence(seed, plain, shaped):
    pairs: list[tuple[ArgumentationFramework, ArgumentationFramework]] = list(shaped)
    for i in range(0, len(plain) - 1, 2):
        left, right = plain[i], plain[i + 1]
        pairs.append((left, right.rename({c: f"z{i}x{c}" for c in right.arguments})))
    for i, (left, right) in enumerate(pairs):
        if set(left.arguments) & set(right.arguments):
            raise UnsupportedInstanceError(
                "independence pairs must have disjoint arguments"
            )
        combined = left.union(right)
        rng = _rng(seed, "independence", i)
        for target in _attacked_first(left)[:QUERIES]:
            for subject in _subject_candidates(left, target, rng, SUBSET_CAP):
                yield trial(
                    ImpactQuery(left, subject, target),
                    ImpactQuery(combined, subject, target),
                    frameworks=(left, right),
                    subjects=(subject,),
                    targets=(target,),
                    description="impact changed by a disjoint union",
                )


def _is_balanced_instance(entry: tuple) -> bool:
    return len(entry) == 4 and isinstance(entry[0], ArgumentationFramework)


def _balanced(seed, plain, shaped):
    instances: list[tuple[ArgumentationFramework, tuple[str, ...], str, str]] = []
    for af, subject, extra, target in shaped:
        subject = tuple(sorted(set(subject)))
        members = set(af.arguments)
        if (
            not set(subject) <= members
            or extra not in members
            or extra in subject
            or target not in members
        ):
            raise UnsupportedInstanceError("balanced instance is not well-formed")
        instances.append((af, subject, extra, target))
    for i, af in enumerate(plain):
        rng = _rng(seed, "balanced", i)
        anchor = _attacked_first(af)[0]
        attackers = af.attackers(anchor)
        if attackers:
            subject = (attackers[0],)
            extra = next(
                (
                    c
                    for c in af.arguments
                    if c not in subject and c != anchor and af.has_path(c, anchor)
                ),
                None,
            )
            if extra is not None:
                instances.append((af, subject, extra, anchor))
        for _ in range(QUERIES):
            target = rng.choice(af.arguments)
            subject = _random_subset(rng, af.arguments)
            pool = [c for c in af.arguments if c not in subject]
            if not pool:
                continue
            instances.append((af, subject, rng.choice(pool), target))
    for af, subject, extra, target in instances:
        union = tuple(sorted(subject + (extra,)))
        split = (
            ImpactQuery(af, subject, target),
            ImpactQuery(af, (extra,), target),
        )
        yield trial(
            _Combined(split, _sum_of_two, 2),
            ImpactQuery(af, union, target),
            frameworks=(af,),
            subjects=(subject, (extra,), union),
            targets=(target,),
            description="impact of the union differs from the sum of the split",
        )


def _sum_of_two(values: Iterator[float]) -> float:
    return next(values) + next(values)


def _void(seed, plain, shaped):
    for af in plain:
        for target in af.arguments:
            yield trial(
                ImpactQuery(af, (), target),
                0.0,
                frameworks=(af,),
                subjects=((),),
                targets=(target,),
                description="empty set has nonzero impact",
            )


def _is_attack_addition(entry: tuple) -> bool:
    return (
        len(entry) == 2
        and isinstance(entry[0], ArgumentationFramework)
        and isinstance(entry[1], tuple)
        and len(entry[1]) == 2
    )


def _directionality(seed, plain, shaped):
    instances: list[tuple[ArgumentationFramework, Attack]] = list(shaped)
    for af in plain:
        if not af.attacks:
            continue
        # Removing an attack into a top in-degree target perturbs the
        # counting normalisation, which is where violations hide.
        attack = sorted(af.attacks, key=lambda c: (-af.in_degree(c[1]), c))[0]
        instances.append((af.delete_attacks([attack]), attack))
    for i, (base, attack) in enumerate(instances):
        source, entry = attack
        if source not in base or entry not in base or base.has_attack(source, entry):
            raise UnsupportedInstanceError(
                "directionality instance needs an addable attack"
            )
        augmented = ArgumentationFramework.of(base.arguments, base.attacks + (attack,))
        rng = _rng(seed, "directionality", i)
        eligible = [
            y
            for y in base.arguments
            if y != entry and not augmented.has_path(entry, y)
        ]
        for y in eligible[:QUERIES]:
            for subject in _subject_candidates(augmented, y, rng, SUBSET_CAP):
                yield trial(
                    ImpactQuery(base, subject, y),
                    ImpactQuery(augmented, subject, y),
                    frameworks=(base, augmented),
                    subjects=(subject,),
                    targets=(y,),
                    attack=attack,
                    description="impact changed beyond the added attack's reach",
                )


def _minimisation(seed, plain, shaped):
    for i, af in enumerate(plain):
        rng = _rng(seed, "minimisation", i)
        eligible = [
            (a, x)
            for a in af.arguments
            for x in af.arguments
            if x != a and not af.has_path(x, a)
        ]
        for a, x in eligible[:QUERIES]:
            padding = _random_subset(
                rng, [c for c in af.arguments if c != x], probability=0.3
            )
            # The bare member first, then the padded subject if it differs.
            for subject in dict.fromkeys(((x,), tuple(sorted(padding + (x,))))):
                reduced = tuple(c for c in subject if c != x)
                yield trial(
                    ImpactQuery(af, subject, a),
                    ImpactQuery(af, reduced, a),
                    frameworks=(af,),
                    subjects=(subject, reduced),
                    targets=(a,),
                    description=f"dropping pathless member {x!r} changed the impact",
                )


def _zero(seed, plain, shaped):
    for af in plain:
        eligible = [
            (x, a)
            for x in af.arguments
            for a in af.arguments
            if not af.has_path(x, a)
        ]
        for x, a in eligible[: 2 * QUERIES + 2]:
            yield trial(
                ImpactQuery(af, (x,), a),
                0.0,
                frameworks=(af,),
                subjects=((x,),),
                targets=(a,),
                description="pathless argument has nonzero impact",
            )


def _symmetry(seed, plain, shaped):
    instances = 0
    skipped = 0
    for i, af in enumerate(plain):
        rng = _rng(seed, "symmetry", i)
        used_here = 0
        for a, b in combinations(af.arguments, 2):
            shared = sorted(
                set(af.attack_structure(a)) | set(af.attack_structure(b))
            )
            if len(shared) > DEFAULT_CAP:
                skipped += 1
                continue
            autos = find_automorphisms(af, shared, fixing=((a, b), (b, a)))
            if not autos:
                continue
            f = autos[0]
            instances += 1
            members = set(shared)
            for _ in range(2):
                subject = _random_subset(rng, af.arguments)
                projected = tuple(
                    sorted({f[u] for u in subject if u in members})
                )
                yield trial(
                    ImpactQuery(af, subject, a),
                    ImpactQuery(af, projected, b),
                    frameworks=(af,),
                    subjects=(subject, projected),
                    targets=(a, b),
                    mapping=tuple(sorted(f.items())),
                    description="automorphic arguments received different impacts",
                )
            used_here += 1
            if used_here >= 2:
                break
    notes = f"automorphism instances: {instances}"
    if skipped:
        notes += f"; restrictions over cap skipped: {skipped}"
    return {"notes": notes}


def _existence_probe(ctx, af, target):
    if ctx.measure in ("dv", "dv-original"):
        candidates = [tuple(af.arguments)]
        attackers = af.attackers(target)
        if attackers:
            candidates.append(attackers)
            candidates.extend((b,) for b in attackers)
    else:
        # Set impacts decompose over members, so vanishing singletons decide.
        candidates = [(x,) for x in af.arguments]

    def first_nonzero(values: Iterator[float]) -> float:
        # The first nonzero impact found, or 0.0 if none is.
        return next((v for v in values if abs(v) > ctx.tolerance), 0.0)

    queries = tuple(ImpactQuery(af, subject, target) for subject in candidates)
    return trial(
        _Combined(queries, first_nonzero, 1),
        0.0,
        frameworks=(af,),
        subjects=tuple(candidates),
        targets=(target,),
        description="no searched set had nonzero impact despite a reduced degree",
    )


def _vanishes(lhs, rhs, tolerance: float):
    return np.logical_not(differs(lhs, rhs, tolerance))


def _has_shared_max_indegree(af: ArgumentationFramework) -> bool:
    top = af.max_in_degree()
    return sum(1 for a in af.arguments if af.in_degree(a) == top) >= 2


def _premises(ctx, frameworks):
    # Every argument scored below one is a premise.  The degrees are the
    # frameworks' systems of no mask, solved in one stack.
    frameworks = list(frameworks)
    for af, scores in zip(frameworks, ctx.table.own_degrees(ctx.spec, frameworks)):
        if isinstance(scores, Exception):
            raise scores
        for target, score in zip(af.arguments, scores.tolist()):
            if score < 1.0 - ctx.tolerance:
                # A premise of several cells is drawn once under the measure.
                key = (af, target, ctx.tolerance)
                probe = ctx.probes.get(key)
                if probe is None:
                    probe = ctx.probes[key] = _existence_probe(ctx, af, target)
                yield probe


def _existence(ctx, plain, shaped):
    if ctx.measure != "si" or ctx.spec.kind != "cs":
        yield from _premises(ctx, plain)
        return
    side = falsify(
        "existence",
        ctx.spec.kind,
        ctx.tolerance,
        _premises(ctx, [af for af in plain if not _has_shared_max_indegree(af)]),
        relation=_vanishes,
        count_all=True,
        resolve=ctx.resolve,
    )
    yield from _premises(ctx, [af for af in plain if _has_shared_max_indegree(af)])
    side_status = "no counterexample" if side.passed else "counterexample found"
    return {
        "scope": RESTRICTED_SCOPE,
        "notes": (
            f"outside the scope, on graphs with a unique maximum in-degree:"
            f" {side.trials} premises, {side_status}"
        ),
    }


class _Check(NamedTuple):
    trials: Callable  # (seed, plain, shaped), or (ctx, ...) when per_cell
    fits: Callable[[tuple], bool] | None = None  # shaped instances accepted
    relation: Relation = differs
    count_all: bool = False
    per_cell: bool = False  # the stream reads the cell's measure or degrees


_CHECKS = {
    "anonymity": _Check(_anonymity),
    "independence": _Check(_independence, _is_framework_pair),
    "balanced": _Check(_balanced, _is_balanced_instance),
    "void": _Check(_void),
    "directionality": _Check(_directionality, _is_attack_addition),
    "minimisation": _Check(_minimisation),
    "zero": _Check(_zero),
    "symmetry": _Check(_symmetry),
    # Existence counts every premise, also those after its first witness.
    "existence": _Check(
        _existence, relation=_vanishes, count_all=True, per_cell=True
    ),
}


def _split_corpus(
    principle: str, fits, corpus: Iterable[ArgumentationFramework | tuple]
):
    plain: list[ArgumentationFramework] = []
    shaped: list[tuple] = []
    for entry in corpus:
        if isinstance(entry, ArgumentationFramework):
            plain.append(entry)
        elif isinstance(entry, tuple) and fits is not None and fits(entry):
            shaped.append(entry)
        else:
            raise UnsupportedInstanceError(
                f"corpus entry of type {type(entry).__name__} does not fit {principle!r}"
            )
    return plain, shaped


# -- shared trials -------------------------------------------------------


class _Replay:
    """A stream of trials, drawn lazily and once for any number of readers.

    A trial is drawn when some reader first reaches it, and its probes are
    kept.  Every reader sees the same trials, the error the stream raised at
    the position where it raised it, and the stream's returned annotations
    when it reads to the end.
    """

    def __init__(self, stream: Iterator) -> None:
        self._stream = stream
        self._trials: list[list] = []
        self._end: tuple[dict | None, Exception | None] | None = None

    def read(self) -> Iterator[list]:
        position = 0
        while True:
            if position == len(self._trials):
                if self._end is None:
                    self._draw()
                    continue
                annotations, error = self._end
                if error is not None:
                    raise error
                return annotations
            yield self._trials[position]
            position += 1

    def _draw(self) -> None:
        try:
            probes = next(self._stream)
        except StopIteration as end:
            self._end = (end.value, None)
        except Exception as error:  # re-raised to every reader that reaches it
            self._end = (None, error)
        else:
            self._trials.append(_drawn(probes))


@dataclass
class _Shared:
    """What the cells of one principle share: the replay of its trials drawn
    from ``source`` (None when each cell draws its own), and by measure the
    plans, windows and probes of its ``_Context``."""

    source: tuple
    replay: _Replay | None
    measures: dict[str, tuple[dict, list, dict]] = field(default_factory=dict)


class _Store(dict):
    """What an audit's cells share: each principle's share, by name, and the
    table that numbers every cell's frameworks and systems."""

    def __init__(self) -> None:
        super().__init__()
        self.table = Systems()


# What an audit's cells share; set only while ``audit`` runs.
_SHARED: ContextVar[_Store | None] = ContextVar("shared_trials", default=None)


@contextmanager
def _sharing() -> Iterator[_Store]:
    """Share replays, plans and one table between the cells run inside;
    drop them on leaving."""
    store = _Store()
    token = _SHARED.set(store)
    try:
        yield store
    finally:
        store.clear()
        store.table = Systems()
        _SHARED.reset(token)


def _shared(principle: str, check: _Check, seed: int, plain, shaped) -> _Shared:
    """What the audit's cells of a principle share over this corpus, or a
    fresh share of its own outside an audit."""
    store = _SHARED.get()
    source = (seed, plain, shaped)
    if store is not None and principle in store:
        shared = store[principle]
        if shared.source == source:
            return shared
    replay = None if check.per_cell else _Replay(check.trials(seed, plain, shaped))
    shared = _Shared(source, replay)
    if store is not None:
        store[principle] = shared
    return shared


def check_principle(
    principle: str,
    measure: str,
    spec: SemanticsSpec,
    corpus: Iterable[ArgumentationFramework | tuple],
    *,
    tolerance: float = CHECK_TOLERANCE,
    seed: int = 0,
) -> PrincipleVerdict:
    """Search a corpus for counterexamples to one principle.

    Inside ``audit`` the cells of a principle other than existence read one
    shared draw of its trials, every cell of a principle plans each impact
    query and each shared window once per measure, and every cell numbers
    its systems in the audit's table; otherwise the call draws, plans and
    numbers its own."""
    if principle not in PRINCIPLES:
        raise ValueError(f"unknown principle {principle!r}")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    _check_tolerance(tolerance)
    check = _CHECKS[principle]
    plain, shaped = _split_corpus(principle, check.fits, corpus)
    shared = _shared(principle, check, seed, plain, shaped)
    store = _SHARED.get()
    table = Systems() if store is None else store.table
    plans = shared.measures.setdefault(measure, ({}, [], {}))
    ctx = _Context(measure, spec, tolerance, *plans, table)
    if check.per_cell:
        trials = check.trials(ctx, plain, shaped)
    else:
        trials = shared.replay.read()
    return falsify(
        principle,
        spec.kind,
        tolerance,
        trials,
        relation=check.relation,
        count_all=check.count_all,
        measure=measure,
        resolve=ctx.resolve,
    )


# -- full audits ---------------------------------------------------------


@dataclass(frozen=True)
class AuditResult:
    """All verdicts of one audit run, with rendering helpers."""

    config: AuditConfig
    verdicts: tuple[PrincipleVerdict, ...]

    def cell(self, principle: str, measure: str, semantics: str) -> PrincipleVerdict:
        for v in self.verdicts:
            if (
                v.principle == principle
                and v.measure == measure
                and v.semantics == semantics
            ):
                return v
        raise KeyError((principle, measure, semantics))

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "matrix": [v.to_dict() for v in self.verdicts],
        }

    def render_text(self) -> str:
        columns = [
            (measure, semantics)
            for semantics in self.config.semantics
            for measure in self.config.measures
        ]
        header = ["principle"] + [f"{m}*{s}" for m, s in columns]
        rows = [header]
        scoped = False
        for principle in PRINCIPLES:
            row = [principle]
            for measure, semantics in columns:
                v = self.cell(principle, measure, semantics)
                mark = "✓" if v.passed else "✗"
                if v.scope != "all":
                    mark += "'"
                    scoped = True
                row.append(mark)
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        if scoped:
            lines.append(
                "' restricted to graphs where at least two arguments attain"
                " the maximum in-degree"
            )
        return "\n".join(lines) + "\n"


def audit(config: AuditConfig = AuditConfig()) -> AuditResult:
    """Run every configured principle, measure and semantics over one corpus.

    Each principle's trials are drawn once and shared by its cells, which
    read them through ``check_principle`` and plan each impact query once
    per measure; the store holds one principle's trials and plans at a
    time, and the table of numbered systems for the whole audit, and both
    are gone when the audit returns or raises.  Each cell is one call of
    ``check_principle`` through this module's attribute, so rebinding it
    (as the benchmark does to time each cell) sees every cell once."""
    base = corpus_frameworks(config)
    # One spec object per semantics: the table's stores compare keys by
    # identity first.
    specs = [SemanticsSpec(semantics) for semantics in config.semantics]
    verdicts = []
    with _sharing() as store:
        for principle in PRINCIPLES:
            store.clear()
            entries = base
            if config.include_fixtures:
                entries = fixture_entries(principle) + base
            for spec in specs:
                for measure in config.measures:
                    verdicts.append(
                        check_principle(
                            principle,
                            measure,
                            spec,
                            entries,
                            tolerance=config.tolerance,
                            seed=config.seed,
                        )
                    )
    return AuditResult(config=config, verdicts=tuple(verdicts))


def expected_status(principle: str, measure: str, semantics: str) -> str:
    """The published satisfaction pattern for a cell."""
    if principle in ("independence", "directionality"):
        return COUNTEREXAMPLE if semantics == "cs" else NO_COUNTEREXAMPLE
    if principle == "balanced":
        return COUNTEREXAMPLE if measure in ("dv", "dv-original") else NO_COUNTEREXAMPLE
    return NO_COUNTEREXAMPLE


def compare_with_expected(result: AuditResult) -> list[str]:
    """Mismatch descriptions between an audit and the published pattern."""
    problems = []
    for v in result.verdicts:
        wanted = expected_status(v.principle, v.measure, v.semantics)
        if v.status != wanted:
            problems.append(
                f"{v.principle} under {v.measure}*{v.semantics}:"
                f" expected {wanted}, audit found {v.status}"
            )
    return problems


_IMPLICATION_RULES = (
    (("anonymity", "directionality", "minimisation", "independence"), "symmetry"),
    (("zero", "balanced"), "minimisation"),
    (("void", "minimisation"), "zero"),
)


def crosscheck_implications(
    matrix: AuditResult | Iterable[PrincipleVerdict],
) -> list[dict]:
    """Report cells that contradict the proven implications between principles.

    Each rule says: when every premise principle has no counterexample, the
    conclusion principle cannot have one.  Missing cells make the check
    impossible and raise.
    """
    verdicts = matrix.verdicts if isinstance(matrix, AuditResult) else tuple(matrix)
    cells: dict[tuple[str, str, str], str] = {}
    for v in verdicts:
        cells[(v.measure or "", v.semantics, v.principle)] = v.status
    pairs = sorted({(m, s) for m, s, _ in cells})
    issues = []
    for measure, semantics in pairs:
        for premises, conclusion in _IMPLICATION_RULES:
            statuses = {}
            for principle in premises + (conclusion,):
                key = (measure, semantics, principle)
                if key not in cells:
                    raise IncompleteMatrixError(
                        f"matrix lacks {principle!r} for {measure}*{semantics}"
                    )
                statuses[principle] = cells[key]
            if statuses[conclusion] == COUNTEREXAMPLE and all(
                statuses[p] == NO_COUNTEREXAMPLE for p in premises
            ):
                issues.append(
                    {
                        "measure": measure,
                        "semantics": semantics,
                        "premises": list(premises),
                        "conclusion": conclusion,
                    }
                )
    return issues
