"""Impact of argument sets on a target's acceptability degree.

Two families are provided.  The deletion-based impact compares the target's
degree in two reduced frameworks: one where the attacks into the subject set
from outside are removed, and one where the subject itself (except the
target) is removed along with every attack touching it.  The original
variant of that idea instead removes the subject's external attackers, and
keeps whatever attacks survive among the remaining arguments.  Each reduced
framework is a mask over the parent's attacks (``semantics.attack_bits``),
ORed from the masks of the attacks on and by the arguments involved
(``semantics.attack_masks``), a removed argument being one whose every
attack is dropped, so no query builds a framework.

The intensity-based impact sums attack intensities along every directed walk
from a subject member to the target, with even-length walks counting
positively and odd-length walks negatively, and is additive across subject
members by construction.  With M the intensity matrix (``M[t, s]`` the
intensity of the attack from s on t), the walks from x to a of length k sum
to ``[(-M)^k]_{a,x}``, so for spectral radius below 1 the impact of X on a is
``sum over x in X of [(I + M)^{-1} - I]_{a,x}``.  That resolvent is computed
once per framework and semantics, and answers every member and target.  It is
used only when ``q = ‖M‖∞`` (the largest absolute row sum) proves that the
truncated alternating series would converge under the query's
``SeriesConfig``; otherwise the series itself is evaluated, walk length by
walk length, with its divergence guard and length cap.

A query is planned as a row of integers numbered in a table of systems
and frameworks (``Systems``, ``Rows``), and ``evaluate_rows`` evaluates a
batch of rows under one measure and semantics from flat arrays of solved
degrees and closed forms, an audit window at a time.  An audit's table
also keeps each framework's Shapley plan, made once per ``ShapleyConfig``
for every semantics, and a framework's intensities arrive as one array in
``attack_bits`` order (``attribution.prefetch_intensities``), which fills
M by one scatter.  ``prefetch_impacts`` is a batch in the library's own
table, and every other entry point here is its one-query case.

For the counting semantics, both deletion-based variants score the reduced
frameworks with the parent framework's normalisation so the two sides stay
comparable; the intensity matrix instead inherits whatever the attribution
stage computed per sub-framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .attribution import (
    GamePlan,
    ShapleyConfig,
    ShapleyMeasure,
    plan_intensities,
    prefetch_intensities,
)
from .errors import DivergenceError, GradimpactError, UnknownArgumentError
from .framework import ArgumentationFramework
from .semantics import (
    SemanticsSpec,
    Weighting,
    _attackers,
    attack_masks,
    counting_norm,
    solve_systems,
)

POLARITY_TOLERANCE = 1e-9
GATE_MARGIN = 1e-6


@dataclass(frozen=True)
class SeriesConfig:
    """When the closed form applies, and how the walk series runs otherwise.

    The closed form is taken when ``q = ‖M‖∞ < 1``, the sum bound
    ``q / (1 - q)`` stays within ``divergence_guard``, and the first walk
    length k with ``q**k < truncation_tolerance``, plus one step of slack,
    is at most ``max_walk_length``.  It then returns the series' limit with
    ``converged=True``; a truncated series would differ from it by less
    than ``truncation_tolerance * q / (1 - q)``.  When the test fails, the
    series runs: it stops once no walk of the current length carries more
    than ``truncation_tolerance``, raises ``DivergenceError`` when a walk
    weight or the partial sum exceeds ``divergence_guard``, and reports
    ``converged=False`` with the partial sum after ``max_walk_length`` steps.
    """

    truncation_tolerance: float = 1e-12
    max_walk_length: int = 10**5
    divergence_guard: float = 10**3

    def __post_init__(self) -> None:
        if not 0.0 < self.truncation_tolerance < 1.0:
            raise ValueError("truncation_tolerance must lie strictly between 0 and 1")
        if self.max_walk_length < 1:
            raise ValueError("max_walk_length must be at least 1")
        if not 0.0 < self.divergence_guard < math.inf:
            raise ValueError("divergence_guard must be finite and positive")


@dataclass(frozen=True)
class ImpactValue:
    """A signed impact together with its evaluation status."""

    value: float
    converged: bool = True

    @property
    def polarity(self) -> str:
        if self.value > POLARITY_TOLERANCE:
            return "positive"
        if self.value < -POLARITY_TOLERANCE:
            return "negative"
        return "neutral"


def _shared_norm_spec(
    af: ArgumentationFramework, spec: SemanticsSpec
) -> SemanticsSpec:
    # Reduced frameworks are scored with the parent's normalisation.
    return _counting_norm_spec(af, spec) if spec.kind == "cs" else spec


@lru_cache(maxsize=4096)
def _counting_norm_spec(
    af: ArgumentationFramework, spec: SemanticsSpec
) -> SemanticsSpec:
    # One spec object per framework: solve_systems groups a framework's
    # systems by identity.
    norm = counting_norm(af, spec.counting)
    if norm is None:
        return spec
    return replace(spec, counting=replace(spec.counting, norm_override=norm))


def _deletion_masks(
    af: ArgumentationFramework, measure: str, xs: Sequence[str], target: str
) -> tuple[int, int]:
    """The two masks a deletion-based impact of the checked subject ``xs``
    compares: the attacks it shields ``target`` from, and the attacks
    touching the arguments it deletes."""
    xs = set(xs)
    if measure == "dv":
        # Attacks into the subject from outside it, and every attack touching it.
        into, out = attack_masks(af, xs)
        return into & ~out, into | out
    # Every attack touching an external attacker of the subject other than
    # the target, and every attack touching the subject but it.
    attackers = {s for x in xs for s in af.attackers(x)} - xs - {target}
    return _touching(af, attackers), _touching(af, xs - {target})


def _touching(af: ArgumentationFramework, arguments: set[str]) -> int:
    into, out = attack_masks(af, arguments)
    return into | out


def imp_dv(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    subject: Iterable[str],
    target: str,
) -> ImpactValue:
    """Deletion-based impact of ``subject`` on ``target``.

    Under ``hbs``, ``car`` and ``max`` the value lies within 2 *
    ``spec.tolerance`` of the exact difference: each of its two degrees is
    within ``tolerance`` of its fixed point (see ``semantics``).
    """
    query = ImpactQuery(af, tuple(subject), target)
    return _single(prefetch_impacts("dv", spec, (query,)))


def imp_dv_original(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    subject: Iterable[str],
    target: str,
) -> ImpactValue:
    """Original deletion-based impact: removes attackers, keeps induced attacks."""
    query = ImpactQuery(af, tuple(subject), target)
    return _single(prefetch_impacts("dv-original", spec, (query,)))


class _Series(NamedTuple):
    matrix: np.ndarray  # the intensity matrix the walk series runs on


def _resolvents(
    frameworks: Sequence[ArgumentationFramework],
    intensities: Sequence[tuple[np.ndarray, str] | GradimpactError],
    series: SeriesConfig,
) -> list[np.ndarray | _Series | GradimpactError]:
    """How ``si`` reads each framework under its intensities, in
    ``attack_bits`` order: the closed form ``(I + M)^-1 - I``, flattened
    after a zero, where ``series`` provably converges on M, else M to run
    the series on; or the error of the intensities.  M is filled by one
    scatter over the framework's edges.
    Closed forms of one size are inverted in one batch, each as alone; M is
    invertible there, as its spectral radius is at most its norm, below 1."""
    out: list = []
    closed: dict[int, list[int]] = {}
    for af, found in zip(frameworks, intensities):
        if isinstance(found, GradimpactError):
            out.append(found)
            continue
        graph = _attackers(af)
        matrix = np.zeros((graph.n, graph.n))
        matrix[graph.heads[: graph.m], graph.sources[: graph.m]] = found[0]
        if _series_converges(float(abs(matrix).sum(axis=1).max(initial=0.0)), series):
            closed.setdefault(graph.n, []).append(len(out))
        matrix.flags.writeable = False
        out.append(_Series(matrix))
    for n, members in closed.items():
        eye = np.eye(n)
        forms = np.linalg.inv(eye + np.array([out[i].matrix for i in members])) - eye
        # Each closed form follows a zero, for the rows' padding to read.
        forms = np.hstack([np.zeros((len(forms), 1)), forms.reshape(len(forms), -1)])
        for i, form in zip(members, forms):
            out[i] = form
    return out


def _series_converges(norm: float, series: SeriesConfig) -> bool:
    """Whether ``norm`` = ‖M‖∞ proves that the walk series converges.

    Step k's peak is at most ``norm**k`` and every partial sum at most
    ``norm / (1 - norm)``, so the series stops with ``converged=True`` at
    the first k where ``norm**k`` drops below the truncation tolerance,
    without tripping the guard.  The test keeps one step of slack on the
    length and a relative margin on the sum bound, against rounding.
    """
    if norm >= 1.0:
        return False
    if norm / (1.0 - norm) * (1.0 + GATE_MARGIN) > series.divergence_guard:
        return False
    if norm == 0.0:
        return True
    steps = math.floor(math.log(series.truncation_tolerance) / math.log(norm)) + 1
    return steps + 1 <= series.max_walk_length


def _walk_series(
    matrix: np.ndarray, start: int, goal: int, series: SeriesConfig
) -> tuple[float, bool]:
    # Alternating sums over walks of growing length; each pass through the
    # loop advances every walk by one attack and flips its sign.
    reached = np.zeros(matrix.shape[0])
    reached[start] = 1.0
    total = 0.0
    for length in range(1, series.max_walk_length + 1):
        reached = -(matrix @ reached)
        total += reached[goal]
        peak = float(abs(reached).max())
        if peak > series.divergence_guard or abs(total) > series.divergence_guard:
            raise DivergenceError(total, length, series.divergence_guard)
        if peak < series.truncation_tolerance:
            return total, True
    return total, False


def imp_si(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    subject: Iterable[str],
    target: str,
    measure: ShapleyMeasure | None = None,
    shapley_config: ShapleyConfig = ShapleyConfig(),
    series: SeriesConfig = SeriesConfig(),
) -> ImpactValue:
    """Intensity impact of a set: the sum of its members' single impacts.

    A caller-supplied ``measure`` must name every attack of ``af`` once and
    nothing else: the first entry naming another attack raises
    ``UnknownAttackError``, and a missing or repeated attack
    ``InconsistentAnnotationError``.
    """
    query = ImpactQuery(af, tuple(subject), target)
    given = None if measure is None else {af: measure}
    outcomes = prefetch_impacts(
        "si", spec, (query,), intensities=given,
        shapley_config=shapley_config, series=series,
    )
    return _single(outcomes)


def _single(outcomes: list[Outcome | Exception]) -> ImpactValue:
    """The impact of a one-query ``prefetch_impacts``, raising its error."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return ImpactValue(*outcome)


MEASURES = ("dv", "dv-original", "si")


def evaluate_impact(
    measure_name: str,
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    subject: Iterable[str],
    target: str,
    shapley_config: ShapleyConfig = ShapleyConfig(),
    series: SeriesConfig = SeriesConfig(),
) -> ImpactValue:
    """Dispatch on a measure name; accepts ``dv``, ``dv-original`` and ``si``."""
    if measure_name == "dv":
        return imp_dv(af, spec, subject, target)
    if measure_name == "dv-original":
        return imp_dv_original(af, spec, subject, target)
    if measure_name == "si":
        return imp_si(
            af, spec, subject, target,
            shapley_config=shapley_config, series=series,
        )
    raise ValueError(f"unknown impact measure {measure_name!r}")


class ImpactQuery(NamedTuple):
    """The impact of ``subject`` on ``target`` in ``af``, under a measure
    and semantics the evaluation names."""

    af: ArgumentationFramework
    subject: tuple[str, ...]
    target: str


def _query_plan(
    measure: str, query: ImpactQuery
) -> tuple[int, int, int] | tuple[int, tuple[int, ...]] | UnknownArgumentError:
    """What evaluating a query under one measure needs, whatever the
    semantics: the target's index, then the two masks of a deletion-based
    measure or the indices of the sorted subject for ``si``; or the error an
    unknown argument raises."""
    af, subject, target = query
    xs = tuple(sorted(set(subject)))
    positions = af.positions
    for x in xs + (target,):
        if x not in positions:
            return UnknownArgumentError(x)
    if measure == "si":
        return positions[target], tuple([positions[x] for x in xs])
    return (positions[target],) + _deletion_masks(af, measure, xs, target)


class Systems:
    """The frameworks and (framework, mask) systems impact queries read,
    each numbered on first use, and what each semantics solved of them: the
    clipped degrees of each system, scored with its framework's own
    normalisation, and each framework's ``_resolvents`` entry, kept end to
    end per spec (and ``si`` settings) in a ``_Flat``, and each framework's
    Shapley plan.  An audit's cells share one table, so a system that
    recurs across windows, cells or principles is numbered once and solved
    once per semantics."""

    def __init__(self) -> None:
        self.frameworks: list[ArgumentationFramework] = []
        self.systems: list[tuple[int, int]] = []
        self._ids: dict = {}
        self._flats: dict = {}
        self._plans: dict[tuple[int, ShapleyConfig], GamePlan] = {}

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

    def degrees(
        self, spec: SemanticsSpec, sids: np.ndarray
    ) -> tuple[_Flat, np.ndarray]:
        """The degrees under ``spec`` and the offsets of ``sids`` in them,
        the missing systems solved in one stack, checked and clipped as
        ``degrees`` does."""
        solved = self._flat(spec, len(self.systems))
        missing = solved.missing(sids)
        if missing is None:
            return solved, solved.offsets[sids]
        batch, found = [], []
        for sid in missing:
            fid, mask = self.systems[sid]
            af = self.frameworks[fid]
            try:
                if not af.arguments:
                    raise ValueError("degrees need at least one argument")
                batch.append((af, _shared_norm_spec(af, spec), mask))
                found.append(sid)
            except (GradimpactError, ValueError) as error:
                solved.fail(sid, error)
        solved.add(list(zip(found, solve_systems(batch))), self._checked)
        return solved, solved.offsets[sids]

    def _checked(self, sid: int, vector: np.ndarray) -> ValueError | None:
        """The error ``degrees`` raises for a solved entry outside [0, 1]."""
        try:
            Weighting._solved(self.frameworks[self.systems[sid][0]].arguments, vector)
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

    def resolvents(
        self,
        spec: SemanticsSpec,
        fids: np.ndarray,
        config: ShapleyConfig,
        series: SeriesConfig,
        given: Mapping[ArgumentationFramework, ShapleyMeasure] | None,
    ) -> tuple[_Flat, np.ndarray]:
        """The ``_resolvents`` of the frameworks ``fids`` under ``spec`` and
        the settings, and their offsets; supplied intensities are resolved
        afresh."""
        key = (spec, config, series) if given is None else None
        resolved = self._flat(key, len(self.frameworks))
        missing = resolved.missing(fids)
        if missing is None:
            return resolved, resolved.offsets[fids]
        frameworks = [self.frameworks[fid] for fid in missing]
        planner = partial(self.plan, config=config)
        intensities = prefetch_intensities(spec, config, frameworks, planner, given)
        resolved.add(list(zip(missing, _resolvents(frameworks, intensities, series))))
        return resolved, resolved.offsets[fids]

    def plan(self, af: ArgumentationFramework, config: ShapleyConfig) -> GamePlan:
        """The games of ``af`` under ``config``, planned on first use."""
        key = (self.framework(af), config)
        if key not in self._plans:
            self._plans[key] = plan_intensities(af, config)
        return self._plans[key]

    def _flat(self, key, size: int) -> _Flat:
        # A key of None gets a flat of its own, kept nowhere.
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
    ``used`` values are filled, and the ``_Series`` failures hold ``held``
    more."""

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
        if isinstance(failure, _Series):
            self.held += failure.matrix.size

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


class Rows(NamedTuple):
    """Planned impact queries as rows of integers: for ``dv`` and
    ``dv-original`` the target's index and its two systems' ids, for ``si``
    the framework's id and each sorted member's entry in the target's row
    of the n x n resolvent (target * n + member), padded with -1.  ``grid``
    holds the ``live`` rows: not a query whose plan failed, its error in
    ``failed``, nor an ``si`` query of no member, whose impact is 0.0."""

    size: int
    live: np.ndarray
    grid: np.ndarray
    failed: dict[int, Exception]


def plan_row(
    table: Systems, measure: str, query: ImpactQuery
) -> tuple[int, ...] | UnknownArgumentError:
    """A query's row under ``measure``, numbered in ``table``."""
    plan = _query_plan(measure, query)
    if isinstance(plan, Exception):
        return plan
    fid = table.framework(query.af)
    if measure == "si":
        row = plan[0] * len(query.af.arguments)
        return (fid,) + tuple([row + member for member in plan[1]])
    return plan[0], table.system(fid, plan[1]), table.system(fid, plan[2])


def stack_rows(measure: str, planned: Sequence[tuple[int, ...] | Exception]) -> Rows:
    """Planned rows as one grid of the live ones."""
    failed, live, rows = {}, [], []
    for i, row in enumerate(planned):
        if isinstance(row, Exception):
            failed[i] = row
        elif len(row) > 1:
            live.append(i)
            rows.append(row)
    width = max(map(len, rows), default=3)
    if measure == "si":
        rows = [row + (-1,) * (width - len(row)) for row in rows]
    grid = np.fromiter(chain.from_iterable(rows), np.intp, len(rows) * width)
    live = np.array(live, dtype=np.intp)
    return Rows(len(planned), live, grid.reshape(len(rows), width), failed)


def evaluate_rows(
    table: Systems,
    measure: str,
    spec: SemanticsSpec,
    rows: Rows,
    *,
    intensities: Mapping[ArgumentationFramework, ShapleyMeasure] | None = None,
    shapley_config: ShapleyConfig = ShapleyConfig(),
    series: SeriesConfig = SeriesConfig(),
) -> tuple[np.ndarray, dict[int, Exception], set[int]]:
    """Each row's impact, each failing row's error in its place, and the
    rows whose walk series did not finish; nothing is raised here.

    A deletion-based row is ``flat[offsets[shielded] + t] -
    flat[offsets[deleted] + t]``, the shielded system's error first.  An
    ``si`` row reads its framework's ``intensities`` if given, else
    ``shapley_all``'s under ``shapley_config``, and adds its entries of the
    closed form in member order from 0.0, or where ``series`` does not
    provably converge runs the series from each member."""
    values = np.zeros(rows.size)
    failed, unfinished = dict(rows.failed), set()
    grid, live = rows.grid, rows.live
    if not len(live):
        return values, failed, unfinished
    if measure != "si":
        solved, cells = table.degrees(spec, grid[:, 1:])
        if solved.failures and np.count_nonzero(cells < 0):
            ok = (cells >= 0).all(axis=1)
            for row, systems, (before, _) in zip(
                live[~ok].tolist(), grid[~ok, 1:].tolist(), cells[~ok].tolist()
            ):
                failed[row] = solved.failures[systems[before >= 0]]
            grid, live, cells = grid[ok], live[ok], cells[ok]
        degrees = solved.values[cells + grid[:, :1]]
        values[live] = degrees[:, 0] - degrees[:, 1]
        return values, failed, unfinished
    resolved, offsets = table.resolvents(
        spec, grid[:, 0], shapley_config, series, intensities
    )
    if resolved.failures and np.count_nonzero(offsets < 0):
        walked = offsets < 0
        for row, (fid, *spots) in zip(live[walked].tolist(), grid[walked].tolist()):
            n = len(table.frameworks[fid].arguments)
            members = [spot % n for spot in spots if spot >= 0]
            outcome = _summed(resolved.failures[fid], spots[0] // n, members, series)
            if isinstance(outcome, Exception):
                failed[row] = outcome
            else:
                values[row] = outcome[0]
                if not outcome[1]:
                    unfinished.add(row)
        grid, live, offsets = grid[~walked], live[~walked], offsets[~walked]
    # A padding spot of -1 reads the zero before its closed form.
    terms = resolved.values[grid[:, 1:] + (offsets + 1)[:, None]]
    total = np.zeros(len(live))
    for column in terms.T:
        total += column
    values[live] = total
    return values, failed, unfinished


# The library's table is dropped once it numbers more entries than the
# degree store keeps, or holds more solved values (32 MB) than this.
LIBRARY_SIZE, LIBRARY_CELLS = 1 << 15, 1 << 22
_library = Systems()


Outcome = tuple[float, bool]  # an ``ImpactValue``'s value and converged flag


def prefetch_impacts(
    measure: str,
    spec: SemanticsSpec,
    queries: Sequence[ImpactQuery],
    *,
    intensities: Mapping[ArgumentationFramework, ShapleyMeasure] | None = None,
    shapley_config: ShapleyConfig = ShapleyConfig(),
    series: SeriesConfig = SeriesConfig(),
) -> list[Outcome | Exception]:
    """The outcome ``evaluate_impact`` gives each query, or the error it
    raises, from one batch of rows numbered in the library's table, which
    keeps their solves, but not their errors or Shapley plans, for later
    calls; nothing is raised here."""
    global _library
    held = sum(flat.used + flat.held for flat in _library._flats.values())
    if len(_library._ids) > LIBRARY_SIZE or held > LIBRARY_CELLS:
        _library = Systems()
    rows = stack_rows(measure, [plan_row(_library, measure, q) for q in queries])
    values, failed, unfinished = evaluate_rows(
        _library, measure, spec, rows, intensities=intensities,
        shapley_config=shapley_config, series=series,
    )
    for flat in _library._flats.values():
        if flat.failures:
            flat.forget_errors()
    _library._plans.clear()
    return [
        failed[i] if i in failed else (value, i not in unfinished)
        for i, value in enumerate(values.tolist())
    ]


def _summed(
    found: _Series | Exception,
    goal: int,
    members: Sequence[int],
    series: SeriesConfig,
) -> Outcome | Exception:
    """The impact of the members on ``goal``, each the walk series on the
    intensity matrix, summed in member order; the first divergence, or the
    error of the matrix, is the error."""
    if isinstance(found, Exception):
        return found
    total = 0.0
    converged = True
    for member in members:
        try:
            value, ok = _walk_series(found.matrix, member, goal, series)
        except DivergenceError as error:
            return error
        total += float(value)
        converged = converged and ok
    return total, converged


def impact_payload(
    measure_name: str,
    spec: SemanticsSpec,
    subject: Iterable[str],
    target: str,
    outcome: ImpactValue,
) -> dict:
    """JSON-ready view of one impact evaluation."""
    return {
        "measure": measure_name,
        "semantics": spec.kind,
        "subject": sorted(set(subject)),
        "target": target,
        "value": outcome.value,
        "converged": outcome.converged,
        "polarity": outcome.polarity,
    }
