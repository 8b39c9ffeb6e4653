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
once per (framework, measure) and answers every member and target.  It is
used only when ``q = ‖M‖∞`` (the largest absolute row sum) proves that the
truncated alternating series would converge under the query's
``SeriesConfig``; otherwise the series itself is evaluated, walk length by
walk length, with its divergence guard and length cap.

``prefetch_impacts`` evaluates a batch of queries under one measure and
semantics in one stacked solve, an audit window at a time; every other
entry point here is its one-query case.

For the counting semantics, both deletion-based variants score the reduced
frameworks with the parent framework's normalisation so the two sides stay
comparable; the intensity matrix instead inherits whatever the attribution
stage computed per sub-framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .attribution import ShapleyConfig, ShapleyMeasure, prefetch_intensities
from .errors import (
    DivergenceError,
    GradimpactError,
    InconsistentAnnotationError,
    UnknownArgumentError,
    UnknownAttackError,
)
from .framework import ArgumentationFramework
from .semantics import SemanticsSpec, attack_masks, counting_norm, prefetch_degrees

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
    # One spec object per framework, so the degree store finds it by identity.
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
    """Deletion-based impact of ``subject`` on ``target``."""
    query = ImpactQuery(af, tuple(subject), target)
    return _single(prefetch_impacts("dv", spec, (query,), {}))


def imp_dv_original(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    subject: Iterable[str],
    target: str,
) -> ImpactValue:
    """Original deletion-based impact: removes attackers, keeps induced attacks."""
    query = ImpactQuery(af, tuple(subject), target)
    return _single(prefetch_impacts("dv-original", spec, (query,), {}))


def _intensity_matrix(
    af: ArgumentationFramework, measure: ShapleyMeasure
) -> np.ndarray:
    index = af.positions
    matrix = np.zeros((len(af.arguments), len(af.arguments)))
    for (s, t), value in measure.entries:
        if not af.has_attack(s, t):
            raise UnknownAttackError(s, t)
        matrix[index[t], index[s]] = value
    # Every entry names an attack of af, so they cover its attacks exactly
    # when there are as many distinct entries as attacks.
    if len(measure.as_dict()) != len(measure.entries):
        raise InconsistentAnnotationError("intensity measure names an attack twice")
    if len(measure.entries) != len(af.attacks):
        raise InconsistentAnnotationError(
            "intensity measure does not cover the attacks exactly"
        )
    return matrix


@dataclass(frozen=True)
class _Resolvent:
    """What every ``si`` query on one (framework, measure) pair shares."""

    matrix: np.ndarray
    norm: float
    closed: np.ndarray | None


@lru_cache(maxsize=4096)
def _cached_resolvent(
    af: ArgumentationFramework, measure: ShapleyMeasure
) -> _Resolvent:
    matrix = _intensity_matrix(af, measure)
    norm = float(abs(matrix).sum(axis=1).max(initial=0.0))
    closed = None
    if norm < 1.0:
        # Invertible: the spectral radius of M is at most its norm.
        eye = np.eye(len(matrix))
        closed = np.linalg.inv(eye + matrix) - eye
        closed.flags.writeable = False
    matrix.flags.writeable = False
    return _Resolvent(matrix, norm, closed)


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
        "si", spec, (query,), {}, intensities=given,
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


# What evaluating a query under one measure needs, whatever the semantics:
# the target's index, then the two masks of a deletion-based measure or the
# indices of the sorted subject for ``si``; or the error an unknown argument
# raises.
Plan = tuple[int, int, int] | tuple[int, tuple[int, ...]] | UnknownArgumentError


def _query_plan(measure: str, query: ImpactQuery) -> Plan:
    af, subject, target = query
    xs = tuple(sorted(set(subject)))
    positions = af.positions
    for x in xs + (target,):
        if x not in positions:
            return UnknownArgumentError(x)
    if measure == "si":
        return positions[target], tuple([positions[x] for x in xs])
    return (positions[target],) + _deletion_masks(af, measure, xs, target)


Outcome = tuple[float, bool]  # an ``ImpactValue``'s value and converged flag


def prefetch_impacts(
    measure: str,
    spec: SemanticsSpec,
    queries: Sequence[ImpactQuery],
    plans: dict[ImpactQuery, Plan],
    *,
    intensities: Mapping[ArgumentationFramework, ShapleyMeasure] | None = None,
    shapley_config: ShapleyConfig = ShapleyConfig(),
    series: SeriesConfig = SeriesConfig(),
) -> list[Outcome | Exception]:
    """The outcome ``evaluate_impact`` gives each query, or the error it
    raises, from one stacked solve; nothing is raised here.

    ``plans`` holds the plans of queries under ``measure``, which any
    semantics shares; a query missing there is planned and added.  A
    deletion-based query reads its target's degree in its two masks.  An
    ``si`` query reads its framework's ``intensities`` if given, else
    ``shapley_all``'s under ``shapley_config``; where ``series`` proves the
    walk series converges, it sums its target's row of the closed-form
    resolvent over its sorted members, else it runs the series from each.
    The degree and intensity stores answer what they hold; the rest is
    solved in one stack and filed there.
    """
    chosen = []
    for query in queries:
        plan = plans.get(query)
        if plan is None:
            plan = plans[query] = _query_plan(measure, query)
        chosen.append(plan)
    if measure == "si":
        return _intensity_values(
            spec, queries, chosen, intensities or {}, shapley_config, series
        )
    return _deletion_values(spec, queries, chosen)


def _deletion_values(spec, queries, plans) -> list[Outcome | Exception]:
    scorings: list[SemanticsSpec | Exception] = []
    systems = []
    for query, plan in zip(queries, plans):
        if isinstance(plan, Exception):
            scorings.append(plan)
            continue
        try:
            scoring = _shared_norm_spec(query.af, spec)
        except GradimpactError as error:
            scorings.append(error)
            continue
        scorings.append(scoring)
        systems += [(query.af, scoring, plan[1]), (query.af, scoring, plan[2])]
    weightings = iter(prefetch_degrees(systems))
    values: list[Outcome | Exception] = []
    for plan, scoring in zip(plans, scorings):
        if isinstance(scoring, Exception):
            values.append(scoring)
            continue
        # The shielded degree is read first, so its error comes first.
        before, after = next(weightings), next(weightings)
        if isinstance(before, Exception):
            values.append(before)
        elif isinstance(after, Exception):
            values.append(after)
        else:
            values.append((before.vector[plan[0]] - after.vector[plan[0]], True))
    return values


def _intensity_values(
    spec, queries, plans, given, config, series
) -> list[Outcome | Exception]:
    wanted = [
        query.af
        for query, plan in zip(queries, plans)
        if not isinstance(plan, Exception) and plan[1] and query.af not in given
    ]
    measures = {**prefetch_intensities(wanted, spec, config), **given}
    values: list[Outcome | Exception] = []
    for query, plan in zip(queries, plans):
        if isinstance(plan, Exception):
            values.append(plan)
        elif plan[1]:
            found = measures[query.af]
            if isinstance(found, ShapleyMeasure):  # resolved on first read
                found = measures[query.af] = _resolved(query.af, found, series)
            values.append(_summed(found, *plan, series))
        else:
            values.append((0.0, True))
    return values


def _resolved(
    af: ArgumentationFramework, measure: ShapleyMeasure, series: SeriesConfig
) -> tuple[np.ndarray, bool] | GradimpactError:
    """The closed form if ``series`` provably converges on ``measure``, else
    the intensity matrix to run it on; or the error of that matrix."""
    try:
        resolvent = _cached_resolvent(af, measure)
    except GradimpactError as error:
        return error
    if _series_converges(resolvent.norm, series):
        return resolvent.closed, True
    return resolvent.matrix, False


def _summed(
    resolved: tuple[np.ndarray, bool] | Exception,
    goal: int,
    members: Sequence[int],
    series: SeriesConfig,
) -> Outcome | Exception:
    """The impact of the members on ``goal``, summed in member order: each
    read from the closed form's row of ``goal``, or each the walk series on
    the intensity matrix, whose first divergence is the error."""
    if isinstance(resolved, Exception):
        return resolved
    matrix, closed = resolved
    total = 0.0
    if closed:
        for member in members:
            total += matrix.item(goal, member)
        return total, True
    converged = True
    for member in members:
        try:
            value, ok = _walk_series(matrix, member, goal, series)
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
