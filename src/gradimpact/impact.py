"""Impact of argument sets on a target's acceptability degree.

Two families are provided.  The deletion-based impact compares the target's
degree in two reduced frameworks: one where the attacks into the subject set
from outside are removed, and one where the subject itself (except the
target) is removed along with every attack touching it.  The original
variant of that idea instead removes the subject's external attackers, and
keeps whatever attacks survive among the remaining arguments.

The intensity-based impact sums attack intensities along every directed walk
from a subject member to the target, with even-length walks counting
positively and odd-length walks negatively.  It is evaluated as a truncated
alternating matrix series over the intensity matrix, and is additive across
subject members by construction.

For the counting semantics, both deletion-based variants score the reduced
frameworks with the parent framework's normalisation so the two sides stay
comparable; the intensity matrix instead inherits whatever the attribution
stage computed per sub-framework.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .attribution import ShapleyConfig, ShapleyMeasure, shapley_all
from .errors import DivergenceError, UnknownArgumentError
from .framework import ArgumentationFramework
from .semantics import SemanticsSpec, counting_norm, degrees

POLARITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation, length cap and divergence guard for the walk series."""

    truncation_tolerance: float = 1e-12
    max_walk_length: int = 10**5
    divergence_guard: float = 10**3

    def __post_init__(self) -> None:
        if not 0.0 < self.truncation_tolerance < 1.0:
            raise ValueError("truncation_tolerance must lie strictly between 0 and 1")
        if self.max_walk_length < 1:
            raise ValueError("max_walk_length must be at least 1")
        if self.divergence_guard <= 0.0:
            raise ValueError("divergence_guard must be positive")


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


def _checked_subject(
    af: ArgumentationFramework, subject: Iterable[str], target: str
) -> tuple[str, ...]:
    xs = tuple(sorted(set(subject)))
    for x in xs:
        if x not in af:
            raise UnknownArgumentError(x)
    if target not in af:
        raise UnknownArgumentError(target)
    return xs

def _shared_norm_spec(
    af: ArgumentationFramework, spec: SemanticsSpec
) -> SemanticsSpec:
    # Reduced frameworks are scored with the parent's normalisation.
    if spec.kind != "cs":
        return spec
    norm = counting_norm(af, spec.counting)
    if norm is None:
        return spec
    return replace(spec, counting=replace(spec.counting, norm_override=norm))


def imp_dv(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    subject: Iterable[str],
    target: str,
) -> ImpactValue:
    """Deletion-based impact of ``subject`` on ``target``."""
    xs = _checked_subject(af, subject, target)
    scoring = _shared_norm_spec(af, spec)
    shielded = af.delete_attacks(af.external_attacks(xs))
    without = af.delete_arguments(xs, target)
    value = degrees(shielded, scoring)[target] - degrees(without, scoring)[target]
    return ImpactValue(value)


def imp_dv_original(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    subject: Iterable[str],
    target: str,
) -> ImpactValue:
    """Original deletion-based impact: removes attackers, keeps induced attacks."""
    xs = _checked_subject(af, subject, target)
    scoring = _shared_norm_spec(af, spec)
    attackers = set(af.external_attackers(xs))
    shielded = af.restrict(
        a for a in af.arguments if a == target or a not in attackers
    )
    removed = set(xs)
    without = af.restrict(
        a for a in af.arguments if a == target or a not in removed
    )
    value = degrees(shielded, scoring)[target] - degrees(without, scoring)[target]
    return ImpactValue(value)


def _intensity_matrix(
    af: ArgumentationFramework, measure: ShapleyMeasure
) -> np.ndarray:
    index = {a: i for i, a in enumerate(af.arguments)}
    matrix = np.zeros((len(af.arguments), len(af.arguments)))
    for (s, t), value in measure.entries:
        matrix[index[t], index[s]] = value
    return matrix


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
        peak = float(np.max(np.abs(reached)))
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
    """Intensity impact of a set: the sum of its members' single impacts."""
    xs = _checked_subject(af, subject, target)
    if not xs:
        return ImpactValue(0.0)
    if measure is None:
        measure = shapley_all(af, spec, shapley_config)
    matrix = _intensity_matrix(af, measure)
    index = {a: i for i, a in enumerate(af.arguments)}
    total = 0.0
    converged = True
    for member in xs:
        value, ok = _walk_series(matrix, index[member], index[target], series)
        total += value
        converged = converged and ok
    return ImpactValue(total, converged)


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
