"""Output checks that rest on the definitions, not on the library's code.

Each check returns a list of problem strings; an empty list means the output
passed.  Degrees are checked against their semantics' defining equation,
recomputed here from the attack lists; exact intensities against Shapley
efficiency; walk impacts against their convergence flag; audits against the
published satisfaction pattern and the implication closure.
"""

from __future__ import annotations

import math
from typing import Mapping

DEGREE_TOLERANCE = 1e-9
CS_DAMPING = 0.98  # the CLI and SemanticsSpec default for ``cs``


def _rule(kind: str, incoming: list[float], top: int, damping: float) -> float:
    """The right-hand side of the defining equation v(a) = rule(attackers' degrees).

    hbs: 1 / (1 + sum);  car: 1 / (1 + k + sum / k), 1 when unattacked;
    max: 1 / (1 + max);  cs: 1 - (alpha / N) sum, a row of
    (I + alpha M / N) v = 1 with N the largest in-degree.
    """
    if kind == "hbs":
        return 1.0 / (1.0 + sum(incoming))
    if kind == "car":
        k = len(incoming)
        return 1.0 / (1.0 + k + sum(incoming) / k) if k else 1.0
    if kind == "max":
        return 1.0 / (1.0 + max(incoming, default=0.0))
    if kind == "cs":
        return 1.0 - (damping / top) * sum(incoming) if top else 1.0
    raise ValueError(f"unknown semantics {kind!r}")


def degree_residual(
    kind: str,
    attackers: Mapping[str, list[str]],
    values: Mapping[str, float],
    damping: float = CS_DAMPING,
) -> float:
    """Largest violation of the defining equation over all arguments."""
    top = max((len(v) for v in attackers.values()), default=0)
    return max(
        (abs(values[a] - _rule(kind, [values[b] for b in sources], top, damping)) for a, sources in attackers.items()),
        default=0.0,
    )


def check_degrees(kind: str, attackers: Mapping[str, list[str]], values: Mapping[str, float]) -> list[str]:
    if set(values) != set(attackers):
        return [f"{kind} degrees do not cover the arguments exactly"]
    if not all(math.isfinite(v) for v in values.values()):
        return [f"{kind} degrees are not all finite"]
    residual = degree_residual(kind, attackers, values)
    if residual > DEGREE_TOLERANCE:
        return [f"{kind} degrees miss their defining equation by {residual:.3g}"]
    return []


def picard(
    kind: str, attackers: Mapping[str, list[str]], tolerance: float = 1e-14, damping: float = CS_DAMPING
) -> tuple[dict[str, float], int]:
    """Degrees by plain Picard iteration from all ones (Jacobi for ``cs``), with the sweeps taken."""
    top = max((len(v) for v in attackers.values()), default=0)
    values = {a: 1.0 for a in attackers}
    for sweep in range(1, 100_000):
        updated = {a: _rule(kind, [values[b] for b in sources], top, damping) for a, sources in attackers.items()}
        step = max(abs(updated[a] - values[a]) for a in values)
        values = updated
        if step <= tolerance:
            return values, sweep
    raise RuntimeError("reference iteration did not settle")


def check_efficiency(
    attackers: Mapping[str, list[str]],
    intensities: Mapping[tuple[str, str], float],
    values: Mapping[str, float],
    exact_cap: int | None = None,
) -> list[str]:
    """Exact intensities into a target sum to its degree loss, 1 - v(t).

    Removing every attack on t leaves t unattacked, and an unattacked
    argument scores 1 under all four semantics.  Targets above ``exact_cap``
    attackers were sampled, so they only need finite values in [-1, 1].
    """
    expected = {(s, t) for t, sources in attackers.items() for s in sources}
    if set(intensities) != expected:
        return ["intensities do not cover the attacks exactly"]
    problems = []
    for t, sources in attackers.items():
        if not sources:
            continue
        shares = [intensities[(s, t)] for s in sources]
        if not all(math.isfinite(v) and abs(v) <= 1.0 for v in shares):
            problems.append(f"intensities into {t} leave [-1, 1]")
        elif exact_cap is None or len(sources) <= exact_cap:
            gap = abs(sum(shares) - (1.0 - values[t]))
            if gap > DEGREE_TOLERANCE:
                problems.append(f"intensities into {t} miss the degree loss by {gap:.3g}")
    return problems


def check_impact(value: float, converged: bool, bounded: bool) -> list[str]:
    """A walk impact must report convergence; a deletion impact, a difference
    of two degrees, must also lie in [-1, 1]."""
    if not converged:
        return ["impact series did not converge"]
    if not math.isfinite(value):
        return [f"impact {value!r} is not finite"]
    if bounded and abs(value) > 1.0 + DEGREE_TOLERANCE:
        return [f"impact {value!r} outside [-1, 1]"]
    return []


def check_audit(result, cells: int) -> list[str]:
    """The verdict matrix is complete, matches the pattern and respects the implications."""
    # Looked up at call time, so a traced round records these calls as spans.
    from gradimpact import principles

    if len(result.verdicts) != cells:
        return [f"audit returned {len(result.verdicts)} cells, expected {cells}"]
    problems = principles.compare_with_expected(result)
    problems += [f"implication broken: {issue}" for issue in principles.crosscheck_implications(result)]
    return problems


def check_exit(code: int, stderr: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-200:]}"]
    return []
