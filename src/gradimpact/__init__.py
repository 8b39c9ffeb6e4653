"""Acceptability degrees, attack intensities and impact measures for attack graphs.

Each public name is resolved from its submodule on first use (PEP 562), so
``import gradimpact`` loads neither numpy nor any submodule, and a program
loads only the modules whose names it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_HOMES = {
    "attribution": "ShapleyConfig ShapleyMeasure check_bounded_loss shapley_all",
    "automorphisms": "find_automorphisms",
    "errors": (
        "DivergenceError DivergentSeriesError DuplicateArgumentError"
        " DuplicateAttackError ExactModeRequiredError FormatSyntaxError"
        " GradimpactError IncompleteMatrixError InconsistentAnnotationError"
        " MissingSeparatorError NonConvergenceError ParseError TooLargeError"
        " UnknownArgumentError UnknownAttackError UnsupportedInstanceError"
    ),
    "formats": "parse parse_apx parse_tgf serialize",
    "framework": "ArgumentationFramework Attack",
    "generate": "GeneratorConfig random_af",
    "impact": (
        "ImpactValue SeriesConfig evaluate_impact imp_dv imp_dv_original imp_si"
        " impact_payload"
    ),
    "principles": (
        "AuditConfig AuditResult PRINCIPLES audit check_principle"
        " compare_with_expected corpus_frameworks crosscheck_implications"
        " expected_status fixture_entries"
    ),
    "semantics": (
        "CountingConfig KINDS SemanticsSpec Weighting"
        " check_attack_removal_monotonicity check_directionality"
        " check_independence counting_norm degrees weighting_payload"
    ),
    "verdicts": "COUNTEREXAMPLE NO_COUNTEREXAMPLE PrincipleVerdict Witness",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
