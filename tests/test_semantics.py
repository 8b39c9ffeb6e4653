"""Scoring rules: golden values, defining equations, and structural checks.

The fixed-point rules are verified against their defining equations rather
than a second solver: a degree vector that satisfies the equations to
within tolerance and is reached from several different starting vectors is
the semantics, whatever route computed it.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gradimpact import (
    ArgumentationFramework,
    CountingConfig,
    DivergentSeriesError,
    NonConvergenceError,
    SemanticsSpec,
    UnknownArgumentError,
    Weighting,
    check_attack_removal_monotonicity,
    check_directionality,
    check_independence,
    counting_norm,
    degrees,
)
from gradimpact import semantics
from gradimpact.fixtures import chain_pair, disjoint_pair
from gradimpact.generate import GeneratorConfig, random_af
from gradimpact.semantics import KINDS

from oracles import picard_scores

GOLDEN_RATIO_INVERSE = (math.sqrt(5.0) - 1.0) / 2.0


@st.composite
def solver_frameworks(draw):
    n = draw(st.integers(1, 5))
    names = [f"a{i}" for i in range(1, n + 1)]
    pairs = [(s, t) for s in names for t in names]
    attacks = draw(st.lists(st.sampled_from(pairs), unique=True))
    return ArgumentationFramework.of(names, attacks)


def _residual(af, kind, scores, alpha=0.98):
    worst = 0.0
    if kind == "cs":
        norm = af.max_in_degree()
        if norm == 0:
            return max(abs(scores[a] - 1.0) for a in af.arguments)
    for a in af.arguments:
        attackers = af.attackers(a)
        if kind == "hbs":
            expected = 1.0 / (1.0 + sum(scores[b] for b in attackers))
        elif kind == "car":
            k = len(attackers)
            expected = (
                1.0
                if k == 0
                else 1.0 / (1.0 + k + sum(scores[b] for b in attackers) / k)
            )
        elif kind == "max":
            expected = 1.0 / (1.0 + max((scores[b] for b in attackers), default=0.0))
        else:
            expected = 1.0 - (alpha / norm) * sum(scores[b] for b in attackers)
        worst = max(worst, abs(scores[a] - expected))
    return worst


def test_hbs_degrees_on_showcase(showcase):
    scores = degrees(showcase, SemanticsSpec("hbs"))
    assert scores["a6"] == 1.0
    assert scores["a11"] == 1.0
    assert scores["a5"] == pytest.approx(0.5, abs=1e-9)
    assert scores["a1"] == pytest.approx(GOLDEN_RATIO_INVERSE, abs=1e-9)
    assert scores["a3"] == pytest.approx(1.0 / (1.0 + 2.0 * GOLDEN_RATIO_INVERSE), abs=1e-9)
    assert scores["a4"] == pytest.approx(0.389826, abs=1e-6)


def test_max_degrees_on_showcase(showcase):
    scores = degrees(showcase, SemanticsSpec("max"))
    assert scores["a1"] == pytest.approx(GOLDEN_RATIO_INVERSE, abs=1e-9)
    assert scores["a5"] == pytest.approx(0.5, abs=1e-9)
    # the worst attacker of a4 scores the inverse golden ratio
    assert scores["a4"] == pytest.approx(1.0 / (1.0 + GOLDEN_RATIO_INVERSE), abs=1e-9)


def test_car_degrees_on_showcase(showcase):
    scores = degrees(showcase, SemanticsSpec("car"))
    assert scores["a1"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)
    assert scores["a5"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert scores["a4"] == pytest.approx(0.230054, abs=1e-6)


def test_counting_degrees_on_triangle():
    before, attack = chain_pair()
    after = ArgumentationFramework.of(before.arguments, before.attacks + (attack,))
    spec = SemanticsSpec("cs")
    first = degrees(before, spec)
    assert first["a1"] == pytest.approx(1.0, abs=1e-12)
    assert first["a2"] == pytest.approx(0.02, abs=1e-12)
    assert first["a3"] == pytest.approx(0.02, abs=1e-12)
    second = degrees(after, spec)
    assert second["a2"] == pytest.approx(0.51, abs=1e-12)
    assert second["a3"] == pytest.approx(0.2601, abs=1e-12)


def test_attack_free_scores_are_all_one():
    af = ArgumentationFramework.of(["x", "y", "z"], [])
    for kind in KINDS:
        assert set(degrees(af, SemanticsSpec(kind)).values()) == {1.0}


@settings(max_examples=60, deadline=None)
@given(solver_frameworks(), st.sampled_from(KINDS))
def test_scores_satisfy_their_defining_equations(af, kind):
    scores = degrees(af, SemanticsSpec(kind))
    assert all(0.0 <= v <= 1.0 for v in scores.values())
    assert _residual(af, kind, scores) < 1e-9


@settings(max_examples=40, deadline=None)
@given(solver_frameworks(), st.sampled_from(("hbs", "car", "max")))
def test_fixed_point_is_reached_from_any_start(af, kind):
    spec = SemanticsSpec(kind)
    from_ones = degrees(af, spec)
    for start in (0.0, 0.37):
        other = degrees(af, spec, initial_value=start)
        assert all(
            abs(from_ones[a] - other[a]) < 1e-9 for a in af.arguments
        )


@settings(max_examples=40, deadline=None)
@given(
    solver_frameworks(),
    st.sampled_from(("hbs", "car", "max")),
    st.integers(1, 6),
)
def test_picard_solve_equals_the_reference_loop(af, kind, budget):
    for spec in (SemanticsSpec(kind), SemanticsSpec(kind, max_iterations=budget)):
        for start in (1.0, 0.0, 0.37):
            scores, sweeps, residual = picard_scores(
                af.arguments,
                af.attacks,
                kind,
                start,
                spec.tolerance,
                spec.max_iterations,
            )
            if residual <= spec.tolerance:
                assert degrees(af, spec, initial_value=start).as_dict() == scores
                continue
            with pytest.raises(NonConvergenceError) as err:
                degrees(af, spec, initial_value=start)
            assert (err.value.iterations, err.value.residual) == (sweeps, residual)


@pytest.mark.parametrize("kind", ["hbs", "car", "max"])
def test_hub_degrees_equal_the_reference_loop(kind):
    # Two hubs under 58 and 30 attackers, which form a chain where each
    # attacks the next two, so their degrees differ: long sums whose rounding
    # depends on the order they are added in, folded slot by slot and, for
    # the hubs, run by run.
    names = [f"a{i:02d}" for i in range(60)]
    chain = names[2:]
    attacks = [(b, names[0]) for b in chain] + [(b, names[1]) for b in chain[:30]]
    for step in (1, 2):
        attacks += [(b, c) for b, c in zip(chain, chain[step:])]
    af = ArgumentationFramework.of(names, attacks)
    scores, _, _ = picard_scores(af.arguments, af.attacks, kind)
    assert degrees(af, SemanticsSpec(kind)).as_dict() == scores


def _traced_peak(af, spec):
    """Peak bytes of the numpy arrays and Python objects one cold solve allocates."""
    semantics._cached_degrees.cache_clear()
    tracemalloc.start()
    try:
        degrees(af, spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counting_solve_allocates_one_system_of_numpy_arrays():
    # LAPACK's working copy of the matrix is plain malloc, which tracemalloc
    # does not see, so this bounds the numpy-allocated arrays only.
    af = random_af(GeneratorConfig(400, 0.01, seed=11))
    n = len(af.arguments)
    assert _traced_peak(af, SemanticsSpec("cs")) < 1.5 * n * n * 8


@pytest.mark.parametrize("kind", ["hbs", "car", "max"])
def test_picard_solve_memory_is_linear_in_a_star(kind):
    # One argument attacked by all the others: n + m arguments and attacks,
    # where any n x in-degree table would hold n^2 cells.
    names = [f"a{i:04d}" for i in range(3000)]
    af = ArgumentationFramework.of(names, [(b, names[0]) for b in names[1:]])
    assert _traced_peak(af, SemanticsSpec(kind)) < 100 * (2 * len(names)) * 8
    scores, _, _ = picard_scores(af.arguments, af.attacks, kind)
    assert degrees(af, SemanticsSpec(kind)).as_dict() == scores


def test_degrees_input_validation(showcase):
    with pytest.raises(ValueError):
        degrees(ArgumentationFramework.of([], []), SemanticsSpec("hbs"))
    with pytest.raises(ValueError):
        degrees(showcase, SemanticsSpec("hbs"), initial_value=1.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        SemanticsSpec("median")
    with pytest.raises(ValueError):
        SemanticsSpec("hbs", tolerance=0.0)
    with pytest.raises(ValueError):
        SemanticsSpec("hbs", max_iterations=0)
    with pytest.raises(ValueError):
        CountingConfig(damping=1.0)
    with pytest.raises(ValueError):
        CountingConfig(norm_override=0.0)


def test_iteration_budget_is_enforced():
    pair = ArgumentationFramework.of(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(NonConvergenceError) as err:
        degrees(pair, SemanticsSpec("hbs", max_iterations=1))
    assert err.value.iterations == 1
    assert err.value.residual > 0.0


def test_counting_norm_rules(showcase):
    assert counting_norm(showcase, CountingConfig()) == 3.0
    assert counting_norm(showcase, CountingConfig(norm_override=5.0)) == 5.0
    assert counting_norm(ArgumentationFramework.of(["a"], []), CountingConfig()) is None
    with pytest.raises(DivergentSeriesError):
        counting_norm(showcase, CountingConfig(norm_override=2.0))


def test_norm_override_below_indegree_raises_through_degrees(showcase):
    spec = SemanticsSpec("cs", counting=CountingConfig(norm_override=1.0))
    with pytest.raises(DivergentSeriesError):
        degrees(showcase, spec)


def test_weighting_is_a_clamped_mapping():
    w = Weighting({"b": 1.0 + 5e-10, "a": -5e-10})
    assert list(w) == ["a", "b"]
    assert w["a"] == 0.0
    assert w["b"] == 1.0
    assert len(w) == 2
    assert w.as_dict() == {"a": 0.0, "b": 1.0}
    with pytest.raises(UnknownArgumentError):
        w["c"]
    with pytest.raises(ValueError):
        Weighting({"a": 1.1})


def test_disjoint_union_leaves_fixed_point_scores_alone():
    for kind in ("hbs", "car", "max"):
        verdict = check_independence(SemanticsSpec(kind), [disjoint_pair()])
        assert verdict.passed
        assert verdict.trials == 1


def test_disjoint_union_shifts_counting_scores():
    verdict = check_independence(SemanticsSpec("cs"), [disjoint_pair()])
    assert not verdict.passed
    w = verdict.witness
    assert w is not None
    assert w.gap > verdict.tolerance
    # replay: the flagged argument really scores differently when joined
    left, right = w.frameworks
    alone = degrees(left.union(right), SemanticsSpec("cs"))
    assert alone[w.targets[0]] == pytest.approx(w.rhs, abs=1e-9)


def test_independence_check_requires_disjoint_pairs():
    af = ArgumentationFramework.of(["a"], [])
    with pytest.raises(ValueError):
        check_independence(SemanticsSpec("hbs"), [(af, af)])


def test_added_attack_only_reaches_downstream_for_fixed_points():
    for kind in ("hbs", "car", "max"):
        assert check_directionality(SemanticsSpec(kind), [chain_pair()]).passed


def test_added_attack_leaks_through_counting_normalisation():
    verdict = check_directionality(SemanticsSpec("cs"), [chain_pair()])
    assert not verdict.passed
    assert verdict.witness.attack == ("a2", "a3")
    assert verdict.witness.targets[0] not in ("a3",)


def test_directionality_check_validates_instances():
    af, attack = chain_pair()
    present = ArgumentationFramework.of(af.arguments, af.attacks + (attack,))
    with pytest.raises(ValueError):
        check_directionality(SemanticsSpec("hbs"), [(present, attack)])
    with pytest.raises(UnknownArgumentError):
        check_directionality(SemanticsSpec("hbs"), [(af, ("a2", "zz"))])


def test_removing_attacks_never_hurts_fixed_point_targets(property_corpus):
    for kind in ("hbs", "car", "max"):
        verdict = check_attack_removal_monotonicity(
            SemanticsSpec(kind), property_corpus[:25]
        )
        assert verdict.passed
        assert verdict.trials > 0


def test_removing_an_attack_can_hurt_a_counting_target():
    before, attack = chain_pair()
    after = ArgumentationFramework.of(before.arguments, before.attacks + (attack,))
    verdict = check_attack_removal_monotonicity(SemanticsSpec("cs"), [after])
    assert not verdict.passed
    w = verdict.witness
    assert w.removed_attacks == (("a2", "a3"),)
    assert w.lhs > w.rhs  # the degree dropped when the attack was removed
