import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradimpact import (
    ArgumentationFramework,
    AuditConfig,
    DivergenceError,
    GradimpactError,
    ImpactValue,
    InconsistentAnnotationError,
    SemanticsSpec,
    SeriesConfig,
    ShapleyMeasure,
    UnknownArgumentError,
    UnknownAttackError,
    degrees,
    evaluate_impact,
    imp_dv,
    imp_dv_original,
    imp_si,
    impact_payload,
    shapley_all,
)
from gradimpact.fixtures import fan_af, selfloop_af
from gradimpact import impact
from gradimpact.impact import (
    ImpactQuery,
    _series_converges,
    _shared_norm_spec,
    _walk_series,
    prefetch_impacts,
)
from gradimpact.principles import corpus_frameworks
from gradimpact.semantics import KINDS

from oracles import walk_impact

HBS = SemanticsSpec("hbs")


def _intensity_matrix(af, measure):
    """M, whose entry [t, s] is the intensity of the attack from s on t."""
    index = {a: i for i, a in enumerate(af.arguments)}
    matrix = np.zeros((len(index), len(index)))
    for (s, t), value in measure.entries:
        matrix[index[t], index[s]] = value
    return matrix


@st.composite
def attack_graphs(draw):
    n = draw(st.integers(2, 5))
    names = [f"a{i}" for i in range(1, n + 1)]
    pairs = [(s, t) for s in names for t in names]
    attacks = draw(st.lists(st.sampled_from(pairs), unique=True))
    return ArgumentationFramework.of(names, attacks)


def test_deletion_impact_separates_shielding_from_removal(showcase):
    # shielding a1 keeps its own attacks alive, so a4 still feels them
    outcome = imp_dv(showcase, HBS, ["a1"], "a4")
    assert outcome.value == pytest.approx(0.015, abs=0.002)
    assert outcome.converged
    assert outcome.polarity == "positive"


def test_original_deletion_impact_misses_symmetric_attackers(showcase):
    # a1 and a2 attack each other and both attack a3, so swapping one for
    # the other leaves every remaining degree unchanged
    assert imp_dv_original(showcase, HBS, ["a1"], "a4").value == 0.0
    revised = imp_dv(showcase, HBS, ["a1"], "a4").value
    assert abs(revised) > 0.01


def test_both_deletion_variants_agree_away_from_overlap(showcase):
    for subject, target in [
        (("a5",), "a4"),
        (("a8", "a10"), "a4"),
        (("a9",), "a4"),
        (("a4",), "a5"),
    ]:
        revised = imp_dv(showcase, HBS, subject, target).value
        original = imp_dv_original(showcase, HBS, subject, target).value
        assert revised == pytest.approx(original, abs=1e-9)


def test_impact_of_an_argument_on_itself_through_a_self_attack():
    af = selfloop_af()
    assert degrees(af, HBS)["a"] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-9)
    assert imp_dv(af, HBS, ["a"], "a").value == pytest.approx(-0.381966, abs=1e-6)
    assert imp_dv_original(af, HBS, ["a"], "a").value == 0.0
    walked = imp_si(af, HBS, ["a"], "a")
    assert walked.value == pytest.approx(-0.276393, abs=1e-6)
    assert walked.converged


def test_self_attack_series_matches_the_geometric_closed_form():
    af = selfloop_af()
    s = 1.0 - degrees(af, HBS)["a"]
    # alternating geometric series: -s + s^2 - s^3 + ... = -s / (1 + s)
    assert imp_si(af, HBS, ["a"], "a").value == pytest.approx(-s / (1.0 + s), abs=1e-10)


def test_walk_series_on_a_posited_intensity_matrix():
    # a4 -> a3 -> a2 -> a1 and a6 -> a5 -> a2, one strong final attack
    order = ["a1", "a2", "a3", "a4", "a5", "a6"]
    matrix = np.zeros((6, 6))
    strong = 5.0 / 6.0
    matrix[0][1] = strong
    matrix[1][2] = 0.5
    matrix[1][4] = 0.5
    matrix[2][3] = 0.5
    matrix[4][5] = 0.5
    series = SeriesConfig()
    direct, _ = _walk_series(matrix, order.index("a2"), 0, series)
    assert direct == pytest.approx(-strong, abs=1e-12)
    for member in ("a4", "a6"):
        defended, _ = _walk_series(matrix, order.index(member), 0, series)
        assert defended == pytest.approx(-0.25 * strong, abs=1e-12)
    total = direct + 2 * (-0.25 * strong)
    assert total == pytest.approx(-15.0 / 12.0, abs=1e-12)
    assert total < -1.0  # an unbounded rule breaks the unit interval


def test_set_impact_adds_up_over_members(showcase):
    single8 = imp_si(showcase, HBS, ["a8"], "a4").value
    single10 = imp_si(showcase, HBS, ["a10"], "a4").value
    both = imp_si(showcase, HBS, ["a8", "a10"], "a4").value
    assert both == pytest.approx(single8 + single10, abs=1e-12)
    assert single10 == pytest.approx(-0.0402, abs=0.0005)


@settings(max_examples=30, deadline=None)
@given(attack_graphs(), st.sampled_from(("hbs", "car", "max")))
def test_set_impact_equals_the_sum_of_singles(af, kind):
    spec = SemanticsSpec(kind)
    target = af.arguments[0]
    total = imp_si(af, spec, af.arguments, target).value
    parts = sum(
        imp_si(af, spec, (member,), target).value for member in af.arguments
    )
    assert total == pytest.approx(parts, abs=1e-10)


def test_empty_subject_has_no_impact(showcase):
    for name in ("dv", "dv-original", "si"):
        outcome = evaluate_impact(name, showcase, HBS, [], "a4")
        assert outcome.value == 0.0
        assert outcome.polarity == "neutral"


def test_walk_enumeration_agrees_on_an_acyclic_graph():
    af = fan_af()
    from gradimpact import shapley_all

    measure = shapley_all(af, HBS)
    for member in af.arguments:
        for target in af.arguments:
            expected = walk_impact(
                af.arguments, af.attacks, measure.as_dict(), member, target
            )
            got = imp_si(af, HBS, (member,), target, measure=measure)
            assert got.value == pytest.approx(expected, abs=1e-12)


def test_divergence_guard_trips():
    af = selfloop_af()
    with pytest.raises(DivergenceError) as err:
        imp_si(af, HBS, ["a"], "a", series=SeriesConfig(divergence_guard=0.1))
    assert err.value.length >= 1
    assert err.value.guard == 0.1


def test_exhausted_walk_budget_reports_non_convergence():
    af = selfloop_af()
    outcome = imp_si(af, HBS, ["a"], "a", series=SeriesConfig(max_walk_length=3))
    assert not outcome.converged
    s = 1.0 - degrees(af, HBS)["a"]
    assert outcome.value == pytest.approx(-s + s**2 - s**3, abs=1e-12)


def test_counting_reductions_reuse_the_parent_normalisation(showcase):
    spec = SemanticsSpec("cs")
    shared = _shared_norm_spec(showcase, spec)
    assert shared.counting.norm_override == 3.0
    assert _shared_norm_spec(showcase, HBS) is HBS
    assert imp_dv(showcase, spec, ["a8"], "a4").value == pytest.approx(-0.327, abs=0.002)


def _deletion_reference(af, spec, subject, target, original):
    """dv or dv-original from the reduced frameworks that define it."""
    scoring = _shared_norm_spec(af, spec)
    xs = set(subject)
    if original:
        attackers = set(af.external_attackers(xs))
        shielded = af.restrict(
            a for a in af.arguments if a == target or a not in attackers
        )
        without = af.restrict(a for a in af.arguments if a == target or a not in xs)
    else:
        shielded = af.delete_attacks(af.external_attacks(xs))
        without = af.delete_arguments(xs, target)
    return degrees(shielded, scoring)[target] - degrees(without, scoring)[target]


# A dense cs solve rounds differently once deleted arguments stay in its
# system as isolated rows: the LU runs on a larger matrix.
DENSE_ROUNDING = 2 * math.ulp(1.0)


@pytest.mark.parametrize("kind", KINDS)
def test_deletion_impacts_equal_their_reduced_frameworks(property_corpus, kind):
    spec = SemanticsSpec(kind)
    for af in property_corpus:
        pairs = combinations(af.arguments, 2)
        subjects = [()] + [(a,) for a in af.arguments] + list(pairs)
        for target in af.arguments:
            for xs in subjects:
                for measure, original in ((imp_dv, False), (imp_dv_original, True)):
                    value = measure(af, spec, xs, target).value
                    expected = _deletion_reference(af, spec, xs, target, original)
                    if kind == "cs":
                        assert abs(value - expected) <= DENSE_ROUNDING
                    else:
                        assert value == expected


def test_counting_reductions_past_the_cutoff_stay_within_tolerance():
    # A ring of 1,023 arguments and one more, x, that attacks it: 1,024
    # arguments are swept, and so is every mask over them, while deleting x
    # leaves the bare ring, which the reference solves dense.
    names = [f"a{i:04d}" for i in range(1023)]
    ring = list(zip(names, names[1:] + names[:1]))
    af = ArgumentationFramework.of(names + ["x"], ring + [("x", "a0000")])
    spec = SemanticsSpec("cs")
    for xs in (["x"], ["x", "a0500"]):
        for measure, original in ((imp_dv, False), (imp_dv_original, True)):
            value = measure(af, spec, xs, "a0007").value
            expected = _deletion_reference(af, spec, xs, "a0007", original)
            assert abs(value - expected) <= spec.tolerance


def test_deletion_impacts_build_no_framework(showcase, monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a framework was built")

    monkeypatch.setattr(ArgumentationFramework, "of", classmethod(refuse))
    for kind in KINDS:
        spec = SemanticsSpec(kind)
        for measure in (imp_dv, imp_dv_original):
            for xs in (["a8"], ["a1", "a4"], showcase.arguments):
                measure(showcase, spec, xs, "a4")


def test_impact_queries_validate_their_arguments(showcase):
    with pytest.raises(UnknownArgumentError):
        imp_dv(showcase, HBS, ["zz"], "a4")
    with pytest.raises(UnknownArgumentError):
        imp_si(showcase, HBS, ["a1"], "zz")
    with pytest.raises(ValueError):
        evaluate_impact("median", showcase, HBS, ["a1"], "a4")


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig(truncation_tolerance=0.0)
    with pytest.raises(ValueError):
        SeriesConfig(max_walk_length=0)
    with pytest.raises(ValueError):
        SeriesConfig(divergence_guard=0.0)
    for guard in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SeriesConfig(divergence_guard=guard)


def test_payload_layout(showcase):
    outcome = evaluate_impact("dv", showcase, HBS, ["a8"], "a4")
    payload = impact_payload("dv", HBS, ["a8"], "a4", outcome)
    assert payload["measure"] == "dv"
    assert payload["semantics"] == "hbs"
    assert payload["subject"] == ["a8"]
    assert payload["target"] == "a4"
    assert payload["value"] == pytest.approx(-0.174, abs=0.002)
    assert payload["polarity"] == "negative"


def _series_outcome(matrix, start, goal, series):
    try:
        return _walk_series(matrix, start, goal, series)
    except DivergenceError as err:
        return ("diverged", err.partial, err.length, err.guard)


def _si_outcome(af, spec, member, target, measure, series):
    try:
        outcome = imp_si(af, spec, (member,), target, measure=measure, series=series)
    except DivergenceError as err:
        return ("diverged", err.partial, err.length, err.guard)
    assert type(outcome.value) is float
    return outcome.value, outcome.converged


@settings(max_examples=40, deadline=None)
@given(
    attack_graphs(),
    st.sampled_from(KINDS),
    st.sampled_from(
        (
            SeriesConfig(),
            SeriesConfig(divergence_guard=0.2),
            SeriesConfig(max_walk_length=4),
            SeriesConfig(truncation_tolerance=1e-3),
        )
    ),
)
def test_closed_form_agrees_with_the_walk_series(af, kind, series):
    spec = SemanticsSpec(kind)
    measure = shapley_all(af, spec)
    matrix = _intensity_matrix(af, measure)
    q = float(np.abs(matrix).sum(axis=1).max())
    gated = _series_converges(q, series)
    index = {a: i for i, a in enumerate(af.arguments)}
    for member in af.arguments:
        for target in af.arguments:
            expected = _series_outcome(matrix, index[member], index[target], series)
            got = _si_outcome(af, spec, member, target, measure, series)
            if not gated:
                assert got == expected
                continue
            # the gate promises a converged series within the guard
            value, converged = expected
            assert converged and got[1]
            bound = series.truncation_tolerance * q / (1.0 - q) + 1e-12
            assert abs(got[0] - value) <= bound


def test_showcase_impacts_need_no_walk_series(showcase, monkeypatch):
    measure = shapley_all(showcase, HBS)
    matrix = _intensity_matrix(showcase, measure)
    index = {a: i for i, a in enumerate(showcase.arguments)}
    series = SeriesConfig()
    expected = {
        (member, target): _walk_series(matrix, index[member], index[target], series)
        for member in showcase.arguments
        for target in showcase.arguments
    }

    def unused(*args):
        raise AssertionError("the walk series ran")

    monkeypatch.setattr(impact, "_walk_series", unused)
    for (member, target), (value, _) in expected.items():
        got = imp_si(showcase, HBS, (member,), target)
        assert got.converged
        assert got.value == pytest.approx(value, abs=1e-12)
    both = imp_si(showcase, HBS, ["a8", "a10"], "a4").value
    assert both == pytest.approx(
        expected[("a8", "a4")][0] + expected[("a10", "a4")][0], abs=1e-12
    )


def test_counting_intensities_above_unit_norm_take_the_series():
    # corpus graph 37 of the default audit: a2 has three cs attackers whose
    # intensities sum past 1 in magnitude
    af = ArgumentationFramework.of(
        ["a1", "a2", "a3", "a4"],
        [("a1", "a2"), ("a1", "a3"), ("a3", "a2"), ("a4", "a2")],
    )
    spec = SemanticsSpec("cs")
    measure = shapley_all(af, spec)
    assert abs(_intensity_matrix(af, measure)).sum(axis=1).max() > 1.0
    # the series' values before the closed form existed, digit for digit
    assert imp_si(af, spec, ["a1"], "a2") == ImpactValue(-0.5268092839506172, True)
    assert imp_si(af, spec, ["a3"], "a2") == ImpactValue(0.10907037037037035, True)
    assert imp_si(af, spec, ["a4"], "a2") == ImpactValue(-0.4911796296296296, True)
    assert imp_si(af, spec, ["a1"], "a3") == ImpactValue(-0.32666666666666666, True)
    matrix = _intensity_matrix(af, measure)
    for member in af.arguments:
        for target in af.arguments:
            start, goal = af.arguments.index(member), af.arguments.index(target)
            value, ok = _walk_series(matrix, start, goal, SeriesConfig())
            assert imp_si(af, spec, [member], target) == ImpactValue(value, ok)


@pytest.mark.parametrize(
    "series",
    [SeriesConfig(), SeriesConfig(divergence_guard=0.2), SeriesConfig(max_walk_length=1)],
)
def test_a_window_runs_the_walk_series_as_imp_si_does(series):
    # Default-audit corpus graphs 37 and 104 are acyclic, and their cs
    # intensities have a norm above 1, so their impacts take the walk
    # series: under the default settings it ends, under a guard of 0.2 some
    # of it diverges, and one step leaves some of it unfinished.  Each
    # outcome is checked against its members' own series, summed in sorted
    # order, and each finished value against the walk oracle too.
    spec = SemanticsSpec("cs")
    corpus = corpus_frameworks(AuditConfig())
    queries, references = [], []
    for af in (corpus[37], corpus[104]):
        measure = shapley_all(af, spec)
        assert abs(_intensity_matrix(af, measure)).sum(axis=1).max() > 1.0
        matrix = _intensity_matrix(af, measure)
        index = af.arguments.index
        subjects = [(x,) for x in af.arguments] + [af.arguments[:2], ()]
        for xs in subjects:
            for t in af.arguments:
                queries.append(ImpactQuery(af, xs, t))
                total, converged = 0.0, True
                try:
                    for x in xs:
                        value, ok = _walk_series(matrix, index(x), index(t), series)
                        total += value
                        converged = converged and ok
                except DivergenceError as err:
                    references.append(err)
                    continue
                if converged:
                    walks = [walk_impact(af.arguments, af.attacks, measure, x, t) for x in xs]
                    assert total == pytest.approx(sum(walks), abs=1e-12)
                references.append((total, converged))
    window = prefetch_impacts("si", spec, queries, series=series)
    diverged = unfinished = 0
    for (af, subject, target), got, reference in zip(queries, window, references):
        if isinstance(reference, DivergenceError):
            diverged += 1
            assert isinstance(got, DivergenceError)
            fields = (got.partial, got.length, got.guard)
            assert fields == (reference.partial, reference.length, reference.guard)
            with pytest.raises(DivergenceError) as err:
                imp_si(af, spec, subject, target, series=series)
            assert (err.value.partial, err.value.length, err.value.guard) == fields
        else:
            unfinished += not reference[1]
            assert got == reference
            assert imp_si(af, spec, subject, target, series=series) == ImpactValue(*got)
    assert (diverged > 0) == (series.divergence_guard < 1.0)
    assert (unfinished > 0) == (series.max_walk_length == 1)


def test_supplied_measure_must_name_attacks_of_the_framework(showcase):
    foreign = shapley_all(fan_af(), HBS)
    first = next(attack for attack in foreign if not showcase.has_attack(*attack))
    with pytest.raises(UnknownAttackError) as err:
        imp_si(showcase, HBS, ["a8"], "a4", measure=foreign)
    assert (err.value.source, err.value.target) == first
    # A missing attack would read as intensity 0, a repeated one as its
    # last value.
    full = shapley_all(showcase, HBS)
    entries = full.entries
    for broken in (
        (),
        entries[:3],
        entries[:-1],
        entries + entries[:1],
        entries[:1] + entries[:-1],
    ):
        measure = ShapleyMeasure(entries=broken, mode=full.mode)
        with pytest.raises(InconsistentAnnotationError):
            imp_si(showcase, HBS, ["a8"], "a4", measure=measure)
    assert imp_si(showcase, HBS, ["a8"], "a4", measure=full) == imp_si(
        showcase, HBS, ["a8"], "a4"
    )


@pytest.mark.parametrize("kind", KINDS)
def test_a_cached_impact_hashes_its_framework_at_most_three_times(showcase, monkeypatch, kind):
    spec = SemanticsSpec(kind)
    calls = []
    framework_hash = ArgumentationFramework.__hash__

    def counted(af):
        calls.append(af)
        return framework_hash(af)

    for measure in (imp_dv, imp_si):
        cold = measure(showcase, spec, ["a8", "a10"], "a4")
        monkeypatch.setattr(ArgumentationFramework, "__hash__", counted)
        calls.clear()
        assert measure(showcase, spec, ["a8", "a10"], "a4") == cold
        monkeypatch.undo()
        assert len(calls) <= 3, (measure.__name__, len(calls))


def test_a_failing_call_leaves_no_error_in_the_library(showcase):
    # Each call solves its failing systems afresh, as the degree store
    # keeps no failure, so no error object is raised twice.
    spec = SemanticsSpec("hbs", max_iterations=3)
    for measure in (imp_dv, imp_si):
        raised = []
        for _ in range(2):
            with pytest.raises(GradimpactError) as caught:
                measure(showcase, spec, ["a8"], "a4")
            raised.append(caught.value)
        assert raised[0] is not raised[1]
        kept = [f for flat in impact._library._flats.values() for f in flat.failures.values()]
        assert not any(isinstance(f, Exception) for f in kept)
