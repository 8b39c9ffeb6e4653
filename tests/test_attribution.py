import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradimpact import (
    ArgumentationFramework,
    CountingConfig,
    ExactModeRequiredError,
    SemanticsSpec,
    ShapleyConfig,
    UnknownAttackError,
    check_bounded_loss,
    degrees,
    imp_dv,
    shapley_all,
)
from gradimpact import attribution, semantics
from gradimpact.attribution import EXACT_MODE, SAMPLED_MODE
from gradimpact.fixtures import fan_af
from gradimpact.semantics import KINDS

from oracles import (
    counting_coalition_degree,
    counting_series,
    permutation_shapley,
    picard_scores,
    reference_shapley,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

# The default config, and one that samples every target with two or more
# attackers.
CONFIGS = (ShapleyConfig(), ShapleyConfig(exact_indegree_cap=1, sample_count=16, seed=3))


@st.composite
def attack_graphs(draw):
    n = draw(st.integers(2, 4))
    names = [f"a{i}" for i in range(1, n + 1)]
    pairs = [(s, t) for s in names for t in names]
    attacks = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1)
    )
    return ArgumentationFramework.of(names, attacks)


@st.composite
def seven_argument_graphs(draw):
    names = [f"a{i}" for i in range(1, 8)]
    pairs = [(s, t) for s in names for t in names]
    attacks = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=16))
    return ArgumentationFramework.of(names, attacks)


def _worth(af, spec, target):
    def evaluate(removed):
        gone = set(removed)
        sub = ArgumentationFramework.of(
            af.arguments, (c for c in af.attacks if c not in gone)
        )
        return degrees(sub, spec)[target]

    return evaluate


def test_single_attack_intensity_is_the_degree_gap():
    af = ArgumentationFramework.of(["a", "b"], [("a", "b")])
    spec = SemanticsSpec("hbs")
    assert shapley_all(af, spec)[("a", "b")] == pytest.approx(0.5, abs=1e-9)


def test_symmetric_attackers_split_the_loss_evenly():
    af = fan_af()
    spec = SemanticsSpec("hbs")
    measure = shapley_all(af, spec)
    assert measure[("w1", "t1")] == pytest.approx(measure[("m", "t1")], abs=1e-12)
    assert measure[("w1", "t1")] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_showcase_intensities(showcase):
    measure = shapley_all(showcase, SemanticsSpec("hbs"))
    assert measure.mode == EXACT_MODE
    assert len(measure) == len(showcase.attacks)
    assert measure[("a6", "a5")] == pytest.approx(0.5, abs=1e-9)
    assert measure[("a8", "a4")] == pytest.approx(0.235450, abs=1e-6)
    assert measure[("a3", "a4")] == pytest.approx(0.178266, abs=1e-6)
    assert measure[("a5", "a4")] == pytest.approx(0.196458, abs=1e-6)
    # entries come out ordered by target, then source
    keys = list(measure.entries)
    assert keys == sorted(keys, key=lambda kv: (kv[0][1], kv[0][0]))


def test_negative_intensity_under_counting():
    af = ArgumentationFramework.of(
        ["a1", "a2", "a3"], [("a1", "a2"), ("a1", "a3"), ("a2", "a3")]
    )
    measure = shapley_all(af, SemanticsSpec("cs"))
    assert measure[("a1", "a2")] == pytest.approx(0.49, abs=1e-9)
    assert measure[("a1", "a3")] == pytest.approx(0.85015, abs=1e-5)
    assert measure[("a2", "a3")] == pytest.approx(-0.11025, abs=1e-5)


@settings(max_examples=40, deadline=None)
@given(attack_graphs(), st.sampled_from(KINDS))
def test_matches_full_permutation_enumeration(af, kind):
    spec = SemanticsSpec(kind)
    measure = shapley_all(af, spec)
    for target in af.arguments:
        incoming = af.attacks_on(target)
        if not incoming:
            continue
        expected = permutation_shapley(incoming, _worth(af, spec, target))
        for attack in incoming:
            assert measure[attack] == pytest.approx(expected[attack], abs=1e-9)


# Under max, b attacks a alongside the unattacked c, so every coalition
# that keeps c gives b a marginal of exactly 0.0.
MAX_ZEROS = ArgumentationFramework.of(
    ["a", "b", "c", "d"], [("b", "a"), ("c", "a"), ("d", "b")]
)
# b and c attack a alike, so their rows of marginals tie.
SYMMETRIC = ArgumentationFramework.of(["a", "b", "c"], [("b", "a"), ("c", "a")])
# a0 has eight attackers, two of them attacked.
WIDE = ArgumentationFramework.of(
    [f"a{i}" for i in range(9)],
    [(f"a{i}", "a0") for i in range(1, 9)] + [("a1", "a2"), ("a3", "a4")],
)


@settings(max_examples=40, deadline=None)
@given(attack_graphs(), st.sampled_from(KINDS), st.sampled_from(CONFIGS))
@example(MAX_ZEROS, "max", CONFIGS[0])
@example(SYMMETRIC, "hbs", CONFIGS[0])
@example(WIDE, "car", CONFIGS[0])
@example(WIDE, "max", CONFIGS[1])
def test_batched_solve_equals_the_one_by_one_reference(af, kind, config):
    spec = SemanticsSpec(kind)

    def worth(target, removed):
        return degrees(af.delete_attacks(removed), spec)[target]

    expected = reference_shapley(
        af.arguments,
        af.attacks,
        worth,
        config.exact_indegree_cap,
        config.sample_count,
        config.seed,
    )
    measure = shapley_all(af, spec, config)
    if kind != "cs":
        # As hex, so that -0.0 does not pass for 0.0.
        entries, mode = expected
        assert measure.mode == mode
        assert [(attack, value.hex()) for attack, value in measure.entries] == [
            (attack, value.hex()) for attack, value in entries
        ]
        return
    # Dense cs coalitions are rank-one updates, each within 1e-14 of its
    # dense solve, and an intensity's marginal weights sum to 1.
    entries, mode = expected
    assert measure.mode == mode
    assert [attack for attack, _ in measure.entries] == [attack for attack, _ in entries]
    for (_, value), (_, reference) in zip(measure.entries, entries):
        assert abs(value - reference) <= 2e-14


@pytest.mark.parametrize("cells", [1, 200])
@pytest.mark.parametrize(
    "kind, solver",
    [("hbs", "_picard_rows"), ("cs", "_counting_rows"), ("cs", "_picard_rows")],
)
def test_rows_split_across_chunks_give_the_same_values(
    showcase, monkeypatch, cells, kind, solver
):
    spec = SemanticsSpec(kind)
    # Pin cs to one solver, whatever the budget, so that the budget only
    # splits the rows into chunks.
    monkeypatch.setattr(semantics, "_dense", lambda spec, n: solver == "_counting_rows")

    def unsplit(af, spec, config):
        return _afresh(attribution._cached_shapley_all, shapley_all, af, spec, config)

    whole = unsplit(showcase, spec, ShapleyConfig())
    if solver == "_counting_rows":
        # Dense cs coalitions are rank-one updates of one LU per (framework,
        # norm) pair, however small the budget cuts the batches.
        factored = []
        solve = np.linalg.solve

        def counted_lu(systems, rhs):
            factored.append(len(systems))
            return solve(systems, rhs)

        monkeypatch.setattr(np.linalg, "solve", counted_lu)
        monkeypatch.setattr(semantics, "COALITION_CELLS", cells)
        split = unsplit(showcase, spec, ShapleyConfig())
        assert sum(factored) == len(_coalition_norms(showcase)) == 2
        assert split == whole
        return
    chunks = []
    solve = getattr(semantics, solver)

    def counted(*args):
        chunks.append(len(args[2]))
        return solve(*args)

    monkeypatch.setattr(semantics, solver, counted)
    monkeypatch.setattr(semantics, "COALITION_CELLS", cells)
    split = unsplit(showcase, spec, ShapleyConfig())
    assert len(chunks) >= 3
    assert split == whole


def _afresh(store, solve, *args):
    """``solve(*args)`` solved from an empty ``store``, which is left empty,
    so that no result solved under a patch outlives it."""
    store.cache_clear()
    try:
        return solve(*args)
    finally:
        store.cache_clear()


def _coalition_norms(af):
    """The distinct positive largest in-degrees of the frameworks left by
    removing a coalition of one target's attacks."""
    norms = set()
    for a in af.arguments:
        incoming = af.attacks_on(a)
        for mask in range(1 << len(incoming)):
            removed = [c for i, c in enumerate(incoming) if mask >> i & 1]
            norms.add(af.delete_attacks(removed).max_in_degree())
    return norms - {0}


def _all_coalitions(af):
    """Every (target, coalition) row over every subset of each target's attacks."""
    return [
        (t, coalition)
        for t, a in enumerate(af.arguments)
        for coalition in range(1 << af.in_degree(a))
    ]


def _planned_rows(af, config):
    """The ``(t, coalition)`` row of each score of the framework's Shapley
    plan, in the plan's order."""
    plan = attribution.plan_intensities(af, config)
    first = semantics._attackers(af).first.tolist()
    masks = [mask for mask, count in zip(plan.masks, plan.counts.tolist()) for _ in range(count)]
    return [(t, mask >> first[t]) for t, mask in zip(plan.targets.tolist(), masks)]


def _removed(af, t, coalition):
    """The attacks a ``(t, coalition)`` row drops: bit j, the j-th attack on t."""
    incoming = af.attacks_on(af.arguments[t])
    return [c for j, c in enumerate(incoming) if coalition >> j & 1]


@settings(max_examples=60, deadline=None)
@given(attack_graphs(), st.sampled_from((None, 4.0, 6.5)))
# a1 alone has the top in-degree, so removing either of its attackers
# lowers the norm of that row.
@example(
    ArgumentationFramework.of(
        ["a1", "a2", "a3"], [("a2", "a1"), ("a3", "a1"), ("a3", "a2"), ("a1", "a3")]
    ),
    None,
)
def test_swept_counting_solve_agrees_with_the_dense_one(af, norm):
    spec = SemanticsSpec("cs", counting=CountingConfig(norm_override=norm))
    rows = _all_coalitions(af)
    store = semantics._cached_degrees
    (dense,) = semantics.prefetch_coalitions([(af, spec, rows)])
    dense_whole = _afresh(store, degrees, af, spec)
    with pytest.MonkeyPatch.context() as patch:
        # Every framework is swept, its rows batched at the usual budget.
        patch.setattr(semantics, "_dense", lambda spec, n: False)
        (swept,) = semantics.prefetch_coalitions([(af, spec, rows)])
        swept_whole = _afresh(store, degrees, af, spec)
        reduced = [
            _afresh(store, degrees, af.delete_attacks(_removed(af, t, coalition)), spec)[
                af.arguments[t]
            ]
            for t, coalition in rows
        ]
    bound = spec.tolerance + 1e-13
    # The swept rows are the swept reduced frameworks, bit for bit.
    assert swept == reduced
    for a in af.arguments:
        assert abs(swept_whole[a] - dense_whole[a]) <= bound
    for (t, coalition), s, d in zip(rows, swept, dense):
        sub = af.delete_attacks(_removed(af, t, coalition))
        top = norm if norm is not None else sub.max_in_degree()
        series = (
            counting_series(sub.arguments, sub.attacks, spec.counting.damping, top)
            if top
            else dict.fromkeys(sub.arguments, 1.0)
        )
        assert abs(s - d) <= bound
        assert abs(s - series[af.arguments[t]]) <= bound


def _hub():
    """A self-attacking hub that alone holds the top in-degree, 6, over 2."""
    names = ["h", "a1", "a2", "a3", "a4", "a5"]
    attacks = [(a, "h") for a in names] + [("h", "a1"), ("a2", "a1"), ("a1", "a3")]
    return ArgumentationFramework.of(names, attacks)


@settings(max_examples=60, deadline=None)
@given(attack_graphs(), st.sampled_from((None, 0.0, 2.5)), st.sampled_from(CONFIGS))
# Removing the hub's attacks lowers the norm from 6 through 5, 4 and 3 to 2.
@example(_hub(), None, CONFIGS[0])
@example(_hub(), 0.0, CONFIGS[1])
# a3 is attack-free, and emptying a1 leaves a framework with no attack.
@example(
    ArgumentationFramework.of(["a1", "a2", "a3"], [("a2", "a1"), ("a3", "a1")]),
    None,
    CONFIGS[0],
)
def test_rank_one_rows_agree_with_dense_solves(af, extra, config):
    # extra None keeps the derived frameworks' own norms; otherwise the
    # override is the parent's largest in-degree plus extra.
    norm = None if extra is None else af.max_in_degree() + extra
    spec = SemanticsSpec("cs", counting=CountingConfig(norm_override=norm))
    rows = _all_coalitions(af) + _planned_rows(af, config)
    (values,) = semantics.prefetch_coalitions([(af, spec, rows)])
    for (t, coalition), value in zip(rows, values):
        expected = counting_coalition_degree(
            af.arguments,
            af.attacks,
            spec.counting.damping,
            norm,
            af.arguments[t],
            _removed(af, t, coalition),
        )
        assert abs(value - expected) <= 1e-14


def test_a_counting_session_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, and that import alone
    # took 18-22 ms of a cold process on a 2-core Xeon with numpy 2.4.
    code = (
        "import sys\n"
        "from gradimpact import GeneratorConfig, SemanticsSpec, random_af, shapley_all\n"
        "af = random_af(GeneratorConfig(30, 0.1, seed=2))\n"
        "assert shapley_all(af, SemanticsSpec('cs')).entries\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout == "False\n"


@settings(max_examples=30, deadline=None)
@given(seven_argument_graphs(), st.sampled_from(KINDS))
def test_exact_intensities_lie_within_twice_the_tolerance(af, kind):
    # Each coalition degree is within the tolerance of its fixed point, and
    # an intensity's marginal weights sum to 1.  cs is swept, as past the
    # dense cutoff, and its worth is a dense solve.
    spec = SemanticsSpec(kind, tolerance=1e-6)
    solved = {}

    def worth(target, removed):
        if kind == "cs":
            damping = spec.counting.damping
            return counting_coalition_degree(
                af.arguments, af.attacks, damping, None, target, removed
            )
        gone = frozenset(removed)
        if gone not in solved:
            kept = [c for c in af.attacks if c not in gone]
            solved[gone] = picard_scores(af.arguments, kept, kind, tolerance=1e-14)[0]
        return solved[gone][target]

    expected, mode = reference_shapley(af.arguments, af.attacks, worth, 12, 1, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "_dense", lambda spec, n: False)
        measure = _afresh(attribution._cached_shapley_all, shapley_all, af, spec, ShapleyConfig())
    assert measure.mode == mode == EXACT_MODE
    assert [attack for attack, _ in measure.entries] == [attack for attack, _ in expected]
    for (_, value), (_, exact) in zip(measure.entries, expected):
        assert abs(value - exact) <= 2 * spec.tolerance


@settings(max_examples=30, deadline=None)
@given(seven_argument_graphs(), st.sampled_from(("hbs", "car", "max")), st.data())
def test_deletion_impacts_lie_within_twice_the_tolerance(af, kind, data):
    # dv is the target's degree in one reduced framework less its degree in
    # another, and each lies within the tolerance of its fixed point.
    spec = SemanticsSpec(kind, tolerance=1e-6)
    target = data.draw(st.sampled_from(af.arguments))
    subject = data.draw(st.lists(st.sampled_from(af.arguments), unique=True))
    xs = set(subject)
    # Shielded: no attack into the subject from outside it.  Deleted: no
    # attack touching the subject, whose members but the target are gone.
    shielded = [(s, t) for s, t in af.attacks if t not in xs or s in xs]
    deleted = [(s, t) for s, t in af.attacks if s not in xs and t not in xs]
    exact = (
        picard_scores(af.arguments, shielded, kind, tolerance=1e-14)[0][target]
        - picard_scores(af.arguments, deleted, kind, tolerance=1e-14)[0][target]
    )
    assert abs(imp_dv(af, spec, subject, target).value - exact) <= 2 * spec.tolerance


def test_coalition_solves_keep_only_the_entries_they_read():
    # 1,000 arguments under 3 distinct attackers each: 7,001 coalition masks,
    # whose whole degree vectors would take 56 MB.
    rng = np.random.default_rng(1)
    n = 1000
    names = [f"a{i:04d}" for i in range(n)]
    attacks = [
        (names[s], names[t]) for t in range(n) for s in rng.choice(n, 3, replace=False)
    ]
    af = ArgumentationFramework.of(names, attacks)
    spec = SemanticsSpec("hbs")
    tracemalloc.start()
    try:
        measure = _afresh(attribution._cached_shapley_all, shapley_all, af, spec, ShapleyConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(measure) == 3 * n
    assert peak < 32 * 2**20


def test_coalitions_stay_out_of_the_degree_cache(showcase):
    attribution._cached_shapley_all.cache_clear()
    semantics._cached_degrees.cache_clear()
    shapley_all(showcase, SemanticsSpec("hbs"))
    assert semantics._cached_degrees.cache_info().currsize == 0


@settings(max_examples=40, deadline=None)
@given(attack_graphs(), st.sampled_from(KINDS))
def test_intensities_on_a_target_sum_to_its_degree_loss(af, kind):
    spec = SemanticsSpec(kind)
    measure = shapley_all(af, spec)
    base = degrees(af, spec)
    for target in af.arguments:
        incoming = af.attacks_on(target)
        unattacked = degrees(af.delete_attacks(incoming), spec)[target]
        total = sum(measure[c] for c in incoming)
        assert total == pytest.approx(unattacked - base[target], abs=1e-9)


def test_sampling_approximates_the_exact_value():
    af = fan_af()
    spec = SemanticsSpec("hbs")
    config = ShapleyConfig(exact_indegree_cap=0, sample_count=3000, seed=5)
    measure = shapley_all(af, spec, config)
    assert measure.mode == SAMPLED_MODE
    assert measure[("w1", "t1")] == pytest.approx(1.0 / 3.0, abs=0.02)
    again = shapley_all(af, spec, config)
    assert measure.entries == again.entries
    other = shapley_all(af, spec, ShapleyConfig(exact_indegree_cap=0, seed=6))
    assert other.entries != measure.entries


def test_unknown_attack_is_rejected(showcase):
    measure = shapley_all(showcase, SemanticsSpec("hbs"))
    with pytest.raises(UnknownAttackError):
        measure[("a4", "a3")]


def test_payload_layout(showcase):
    payload = shapley_all(showcase, SemanticsSpec("hbs")).to_payload("hbs")
    assert payload["semantics"] == "hbs"
    assert payload["mode"] == EXACT_MODE
    assert payload["values"][0].keys() == {"source", "target", "s"}


def test_bound_check_requires_exact_mode(showcase):
    with pytest.raises(ExactModeRequiredError):
        check_bounded_loss(
            showcase, SemanticsSpec("hbs"), ShapleyConfig(exact_indegree_cap=2)
        )


def test_intensity_never_exceeds_source_degree_on_fixtures(showcase):
    for kind in ("hbs", "max", "cs"):
        verdict = check_bounded_loss(showcase, SemanticsSpec(kind))
        assert verdict.passed
        assert verdict.trials == len(showcase.attacks)


def test_weakened_source_can_exceed_the_bound_under_car():
    # With one attacker, the cardinality rule floors the intensity at 1/2
    # while an attacked source scores at most 1/2, so any chain violates.
    chain = ArgumentationFramework.of(["a", "b", "c"], [("c", "b"), ("b", "a")])
    verdict = check_bounded_loss(chain, SemanticsSpec("car"))
    assert not verdict.passed
    w = verdict.witness
    assert w.attack == ("b", "a")
    assert w.lhs == pytest.approx(4.0 / 7.0, abs=1e-9)
    assert w.rhs == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert shapley_all(chain, SemanticsSpec("car"))[("b", "a")] == pytest.approx(
        w.lhs, abs=1e-12
    )


def test_bound_conjecture_probe(property_corpus):
    # The bound is conjectured, not proven, for these semantics; a violation
    # is worth reporting but is not a defect in the library.
    for af in property_corpus[:60]:
        for kind in KINDS:
            verdict = check_bounded_loss(af, SemanticsSpec(kind))
            if not verdict.passed:
                w = verdict.witness
                print(
                    f"notable result: bound violated under {kind}:"
                    f" attack {w.attack} reaches |{w.lhs:.6f}|"
                    f" against a source degree of {w.rhs:.6f}"
                )
