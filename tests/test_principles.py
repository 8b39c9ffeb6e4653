import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gradimpact import (
    ArgumentationFramework,
    AuditConfig,
    IncompleteMatrixError,
    PrincipleVerdict,
    SemanticsSpec,
    UnknownArgumentError,
    UnsupportedInstanceError,
    audit,
    check_principle,
    compare_with_expected,
    corpus_frameworks,
    crosscheck_implications,
    evaluate_impact,
    expected_status,
    fixture_entries,
    imp_dv,
)
from gradimpact import NonConvergenceError, attribution, impact, principles, semantics
from gradimpact.fixtures import chain_pair, disjoint_pair, showcase_af
from gradimpact.impact import ImpactQuery
from gradimpact.principles import PRINCIPLES, RESTRICTED_SCOPE
from gradimpact.semantics import CHECK_TOLERANCE, MEASURES
from gradimpact.verdicts import (
    COUNTEREXAMPLE,
    NO_COUNTEREXAMPLE,
    WINDOW,
    Witness,
    falsify,
    trial,
)

from oracles import one_at_a_time_search

HBS = SemanticsSpec("hbs")
CS = SemanticsSpec("cs")

SMALL = AuditConfig(graph_count=30, seed=9)


@pytest.fixture(scope="module")
def small_corpus():
    return corpus_frameworks(SMALL)


def test_corpus_is_deterministic_and_bounded():
    first = corpus_frameworks(SMALL)
    assert first == corpus_frameworks(SMALL)
    lo, hi = SMALL.size_range
    assert all(lo <= len(af) <= hi for af in first)
    assert any(af.has_attack(a, a) for af in first for a in af.arguments)


def test_fixture_entries_carry_shaped_instances():
    assert fixture_entries("independence")[0] == disjoint_pair()
    assert fixture_entries("directionality")[0] == chain_pair()
    af, subject, extra, target = fixture_entries("balanced")[0]
    assert af == showcase_af()
    assert (subject, extra, target) == (("a8",), "a10", "a4")
    assert all(
        isinstance(e, ArgumentationFramework) for e in fixture_entries("void")
    )


def test_split_rejects_entries_that_do_not_fit():
    af = showcase_af()
    with pytest.raises(UnsupportedInstanceError):
        check_principle("zero", "dv", HBS, [(af, af)])
    with pytest.raises(UnsupportedInstanceError):
        check_principle("balanced", "dv", HBS, [(af, ("a8", "a10"), "a8", "a4")])
    with pytest.raises(UnsupportedInstanceError):
        check_principle("directionality", "dv", HBS, [(af, ("a1", "a2"))])
    with pytest.raises(UnsupportedInstanceError):
        check_principle("void", "dv", HBS, [42])


def test_unknown_names_are_rejected():
    with pytest.raises(ValueError):
        check_principle("fairness", "dv", HBS, [])
    with pytest.raises(ValueError):
        check_principle("void", "median", HBS, [])


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_tolerance_must_be_finite_and_non_negative(tolerance):
    with pytest.raises(ValueError):
        AuditConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        check_principle("void", "dv", HBS, [], tolerance=tolerance)


@pytest.mark.parametrize(
    "names", [{"measures": ("dv", "dv")}, {"semantics": ("hbs", "cs", "hbs")}]
)
def test_repeated_measures_or_semantics_are_rejected(names):
    with pytest.raises(ValueError, match="listed twice"):
        AuditConfig(**names)


def test_deletion_impact_is_not_balanced():
    verdict = check_principle(
        "balanced", "dv", HBS, fixture_entries("balanced")
    )
    assert verdict.status == COUNTEREXAMPLE
    w = verdict.witness
    (af,) = w.frameworks
    split, single, union = w.subjects
    target = w.targets[0]
    lhs = imp_dv(af, HBS, split, target).value + imp_dv(af, HBS, single, target).value
    rhs = imp_dv(af, HBS, union, target).value
    assert lhs == pytest.approx(w.lhs, abs=1e-9)
    assert rhs == pytest.approx(w.rhs, abs=1e-9)
    assert abs(lhs - rhs) > verdict.tolerance


def test_walk_impact_is_balanced(small_corpus):
    verdict = check_principle(
        "balanced", "si", HBS, fixture_entries("balanced") + small_corpus
    )
    assert verdict.status == NO_COUNTEREXAMPLE
    assert verdict.trials > 0


def test_counting_fails_independence_for_both_measures():
    for measure in ("dv", "si"):
        verdict = check_principle(
            "independence", measure, CS, fixture_entries("independence")
        )
        assert verdict.status == COUNTEREXAMPLE
        assert len(verdict.witness.frameworks) == 2


def test_fixed_point_rules_keep_independence(small_corpus):
    verdict = check_principle(
        "independence", "dv", HBS, fixture_entries("independence") + small_corpus
    )
    assert verdict.status == NO_COUNTEREXAMPLE


def test_counting_fails_directionality():
    verdict = check_principle(
        "directionality", "si", CS, fixture_entries("directionality")
    )
    assert verdict.status == COUNTEREXAMPLE
    assert verdict.witness.attack == ("a2", "a3")


def test_max_rule_keeps_directionality(small_corpus):
    verdict = check_principle(
        "directionality",
        "dv",
        SemanticsSpec("max"),
        fixture_entries("directionality") + small_corpus,
    )
    assert verdict.status == NO_COUNTEREXAMPLE


@pytest.mark.parametrize("principle", ["anonymity", "void", "minimisation", "zero"])
def test_structural_principles_hold_on_a_small_corpus(small_corpus, principle):
    for measure in ("dv", "si"):
        verdict = check_principle(
            principle, measure, HBS, fixture_entries(principle) + small_corpus
        )
        assert verdict.status == NO_COUNTEREXAMPLE
        assert verdict.trials > 0


def test_symmetry_reports_how_many_instances_it_exercised(small_corpus):
    verdict = check_principle(
        "symmetry", "si", HBS, fixture_entries("symmetry") + small_corpus
    )
    assert verdict.status == NO_COUNTEREXAMPLE
    assert "automorphism instances:" in verdict.notes


def test_existence_is_scoped_only_for_walk_impacts_under_counting(small_corpus):
    corpus = fixture_entries("existence") + small_corpus
    scoped = check_principle("existence", "si", CS, corpus)
    assert scoped.scope == RESTRICTED_SCOPE
    assert "outside the scope" in scoped.notes
    plain = check_principle("existence", "si", HBS, corpus)
    assert plain.scope == "all"
    assert check_principle("existence", "dv", CS, corpus).status == NO_COUNTEREXAMPLE


def test_checks_are_deterministic(small_corpus):
    once = check_principle("anonymity", "si", HBS, small_corpus, seed=4)
    again = check_principle("anonymity", "si", HBS, small_corpus, seed=4)
    assert once.to_dict() == again.to_dict()


def test_audit_runs_every_configured_cell():
    config = AuditConfig(graph_count=6, seed=3, measures=("si",), semantics=("hbs", "max"))
    result = audit(config)
    assert len(result.verdicts) == len(PRINCIPLES) * 2
    assert result.to_dict() == audit(config).to_dict()
    cell = result.cell("void", "si", "max")
    assert cell.principle == "void"
    with pytest.raises(KeyError):
        result.cell("void", "dv", "hbs")


def test_audit_runs_each_cell_through_the_module_check_principle(monkeypatch):
    # perfbench times the audit's cells by rebinding this module attribute.
    config = AuditConfig(graph_count=2, measures=("dv", "si"), semantics=("hbs", "cs"))
    calls = []
    check = principles.check_principle

    def counted(principle, measure, spec, corpus, **kwargs):
        calls.append((principle, measure, spec.kind))
        return check(principle, measure, spec, corpus, **kwargs)

    monkeypatch.setattr(principles, "check_principle", counted)
    result = audit(config)
    assert len(calls) == 9 * len(config.measures) * len(config.semantics)
    assert calls == [
        (principle, measure, kind)
        for principle in PRINCIPLES
        for kind in config.semantics
        for measure in config.measures
    ]
    assert [(v.principle, v.measure, v.semantics) for v in result.verdicts] == calls


def test_audit_report_names_every_setting():
    config = AuditConfig(
        graph_count=0, measures=("dv",), semantics=("hbs",), include_fixtures=False
    )
    reported = audit(config).to_dict()["config"]
    assert set(reported) == {f.name for f in fields(AuditConfig)}
    assert AuditConfig(**reported) == config


def test_expected_pattern():
    assert expected_status("independence", "dv", "cs") == COUNTEREXAMPLE
    assert expected_status("independence", "dv", "hbs") == NO_COUNTEREXAMPLE
    assert expected_status("balanced", "dv", "max") == COUNTEREXAMPLE
    assert expected_status("balanced", "dv-original", "hbs") == COUNTEREXAMPLE
    assert expected_status("balanced", "si", "cs") == NO_COUNTEREXAMPLE
    assert expected_status("existence", "si", "cs") == NO_COUNTEREXAMPLE


def test_full_audit_matches_the_expected_pattern(audit_result):
    assert compare_with_expected(audit_result) == []


def test_render_text_draws_the_verdict_grid(audit_result):
    text = audit_result.render_text()
    lines = text.splitlines()
    assert lines[0].split()[:3] == ["principle", "dv*hbs", "si*hbs"]
    assert len([l for l in lines if l and not l.startswith("'")]) >= 10
    assert "✗" in text and "✓" in text
    assert "✓'" in text  # the scoped verdict is marked
    assert "maximum in-degree" in lines[-1]


def _verdict(principle, status, measure="dv", semantics="hbs"):
    return PrincipleVerdict(
        principle=principle,
        semantics=semantics,
        status=status,
        trials=1,
        tolerance=1e-7,
        measure=measure,
    )


def test_implication_crosscheck_flags_inconsistent_matrices():
    principles = (
        "anonymity", "directionality", "minimisation", "independence",
        "symmetry", "zero", "balanced", "void",
    )
    consistent = [_verdict(p, NO_COUNTEREXAMPLE) for p in principles]
    assert crosscheck_implications(consistent) == []
    broken = [
        _verdict(p, COUNTEREXAMPLE if p == "symmetry" else NO_COUNTEREXAMPLE)
        for p in principles
    ]
    issues = crosscheck_implications(broken)
    assert issues == [
        {
            "measure": "dv",
            "semantics": "hbs",
            "premises": ["anonymity", "directionality", "minimisation", "independence"],
            "conclusion": "symmetry",
        }
    ]


def test_implication_crosscheck_needs_a_complete_matrix():
    with pytest.raises(IncompleteMatrixError):
        crosscheck_implications([_verdict("anonymity", NO_COUNTEREXAMPLE)])


# -- pinned search behaviour ---------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("audit_golden.json")
GOLDEN_CONFIG = AuditConfig(graph_count=24, measures=MEASURES)

MINIMISATION_CELL = """
import json
from gradimpact import SemanticsSpec, check_principle, fixture_entries
verdict = check_principle(
    "minimisation", "dv-original", SemanticsSpec("hbs"), fixture_entries("minimisation")
)
print(json.dumps(verdict.to_dict()))
"""


def test_minimisation_search_does_not_depend_on_the_hash_seed():
    # dv-original fails minimisation and stops at its first witness, so the
    # order in which subjects are tried shows in the trial count.
    runs = []
    for hash_seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
        done = subprocess.run(
            [sys.executable, "-c", MINIMISATION_CELL],
            capture_output=True, text=True, check=True, env=env,
        )
        runs.append(json.loads(done.stdout))
    assert runs[0]["status"] == COUNTEREXAMPLE
    assert all(run == runs[0] for run in runs[1:])


def _golden_cell(verdict: PrincipleVerdict) -> dict:
    cell = {
        key: verdict.to_dict().get(key, "")
        for key in ("principle", "measure", "semantics", "status", "trials", "scope", "notes")
    }
    if verdict.witness is not None:
        w = verdict.witness
        cell["witness"] = {
            "subjects": [list(xs) for xs in w.subjects],
            "targets": list(w.targets),
            "lhs": w.lhs,
            "rhs": w.rhs,
        }
    return cell


def test_audit_trials_and_witnesses_match_the_golden_file():
    cells = [_golden_cell(v) for v in audit(GOLDEN_CONFIG).verdicts]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cells) == len(golden)
    for got, want in zip(cells, golden):
        label = (want["principle"], want["measure"], want["semantics"])
        if "witness" in want:
            for side in ("lhs", "rhs"):
                assert got["witness"].pop(side) == pytest.approx(
                    want["witness"].pop(side), abs=1e-9
                ), label
        assert got == want, label


# sha256 of the default ``gradimpact audit --report json`` output, and of
# ``--report both``.
DEFAULT_AUDIT_SHA256 = "7d336bc3749c44bcbb48a938c4746643ecd94b593f7e0a2804f9a95c1907d4aa"
DEFAULT_BOTH_SHA256 = "dbfe851ab853fc45b73b9f2df02a52be1154ea91fc9d41668c5904b431285adb"


def test_default_audit_report_keeps_its_digest(audit_result):
    # The reports as ``cmd_audit`` assembles them from the default audit.
    payload = audit_result.to_dict()
    payload["implication_issues"] = crosscheck_implications(audit_result)
    report = json.dumps(payload, sort_keys=True) + "\n"
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == DEFAULT_AUDIT_SHA256
    both = audit_result.render_text() + report
    assert hashlib.sha256(both.encode("utf-8")).hexdigest() == DEFAULT_BOTH_SHA256


def _evaluated(measure, spec, side):
    """A side's value as ``evaluate_impact`` gives it, one impact at a time;
    a combined side reads its impacts lazily, in order."""
    if isinstance(side, principles._Combined):
        return side.combine(_evaluated(measure, spec, query) for query in side.queries)
    if isinstance(side, ImpactQuery):
        af, subject, target = side
        return evaluate_impact(measure, af, spec, subject, target).value
    return side


def _one_at_a_time(principle, measure, spec, corpus, seed=0):
    """``check_principle``'s search with every side evaluated on its own,
    when compared, from a cold process table."""
    semantics._library.cache_clear()
    check = principles._CHECKS[principle]
    plain, shaped = principles._split_corpus(principle, check.fits, corpus)
    ctx = principles._Context(measure, spec, CHECK_TOLERANCE, {})
    # Drawn straight from the principle's own stream, not through a replay.
    drawing = ctx if check.per_cell else seed
    return one_at_a_time_search(
        check.trials(drawing, plain, shaped),
        # Every impact is evaluated on its own, under the cell's measure and
        # semantics, without the driver's windows or plans.
        lambda side: _evaluated(measure, spec, side),
        check.relation,
        CHECK_TOLERANCE,
        check.count_all,
    )


def _assert_same_search(verdict, search):
    tried, witness, annotations = search
    assert verdict.trials == tried
    if witness is None:
        assert verdict.witness is None
    else:
        lhs, rhs, fields = witness
        assert verdict.witness == Witness(lhs=lhs, rhs=rhs, **fields)
    assert verdict.scope == annotations.get("scope", "all")
    assert verdict.notes == annotations.get("notes", "")


def test_windowed_cells_equal_the_one_at_a_time_search():
    base = corpus_frameworks(GOLDEN_CONFIG)
    for principle in PRINCIPLES:
        entries = fixture_entries(principle) + base
        for semantics_name in GOLDEN_CONFIG.semantics:
            spec = SemanticsSpec(semantics_name)
            for measure in GOLDEN_CONFIG.measures:
                search = _one_at_a_time(
                    principle, measure, spec, entries, GOLDEN_CONFIG.seed
                )
                verdict = check_principle(
                    principle, measure, spec, entries, seed=GOLDEN_CONFIG.seed
                )
                _assert_same_search(verdict, search)


def test_windows_grow_fourfold():
    # A passing stream is resolved in windows of 8, 32 and 128 trials, and
    # the last window holds what is left.
    windows = []

    def resolve(probes, number):
        windows.append((number, len(probes)))
        sides = np.array([side for probe in probes for side in probe[:2]])
        return sides[0::2], sides[1::2], {}

    stream = (trial(0.5, 0.5) for _ in range(200))
    verdict = falsify("void", "hbs", CHECK_TOLERANCE, stream, resolve=resolve)
    assert (verdict.status, verdict.trials) == (NO_COUNTEREXAMPLE, 200)
    assert windows == [(0, 8), (1, 32), (2, 128), (3, 32)]


# An acyclic framework whose first balanced trial is a witness under dv,
# and cycles whose hbs solves need more than TIGHT's 12 sweeps.
BALANCED_WITNESS = ArgumentationFramework.of(
    ["a1", "a2", "a3", "a4", "a5"],
    [("a2", "a3"), ("a2", "a4"), ("a5", "a2"), ("a5", "a4")],
)
TWO_CYCLE = ArgumentationFramework.of(["b1", "b2"], [("b1", "b2"), ("b2", "b1")])
ATTACKED_CYCLE = ArgumentationFramework.of(
    ["c1", "c2", "c3", "c4"],
    [("c1", "c2"), ("c2", "c3"), ("c3", "c1"), ("c4", "c1")],
)
TIGHT = SemanticsSpec("hbs", max_iterations=12)


def test_a_failure_after_the_witness_in_its_window_stays_silent():
    corpus = [BALANCED_WITNESS, TWO_CYCLE]
    # The cycle's trials follow the witness inside the first window, and
    # alone they raise.
    assert len(list(principles._balanced(0, corpus, []))) <= WINDOW
    with pytest.raises(NonConvergenceError):
        _one_at_a_time("balanced", "dv", TIGHT, corpus[1:])
    search = _one_at_a_time("balanced", "dv", TIGHT, corpus)
    assert search[1] is not None
    verdict = check_principle("balanced", "dv", TIGHT, corpus)
    assert verdict.status == COUNTEREXAMPLE
    _assert_same_search(verdict, search)


def test_an_instance_error_after_the_witness_in_its_window_stays_silent():
    # Joining the pair doubles the cs norm of the self-attacker, so one of
    # its two trials is a counterexample; the overlapping pair after it
    # raises when drawn, inside the first window.
    loop = ArgumentationFramework.of(["p"], [("p", "p")])
    fan = ArgumentationFramework.of(["q1", "q2", "q3"], [("q1", "q3"), ("q2", "q3")])
    af = showcase_af()
    corpus = [(loop, fan), (af, af)]
    with pytest.raises(UnsupportedInstanceError):
        check_principle("independence", "dv", CS, corpus[1:])
    search = _one_at_a_time("independence", "dv", CS, corpus)
    assert search[1] is not None and search[0] < WINDOW
    _assert_same_search(check_principle("independence", "dv", CS, corpus), search)


def test_a_failing_window_raises_the_first_failure_a_lazy_search_meets():
    corpus = [ATTACKED_CYCLE, TWO_CYCLE]
    with pytest.raises(NonConvergenceError) as lazy:
        _one_at_a_time("void", "dv", TIGHT, corpus)
    with pytest.raises(NonConvergenceError) as batched:
        check_principle("void", "dv", TIGHT, corpus)
    got, want = batched.value, lazy.value
    assert (got.iterations, got.residual) == (want.iterations, want.residual)
    # The two cycles stop at different residuals, so the order shows.
    with pytest.raises(NonConvergenceError) as other:
        imp_dv(TWO_CYCLE, TIGHT, [], "b1")
    assert other.value.residual != want.residual


# -- trials shared across the cells of an audit --------------------------


# The rows the audit of GOLDEN_CONFIG solved from cold stores while each
# window read its impacts' systems one by one from the degree store.
STORE_SOLVED_ROWS = 6167


def test_the_audit_solves_no_more_systems_than_the_degree_store_did(monkeypatch):
    # Every solve, of degrees, coalitions or impact systems, is one
    # solve_systems call, whichever module calls it.
    rows = []
    solve = semantics.solve_systems

    def counted(systems, reads=None):
        rows.append(len(systems))
        return solve(systems, reads)

    monkeypatch.setattr(semantics, "solve_systems", counted)
    semantics._library.cache_clear()
    audit(GOLDEN_CONFIG)
    assert 0 < sum(rows) <= STORE_SOLVED_ROWS


def test_an_audit_leaves_the_process_table_as_it_found_it():
    # An audit numbers and solves everything in a table of its own.
    semantics.degrees(showcase_af(), SemanticsSpec("hbs"))
    before = semantics._library.cache_info()
    audit(AuditConfig())
    assert semantics._library.cache_info() == before


def test_each_framework_is_planned_once_per_shapley_config(monkeypatch):
    # Every semantics reads the games of a framework from the plan the
    # audit's table made for the first.
    planned = Counter()
    plan = attribution.plan_intensities

    def counted(af, config):
        planned[(af, config)] += 1
        return plan(af, config)

    monkeypatch.setattr(attribution, "plan_intensities", counted)
    semantics._library.cache_clear()
    audit(GOLDEN_CONFIG)
    assert len(GOLDEN_CONFIG.semantics) == 4
    assert planned and max(planned.values()) == 1


def test_audit_cells_equal_standalone_cells():
    # Each audit cell reads its principle's shared trials; a standalone
    # call draws its own, and must reach the very same verdict.
    base = corpus_frameworks(GOLDEN_CONFIG)
    for verdict in audit(GOLDEN_CONFIG).verdicts:
        alone = check_principle(
            verdict.principle,
            verdict.measure,
            SemanticsSpec(verdict.semantics),
            fixture_entries(verdict.principle) + base,
            seed=GOLDEN_CONFIG.seed,
        )
        label = (verdict.principle, verdict.measure, verdict.semantics)
        assert verdict.to_dict() == alone.to_dict(), label


def _count_draws(monkeypatch, principle):
    """Count the trials the principle's stream yields from now on."""
    check = principles._CHECKS[principle]
    drawn = []

    def counted(seed, plain, shaped):
        stream = check.trials(seed, plain, shaped)
        while True:
            try:
                probes = next(stream)
            except StopIteration as end:
                return end.value
            drawn.append(probes)
            yield probes

    monkeypatch.setitem(principles._CHECKS, principle, check._replace(trials=counted))
    return drawn


def test_cells_sharing_a_stream_meet_its_error_where_they_read_it(monkeypatch):
    # As in the instance-error test above: under cs the first pair yields a
    # witness among its two trials, under hbs it yields none, and the
    # overlapping pair raises when the stream reaches it.
    loop = ArgumentationFramework.of(["p"], [("p", "p")])
    fan = ArgumentationFramework.of(["q1", "q2", "q3"], [("q1", "q3"), ("q2", "q3")])
    af = showcase_af()
    corpus = [(loop, fan), (af, af)]
    drawn = _count_draws(monkeypatch, "independence")
    alone = check_principle("independence", "dv", CS, corpus)
    assert alone.status == COUNTEREXAMPLE and len(drawn) == 2
    for order in ((CS, HBS, SemanticsSpec("max")), (HBS, CS, SemanticsSpec("max"))):
        drawn.clear()
        errors = []
        with principles._sharing():
            for spec in order:
                if spec is CS:
                    verdict = check_principle("independence", "dv", spec, corpus)
                    assert verdict.to_dict() == alone.to_dict()
                    continue
                with pytest.raises(UnsupportedInstanceError) as raised:
                    check_principle("independence", "dv", spec, corpus)
                errors.append(raised.value)
        # Two trials and the error, drawn once and re-raised to each reader.
        assert len(drawn) == 2
        assert errors[0] is errors[1]


def test_symmetry_notes_reach_every_cell(small_corpus, monkeypatch):
    drawn = _count_draws(monkeypatch, "symmetry")
    alone = check_principle("symmetry", "dv", HBS, small_corpus)
    assert alone.passed and alone.notes.startswith("automorphism instances: ")
    assert len(drawn) == alone.trials
    drawn.clear()
    with principles._sharing():
        cells = [
            check_principle("symmetry", measure, SemanticsSpec(kind), small_corpus)
            for kind in ("hbs", "car", "max", "cs")
            for measure in ("dv", "si")
        ]
    assert all(cell.notes == alone.notes for cell in cells)
    assert len(drawn) == alone.trials


def test_shared_trials_are_drawn_only_as_far_as_some_cell_reads(
    small_corpus, monkeypatch
):
    # Under dv the first trial is a witness, so the cell reads one window;
    # si is balanced, so its cell reads the whole stream.
    corpus = [BALANCED_WITNESS] + list(small_corpus)
    drawn = _count_draws(monkeypatch, "balanced")
    total = check_principle("balanced", "si", HBS, corpus).trials
    assert len(drawn) == total > 2 * WINDOW
    drawn.clear()
    with principles._sharing():
        first = check_principle("balanced", "dv", HBS, corpus)
        assert (first.status, first.trials, len(drawn)) == (COUNTEREXAMPLE, 1, WINDOW)
        check_principle("balanced", "dv", CS, corpus)
        assert len(drawn) == WINDOW
        assert check_principle("balanced", "si", HBS, corpus).trials == total
        assert len(drawn) == total
        check_principle("balanced", "si", CS, corpus)
        assert len(drawn) == total
    drawn.clear()
    with principles._sharing():
        check_principle("balanced", "si", HBS, corpus)
        check_principle("balanced", "dv", HBS, corpus)
        assert len(drawn) == total


def test_the_shared_store_lives_only_inside_an_audit(monkeypatch):
    stores = []
    check = principles._CHECKS["void"]

    def observed(seed, plain, shaped):
        # The principles whose trials the store holds while this one draws.
        store = principles._SHARED.get()
        stores.append(None if store is None else sorted(store))
        return (yield from check.trials(seed, plain, shaped))

    monkeypatch.setitem(principles._CHECKS, "void", check._replace(trials=observed))
    config = AuditConfig(graph_count=2, seed=1)
    audit(config)
    # One draw for the principle's eight cells, from a store that holds
    # no earlier principle's trials.
    assert stores == [["void"]]
    assert principles._SHARED.get() is None
    stores.clear()
    check_principle("void", "dv", HBS, corpus_frameworks(config))
    assert stores == [None]
    assert principles._SHARED.get() is None

    calls = []
    cell = principles.check_principle

    def failing_cell(*args, **kwargs):
        calls.append(principles._SHARED.get())
        if len(calls) == 12:
            raise RuntimeError("cell failed")
        return cell(*args, **kwargs)

    monkeypatch.setattr(principles, "check_principle", failing_cell)
    with pytest.raises(RuntimeError, match="cell failed"):
        audit(config)
    assert all(store is not None for store in calls)
    assert principles._SHARED.get() is None


# -- impact queries planned once per principle ---------------------------


def test_each_impact_query_is_planned_once_per_principle(monkeypatch):
    planned = Counter()
    principle = []
    query_plan = impact._query_plan

    def counted(measure, query):
        planned[(principle[-1], measure, query)] += 1
        return query_plan(measure, query)

    monkeypatch.setattr(impact, "_query_plan", counted)
    shares = []
    cell = principles.check_principle

    def observed_cell(*args, **kwargs):
        principle.append(args[0])
        store = principles._SHARED.get()
        # Every earlier principle's share, with its plans, is gone.
        assert set(store) <= {args[0]}
        gc.collect()
        assert all(share() is None for name, share in shares if name != args[0])
        verdict = cell(*args, **kwargs)
        shares.append((args[0], weakref.ref(store[args[0]])))
        if len(shares) == fail_at:
            raise RuntimeError("cell failed")
        return verdict

    monkeypatch.setattr(principles, "check_principle", observed_cell)
    fail_at = 0
    audit(GOLDEN_CONFIG)
    assert {key[0] for key in planned} == set(PRINCIPLES)
    assert {key[1] for key in planned} == set(MEASURES)
    assert max(planned.values()) == 1
    gc.collect()
    assert all(share() is None for _, share in shares)

    # Nor does any plan outlive an audit that raises.
    shares.clear()
    fail_at = 20
    with pytest.raises(RuntimeError, match="cell failed") as raised:
        audit(GOLDEN_CONFIG)
    gc.collect()
    assert len(shares) == fail_at
    # Even while the error's traceback still holds the audit's frame.
    assert raised.traceback
    assert all(share() is None for _, share in shares)


def _shared_sides(config):
    """Every side the shared principle streams draw over the config's corpus."""
    base = corpus_frameworks(config)
    sides = []
    for principle in PRINCIPLES:
        check = principles._CHECKS[principle]
        if check.per_cell:
            continue
        corpus = fixture_entries(principle) + base
        plain, shaped = principles._split_corpus(principle, check.fits, corpus)
        for probes in check.trials(config.seed, plain, shaped):
            sides += [
                side
                for lhs, rhs, _ in probes
                for side in (lhs, rhs)
                if isinstance(side, (ImpactQuery, principles._Combined))
            ]
    return base, sides


@pytest.mark.parametrize("kind", ("hbs", "car", "max", "cs"))
def test_window_values_equal_each_impact_evaluated_alone(kind):
    base, sides = _shared_sides(GOLDEN_CONFIG)
    af = base[0]
    unknown = [
        ImpactQuery(af, ("nowhere",), af.arguments[0]),
        ImpactQuery(af, af.arguments[:1], "nowhere"),
    ]
    spec = SemanticsSpec(kind)
    for measure in MEASURES:
        semantics._library.cache_clear()
        alone = [_evaluated(measure, spec, side) for side in sides]
        semantics._library.cache_clear()
        ctx = principles._Context(measure, spec, CHECK_TOLERANCE, {})
        # The window solves every side ahead, and raises nothing: each side
        # is the lhs of a probe, and the error of a side is its probe's.
        probes = [(side, 0.0, {}) for side in sides + unknown]
        lhs, rhs, errors = ctx.resolve(probes, 0)
        assert not rhs.any()
        for i, (side, want) in enumerate(zip(sides, alone)):
            assert i not in errors and lhs[i] == want, (measure, side)
        assert sorted(errors) == [len(sides), len(sides) + 1]
        assert all(isinstance(error, UnknownArgumentError) for error in errors.values())


def test_a_query_whose_two_solves_fail_raises_the_one_read_first():
    # Both reduced frameworks keep a two-cycle that TIGHT's 12 sweeps do not
    # settle, each at its own residual.
    af = ArgumentationFramework.of(
        ["x1", "x2", "y1", "y2"],
        [("x1", "x2"), ("x2", "x1"), ("y1", "x1"), ("y1", "y2"), ("y2", "y1")],
    )
    query = ImpactQuery(af, ("y1",), "x1")
    semantics._library.cache_clear()
    with pytest.raises(NonConvergenceError) as alone:
        imp_dv(af, TIGHT, query.subject, query.target)
    semantics._library.cache_clear()
    ctx = principles._Context("dv", TIGHT, CHECK_TOLERANCE, {})
    _, _, errors = ctx.resolve([(query, 0.0, {})], 0)
    windowed = errors[0]
    assert isinstance(windowed, NonConvergenceError)
    assert windowed.residual == alone.value.residual
    # Deleting y1 leaves the x cycle alone, which stops at another residual.
    cycle = ArgumentationFramework.of(af.arguments, [("x1", "x2"), ("x2", "x1")])
    with pytest.raises(NonConvergenceError) as deleted:
        semantics.degrees(cycle, TIGHT)
    assert deleted.value.residual != alone.value.residual


if __name__ == "__main__":
    # Rewrite the golden file after a deliberate change to the searches:
    # PYTHONPATH=src python tests/test_principles.py
    cells = [_golden_cell(v) for v in audit(GOLDEN_CONFIG).verdicts]
    GOLDEN.write_text(json.dumps(cells, indent=1) + "\n", encoding="utf-8")
