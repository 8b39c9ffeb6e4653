"""Scoring rules: golden values, defining equations, and structural checks.

The fixed-point rules are verified against their defining equations rather
than a second solver: a degree vector that satisfies the equations to
within tolerance and that the reference loop also reaches from other
starting vectors is the semantics, whatever route computed it.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    check_principle,
    counting_norm,
    degrees,
    shapley_all,
)
from gradimpact import attribution, semantics
from gradimpact.fixtures import chain_pair, disjoint_pair
from gradimpact.generate import GeneratorConfig, random_af
from gradimpact.semantics import DEFAULT_MAX_ITERATIONS, KINDS

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
    from_ones = degrees(af, SemanticsSpec(kind))
    for start in (0.0, 0.37):
        other, _, _ = picard_scores(af.arguments, af.attacks, kind, start)
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
        scores, sweeps, residual = picard_scores(
            af.arguments,
            af.attacks,
            kind,
            1.0,
            spec.tolerance,
            spec.max_iterations,
        )
        if residual <= spec.tolerance:
            assert degrees(af, spec).as_dict() == scores
            continue
        with pytest.raises(NonConvergenceError) as err:
            degrees(af, spec)
        assert (err.value.iterations, err.value.residual) == (sweeps, residual)


def _two_hubs():
    # Two hubs under 58 and 30 attackers, which form a chain where each
    # attacks the next two, so their degrees differ.
    names = [f"a{i:02d}" for i in range(60)]
    chain = names[2:]
    attacks = [(b, names[0]) for b in chain] + [(b, names[1]) for b in chain[:30]]
    for step in (1, 2):
        attacks += [(b, c) for b, c in zip(chain, chain[step:])]
    return ArgumentationFramework.of(names, attacks)


@pytest.mark.parametrize("kind", ["hbs", "car", "max"])
def test_hub_degrees_equal_the_reference_loop(kind):
    # Long sums whose rounding depends on the order they are added in, each
    # scattered into its hub's total one attacker at a time, in sorted order.
    af = _two_hubs()
    scores, _, _ = picard_scores(af.arguments, af.attacks, kind)
    assert degrees(af, SemanticsSpec(kind)).as_dict() == scores


def _coalition_reads(af, spec, rows):
    """Each ``(t, coalition)`` row's read in row order, from ``grouped_rows``
    and one ``solve_coalitions`` job, or the job's error."""
    masks, counts, targets, order = semantics.grouped_rows(af, rows)
    (solved,) = semantics.solve_coalitions(spec, [(af, masks, counts, targets)])
    if isinstance(solved, Exception):
        return solved
    values = np.empty(len(order))
    values[order] = solved
    return values.tolist()


@pytest.mark.parametrize("kind", ["hbs", "car", "max"])
def test_hub_coalitions_equal_their_reduced_frameworks(kind):
    # Rows removing one to three of the 58 attacks on the first hub and of
    # the 30 on the second, from their first, middle and last slots, so the
    # dropped edges sit inside long sums.
    af = _two_hubs()
    spec = SemanticsSpec(kind)
    assert [af.in_degree(hub) for hub in af.arguments[:2]] == [58, 30]
    coalitions = [(0,), (29,), (57,), (0, 57), (0, 29), (28, 29, 57), (0, 1, 2)]
    rows = [
        (t, slots)
        for t in (0, 1)
        for slots in coalitions
        if max(slots) < af.in_degree(af.arguments[t])
    ]
    values = _coalition_reads(af, spec, [(t, sum(1 << j for j in slots)) for t, slots in rows])
    for (t, slots), value in zip(rows, values):
        hub = af.arguments[t]
        incoming = af.attacks_on(hub)
        reduced = degrees(af.delete_attacks(incoming[j] for j in slots), spec)
        assert value == reduced[hub]
    # A mask that spans both hubs' bits is a degrees call.
    hub, other = af.arguments[:2]
    removed = [af.attacks_on(hub)[5], af.attacks_on(hub)[40]] + list(af.attacks_on(other)[3:7])
    bits = semantics.attack_bits(af)
    mask = sum(1 << bits[c] for c in removed)
    reduced = degrees(af.delete_attacks(removed), spec)
    assert degrees(af, spec, mask).as_dict() == reduced.as_dict()


@pytest.mark.parametrize("kind", ["hbs", "car", "max"])
def test_hub_coalitions_in_columns_equal_their_reduced_frameworks(kind, monkeypatch):
    # The same long sums swept in columns: each hub's total folds 58 or 30
    # attacker slots, in order, with the dropped ones adding 0.0.
    af = _two_hubs()
    spec = SemanticsSpec(kind)
    coalitions = [(), (0,), (29,), (57,), (0, 57), (28, 29, 57), tuple(range(30))]
    rows = [
        (t, slots)
        for t in (0, 1)
        for slots in coalitions
        if max(slots, default=0) < af.in_degree(af.arguments[t])
    ]
    monkeypatch.setattr(semantics, "_by_columns", lambda graph, masks: True)
    values = _coalition_reads(af, spec, [(t, sum(1 << j for j in slots)) for t, slots in rows])
    for (t, slots), value in zip(rows, values):
        hub = af.arguments[t]
        incoming = af.attacks_on(hub)
        reduced = degrees(af.delete_attacks(incoming[j] for j in slots), spec)
        assert value == reduced[hub]


def _stacked_blocks():
    """Frameworks of 1 to 14 arguments, with a few masks each: chains settle
    in a sweep per argument, cycles take dozens of sweeps."""
    frameworks = [random_af(GeneratorConfig(n, 0.3, seed=n)) for n in range(1, 15)]
    frameworks += [
        ArgumentationFramework.of(
            [f"c{i:02d}" for i in range(n)],
            [(f"c{i:02d}", f"c{(i + 1) % n:02d}") for i in range(n if cyclic else n - 1)],
        )
        for n, cyclic in ((2, True), (9, False), (14, True))
    ]
    blocks = []
    for i, af in enumerate(frameworks):
        m = len(af.attacks)
        blocks += [(af, 0), (af, (1 << m) - 1), (af, (0x5A5A5A5A >> i) % (1 << m))]
    return blocks


@pytest.mark.parametrize("kind", KINDS)
def test_stacked_blocks_equal_their_one_block_solves(kind):
    # The Picard kernel directly, so cs is swept on small frameworks too;
    # a 1,100-argument ring joins the cs stack past the dense cutoff.
    spec = SemanticsSpec(kind)
    blocks = _stacked_blocks()
    if kind == "cs":
        names = [f"r{i:04d}" for i in range(1100)]
        blocks.append((ArgumentationFramework.of(names, zip(names, names[1:] + names[:1])), 0))
    graphs = [semantics._attackers(af) for af, _ in blocks]
    masks = [mask for _, mask in blocks]
    values, starts, errors = semantics._picard_rows(spec, graphs, masks)
    assert errors == {}
    sweeps = set()
    for (af, mask), graph, start in zip(blocks, graphs, starts):
        alone, _, _ = semantics._picard_rows(spec, [graph], [mask])
        assert values[start : start + graph.n].tolist() == alone.tolist()
        if kind != "cs":
            reduced = af.delete_attacks(
                c for c, e in semantics.attack_bits(af).items() if mask >> e & 1
            )
            scores, count, _ = picard_scores(reduced.arguments, reduced.attacks, kind)
            assert dict(zip(af.arguments, alone.tolist())) == scores
            sweeps.add(count)
    assert kind == "cs" or len(sweeps) > 5


@pytest.mark.parametrize("kind", KINDS)
def test_stacked_systems_equal_their_degrees(kind):
    # Blocks of many frameworks share one stack, and dense cs ones a batch
    # per size.  Each result is the degrees call's, bit for bit.
    spec = SemanticsSpec(kind)
    blocks = _stacked_blocks()
    solved = semantics.solve_systems([(af, spec, mask) for af, mask in blocks])
    semantics._library.cache_clear()
    for (af, mask), result in zip(blocks, solved):
        assert dict(zip(af.arguments, result.tolist())) == degrees(af, spec, mask).as_dict()


def test_a_stack_reports_each_failing_block_alone():
    spec = SemanticsSpec("hbs", max_iterations=12)
    chain = ArgumentationFramework.of(["a", "b"], [("a", "b")])
    cycle = ArgumentationFramework.of(["x", "y"], [("x", "y"), ("y", "x")])
    solved = semantics.solve_systems([(cycle, spec, 0), (chain, spec, 0), (cycle, spec, 1)])
    with pytest.raises(NonConvergenceError) as err:
        degrees(cycle, spec)
    assert isinstance(solved[0], NonConvergenceError)
    assert (solved[0].iterations, solved[0].residual) == (
        err.value.iterations,
        err.value.residual,
    )
    assert dict(zip(chain.arguments, solved[1].tolist())) == degrees(chain, spec).as_dict()
    assert solved[2].tolist() == list(degrees(cycle, spec, 1).values())


def test_a_split_coalition_job_reports_its_first_failing_row(monkeypatch):
    # a sits on two 2-cycles, b's under one more attack, so within 12 sweeps
    # only the coalition of both of a's attacks settles, and the two
    # one-attack coalitions fail with different residuals.
    looped = ArgumentationFramework.of(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("d", "b")],
    )
    star = ArgumentationFramework.of(
        ["p", "q", "r", "s"], [("q", "p"), ("r", "p"), ("s", "p"), ("s", "q")]
    )
    spec = SemanticsSpec("hbs", max_iterations=12)
    failing = [(0, 0b11), (0, 0b01), (0, 0b10), (0, 0b00)]
    settled = [(0, coalition) for coalition in range(8)] + [(1, 1), (1, 0)]
    jobs = [(looped, spec, failing), (star, spec, settled)]
    whole = [_coalition_reads(*job) for job in jobs]
    chunks = []
    solve = semantics._picard_rows

    def counted(*args):
        values, starts, errors = solve(*args)
        chunks.append(len(errors))
        return values, starts, errors

    monkeypatch.setattr(semantics, "_picard_rows", counted)
    # Two or three systems a chunk: the failing masks fall in two chunks.
    monkeypatch.setattr(semantics, "COALITION_CELLS", 100)
    error, split = [_coalition_reads(*job) for job in jobs]
    assert len(chunks) >= 3 and sum(1 for failed in chunks if failed) == 2
    # The first failing row, (0, 0b01), drops the attack from b.
    with pytest.raises(NonConvergenceError) as first:
        degrees(looped.delete_attacks([("b", "a")]), spec)
    with pytest.raises(NonConvergenceError) as second:
        degrees(looped.delete_attacks([("c", "a")]), spec)
    assert first.value.residual != second.value.residual
    for result in (error, whole[0]):
        assert isinstance(result, NonConvergenceError)
        assert (result.iterations, result.residual) == (
            first.value.iterations,
            first.value.residual,
        )
    assert split == whole[1]
    for (t, coalition), value in zip(settled, split):
        target = star.arguments[t]
        incoming = star.attacks_on(target)
        removed = [c for j, c in enumerate(incoming) if coalition >> j & 1]
        assert value == degrees(star.delete_attacks(removed), spec)[target]


@pytest.mark.parametrize("kind", ["hbs", "cs"])
def test_a_coalition_bit_past_its_target_in_degree_is_rejected(kind, monkeypatch):
    # b has two attackers, a and c, so bit 2 of a coalition on b names no
    # attack.  hbs sweeps its coalitions, cs solves them as rank-one updates.
    af = ArgumentationFramework.of(["a", "b", "c"], [("a", "b"), ("b", "a"), ("c", "b")])
    spec = SemanticsSpec(kind)

    def refuse(*args):
        raise AssertionError("a coalition was solved")

    for solver in ("_picard_rows", "_counting_rows", "_rank_one_rows"):
        monkeypatch.setattr(semantics, solver, refuse)
    rows = [(1, 0b01), (0, 0b1), (1, 0b100), (1, 0b1000)]
    # Every job's rows are grouped before any is solved.
    with pytest.raises(ValueError, match=r"row \(1, 4\) names attacks beyond the 2"):
        grouped = [semantics.grouped_rows(af, job) for job in (rows[:1], rows)]
        semantics.solve_coalitions(spec, [(af, *group[:3]) for group in grouped])


@st.composite
def coalition_jobs(draw):
    """A framework with attacks and one coalition job over it: mask 0, the
    mask that drops every attack on its hub, and random masks, each read
    at one to three targets."""
    n = draw(st.integers(1, 8))
    names = [f"a{i}" for i in range(n)]
    pairs = [(s, t) for s in names for t in names]
    attacks = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=24))
    af = ArgumentationFramework.of(names, attacks)
    indegree = [af.in_degree(a) for a in names]
    hub = indegree.index(max(indegree))
    hub_mask = ((1 << indegree[hub]) - 1) << int(semantics._attackers(af).first[hub])
    masks = [0, hub_mask] + draw(st.lists(st.integers(0, (1 << len(af.attacks)) - 1), max_size=12))
    masks = draw(st.permutations(masks))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(masks), max_size=len(masks)))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=sum(counts), max_size=sum(counts)))
    return af, masks, np.array(counts, dtype=np.intp), np.array(targets, dtype=np.intp)


def _by_layout(spec, job, columns, patch):
    """One coalition job's result on the column layout or the flat one;
    ``cs`` is swept on either."""
    patch.setattr(semantics, "_by_columns", lambda graph, masks: columns)
    patch.setattr(semantics, "_dense", lambda spec, n: False)
    (result,) = semantics.solve_coalitions(spec, [job])
    if isinstance(result, Exception):
        return type(result), str(result)
    return [value.hex() for value in result.tolist()]


@settings(max_examples=80, deadline=None)
@given(
    coalition_jobs(),
    st.sampled_from(KINDS),
    st.sampled_from((None, 2.5)),
    st.sampled_from((DEFAULT_MAX_ITERATIONS, 4, 9)),
    st.sampled_from((None, 200)),
)
def test_column_and_flat_layouts_agree_bit_for_bit(job, kind, norm, budget, cells):
    # Every read in float hex, or the same error of the same first failing
    # mask, under a tight sweep budget and split into chunks of a few
    # columns or blocks as well.
    spec = SemanticsSpec(
        kind, max_iterations=budget, counting=CountingConfig(norm_override=norm)
    )
    with pytest.MonkeyPatch.context() as patch:
        if cells is not None:
            patch.setattr(semantics, "COALITION_CELLS", cells)
        columns = _by_layout(spec, job, True, patch)
        flat = _by_layout(spec, job, False, patch)
    assert columns == flat


def test_a_column_job_reports_its_first_failing_mask(monkeypatch):
    # a sits on two 2-cycles, so within 12 sweeps only the mask that drops
    # both of its attacks settles; the two one-attack masks fail with
    # different residuals, and the first of them is reported.
    looped = ArgumentationFramework.of(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("d", "b")],
    )
    spec = SemanticsSpec("hbs", max_iterations=12)
    bits = semantics.attack_bits(looped)
    from_b, from_c = 1 << bits[("b", "a")], 1 << bits[("c", "a")]
    job = (looped, [from_b | from_c, from_c, from_b], np.ones(3, np.intp), np.zeros(3, np.intp))
    monkeypatch.setattr(semantics, "_by_columns", lambda graph, masks: True)
    (error,) = semantics.solve_coalitions(spec, [job])
    with pytest.raises(NonConvergenceError) as first:
        degrees(looped, spec, from_c)
    with pytest.raises(NonConvergenceError) as second:
        degrees(looped, spec, from_b)
    assert first.value.residual != second.value.residual
    assert isinstance(error, NonConvergenceError)
    assert (error.iterations, error.residual) == (first.value.iterations, first.value.residual)
    monkeypatch.setattr(semantics, "_by_columns", lambda graph, masks: False)
    (flat,) = semantics.solve_coalitions(spec, [job])
    assert (flat.iterations, flat.residual) == (error.iterations, error.residual)


def test_a_coalition_job_sweeps_in_columns_from_the_crossover_on(monkeypatch):
    # A hub under 4 attacks from a ring of 60: m = 64 and top in-degree 4,
    # so a job of R masks takes the columns once R * 64 reaches
    # COLUMN_CROSSOVER * 4, and the flat stack one mask short of that.
    ring = [f"r{i:02d}" for i in range(60)]
    af = ArgumentationFramework.of(
        ring + ["h"], list(zip(ring, ring[1:] + ring[:1])) + [(r, "h") for r in ring[:4]]
    )
    graph = semantics._attackers(af)
    assert (graph.m, af.max_in_degree()) == (64, 4)
    least = -(-semantics.COLUMN_CROSSOVER * 4 // graph.m)
    hub = af.arguments.index("h")
    shift = int(graph.first[hub])
    kernels = []
    for kernel in ("_column_reads", "_picard_rows"):
        solve = getattr(semantics, kernel)

        def counted(*args, solve=solve, kernel=kernel):
            kernels.append(kernel)
            return solve(*args)

        monkeypatch.setattr(semantics, kernel, counted)
    reads = {}
    for size in (least, least - 1):
        masks = [(c % 16) << shift for c in range(size)]
        job = (af, masks, np.ones(size, np.intp), np.full(size, hub, np.intp))
        (reads[size],) = semantics.solve_coalitions(SemanticsSpec("max"), [job])
    assert kernels == ["_column_reads", "_picard_rows"]
    assert reads[least][: least - 1].tolist() == reads[least - 1].tolist()
    for c, value in enumerate(reads[least - 1][:16].tolist()):
        removed = [(r, "h") for j, r in enumerate(ring[:4]) if c >> j & 1]
        assert value == degrees(af.delete_attacks(removed), SemanticsSpec("max"))["h"]


def _traced_peak(af, spec):
    """Peak bytes of the numpy arrays and Python objects one cold solve allocates."""
    semantics._library.cache_clear()
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


def _assert_linear_solve(af, kind, expected):
    # n + m arguments and attacks, where any n x in-degree table or n x n
    # system would hold n^2 cells.
    size = len(af.arguments) + len(af.attacks)
    assert _traced_peak(af, SemanticsSpec(kind)) < 100 * size * 8
    scores = degrees(af, SemanticsSpec(kind)).as_dict()
    if kind == "cs":
        # Past the dense cutoff, so swept: within the tolerance of the exact
        # degrees, whatever rounding the sweep took.
        assert scores == pytest.approx(expected, abs=1e-12)
    else:
        assert scores == picard_scores(af.arguments, af.attacks, kind)[0]


@pytest.mark.parametrize("kind", KINDS)
def test_picard_solve_memory_is_linear_in_a_star(kind):
    # One argument attacked by all the others.
    names = [f"a{i:04d}" for i in range(3000)]
    af = ArgumentationFramework.of(names, [(b, names[0]) for b in names[1:]])
    centre = 1.0 - CountingConfig().damping
    expected = {a: centre if a == names[0] else 1.0 for a in names}
    _assert_linear_solve(af, kind, expected)


@pytest.mark.parametrize("kind", KINDS)
def test_picard_solve_memory_is_linear_in_a_hub_over_a_ring(kind):
    # The ring's arguments, each attacked by the one before, all attack the
    # hub, so cs normalises by the hub's in-degree of n - 1.
    names = [f"a{i:04d}" for i in range(3000)]
    ring = names[1:]
    attacks = [(b, names[0]) for b in ring] + list(zip(ring, ring[1:] + ring[:1]))
    af = ArgumentationFramework.of(names, attacks)
    alpha = CountingConfig().damping
    scale = alpha / len(ring)
    expected = dict.fromkeys(ring, 1.0 / (1.0 + scale))
    expected[names[0]] = 1.0 - alpha / (1.0 + scale)
    _assert_linear_solve(af, kind, expected)


def test_swept_counting_solve_stops_on_its_error_bound():
    # Past the dense cutoff, so swept.  On a ring the k-th step is exactly
    # alpha**k, so the first step of at most the tolerance is the 1,368th.
    # The iterates alternate around the exact degrees, so that step bounds
    # the error.
    names = [f"a{i:04d}" for i in range(1100)]
    ring = ArgumentationFramework.of(names, list(zip(names, names[1:] + names[:1])))
    alpha = CountingConfig().damping
    with pytest.raises(NonConvergenceError) as err:
        degrees(ring, SemanticsSpec("cs", max_iterations=1367))
    assert err.value.residual == pytest.approx(alpha**1367, rel=1e-2)
    exact = 1.0 / (1.0 + alpha)
    scores = degrees(ring, SemanticsSpec("cs", max_iterations=1368))
    assert all(abs(v - exact) <= 1e-12 for v in scores.values())


@settings(max_examples=60, deadline=None)
@given(solver_frameworks(), st.sampled_from(KINDS))
def test_every_degree_lies_between_its_last_two_iterates(af, kind):
    # Every rule is antitone and the sweep starts above the fixed point, so
    # the iterates alternate around it: the last step bounds the error.  A
    # loose tolerance stops the sweep while that step is still wide, and
    # the Picard kernel sweeps cs too.
    spec = SemanticsSpec(kind, tolerance=1e-3)
    iterates = [np.ones(len(af.arguments))]
    update = semantics._update

    def recorded(*args):
        iterates.append(update(*args))
        return iterates[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "_update", recorded)
        values, _, errors = semantics._picard_rows(spec, [semantics._attackers(af)], [0])
    assert errors == {}
    before, last = iterates[-2:]
    assert values.tolist() == last.tolist()
    # The default spec's degrees, within 1e-12 of the fixed point (cs solves
    # them densely).
    exact = np.array(degrees(af, SemanticsSpec(kind)).vector)
    slack = 1e-12
    assert np.all(np.minimum(before, last) - slack <= exact)
    assert np.all(exact <= np.maximum(before, last) + slack)
    assert np.abs(last - exact).max() <= spec.tolerance


def test_masked_counting_degrees_keep_their_own_norm_beside_the_parents():
    # Dropping (a, d) lowers the largest in-degree from 2 to 1: degrees
    # scores the derived framework with its own norm, and a table's dv
    # system with the parent's, so the two never share a solve.
    af = ArgumentationFramework.of(["a", "b", "c", "d"], [("a", "d"), ("b", "d"), ("c", "a")])
    spec = SemanticsSpec("cs")
    mask = 1 << semantics.attack_bits(af)[("a", "d")]
    table = semantics.Systems()
    sids = np.array([table.system(table.framework(af), mask)])
    parent, at = table.degrees(spec, sids)
    own, own_at = table.degrees(spec, sids, own_norm=True)
    assert parent.values[at[0] + 3] == pytest.approx(0.51)
    derived = degrees(af.delete_attacks([("a", "d")]), spec)["d"]
    assert own.values[own_at[0] + 3] == derived == degrees(af, spec, mask)["d"]
    assert derived == pytest.approx(0.02)


def test_stored_results_return_before_any_batch(showcase, monkeypatch):
    specs = [SemanticsSpec(kind) for kind in KINDS]
    stored = [(degrees(showcase, spec), shapley_all(showcase, spec)) for spec in specs]

    def refuse(*args):
        raise AssertionError("a batch ran for a stored result")

    monkeypatch.setattr(semantics, "solve_systems", refuse)
    monkeypatch.setattr(attribution, "plan_intensities", refuse)
    monkeypatch.setattr(attribution, "solve_coalitions", refuse)
    # Each read hands back the weighting and the measure kept in the table.
    for spec, (weighting, measure) in zip(specs, stored):
        assert degrees(showcase, spec) == weighting
        assert shapley_all(showcase, spec) == measure


def test_built_results_are_kept_beside_their_entries_and_dropped_with_them(showcase):
    table = semantics._library
    table.cache_clear()
    spec = SemanticsSpec("hbs")
    weighting, masked = degrees(showcase, spec), degrees(showcase, spec, 1)
    measure = shapley_all(showcase, spec)
    hits = table.cache_info().hits
    assert degrees(showcase, spec) is weighting
    assert degrees(showcase, spec, 1) is masked
    assert shapley_all(showcase, spec) is measure
    assert table.cache_info().hits == hits + 2
    # The kept results count against the table's bound on held values.
    held = sum(flat.held for flat in table._flats.values())
    assert held == 2 * len(showcase.arguments) + len(showcase.attacks)
    table.cache_clear()
    again = degrees(showcase, spec)
    assert again is not weighting and again == weighting
    assert shapley_all(showcase, spec) is not measure


def test_degrees_input_validation():
    with pytest.raises(ValueError):
        degrees(ArgumentationFramework.of([], []), SemanticsSpec("hbs"))


@pytest.mark.parametrize("kind", KINDS)
def test_existence_premises_reject_an_empty_framework(kind):
    # Existence reads each framework's degrees as ``degrees`` does.
    empty = ArgumentationFramework.of([], [])
    for measure in ("dv", "si"):
        with pytest.raises(ValueError, match="at least one argument"):
            check_principle("existence", measure, SemanticsSpec(kind), [empty])
    # A framework before it that fails to solve raises first.
    cycle = ArgumentationFramework.of(["a", "b"], [("a", "b"), ("b", "a")])
    if kind != "cs":
        with pytest.raises(NonConvergenceError):
            check_principle("existence", "dv", SemanticsSpec(kind, max_iterations=2), [cycle, empty])


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


def test_norm_override_must_be_finite():
    for norm in (math.nan, math.inf):
        with pytest.raises(ValueError):
            CountingConfig(norm_override=norm)


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


@st.composite
def _norm_graphs(draw):
    n = draw(st.integers(0, 6))
    names = [f"a{i}" for i in range(n)]
    pairs = [(s, t) for s in names for t in names]
    attacks = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return ArgumentationFramework.of(names, attacks)


@settings(max_examples=80, deadline=None)
@given(_norm_graphs(), st.sampled_from((None, 0.5, 2.0, 3.5, 40.0)))
@example(ArgumentationFramework.of(["a", "b"], []), None)
@example(ArgumentationFramework.of(["a", "b"], []), 2.0)
def test_counting_norm_from_the_edge_arrays_equals_the_attacker_count(af, override):
    # The top in-degree comes from the edge arrays, not the attacker dict
    # of ``max_in_degree``; norm and refusal stay those of the dict.
    config = CountingConfig(norm_override=override)
    try:
        expected = semantics._norm_for(af.max_in_degree(), config)
    except DivergentSeriesError as error:
        with pytest.raises(DivergentSeriesError, match=str(error)):
            counting_norm(af, config)
    else:
        assert counting_norm(af, config) == expected


def test_each_solved_degrees_call_is_one_miss_of_the_traced_table(monkeypatch):
    # perfbench's tracer counts the solves of a degrees call as the misses
    # it adds to ``_cached_degrees``, before and after the table's bound.
    table = semantics._cached_degrees
    spec = SemanticsSpec("hbs")

    def misses(*args):
        before = table.cache_info().misses
        degrees(*args)
        return table.cache_info().misses - before

    table.cache_clear()
    monkeypatch.setattr(semantics, "LIBRARY_SIZE", 8)
    solved = 0
    for n in range(2, 20):
        af = random_af(GeneratorConfig(n, 0.5, seed=n))
        assert misses(af, spec) == 1
        solved += 1
        if len(table._ids) > semantics.LIBRARY_SIZE:
            break
        assert misses(af, spec) == 0
    # Past its bound, the next call clears the table in place first.
    chain = ArgumentationFramework.of(["a", "b"], [("a", "b")])
    assert misses(chain, spec) == 1
    assert len(table._ids) == 2
    assert misses(chain, spec) == 0
    assert misses(chain, spec, 1) == 1
    assert misses(chain, spec, 1) == 0
    assert table.cache_info().misses == solved + 2
    assert semantics._cached_degrees is table is semantics._library


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
