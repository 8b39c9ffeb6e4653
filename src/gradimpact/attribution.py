"""Per-attack intensity attribution by coalition-averaged marginal effects.

The intensity of an attack (b, a) is the Shapley value of a coalitional game
played among the attacks on a: the worth of a coalition is the degree a
reaches once the coalition is removed from the framework.  Equivalently, the
intensity averages, over all orders of removing the attacks on a, the degree
change caused by removing (b, a) at its turn.

Targets with at most ``exact_indegree_cap`` attackers are enumerated exactly;
beyond it, ``sample_count`` permutations of a's attacks, seeded by ``seed``
and a's name, estimate the average, and meet efficiency up to rounding: a
permutation's marginals sum to a's degree loss (Castro, Gómez and Tejada,
2009).  A coalition of the attacks on a has bit j for a's j-th sorted
attacker.
``plan_intensities`` plans a framework's games once per ``ShapleyConfig``,
as arrays: its coalition systems, the degrees each is read at, and where
each game's scores lie among those reads.  ``prefetch_intensities`` reads
the intensities of many frameworks from a ``semantics.Systems`` table,
which also keeps their plans, solves the coalitions of those it lacks in
one ``solve_coalitions`` stack, and values the games of one in-degree
together; each framework's intensities are filed as one array in
``attack_bits`` order, the edge order the impact tables scatter into their
intensity matrices.  ``shapley_all`` is its one-framework case in the
process table, and the one place a ``ShapleyMeasure`` is built.  Under
``hbs``, ``car``, ``max`` and swept ``cs`` each score is its derived
framework's degree bit for bit.  Under dense ``cs`` (up to 1,023
arguments) each score is a rank-one update of one solve per framework and
norm, within 1e-14 of a dense solve of the derived framework, so an
intensity, whose marginal weights sum to 1, lies within 2e-14 of one
computed from dense solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ExactModeRequiredError,
    GradimpactError,
    InconsistentAnnotationError,
    UnknownAttackError,
)
from .framework import ArgumentationFramework, Attack
from .semantics import (
    COALITION_CELLS,
    SemanticsSpec,
    Systems,
    _attackers,
    _indegrees,
    _library,
    attack_bits,
    degrees,
    grouped_rows,
    library_table,
    solve_coalitions,
    top_in_degree,
)

if TYPE_CHECKING:
    from .verdicts import PrincipleVerdict

EXACT_MODE = "exact"
SAMPLED_MODE = "sampled"
# Slack on the bounded-loss comparison, for the rounding of exact intensities.
BOUND_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ShapleyConfig:
    """Exact-enumeration cap, and ``sample_count`` permutations per sampled
    target, on a stream seeded by ``seed`` and the target's name."""

    exact_indegree_cap: int = 12
    sample_count: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.exact_indegree_cap < 0:
            raise ValueError("exact_indegree_cap must be non-negative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class ShapleyMeasure(Mapping[Attack, float]):
    """Intensity of every attack, keyed by (source, target)."""

    entries: tuple[tuple[Attack, float], ...]
    mode: str

    @cached_property
    def _lookup(self) -> dict[Attack, float]:
        return dict(self.entries)

    @cached_property
    def _hash(self) -> int:
        return hash((self.entries, self.mode))

    def __hash__(self) -> int:
        # The dataclass's hash, computed once: a measure keys the resolvent
        # store, which every ``si`` query reads.
        return self._hash

    def __getitem__(self, attack: Attack) -> float:
        try:
            return self._lookup[attack]
        except KeyError:
            raise UnknownAttackError(*attack) from None

    def __iter__(self) -> Iterator[Attack]:
        return iter(self._lookup)

    def __len__(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict[Attack, float]:
        return dict(self.entries)

    def to_payload(self, semantics: str) -> dict:
        return {
            "semantics": semantics,
            "mode": self.mode,
            "values": [
                {"source": s, "target": t, "s": v} for (s, t), v in self.entries
            ],
        }


def _permutations(target: str, k: int, config: ShapleyConfig) -> tuple[list[int], np.ndarray]:
    """The distinct prefixes of permutations of k attacks on ``target``, in
    first use, and per attack the row numbers of its (with, without)
    prefixes in each.  A permutation sorts a row of 64-bit keys; a prefix
    is held as ceil(k / 64) words, low bits first."""
    import random
    s = config.sample_count
    bits = random.Random(f"{config.seed}:{target}").getrandbits(64 * s * k)
    keys = np.frombuffer(bits.to_bytes(8 * s * k, "little"), "<u8").reshape(s, k)
    order = np.argsort(keys, axis=1, kind="stable")  # the attack at each turn
    taken = np.arange(s)[:, None]
    words = np.zeros((s, k + 1, (k + 63) // 64), np.uint64)
    words[taken, np.arange(1, k + 1), order >> 6] = np.uint64(1) << (order & 63).astype(np.uint64)
    prefixes = np.bitwise_or.accumulate(words, axis=1).reshape(s * (k + 1), -1)
    unique, first, inverse = np.unique(prefixes, axis=0, return_index=True, return_inverse=True)
    used = np.argsort(first)  # the distinct prefixes in first use
    row = np.argsort(used)[inverse.reshape(-1)].reshape(s, k + 1)
    pairs = np.empty((k, s, 2), np.intp)
    pairs[order, taken] = np.stack([row[:, 1:], row[:, :-1]], axis=2)
    data, width = unique[used].astype("<u8").tobytes(), 8 * words.shape[2]
    masks = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    return masks, pairs.reshape(k, 2 * s)


class GamePlan(NamedTuple):
    """A framework's games under one ``ShapleyConfig``: the grouped rows of
    its ``solve_coalitions`` job, whose reads are its scores, and its m
    attacks; a column per exact game: its in-degree k, its first edge,
    and the scores of its coalitions 0 and 1, which 2 to 2^k - 1 follow;
    and, if any attack is sampled, each one's edge and a row of the scores
    of its prefixes in each permutation, with and without it in turn."""

    masks: list[int]
    counts: np.ndarray
    targets: np.ndarray
    m: int
    exact: np.ndarray
    sampled: tuple[np.ndarray, np.ndarray] | None


def plan_intensities(af: ArgumentationFramework, config: ShapleyConfig) -> GamePlan:
    """The games of every attacked target: exact ones score each coalition
    of the target's attacks, sampled ones its permutations' prefixes.  Rows
    stand in the order a one-by-one evaluation reaches them, so a failing
    solve reports the coalition it would reach first."""
    graph = _attackers(af)
    first = graph.first
    rows: list[tuple[int, int]] = []
    exact, edges, pairs = [], [], []
    for t, k in enumerate(_indegrees(graph).tolist()):
        if k > config.exact_indegree_cap:
            coalitions, game = _permutations(af.arguments[t], k, config)
            pairs.append(game + len(rows))
            rows.extend(zip(repeat(t), coalitions))
            edges.extend(range(first[t], first[t] + k))
        elif k:
            exact.append((k, t, len(rows)))
            rows.extend(zip(repeat(t), range(1 << k)))
    masks, counts, targets, order = grouped_rows(af, rows)
    score = np.empty_like(order)  # each row's place among the reads
    score[order] = np.arange(len(order))
    games = [(k, first[t], score[r], score[r + 1]) for k, t, r in exact]
    sampled = (np.array(edges, np.intp), score[np.concatenate(pairs)]) if pairs else None
    exact = np.array(games, dtype=np.intp).reshape(-1, 4).T
    return GamePlan(masks, counts, targets, len(af.attacks), exact, sampled)


def _added(terms: np.ndarray) -> np.ndarray:
    """The sums along the last axis, each added left to right as a loop adds
    them from 0.0: ``cumsum`` adds in order, where ``np.add.reduce`` adds
    pairwise, its partial sums are the loop's up to the sign of a zero, and
    a final 0.0 turns its -0.0 into the loop's 0.0."""
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


def _coalition_tables(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For games of up to ``top`` attacks: the coalitions without bit j, in
    ascending order, in row j; the same with bit j; and the size of each.
    A game of k attacks reads the first k rows and 2^(k-1) columns: the
    coalitions without bit j are 0 .. 2^(k-1) - 1, each with a 0 put in at
    bit j, which keeps its size, whatever the top."""
    rest = np.arange(1 << (top - 1))
    bit = np.arange(top)[:, None]
    lower = rest >> bit << bit + 1 | rest & (1 << bit) - 1
    sizes = np.zeros(len(rest), dtype=np.intp)
    for j in range(top - 1):
        sizes += rest >> j & 1
    return lower, lower | 1 << bit, sizes


def _exact_values(
    values: np.ndarray, scores: np.ndarray, k: int, games: np.ndarray, tables: tuple
) -> None:
    """File the intensities of exact games of in-degree k into ``values``.

    ``games`` has a column per game: its first edge, and the scores of its
    empty coalition and of coalition 1.  Bit j's intensity sums, over the
    coalitions C without j in ascending order, |C|!(k - |C| - 1)!/k! times
    score(C + j) - score(C).
    """
    lower, upper, sizes = tables
    half = 1 << (k - 1)
    lower, upper = lower[:k, :half], upper[:k, :half]
    factorial = math.factorial
    weights = [factorial(c) * factorial(k - c - 1) / factorial(k) for c in range(k)]
    weight = np.array(weights)[sizes[:half]]
    edge, empty, one = games
    coalitions = one[:, None] + np.arange((1 << k) - 1)
    columns = np.concatenate([empty[:, None], coalitions], axis=1)
    # A chunk of games at a time, so the marginals take at most COALITION_CELLS.
    step = max(1, COALITION_CELLS // (k << k))
    for lo in range(0, len(edge), step):
        sigma = scores[columns[lo : lo + step]]
        marginals = weight * (sigma[:, upper] - sigma[:, lower])
        values[edge[lo : lo + step, None] + np.arange(k)] = _added(marginals)


def _game_values(
    plans: Sequence[GamePlan], solved: Sequence[np.ndarray | GradimpactError]
) -> np.ndarray:
    """The intensities of planned frameworks, framework after framework in
    ``attack_bits`` order, from each one's solved scores; a failed
    framework's are meaningless.  The exact games of one in-degree are
    valued together, and the sampled attacks together."""
    score_at = np.cumsum([0] + [len(plan.targets) for plan in plans])
    scores = np.zeros(score_at[-1])
    for j, found in enumerate(solved):
        if isinstance(found, np.ndarray):
            scores[score_at[j] : score_at[j + 1]] = found
    edge_at = np.cumsum([0] + [plan.m for plan in plans])
    values = np.zeros(edge_at[-1])
    games = np.concatenate([np.zeros((4, 0), np.intp)] + [p.exact for p in plans], axis=1)
    owner = np.repeat(np.arange(len(plans)), [plan.exact.shape[1] for plan in plans])
    games[1] += edge_at[owner]
    games[2:] += score_at[owner]
    if games.shape[1]:
        tables = _coalition_tables(int(games[0].max()))
        for k in sorted(set(games[0].tolist())):
            _exact_values(values, scores, k, games[1:, games[0] == k], tables)
    drawn = [(j, plan.sampled) for j, plan in enumerate(plans) if plan.sampled]
    if drawn:
        owner = np.repeat([j for j, _ in drawn], [len(edges) for _, (edges, _) in drawn])
        edges = np.concatenate([edges for _, (edges, _) in drawn]) + edge_at[owner]
        pairs = np.concatenate([pairs for _, (_, pairs) in drawn]) + score_at[owner, None]
        terms = scores[pairs[:, 0::2]] - scores[pairs[:, 1::2]]
        values[edges] = _added(terms) / terms.shape[1]
    return values


def plan(table: Systems, fid: int, config: ShapleyConfig) -> GamePlan:
    """The games of the table's framework ``fid`` under ``config``,
    planned on first use and kept in its ``plans``."""
    found = table.plans.get((fid, config))
    if found is None:
        found = table.plans[fid, config] = plan_intensities(table.frameworks[fid], config)
    return found


def prefetch_intensities(
    table: Systems,
    spec: SemanticsSpec,
    config: ShapleyConfig,
    fids: Sequence[int],
    given: Mapping[ArgumentationFramework, ShapleyMeasure] | None = None,
) -> list[np.ndarray | GradimpactError]:
    """The intensities of each of the table's frameworks ``fids`` in
    ``attack_bits`` order, or the error its ``shapley_all`` call would
    raise.

    A framework in ``given`` takes that measure, checked to name each
    attack once (``_edge_values``).  The rest are read from the table's
    intensities under ``spec`` and ``config``; those it lacks are solved
    from their plans (``plan``), all coalitions in one ``solve_coalitions``
    stack, and filed there with their errors.  Each intensity is summed
    left to right from 0.0, as a loop sums it: bit j's over the coalitions
    without j in ascending order, and a sampled attack's over its
    permutations before their mean.  A failing framework gets the error of
    its first failing row.
    """
    frameworks = table.frameworks
    measures = [None if given is None else given.get(frameworks[fid]) for fid in fids]
    read = [fid for fid, measure in zip(fids, measures) if measure is None]
    solved = table.flat(("intensities", spec, config), len(frameworks))
    missing = solved.missing(np.array(read, dtype=np.intp))
    if missing is not None:
        games = [plan(table, fid, config) for fid in missing]
        found = solve_coalitions(spec, [(frameworks[f], *g[:3]) for f, g in zip(missing, games)])
        values = _game_values(games, found)
        ends = np.cumsum([game.m for game in games]).tolist()
        solved.add([
            (fid, values[end - game.m : end] if isinstance(result, np.ndarray) else result)
            for fid, game, result, end in zip(missing, games, found, ends)
        ])
    out: list = []
    for fid, measure in zip(fids, measures):
        af, at = frameworks[fid], solved.offsets[fid]
        if measure is None:
            out.append(solved.failures[fid] if at < 0 else solved.values[at : at + len(af.attacks)])
            continue
        try:
            out.append(_edge_values(af, measure))
        except GradimpactError as error:
            out.append(error)
    return out


def _edge_values(af: ArgumentationFramework, measure: ShapleyMeasure) -> np.ndarray:
    """The measure's intensities in ``attack_bits`` order, if it names
    every attack of ``af`` once and nothing else."""
    bits = attack_bits(af)
    for attack, _ in measure.entries:
        if attack not in bits:
            raise UnknownAttackError(*attack)
    # Every entry names an attack of af, so they cover its attacks exactly
    # when there are as many distinct entries as attacks.
    if len(measure.as_dict()) != len(measure.entries):
        raise InconsistentAnnotationError("intensity measure names an attack twice")
    if len(measure.entries) != len(bits):
        raise InconsistentAnnotationError(
            "intensity measure does not cover the attacks exactly"
        )
    values = np.zeros(len(bits))
    for attack, value in measure.entries:
        values[bits[attack]] = value
    return values


def shapley_all(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    config: ShapleyConfig = ShapleyConfig(),
) -> ShapleyMeasure:
    """Intensities of every attack, sorted by target then source.

    Under ``hbs``, ``car``, ``max`` and swept ``cs``, each exact intensity
    lies within 2 * ``spec.tolerance`` of the exact Shapley value: each
    coalition degree is within ``tolerance`` of its fixed point, and the
    marginal weights sum to 1.  Under dense ``cs`` the bound is 2e-14 of
    the value from dense solves.  The intensities are read from the process
    table, or else solved alone by ``prefetch_intensities`` and filed
    there.  The first read builds the measure, sampled when some target has
    more attacks than ``config.exact_indegree_cap``, and keeps it beside
    the entry; later reads hand back the same one.
    """
    key = ("intensities", spec, config)
    measure = _library.built(key, af)
    if measure is not None:
        return measure
    with library_table() as table:
        fid = table.framework(af)
        (found,) = prefetch_intensities(table, spec, config, [fid])
        if isinstance(found, GradimpactError):
            raise found
        # ``attack_bits`` numbers the attacks by target, then source.
        entries = tuple(zip(attack_bits(af), found.tolist()))
        sampled = top_in_degree(af) > config.exact_indegree_cap
        measure = ShapleyMeasure(entries, SAMPLED_MODE if sampled else EXACT_MODE)
        table.flat(key, 0).keep(fid, measure, len(entries))
        return measure


def check_bounded_loss(
    af: ArgumentationFramework,
    spec: SemanticsSpec,
    config: ShapleyConfig = ShapleyConfig(),
) -> PrincipleVerdict:
    """Search for an attack whose intensity magnitude exceeds its source's degree.

    Requires exact intensities: a sampled estimate could cross the bound by
    noise alone, so targets beyond the exact cap are rejected.
    """
    for target in af.arguments:
        indegree = af.in_degree(target)
        if indegree > config.exact_indegree_cap:
            raise ExactModeRequiredError(indegree, config.exact_indegree_cap)
    from .verdicts import exceeds, falsify
    return falsify(
        "bounded-loss",
        spec.kind,
        BOUND_TOLERANCE,
        _bound_trials(af, spec, config),
        relation=exceeds,
    )


def _bound_trials(af, spec, config):
    from .verdicts import trial
    measure = shapley_all(af, spec, config)
    scores = degrees(af, spec) if measure.entries else {}
    for (source, target), value in measure.entries:
        yield trial(
            abs(value),
            scores[source],
            frameworks=(af,),
            targets=(target,),
            attack=(source, target),
            description="intensity magnitude exceeded the source's degree",
        )
