"""Per-attack intensity attribution by coalition-averaged marginal effects.

The intensity of an attack (b, a) is the Shapley value of a coalitional game
played among the attacks on a: the worth of a coalition is the degree a
reaches once the coalition is removed from the framework.  Equivalently, the
intensity averages, over all orders of removing the attacks on a, the degree
change caused by removing (b, a) at its turn.

Targets with at most ``exact_indegree_cap`` attackers are enumerated exactly;
beyond the cap a seeded permutation sample estimates the same average.  A
coalition of the attacks on a has bit j for a's j-th sorted attacker.
``plan_intensities`` plans a framework's games once per ``ShapleyConfig``,
as arrays: its coalition systems, the degrees each is read at, and where
each game's scores lie among those reads.  ``prefetch_intensities`` solves
the coalitions of many planned frameworks in one ``solve_coalitions`` stack
and values the games of one in-degree together; each framework's
intensities come out as one array in ``attack_bits`` order, the edge order
the impact tables scatter into their intensity matrices.  ``shapley_all``
is its one-framework case after a read of the intensity store, and the one
place a ``ShapleyMeasure`` is built.  Under
``hbs``, ``car``, ``max`` and swept ``cs`` each score is its derived
framework's degree bit for bit.  Under dense ``cs`` (up to 1,023
arguments) each score is a rank-one update of one solve per framework and
norm, within 1e-14 of a dense solve of the derived framework, so an
intensity, whose marginal weights sum to 1, lies within 2e-14 of one
computed from dense solves.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

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
    Store,
    _attackers,
    attack_bits,
    degrees,
    grouped_rows,
    solve_coalitions,
)
from .verdicts import PrincipleVerdict, exceeds, falsify, trial

EXACT_MODE = "exact"
SAMPLED_MODE = "sampled"
# Slack on the bounded-loss comparison, for the rounding of exact intensities.
BOUND_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ShapleyConfig:
    """Exact-enumeration cap and sampling parameters."""

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


def _sample_seed(seed: int, attack: Attack) -> int:
    digest = hashlib.sha256(f"{seed}:{attack[0]}>{attack[1]}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _draws(
    incoming: tuple[Attack, ...], attack: Attack, config: ShapleyConfig
) -> list[tuple[int, int]]:
    """Coalitions with and without ``attack``, one pair per seeded permutation."""
    rng = random.Random(_sample_seed(config.seed, attack))
    bit = incoming.index(attack)
    # Shuffling positions draws the same permutations as shuffling the attacks.
    order = list(range(len(incoming)))
    draws = []
    for _ in range(config.sample_count):
        rng.shuffle(order)
        before = sum(1 << i for i in order[: order.index(bit)])
        draws.append((before | 1 << bit, before))
    return draws


class GamePlan(NamedTuple):
    """A framework's games under one ``ShapleyConfig``: the grouped rows of
    its ``solve_coalitions`` job, whose reads are its scores, and its m
    attacks; a column per exact game: its in-degree k, its first edge,
    and the scores of its coalitions 0 and 1, which 2 to 2^k - 1 follow;
    and, if any attack is sampled, each one's edge and a row of the scores
    of its draws, with and without it in turn."""

    masks: list[int]
    counts: np.ndarray
    targets: np.ndarray
    m: int
    exact: np.ndarray
    sampled: tuple[np.ndarray, np.ndarray] | None


def plan_intensities(af: ArgumentationFramework, config: ShapleyConfig) -> GamePlan:
    """The games of every attacked target: exact ones score each coalition
    of the target's attacks, sampled ones the draws of each attack.  Rows
    stand in the order a one-by-one evaluation reaches them, so a failing
    solve reports the coalition it would reach first."""
    rows: dict[tuple[int, int], int] = {}  # each row's number, in order
    exact, drawn = [], []
    for t, target in enumerate(af.arguments):
        incoming = af.attacks_on(target)
        if len(incoming) > config.exact_indegree_cap:
            attacks = [_draws(incoming, attack, config) for attack in incoming]
            for coalition in chain.from_iterable(chain.from_iterable(attacks)):
                rows.setdefault((t, coalition), len(rows))
            drawn.append((t, attacks))
        elif incoming:
            exact.append((len(incoming), t, len(rows)))
            rows.update({(t, c): len(rows) + c for c in range(1 << len(incoming))})
    masks, counts, targets, order = grouped_rows(af, list(rows))
    score = np.empty_like(order)  # each row's place among the reads
    score[order] = np.arange(len(order))
    first = _attackers(af).first
    games = [(k, first[t], score[r], score[r + 1]) for k, t, r in exact]
    sampled = None
    if drawn:
        edges = [first[t] + j for t, attacks in drawn for j in range(len(attacks))]
        pairs = [
            [rows[t, coalition] for pair in draws for coalition in pair]
            for t, attacks in drawn
            for draws in attacks
        ]
        sampled = (np.array(edges, dtype=np.intp), score[np.array(pairs, dtype=np.intp)])
    exact = np.array(games, dtype=np.intp).reshape(-1, 4).T
    return GamePlan(masks, counts, targets, len(af.attacks), exact, sampled)


def _added(terms: np.ndarray) -> np.ndarray:
    """The sums along the last axis, each added left to right as a loop adds
    them from 0.0: ``cumsum`` adds in order, where ``np.add.reduce`` adds
    pairwise, its partial sums are the loop's up to the sign of a zero, and
    a final 0.0 turns its -0.0 into the loop's 0.0."""
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


def _exact_values(
    values: np.ndarray, scores: np.ndarray, k: int, games: np.ndarray
) -> None:
    """File the intensities of exact games of in-degree k into ``values``.

    ``games`` has a column per game: its first edge, and the scores of its
    empty coalition and of coalition 1.  Bit j's intensity sums, over the
    coalitions C without j in ascending order, |C|!(k - |C| - 1)!/k! times
    score(C + j) - score(C).
    """
    # The coalitions without bit j are 0 .. 2^(k-1) - 1, each with a 0 put
    # in at bit j, which keeps its size.
    rest = np.arange(1 << (k - 1))
    bit = np.arange(k)[:, None]
    lower = rest >> bit << bit + 1 | rest & (1 << bit) - 1
    factorial = math.factorial
    weights = [factorial(c) * factorial(k - c - 1) / factorial(k) for c in range(k)]
    weight = np.array(weights)[[c.bit_count() for c in range(len(rest))]]
    edge, empty, one = games
    coalitions = one[:, None] + np.arange((1 << k) - 1)
    columns = np.concatenate([empty[:, None], coalitions], axis=1)
    # A chunk of games at a time, so the marginals take at most COALITION_CELLS.
    step = max(1, COALITION_CELLS // (k << k))
    for lo in range(0, len(edge), step):
        sigma = scores[columns[lo : lo + step]]
        marginals = weight * (sigma[:, lower | 1 << bit] - sigma[:, lower])
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
    for k in sorted(set(games[0].tolist())):
        _exact_values(values, scores, k, games[1:, games[0] == k])
    drawn = [(j, plan.sampled) for j, plan in enumerate(plans) if plan.sampled]
    if drawn:
        owner = np.repeat([j for j, _ in drawn], [len(edges) for _, (edges, _) in drawn])
        edges = np.concatenate([edges for _, (edges, _) in drawn]) + edge_at[owner]
        pairs = np.concatenate([pairs for _, (_, pairs) in drawn]) + score_at[owner, None]
        terms = scores[pairs[:, 0::2]] - scores[pairs[:, 1::2]]
        values[edges] = _added(terms) / terms.shape[1]
    return values


_cached_shapley_all = Store(maxsize=4096)


def prefetch_intensities(
    spec: SemanticsSpec,
    config: ShapleyConfig,
    frameworks: Sequence[ArgumentationFramework],
    planner: Callable[[ArgumentationFramework], GamePlan],
    given: Mapping[ArgumentationFramework, ShapleyMeasure] | None = None,
) -> list[tuple[np.ndarray, str] | GradimpactError]:
    """Each framework's intensities in ``attack_bits`` order and its mode,
    or the error its ``shapley_all`` call would raise.

    A framework in ``given``, or whose measure is stored, takes that
    measure, checked to name each attack once (``_edge_values``).  The
    rest are solved from their plans, ``planner(af)``, all coalitions in one
    ``solve_coalitions`` stack.  Each intensity is summed left to right
    from 0.0, as a loop sums it: bit j's over the coalitions without j in
    ascending order, and a sampled attack's over its draws before their
    mean.  A failing framework gets the error of its first failing row.
    """
    found: list = [None] * len(frameworks)
    jobs = []
    for i, af in enumerate(frameworks):
        measure = None if given is None else given.get(af)
        if measure is None:
            measure = _cached_shapley_all.get((af, spec, config))
        if measure is None:
            jobs.append((i, planner(af)))
            continue
        try:
            found[i] = _edge_values(af, measure), measure.mode
        except GradimpactError as error:
            found[i] = error
    solved = solve_coalitions(spec, [(frameworks[i], *game[:3]) for i, game in jobs])
    values = _game_values([game for _, game in jobs], solved)
    at = 0
    for (i, game), result in zip(jobs, solved):
        mode = SAMPLED_MODE if game.sampled else EXACT_MODE
        if isinstance(result, np.ndarray):
            result = values[at : at + game.m], mode
        found[i] = result
        at += game.m
    return found


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
    the value from dense solves.  Read from the intensity store, or else
    solved alone by ``prefetch_intensities`` and filed there.
    """
    measure = _cached_shapley_all.get((af, spec, config))
    if measure is None:
        planner = partial(plan_intensities, config=config)
        (solved,) = prefetch_intensities(spec, config, (af,), planner)
        if isinstance(solved, GradimpactError):
            raise solved
        values, mode = solved
        # ``attack_bits`` numbers the attacks by target, then source.
        entries = tuple(zip(attack_bits(af), values.tolist()))
        measure = _cached_shapley_all.put((af, spec, config), ShapleyMeasure(entries, mode))
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
    return falsify(
        "bounded-loss",
        spec.kind,
        BOUND_TOLERANCE,
        _bound_trials(af, spec, config),
        relation=exceeds,
    )


def _bound_trials(af, spec, config):
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
