"""Per-attack intensity attribution by coalition-averaged marginal effects.

The intensity of an attack (b, a) is the Shapley value of a coalitional game
played among the attacks on a: the worth of a coalition is the degree a
reaches once the coalition is removed from the framework.  Equivalently, the
intensity averages, over all orders of removing the attacks on a, the degree
change caused by removing (b, a) at its turn.

Targets with at most ``exact_indegree_cap`` attackers are enumerated exactly;
beyond the cap a seeded permutation sample estimates the same average.  A
coalition of the attacks on a has bit j for a's j-th sorted attacker, as
``prefetch_coalitions`` reads it.
``prefetch_intensities`` solves the coalition scores of many frameworks in
one ``prefetch_coalitions`` call, and ``shapley_all`` is its one-framework
case after a read of the intensity store.  Under
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
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ExactModeRequiredError, GradimpactError, UnknownAttackError
from .framework import ArgumentationFramework, Attack
from .semantics import SemanticsSpec, Store, degrees, prefetch_coalitions
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


def _exact_values(
    incoming: tuple[Attack, ...], sigma: list[float]
) -> dict[Attack, float]:
    """Factorial-weighted marginals; ``sigma[mask]`` scores removing ``mask``."""
    n = len(incoming)
    factorial = math.factorial
    weights = [factorial(k) * factorial(n - k - 1) / factorial(n) for k in range(n)]
    values: dict[Attack, float] = {}
    for position, attack in enumerate(incoming):
        bit = 1 << position
        total = 0.0
        for mask in range(1 << n):
            if mask & bit:
                continue
            total += weights[mask.bit_count()] * (sigma[mask | bit] - sigma[mask])
        values[attack] = total
    return values


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


class _Game(NamedTuple):
    """The coalitional game on the attacks of argument ``t``: exact, or
    sampled by the ``draws`` of each attack."""

    t: int
    incoming: tuple[Attack, ...]
    draws: dict[Attack, list[tuple[int, int]]] | None


def _plan(
    af: ArgumentationFramework, config: ShapleyConfig
) -> tuple[list[tuple[int, int]], list[_Game]]:
    """The ``(t, coalition)`` rows every attacked target's game scores.

    Bit j of a coalition drops the attack from the j-th of
    ``af.attacks_on(af.arguments[t])``, the numbering ``prefetch_coalitions``
    reads.  Exact targets enumerate every coalition; sampled ones draw every
    incoming attack.  Rows appear in the order of first use, so a failing
    solve reports the coalition that a one-by-one evaluation would reach
    first.
    """
    rows: dict[tuple[int, int], None] = {}
    games = []
    for t, target in enumerate(af.arguments):
        incoming = af.attacks_on(target)
        if not incoming:
            continue
        if len(incoming) <= config.exact_indegree_cap:
            coalitions = range(1 << len(incoming))
            games.append(_Game(t, incoming, None))
        else:
            draws = {attack: _draws(incoming, attack, config) for attack in incoming}
            coalitions = (c for pairs in draws.values() for pair in pairs for c in pair)
            games.append(_Game(t, incoming, draws))
        for coalition in coalitions:
            rows[(t, coalition)] = None
    return list(rows), games


def _measure(
    rows: list[tuple[int, int]],
    games: list[_Game],
    sigma: list[float],
) -> ShapleyMeasure:
    """The intensities of every attack, from the degree of each planned row."""
    position = {row: i for i, row in enumerate(rows)}
    values: dict[Attack, float] = {}
    sampled = False
    for t, incoming, draws in games:
        if draws is None:
            start = position[(t, 0)]
            scores = sigma[start : start + (1 << len(incoming))]
            values.update(_exact_values(incoming, scores))
            continue
        sampled = True
        for attack, pairs in draws.items():
            total = 0.0
            for with_, without in pairs:
                total += sigma[position[(t, with_)]] - sigma[position[(t, without)]]
            values[attack] = total / len(pairs)
    entries = tuple(sorted(values.items(), key=lambda kv: (kv[0][1], kv[0][0])))
    return ShapleyMeasure(entries=entries, mode=SAMPLED_MODE if sampled else EXACT_MODE)


_cached_shapley_all = Store(maxsize=4096)


def prefetch_intensities(
    frameworks: Iterable[ArgumentationFramework],
    spec: SemanticsSpec,
    config: ShapleyConfig = ShapleyConfig(),
) -> dict[ArgumentationFramework, ShapleyMeasure | GradimpactError]:
    """Each framework's intensities, read from their store or solved there.

    The coalitions of every framework whose measure is not stored are solved
    in one stack, and each measure whose coalitions all solved is stored.
    Returns each framework's measure, or the error its ``shapley_all`` call
    would raise; a measure that failed stays out of the store.
    """
    measures: dict = {}
    plans = {}
    for af in frameworks:
        if af not in measures:
            measures[af] = measure = _cached_shapley_all.get((af, spec, config))
            if measure is None:
                plans[af] = _plan(af, config)
    if not plans:
        return measures
    solved = prefetch_coalitions([(af, spec, rows) for af, (rows, _) in plans.items()])
    for (af, (rows, games)), sigma in zip(plans.items(), solved):
        if isinstance(sigma, GradimpactError):
            measures[af] = sigma
            continue
        measure = _measure(rows, games, sigma)
        measures[af] = _cached_shapley_all.put((af, spec, config), measure)
    return measures


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
    ``prefetch_intensities``' of the one framework.
    """
    measure = _cached_shapley_all.get((af, spec, config))
    if measure is None:
        measure = prefetch_intensities((af,), spec, config)[af]
        if isinstance(measure, GradimpactError):
            raise measure
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
