"""Reference implementations the test suite checks the library against.

Everything here is deliberately written with different conventions than the
package: scores live in plain dicts, matrices are lists of lists, and the
combinatorics are spelled out by full enumeration.  Agreement between these
and the library is evidence, not tautology, so none of it may be replaced by
calls into the modules under test (degree callbacks are injected by the
caller where a semantics is needed).
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from itertools import permutations
from typing import Callable, Iterable, Mapping, Sequence

Edge = tuple[str, str]


def is_acyclic(nodes: Sequence[str], edges: Iterable[Edge]) -> bool:
    """Kahn's algorithm; self-loops count as cycles."""
    out: dict[str, list[str]] = {n: [] for n in nodes}
    indeg: dict[str, int] = {n: 0 for n in nodes}
    for s, t in edges:
        out[s].append(t)
        indeg[t] += 1
    ready = deque(n for n in nodes if indeg[n] == 0)
    seen = 0
    while ready:
        node = ready.popleft()
        seen += 1
        for succ in out[node]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    return seen == len(nodes)


def counting_series(
    nodes: Sequence[str],
    edges: Iterable[Edge],
    alpha: float,
    norm: float,
    tail_bound: float = 1e-14,
    max_terms: int = 20000,
) -> dict[str, float]:
    """Truncated alternating series for the counting scores.

    Sums sum_k (-alpha/norm * M)^k applied to the all-ones vector, where
    M[target][source] marks an attack, stopping once a term falls below
    ``tail_bound`` in the max norm.
    """
    order = list(nodes)
    position = {n: i for i, n in enumerate(order)}
    n = len(order)
    rows: list[list[float]] = [[0.0] * n for _ in range(n)]
    scale = alpha / norm
    for s, t in edges:
        rows[position[t]][position[s]] = -scale
    term = [1.0] * n
    total = [1.0] * n
    for _ in range(max_terms):
        term = [sum(rows[i][j] * term[j] for j in range(n)) for i in range(n)]
        total = [a + b for a, b in zip(total, term)]
        if max(abs(x) for x in term) < tail_bound:
            break
    else:
        raise AssertionError("counting series did not settle")
    return dict(zip(order, total))


def picard_scores(
    nodes: Sequence[str],
    edges: Iterable[Edge],
    kind: str,
    start: float = 1.0,
    tolerance: float = 1e-12,
    max_iterations: int = 10**6,
) -> tuple[dict[str, float], int, float]:
    """Picard iteration of ``hbs``, ``car`` or ``max`` from a constant start.

    Each sweep rescores every node from its attackers' previous scores,
    summed (or maxed) in sorted attacker order, and its residual is the
    largest change of any score.  Returns the last scores, the number of
    sweeps run and the last residual: the iteration converged when that
    residual is at most ``tolerance``, and otherwise ran out of sweeps.
    """
    attackers: dict[str, list[str]] = {n: [] for n in nodes}
    for s, t in edges:
        attackers[t].append(s)
    scores = {n: float(start) for n in nodes}
    residual = float("inf")
    sweeps = 0
    while sweeps < max_iterations and residual > tolerance:
        updated = {}
        for node, sources in attackers.items():
            values = [scores[b] for b in sorted(sources)]
            if kind == "hbs":
                updated[node] = 1.0 / (1.0 + sum(values))
            elif kind == "car":
                k = len(values)
                updated[node] = 1.0 / (1.0 + k + sum(values) / k) if k else 1.0
            else:
                updated[node] = 1.0 / (1.0 + max(values, default=0.0))
        residual = max(abs(updated[n] - scores[n]) for n in nodes)
        scores = updated
        sweeps += 1
    return scores, sweeps, residual


def permutation_shapley(
    incoming: Sequence[Edge],
    worth: Callable[[tuple[Edge, ...]], float],
) -> dict[Edge, float]:
    """Average marginal contribution over every removal order.

    ``worth(removed)`` must return the degree the shared target reaches once
    the given attacks are gone.  For each order, the marginal of an attack is
    worth(prefix + attack) - worth(prefix); the value is the mean over all
    |incoming|! orders, which matches the factorial-weighted subset sum the
    library evaluates.
    """
    values = {attack: 0.0 for attack in incoming}
    count = math.factorial(len(incoming))
    for order in permutations(incoming):
        removed: tuple[Edge, ...] = ()
        for attack in order:
            before = worth(removed)
            removed = removed + (attack,)
            values[attack] += worth(removed) - before
    return {attack: total / count for attack, total in values.items()}


def subset_shapley(
    incoming: Sequence[Edge],
    worth: Callable[[tuple[Edge, ...]], float],
) -> dict[Edge, float]:
    """Factorial-weighted sum of marginals over every coalition of the others.

    The coalition scores are taken one by one from ``worth`` and the sums run
    in the same order as the library's, so agreement is exact, not approximate.
    """
    n = len(incoming)
    sigma = [
        worth(tuple(incoming[i] for i in range(n) if mask >> i & 1))
        for mask in range(1 << n)
    ]
    factorial = math.factorial
    weights = [factorial(k) * factorial(n - k - 1) / factorial(n) for k in range(n)]
    values = {}
    for position, attack in enumerate(incoming):
        bit = 1 << position
        total = 0.0
        for mask in range(1 << n):
            if not mask & bit:
                total += weights[bin(mask).count("1")] * (sigma[mask | bit] - sigma[mask])
        values[attack] = total
    return values


def sampled_shapley(
    incoming: Sequence[Edge],
    attack: Edge,
    worth: Callable[[tuple[Edge, ...]], float],
    sample_count: int,
    seed: int,
) -> float:
    """Mean marginal of ``attack`` over seeded random removal orders.

    The permutation stream is keyed by the seed and the attack, as the
    library's sampler documents: one ``random.Random`` per attack, seeded
    with the first eight bytes of ``sha256("seed:source>target")``.
    """
    digest = hashlib.sha256(f"{seed}:{attack[0]}>{attack[1]}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    order = list(incoming)
    total = 0.0
    for _ in range(sample_count):
        rng.shuffle(order)
        before = tuple(sorted(order[: order.index(attack)]))
        total += worth(before + (attack,)) - worth(before)
    return total / sample_count


def reference_shapley(
    nodes: Sequence[str],
    edges: Iterable[Edge],
    worth: Callable[[str, tuple[Edge, ...]], float],
    exact_cap: int,
    sample_count: int,
    seed: int,
) -> tuple[tuple[tuple[Edge, float], ...], str]:
    """Every attack's intensity, one coalition score at a time.

    ``worth(target, removed)`` is the target's degree once ``removed`` is
    gone.  Targets with at most ``exact_cap`` attackers use the subset sum,
    the rest the sampler.  Returns the entries ordered by target then source,
    and "sampled" if any target was sampled, else "exact".
    """
    by_target: dict[str, list[Edge]] = {n: [] for n in nodes}
    for s, t in edges:
        by_target[t].append((s, t))
    values: dict[Edge, float] = {}
    sampled = False
    for target, attacks in by_target.items():
        incoming = sorted(attacks)
        if not incoming:
            continue
        def score(removed, target=target):
            return worth(target, removed)
        if len(incoming) <= exact_cap:
            values.update(subset_shapley(incoming, score))
            continue
        sampled = True
        for attack in incoming:
            values[attack] = sampled_shapley(incoming, attack, score, sample_count, seed)
    entries = tuple(sorted(values.items(), key=lambda kv: (kv[0][1], kv[0][0])))
    return entries, "sampled" if sampled else "exact"


def walk_impact(
    nodes: Sequence[str],
    edges: Iterable[Edge],
    intensity: Mapping[Edge, float],
    member: str,
    target: str,
) -> float:
    """Signed sum over all directed walks from member to target.

    Each walk contributes the product of -intensity over its edges, so odd
    lengths count as attacks and even lengths as defences.  Only sound on
    acyclic graphs, where the walk count is finite; the recursion memoises
    the total signed weight of all walks from a node to the target.
    """
    out: dict[str, list[str]] = {n: [] for n in nodes}
    for s, t in edges:
        out[s].append(t)
    cache: dict[str, float] = {}

    def from_node(node: str) -> float:
        if node in cache:
            return cache[node]
        total = 0.0
        for succ in out[node]:
            step = -intensity[(node, succ)]
            total += step * ((1.0 if succ == target else 0.0) + from_node(succ))
        cache[node] = total
        return total

    return from_node(member)


def automorphism_brute_force(
    nodes: Sequence[str], edges: Iterable[Edge]
) -> list[dict[str, str]]:
    """Every attack-preserving permutation, found by trying them all."""
    edge_set = set(edges)
    found = []
    ordered = sorted(nodes)
    for image in permutations(ordered):
        mapping = dict(zip(ordered, image))
        if all(
            ((mapping[s], mapping[t]) in edge_set) == ((s, t) in edge_set)
            for s in ordered
            for t in ordered
        ):
            found.append(mapping)
    return found
