"""Reference implementations the test suite checks the library against.

Everything here is deliberately written with different conventions than the
package: scores live in plain dicts, matrices are lists of lists, and the
combinatorics are spelled out by full enumeration.  Agreement between these
and the library is evidence, not tautology, so none of it may be replaced by
calls into the modules under test (degree callbacks are injected by the
caller where a semantics is needed).
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from itertools import permutations
from typing import Callable, Iterable, Mapping, Sequence

# The package's error types, so that a test can compare the parsers' errors;
# nothing else of the package is used here.
from gradimpact.errors import (
    DuplicateArgumentError,
    DuplicateAttackError,
    FormatSyntaxError,
    MissingSeparatorError,
    UnknownEndpointError,
)

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


def counting_coalition_degree(
    nodes: Sequence[str],
    edges: Iterable[Edge],
    alpha: float,
    norm_override: float | None,
    target: str,
    removed: Iterable[Edge],
) -> float:
    """The counting score of ``target`` once ``removed`` is gone, by a dense
    LU solve of the reduced system.

    The reduced framework keeps the other attacks; its norm is the override
    or else its largest in-degree, and it scores 1 everywhere when it has no
    attack.  Otherwise (I + alpha / norm * M) x = 1 is solved by Gaussian
    elimination with partial pivoting on lists of lists.
    """
    gone = set(removed)
    kept = [edge for edge in edges if edge not in gone]
    if not kept:
        return 1.0
    indegree: dict[str, int] = {n: 0 for n in nodes}
    for _, t in kept:
        indegree[t] += 1
    norm = norm_override if norm_override is not None else max(indegree.values())
    order = list(nodes)
    position = {n: i for i, n in enumerate(order)}
    size = len(order)
    rows = [[1.0 if i == j else 0.0 for j in range(size)] + [1.0] for i in range(size)]
    for s, t in kept:
        rows[position[t]][position[s]] += alpha / norm
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    solution = [0.0] * size
    for r in reversed(range(size)):
        tail = sum(rows[r][j] * solution[j] for j in range(r + 1, size))
        solution[r] = (rows[r][size] - tail) / rows[r][r]
    return solution[position[target]]


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


def keyed_permutations(target: str, k: int, sample_count: int, seed: int) -> list[list[int]]:
    """The sampler's permutations of a target's k attacks, as positions in
    removal order.

    One ``random.Random("seed:target")`` draws
    ``getrandbits(64 * sample_count * k)``, read as 64-bit keys from the
    lowest bits up, k per permutation; a permutation removes the attacks
    in the order of their keys, ties by position.
    """
    bits = random.Random(f"{seed}:{target}").getrandbits(64 * sample_count * k)
    orders = []
    for p in range(sample_count):
        keys = [bits >> 64 * (p * k + i) & (1 << 64) - 1 for i in range(k)]
        orders.append(sorted(range(k), key=keys.__getitem__))
    return orders


def sampled_shapley(
    target: str,
    incoming: Sequence[Edge],
    worth: Callable[[tuple[Edge, ...]], float],
    sample_count: int,
    seed: int,
) -> dict[Edge, float]:
    """Mean marginal of each attack on ``target`` over its keyed removal
    orders (``keyed_permutations``): each attack scores the degree change
    its removal makes at its turn."""
    totals = [0.0] * len(incoming)
    for order in keyed_permutations(target, len(incoming), sample_count, seed):
        removed: list[Edge] = []
        before = worth(())
        for i in order:
            removed.append(incoming[i])
            after = worth(tuple(sorted(removed)))
            totals[i] += after - before
            before = after
    return {attack: total / sample_count for attack, total in zip(incoming, totals)}


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
        values.update(sampled_shapley(target, incoming, score, sample_count, seed))
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


def one_at_a_time_search(
    trials: Iterable,
    value: Callable[[object], float],
    relation: Callable[[float, float, float], bool],
    tolerance: float,
    count_all: bool = False,
) -> tuple[int, tuple | None, dict]:
    """The search a verdict records, evaluating one side at a time.

    Each trial is an iterable of ``(lhs, rhs, fields)`` probes whose sides
    name impacts without a measure or semantics; ``value`` turns a side
    into a float under the cell's, and runs only when that side is
    compared, so an error it raises surfaces exactly where the search meets
    it.  The
    first probe on which ``relation`` holds is the witness, and the search
    stops there, or with ``count_all`` only counts the later trials.
    Returns the trials counted, the witness as ``(lhs, rhs, fields)`` or
    None, and the stream's returned mapping if it was read to its end.
    """
    stream = iter(trials)
    tried = 0
    witness = None
    annotations: dict = {}
    while True:
        try:
            probes = next(stream)
        except StopIteration as end:
            annotations = end.value or {}
            break
        tried += 1
        if witness is not None:
            continue
        for lhs, rhs, fields in probes:
            lhs, rhs = value(lhs), value(rhs)
            if relation(lhs, rhs, tolerance):
                witness = (lhs, rhs, fields)
                break
        if witness is not None and not count_all:
            break
    return tried, witness, annotations


def line_parse_tgf(text: str) -> tuple[tuple[str, ...], tuple[Edge, ...]]:
    """TGF read one line at a time: the sorted arguments and attacks, or the
    parse error of the first faulty line."""
    nodes: list[str] = []
    edges: list[Edge] = []
    seen_nodes: set[str] = set()
    seen_edges: set[Edge] = set()
    in_edges = False
    found_separator = False
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            if found_separator:
                raise FormatSyntaxError(number, raw)
            found_separator = True
            in_edges = True
            continue
        tokens = line.split()
        if not in_edges:
            if len(tokens) != 1:
                raise FormatSyntaxError(number, raw)
            (node,) = tokens
            if node in seen_nodes:
                raise DuplicateArgumentError(node)
            seen_nodes.add(node)
            nodes.append(node)
        else:
            if len(tokens) != 2:
                raise FormatSyntaxError(number, raw)
            source, target = tokens
            if source not in seen_nodes:
                raise UnknownEndpointError(source)
            if target not in seen_nodes:
                raise UnknownEndpointError(target)
            if (source, target) in seen_edges:
                raise DuplicateAttackError(source, target)
            seen_edges.add((source, target))
            edges.append((source, target))
    if not found_separator:
        raise MissingSeparatorError("no '#' separator line found")
    return tuple(sorted(nodes)), tuple(sorted(edges))


_APX_LINE_STATEMENT = re.compile(
    r"arg\(\s*([^(),.\s%]+)\s*\)\s*\.|att\(\s*([^(),.\s%]+)\s*,\s*([^(),.\s%]+)\s*\)\s*\."
)


def line_parse_apx(text: str) -> tuple[tuple[str, ...], tuple[Edge, ...]]:
    """APX read one line at a time: the sorted arguments and attacks, or the
    parse error of the first faulty line, and after every line, of the first
    attack on an undeclared argument."""
    arguments: list[str] = []
    attacks: list[tuple[int, str, str]] = []
    seen_args: set[str] = set()
    seen_attacks: set[Edge] = set()
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        position = 0
        for match in _APX_LINE_STATEMENT.finditer(line):
            if line[position : match.start()].strip():
                raise FormatSyntaxError(number, raw)
            position = match.end()
            if match.group(1) is not None:
                identifier = match.group(1)
                if identifier in seen_args:
                    raise DuplicateArgumentError(identifier)
                seen_args.add(identifier)
                arguments.append(identifier)
            else:
                source, target = match.group(2), match.group(3)
                if (source, target) in seen_attacks:
                    raise DuplicateAttackError(source, target)
                seen_attacks.add((source, target))
                attacks.append((number, source, target))
        rest = line[position:].strip()
        if rest and not rest.startswith("%"):
            raise FormatSyntaxError(number, raw)
    for _, source, target in attacks:
        if source not in seen_args:
            raise UnknownEndpointError(source)
        if target not in seen_args:
            raise UnknownEndpointError(target)
    return tuple(sorted(arguments)), tuple(sorted((s, t) for _, s, t in attacks))
