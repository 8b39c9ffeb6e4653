"""Seeded benchmark inputs: sparse attack graphs with a fixed in-degree sequence.

The library's ``random_af`` draws every ordered pair, which is O(n^2); these
generators are O(m).  Each graph keeps its in-degree sequence fixed and lets
the seed choose only which argument gets which in-degree and which sources
attack it, so the amount of solver and coalition work barely moves between
seeds while the graphs themselves differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Graph:
    """Arguments and attacks as the benchmark writes them to disk."""

    arguments: tuple[str, ...]
    attacks: tuple[tuple[str, str], ...]

    def attackers(self) -> dict[str, list[str]]:
        by_target: dict[str, list[str]] = {a: [] for a in self.arguments}
        for source, target in self.attacks:
            by_target[target].append(source)
        return by_target

    def stats(self) -> dict:
        indegree = [len(v) for v in self.attackers().values()]
        return {
            "n": len(self.arguments),
            "m": len(self.attacks),
            "max_indegree": max(indegree, default=0),
        }


def sparse_graph(indegrees: list[int], rng: random.Random) -> Graph:
    """A graph on ``len(indegrees)`` arguments with exactly these in-degrees.

    The sequence is dealt to the arguments in a seeded order, and each
    argument draws its attackers uniformly among the others, so there are no
    self-attacks and no duplicate attacks.
    """
    n = len(indegrees)
    names = [f"a{i}" for i in range(n)]
    dealt = list(indegrees)
    rng.shuffle(dealt)
    attacks = []
    for target, k in enumerate(dealt):
        sources = rng.sample(range(n - 1), k)
        for s in sources:
            source = s if s < target else s + 1
            attacks.append((names[source], names[target]))
    return Graph(tuple(names), tuple(attacks))


def poisson_indegrees(n: int, mean: float, top: int) -> list[int]:
    """A fixed in-degree sequence of length ``n`` shaped like Poisson(mean).

    Counts are the rounded Poisson frequencies; at least one argument gets
    exactly ``top`` attackers, and the total is ``round(n * mean)``.
    """
    counts = [round(n * math.exp(-mean) * mean**k / math.factorial(k)) for k in range(top)]
    sequence = [top] + [k for k in reversed(range(top)) for _ in range(counts[k])]
    sequence = (sequence + [0] * n)[:n]
    wanted = round(n * mean)
    # Move single attacks between the other arguments until the total is
    # exact, keeping each of them below ``top`` and non-negative.
    j = 0
    while sum(sequence) != wanted:
        j = j % (n - 1) + 1
        if sum(sequence) < wanted and sequence[j] < top - 1:
            sequence[j] += 1
        elif sum(sequence) > wanted and sequence[j] > 0:
            sequence[j] -= 1
    return sorted(sequence, reverse=True)


def write_tgf(graph: Graph, path: Path) -> int:
    lines = list(graph.arguments) + ["#"] + [f"{s} {t}" for s, t in graph.attacks]
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="ascii")
    return len(text)


def write_apx(graph: Graph, path: Path) -> int:
    lines = [f"arg({a})." for a in graph.arguments]
    lines += [f"att({s},{t})." for s, t in graph.attacks]
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="ascii")
    return len(text)


def read_graph(path: Path) -> Graph:
    """Read back a TGF or APX file written above, without the library's parsers."""
    text = path.read_text(encoding="ascii")
    arguments: list[str] = []
    attacks: list[tuple[str, str]] = []
    if path.suffix == ".tgf":
        head, _, tail = text.partition("\n#\n")
        arguments = head.split()
        attacks = [tuple(line.split()) for line in tail.splitlines() if line]
    else:
        for line in text.splitlines():
            if line.startswith("arg("):
                arguments.append(line[4:-2])
            elif line.startswith("att("):
                source, target = line[4:-2].split(",")
                attacks.append((source, target))
    return Graph(tuple(arguments), tuple(attacks))
