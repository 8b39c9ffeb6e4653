"""Directed attack graphs and the structural operations defined on them.

An argumentation framework is a finite set of argument identifiers together
with a set of directed attacks between them.  Instances are immutable value
objects: equal frameworks hash equally, which the degree and intensity caches
rely on.  Argument sets are passed around as plain iterables of identifiers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import UnknownArgumentError, UnknownAttackError

Attack = tuple[str, str]


@dataclass(frozen=True)
class ArgumentationFramework:
    """An immutable attack graph over string-identified arguments."""

    arguments: tuple[str, ...]
    attacks: tuple[Attack, ...]

    @classmethod
    def of(
        cls,
        arguments: Iterable[str],
        attacks: Iterable[Attack] = (),
    ) -> "ArgumentationFramework":
        """Build a framework, sorting members and dropping duplicate attacks.

        Argument ids and attack endpoints are both coerced with ``str``.
        """
        args = tuple(sorted({str(a) for a in arguments}))
        for a in args:
            if not a:
                raise ValueError("argument identifiers must be non-empty strings")
        known = set(args)
        atts = tuple(sorted(set((str(s), str(t)) for s, t in attacks)))
        for s, t in atts:
            if s not in known:
                raise UnknownArgumentError(s)
            if t not in known:
                raise UnknownArgumentError(t)
        return cls(args, atts)

    # -- cached adjacency ------------------------------------------------

    @cached_property
    def _hash(self) -> int:
        return hash((self.arguments, self.attacks))

    def __hash__(self) -> int:
        # The dataclass's hash, computed once: frameworks are numbered in
        # the solved-results table by it, which every impact query reads.
        return self._hash


    @cached_property
    def _argument_set(self) -> frozenset[str]:
        return frozenset(self.arguments)

    @cached_property
    def positions(self) -> Mapping[str, int]:
        """Each argument's index in ``arguments``."""
        return {a: i for i, a in enumerate(self.arguments)}

    @cached_property
    def _attack_set(self) -> frozenset[Attack]:
        return frozenset(self.attacks)

    @cached_property
    def _attackers(self) -> Mapping[str, tuple[str, ...]]:
        by_target: dict[str, list[str]] = {a: [] for a in self.arguments}
        for s, t in self.attacks:
            by_target[t].append(s)
        return {a: tuple(sorted(v)) for a, v in by_target.items()}

    @cached_property
    def _successors(self) -> Mapping[str, tuple[str, ...]]:
        by_source: dict[str, list[str]] = {a: [] for a in self.arguments}
        for s, t in self.attacks:
            by_source[s].append(t)
        return {a: tuple(sorted(v)) for a, v in by_source.items()}

    # -- basic queries ---------------------------------------------------

    def __contains__(self, argument: str) -> bool:
        return argument in self._argument_set

    def has_attack(self, source: str, target: str) -> bool:
        return (source, target) in self._attack_set

    def _require(self, argument: str) -> None:
        if argument not in self._argument_set:
            raise UnknownArgumentError(argument)

    def _require_all(self, arguments: Iterable[str]) -> tuple[str, ...]:
        xs = tuple(sorted(set(arguments)))
        for a in xs:
            self._require(a)
        return xs

    def attackers(self, argument: str) -> tuple[str, ...]:
        """All direct attackers of ``argument``, sorted."""
        self._require(argument)
        return self._attackers[argument]

    def attacked_by(self, argument: str) -> tuple[str, ...]:
        """All arguments that ``argument`` attacks, sorted."""
        self._require(argument)
        return self._successors[argument]

    def attacks_on(self, argument: str) -> tuple[Attack, ...]:
        """All attacks whose target is ``argument``, sorted."""
        return tuple((s, argument) for s in self.attackers(argument))

    def in_degree(self, argument: str) -> int:
        return len(self.attackers(argument))

    def max_in_degree(self) -> int:
        """Largest number of direct attackers over all arguments, 0 if attack-free."""
        if not self.arguments:
            return 0
        return max(len(self._attackers[a]) for a in self.arguments)

    def external_attackers(self, subject: Iterable[str]) -> tuple[str, ...]:
        """Arguments outside ``subject`` that attack some member of it."""
        xs = set(self._require_all(subject))
        found = {s for s, t in self.attacks if t in xs and s not in xs}
        return tuple(sorted(found))

    def external_attacks(self, subject: Iterable[str]) -> tuple[Attack, ...]:
        """Attacks into ``subject`` whose source lies outside it."""
        xs = set(self._require_all(subject))
        return tuple(sorted((s, t) for s, t in self.attacks if t in xs and s not in xs))

    @cached_property
    def _downstream(self) -> dict[str, frozenset[str]]:
        # The arguments a path of length >= 1 from each argument reaches,
        # filled in one argument at a time, when first asked for.
        return {}

    @cached_property
    def _upstream(self) -> dict[str, frozenset[str]]:
        # The arguments with a path of length >= 1 into each argument.
        return {}

    @staticmethod
    def _reached(
        table: dict[str, frozenset[str]],
        step: Mapping[str, tuple[str, ...]],
        start: str,
    ) -> frozenset[str]:
        if start not in table:
            seen: set[str] = set()
            queue = deque(step[start])
            while queue:
                node = queue.popleft()
                if node not in seen:
                    seen.add(node)
                    queue.extend(step[node])
            table[start] = frozenset(seen)
        return table[start]

    def has_path(self, source: str, target: str) -> bool:
        """True iff a directed path of length >= 1 leads from source to target."""
        self._require(source)
        self._require(target)
        return target in self._reached(self._downstream, self._successors, source)

    def attack_structure(self, argument: str) -> tuple[str, ...]:
        """``argument`` plus every argument with a directed path into it."""
        self._require(argument)
        upstream = self._reached(self._upstream, self._attackers, argument)
        return tuple(sorted(upstream | {argument}))

    # -- derived frameworks ----------------------------------------------

    def union(self, other: "ArgumentationFramework") -> "ArgumentationFramework":
        """Componentwise union of two frameworks."""
        return ArgumentationFramework.of(
            self.arguments + other.arguments, self.attacks + other.attacks
        )

    def restrict(self, subject: Iterable[str]) -> "ArgumentationFramework":
        """Sub-framework induced by ``subject``: members plus attacks among them."""
        xs = set(self._require_all(subject))
        return ArgumentationFramework.of(
            xs, ((s, t) for s, t in self.attacks if s in xs and t in xs)
        )

    def delete_arguments(
        self, subject: Iterable[str], keep: str
    ) -> "ArgumentationFramework":
        """Remove ``subject`` except ``keep``, dropping every attack touching it.

        Attacks are dropped whenever either endpoint lies in ``subject``, so the
        kept argument loses the attacks tying it to the removed set as well.
        """
        xs = set(self._require_all(subject))
        self._require(keep)
        remaining = [a for a in self.arguments if a == keep or a not in xs]
        return ArgumentationFramework.of(
            remaining,
            ((s, t) for s, t in self.attacks if s not in xs and t not in xs),
        )

    def delete_attacks(self, removed: Iterable[Attack]) -> "ArgumentationFramework":
        """Remove the given attacks, keeping every argument."""
        rs = set((str(s), str(t)) for s, t in removed)
        for s, t in rs:
            if (s, t) not in self._attack_set:
                raise UnknownAttackError(s, t)
        return ArgumentationFramework.of(
            self.arguments, (c for c in self.attacks if c not in rs)
        )

    def rename(self, mapping: Mapping[str, str]) -> "ArgumentationFramework":
        """Apply a bijective renaming of the arguments."""
        missing = self._argument_set - set(mapping)
        if missing:
            raise UnknownArgumentError(sorted(missing)[0])
        images = [mapping[a] for a in self.arguments]
        if len(set(images)) != len(images):
            raise ValueError("renaming must be injective")
        return ArgumentationFramework.of(
            images, ((mapping[s], mapping[t]) for s, t in self.attacks)
        )

    def to_dict(self) -> dict:
        """Plain-data form used by the JSON serializer."""
        return {
            "arguments": list(self.arguments),
            "attacks": [list(c) for c in self.attacks],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ArgumentationFramework":
        return cls.of(payload["arguments"], (tuple(c) for c in payload["attacks"]))

    def __iter__(self) -> Iterator[str]:
        return iter(self.arguments)

    def __len__(self) -> int:
        return len(self.arguments)
