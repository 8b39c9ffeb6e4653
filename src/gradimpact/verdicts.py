"""Verdict and witness records, and the search driver shared by every check."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, count
from typing import Callable, Iterable

import numpy as np

from .framework import ArgumentationFramework, Attack

NO_COUNTEREXAMPLE = "no-counterexample"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class Witness:
    """A concrete instance on which a checked equality or bound fails.

    Carries everything needed to replay the failure: the frameworks involved,
    the argument sets and targets quantified over, any renaming or added or
    removed attacks, and the two numeric sides of the comparison.
    """

    frameworks: tuple[ArgumentationFramework, ...]
    lhs: float
    rhs: float
    subjects: tuple[tuple[str, ...], ...] = ()
    targets: tuple[str, ...] = ()
    mapping: tuple[tuple[str, str], ...] = ()
    attack: Attack | None = None
    removed_attacks: tuple[Attack, ...] = ()
    description: str = ""

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    def to_dict(self) -> dict:
        payload: dict = {
            "frameworks": [af.to_dict() for af in self.frameworks],
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
        if self.subjects:
            payload["subjects"] = [list(xs) for xs in self.subjects]
        if self.targets:
            payload["targets"] = list(self.targets)
        if self.mapping:
            payload["mapping"] = {a: b for a, b in self.mapping}
        if self.attack is not None:
            payload["attack"] = list(self.attack)
        if self.removed_attacks:
            payload["removed_attacks"] = [list(c) for c in self.removed_attacks]
        if self.description:
            payload["description"] = self.description
        return payload


@dataclass(frozen=True)
class PrincipleVerdict:
    """Outcome of searching a corpus for counterexamples to one property."""

    principle: str
    semantics: str
    status: str
    trials: int
    tolerance: float
    measure: str | None = None
    witness: Witness | None = None
    scope: str = "all"
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == NO_COUNTEREXAMPLE

    def to_dict(self) -> dict:
        payload: dict = {
            "principle": self.principle,
            "semantics": self.semantics,
            "status": self.status,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "scope": self.scope,
        }
        if self.measure is not None:
            payload["measure"] = self.measure
        if self.witness is not None:
            payload["witness"] = self.witness.to_dict()
        if self.notes:
            payload["notes"] = self.notes
        return payload


# A probe is one comparison: ``(lhs, rhs, fields)``, where ``fields`` are the
# remaining ``Witness`` fields that replay it.  A trial is an iterable of
# probes, most often a single one.  A relation compares arrays of sides.
Probe = tuple[float, float, dict]
Relation = Callable[[np.ndarray, np.ndarray, float], np.ndarray]
# Trials ``falsify`` draws before its first comparison; each window is four
# times the last.  A cell that stops at an early witness still solves the
# rest of its window, so the first window is small, and a cell that reads
# far solves few, large stacks.  Growing faster solves more systems ahead
# of the witnesses than it saves.
WINDOW = 8
GROWTH = 4


def probe(lhs: float, rhs: float, **fields) -> Probe:
    return lhs, rhs, fields


def trial(lhs: float, rhs: float, **fields) -> list[Probe]:
    """A trial of a single probe."""
    return [(lhs, rhs, fields)]


def differs(lhs, rhs, tolerance: float):
    """The two sides of an equality are apart by more than the tolerance."""
    return abs(lhs - rhs) > tolerance


def exceeds(lhs, rhs, tolerance: float):
    """The left side passes the upper bound on the right by more than the tolerance."""
    return lhs > rhs + tolerance


def _as_given(probes: list, number: int) -> tuple[np.ndarray, np.ndarray, dict]:
    sides = np.array([side for entry in probes for side in entry[:2]], dtype=float)
    return sides[0::2], sides[1::2], {}


def _drawn(probes: Iterable[Probe]) -> list:
    """A trial's probes, with an error raised while drawing them kept in
    place of the rest, to raise when the search reaches it."""
    drawn: list = []
    try:
        drawn.extend(probes)
    except Exception as error:  # re-raised where a lazy search would meet it
        drawn.append(error)
    return drawn


def falsify(
    principle: str,
    semantics: str,
    tolerance: float,
    trials: Iterable[Iterable[Probe]],
    *,
    relation: Relation = differs,
    count_all: bool = False,
    measure: str | None = None,
    resolve: Callable[[list, int], tuple] = _as_given,
) -> PrincipleVerdict:
    """Search a stream of trials for the first counterexample.

    Each trial counts once; the first of its probes on which
    ``relation(lhs, rhs, tolerance)`` holds becomes the witness, and the
    search stops there.  With ``count_all`` the later trials are still
    counted, but their probes are not drawn.  A generator stream may return
    a mapping of further verdict fields (``scope``, ``notes``); they are
    kept when the stream is read to its end, that is when the search passes
    or counts every trial.

    Trials are drawn in windows of 8, 32, 128, ... trials.  ``resolve`` gets
    a window's probes and its number from 0, and returns their lhs and rhs
    arrays and the error of each probe whose evaluation failed, by position.
    The first probe that holds or fails decides, an error drawn in place of
    a trial's last probes counting as one more probe, so the verdict is the
    one a search that evaluates one trial at a time reaches: an error
    surfaces only if no witness comes before it.
    """
    stream = iter(trials)
    tried = 0
    witness: Witness | None = None
    annotations: dict = {}
    size = WINDOW
    for number in count():
        window: list = []
        read: dict | None = None
        failure: Exception | None = None
        try:
            while len(window) < size:
                probes = next(stream)
                # A list is drawn already; only a generator can raise midway.
                if not (witness or isinstance(probes, list)):
                    probes = _drawn(probes)
                window.append(probes)
        except StopIteration as end:
            read = end.value or {}
        except Exception as error:  # re-raised where a lazy search would meet it
            failure = error
        if witness is None:
            done, witness = _first_witness(window, resolve, number, relation, tolerance)
            if witness is not None and not count_all:
                tried += done
                break
        tried += len(window)
        if failure is not None:
            raise failure
        if read is not None:
            annotations = read
            break
        size *= GROWTH
    return PrincipleVerdict(
        principle=principle,
        semantics=semantics,
        status=NO_COUNTEREXAMPLE if witness is None else COUNTEREXAMPLE,
        trials=tried,
        tolerance=tolerance,
        measure=measure,
        witness=witness,
        **annotations,
    )


def _first_witness(window, resolve, number, relation, tolerance):
    """The witness of a window of drawn trials and the trials up to its
    own, or ``(0, None)``; raises the first error met before it."""
    probes, drawn = [], {}
    for entries in window:
        if entries and isinstance(entries[-1], Exception):  # ``_drawn`` puts it last
            drawn[len(probes) + len(entries) - 1] = entries[-1]
            entries = entries[:-1] + [(0.0, 0.0, None)]
        probes.extend(entries)
    if not probes:
        return 0, None
    lhs, rhs, errors = resolve(probes, number)
    errors.update(drawn)
    holds = relation(lhs, rhs, tolerance).nonzero()[0]
    first = int(holds[0]) if holds.size else len(probes)
    failed = min(errors, default=len(probes))
    if failed <= first and failed < len(probes):
        raise errors[failed]
    if first == len(probes):
        return 0, None
    witness = Witness(lhs=lhs[first].item(), rhs=rhs[first].item(), **probes[first][2])
    return bisect_right(list(accumulate(map(len, window))), first) + 1, witness
