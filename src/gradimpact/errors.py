"""Exception types shared across the package."""

from __future__ import annotations


class GradimpactError(Exception):
    """Base class for all package-specific errors."""


class ParseError(GradimpactError):
    """A framework file could not be parsed."""


class MissingSeparatorError(ParseError):
    """TGF input has no '#' line between nodes and edges."""


class FormatSyntaxError(ParseError):
    """A line does not match the expected grammar."""

    def __init__(self, line_number: int, text: str):
        super().__init__(f"line {line_number}: cannot parse {text!r}")
        self.line_number = line_number
        self.text = text


class UnknownEndpointError(ParseError):
    """An attack references an argument that was never declared."""

    def __init__(self, identifier: str):
        super().__init__(f"attack endpoint {identifier!r} is not a declared argument")
        self.identifier = identifier


class DuplicateArgumentError(ParseError):
    """The same argument identifier is declared twice."""

    def __init__(self, identifier: str):
        super().__init__(f"argument {identifier!r} declared more than once")
        self.identifier = identifier


class DuplicateAttackError(ParseError):
    """The same attack is declared twice."""

    def __init__(self, source: str, target: str):
        super().__init__(f"attack ({source!r}, {target!r}) declared more than once")
        self.source = source
        self.target = target


class UnknownArgumentError(GradimpactError):
    """An operation referenced an argument outside the framework."""

    def __init__(self, identifier: str):
        super().__init__(f"unknown argument {identifier!r}")
        self.identifier = identifier


class UnknownAttackError(GradimpactError):
    """An operation referenced an attack outside the framework."""

    def __init__(self, source: str, target: str):
        super().__init__(f"unknown attack ({source!r}, {target!r})")
        self.source = source
        self.target = target


class TooLargeError(GradimpactError):
    """An exhaustive search was requested beyond its size cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"restriction has {size} arguments, exhaustive cap is {cap}")
        self.size = size
        self.cap = cap


class NonConvergenceError(GradimpactError):
    """A fixed-point iteration exhausted its iteration budget."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no fixed point after {iterations} iterations (residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class DivergentSeriesError(GradimpactError):
    """The counting-semantics series is not guaranteed to converge."""


class ExactModeRequiredError(GradimpactError):
    """A check needs exact attack intensities but only estimates are available."""

    def __init__(self, indegree: int, cap: int):
        super().__init__(
            f"in-degree {indegree} exceeds the exact-enumeration cap {cap}"
        )
        self.indegree = indegree
        self.cap = cap


class DivergenceError(GradimpactError):
    """A walk series exceeded its divergence guard."""

    def __init__(self, partial: float, length: int, guard: float):
        super().__init__(
            f"walk series exceeded guard {guard:g} at length {length}"
            f" (partial sum {partial:.6g})"
        )
        self.partial = partial
        self.length = length
        self.guard = guard


class InconsistentAnnotationError(GradimpactError):
    """Annotations or an intensity measure do not cover the framework exactly.

    Raised by ``serialize`` for degree or intensity annotations, and by
    ``imp_si`` for an intensity measure that misses or repeats an attack.
    """


class UnsupportedInstanceError(GradimpactError):
    """A corpus entry does not have the shape a principle check requires."""


class IncompleteMatrixError(GradimpactError):
    """An audit matrix is missing cells needed for a cross-check."""
