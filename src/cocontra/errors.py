"""Shared exception types and the enumeration budget.

Every error carries enough data to reconstruct the failing call; batch
drivers convert them into report entries instead of crashing.
"""

from dataclasses import dataclass


class CocontraError(Exception):
    """Base class for all package errors."""


class MismatchedSignature(CocontraError):
    """Two maps that must share (co)domains do not."""


class BaseMismatch(CocontraError):
    """Structures over different base sets were combined."""


class CoalgebraMismatch(CocontraError):
    """Structures over different coalgebras were combined."""


class NotCounital(CocontraError):
    """A candidate structure map violates the counit axiom."""


class NotCoalgebraMorphism(CocontraError):
    """A map fails the comultiplication/counit compatibility squares."""


class RelationFailure(CocontraError):
    """A structure family violates its composition relations.

    Carries the witnessing index pair in ``args[1]`` when available.
    """


class EmptyFiber(CocontraError):
    """A product construction received an empty factor."""


class EmptyCarrier(CocontraError):
    """An operation that needs a base point got the empty carrier."""


class BudgetExceeded(CocontraError):
    """An enumeration would exceed its budget.

    ``projected`` holds the exact count that would have been enumerated.
    """

    def __init__(self, message, projected=None):
        super().__init__(message)
        self.projected = projected


@dataclass(frozen=True)
class Budget:
    """The most items one enumeration may visit, plus a wall-clock ceiling
    for the generators that enumerate lazily.

    Every enumerator charges its exact projected count before it starts,
    so an over-budget call fails at once with that count.  The count often
    comes from a manifest, hence a raised error rather than an assert.
    """

    max_count: int = 1_000_000
    time_ceiling_s: float = 60.0

    def __post_init__(self):
        if (not isinstance(self.max_count, int)
                or isinstance(self.max_count, bool) or self.max_count <= 0):
            raise CocontraError(
                f"budget must be a positive integer, got {self.max_count!r}"
            )
        if not self.time_ceiling_s > 0:
            raise CocontraError(
                f"time ceiling must be positive, got {self.time_ceiling_s!r}"
            )

    def charge(self, projected: int, what: str):
        if projected > self.max_count:
            raise BudgetExceeded(
                f"{what} would enumerate {projected} items "
                f"(budget {self.max_count})",
                projected=projected,
            )


DEFAULT_BUDGET = Budget()


class IncompatibleTriple(CocontraError):
    """Hom objects passed to composition do not share endpoints."""


class ParseError(CocontraError):
    """A manifest or declaration file failed to parse.

    ``where`` names the offending location (file, declaration, field).
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
