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

    ``projected`` holds the count that would have been enumerated: the
    exact int when it prints (see :func:`count_text`), and otherwise its
    text, so a report can always write it.
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
            if projected.bit_length() > PRINTED_BITS:
                projected = count_text(projected)
            self._refuse(projected, what)

    def charge_power(self, base: int, exponent: int, what: str):
        """Charge base ** exponent items.  A power that may be too long to
        print and surely exceeds the budget (it is at least
        2 ** (exponent * (bits of base - 1))) is refused as
        "base^exponent", without being computed."""
        bits = base.bit_length()
        if (exponent * bits > PRINTED_BITS
                and exponent * (bits - 1) >= self.max_count.bit_length()):
            self._refuse(f"{base}^{count_text(exponent)}", what)
        self.charge(base ** exponent, what)

    def _refuse(self, projected, what: str):
        raise BudgetExceeded(
            f"{what} would enumerate {projected} items "
            f"(budget {self.max_count})",
            projected=projected,
        )


# a count of at most this many bits prints in decimal (at most 603
# digits, below the least limit Python can be set to for int-to-str)
PRINTED_BITS = 2000


def count_text(n: int) -> str:
    """n in decimal, or, for a longer count, the power of two it reaches:
    "at least 2^k", with k written the same way."""
    if n.bit_length() <= PRINTED_BITS:
        return str(n)
    return f"at least 2^{count_text(n.bit_length() - 1)}"


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
