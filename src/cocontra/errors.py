"""Shared exception types and the job context: budget and tables.

Every error carries enough data to reconstruct the failing call; batch
drivers convert them into report entries instead of crashing.
"""

from contextlib import contextmanager
from typing import NamedTuple


class CocontraError(Exception):
    """Base class for all package errors."""


class MismatchedSignature(CocontraError):
    """Two maps that must share (co)domains do not."""


class BaseMismatch(CocontraError):
    """Structures over different base sets were combined."""


class CoalgebraMismatch(CocontraError):
    """Structures over different coalgebras were combined."""


class NotCoalgebraMorphism(CocontraError):
    """A map fails the comultiplication/counit compatibility squares."""


class InvalidImage(CocontraError):
    """A structure a certificate relies on is not valid: its coalgebra,
    checked once before anything is built and never through the images
    built from it; a map onto a quotient that does not descend; or a
    bridge or change-of-coalgebra image, whose laws depend on the module.

    ``failures`` holds the failing laws with their witnesses.
    """

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)


class EmptyFiber(CocontraError):
    """A product construction received an empty factor."""


class EmptyCarrier(CocontraError):
    """An operation that needs a base point got the empty carrier."""


class InvalidConstruction(CocontraError):
    """A set-side construction fails a property that holds on valid
    input: a quotient class mixes base points, a map is not constant on
    classes, or a decomposition's two maps are not mutually inverse.  Its
    input is not a valid structure, or the step that built it is wrong.
    """


class BudgetExceeded(CocontraError):
    """An enumeration would exceed its budget.

    ``projected`` holds the count that would have been enumerated: the
    exact int when it prints (see :func:`count_text`), and otherwise its
    text, so a report can always write it.
    """

    def __init__(self, message, projected=None):
        super().__init__(message)
        self.projected = projected


# the most items one enumeration may visit outside any job
DEFAULT_BUDGET = 1_000_000


class _Job(NamedTuple):
    budget: int
    tables: dict


# the running job, None outside any job: its count and the tables its
# calls share (spaces, decode and slot-map tables), each built once
_job = None


@contextmanager
def job(count):
    """Run the block as one job: every charge is checked against ``count``
    and :func:`job_table` builds each table once; the tables go, and the
    outer job comes back, when the block exits.  The count often comes
    from a manifest, hence a raised error rather than an assert."""
    global _job
    if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
        raise CocontraError(
            f"budget must be a positive integer, got {count!r}")
    outer, _job = _job, _Job(count, {})
    try:
        yield
    finally:
        _job = outer


def job_table(key, build, *args):
    """``build(*args)``, once per key within a job, and on every call
    outside one; a hit builds nothing."""
    if _job is None:
        return build(*args)
    got = _job.tables.get(key)
    if got is None:
        got = _job.tables[key] = build(*args)
    return got


def job_tables():
    """The running job's tables, None outside a job: for a caller that
    keys its own entries and must not pay a call per lookup.  The keys
    of :func:`job_table` entries are tuples."""
    return None if _job is None else _job.tables


def _budget() -> int:
    return DEFAULT_BUDGET if _job is None else _job.budget


def charge(projected: int, what: str):
    """Every enumerator charges its exact projected count before it starts,
    so an over-budget call fails at once with that count."""
    if projected > _budget():
        if projected.bit_length() > PRINTED_BITS:
            projected = count_text(projected)
        _refuse(projected, what)


def charge_power(base: int, exponent: int, what: str):
    """Charge base ** exponent items.  A power that may be too long to
    print and surely exceeds the budget (it is at least
    2 ** (exponent * (bits of base - 1))) is refused as
    "base^exponent", without being computed."""
    bits = base.bit_length()
    if (exponent * bits > PRINTED_BITS
            and exponent * (bits - 1) >= _budget().bit_length()):
        _refuse(f"{base}^{count_text(exponent)}", what)
    charge(base ** exponent, what)


def _refuse(projected, what: str):
    raise BudgetExceeded(
        f"{what} would enumerate {projected} items (budget {_budget()})",
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


class ParseError(CocontraError):
    """A manifest or declaration file failed to parse.

    ``where`` names the offending location (file, declaration, field).
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
