"""Exact scalar fields: rationals and prime fields.

Every coefficient is in its field's canonical form, so equal scalars are
equal objects of one type.  A rational is a Python int when it is
integral and a ``fractions.Fraction`` otherwise; a prime-field element is
a plain int in ``range(p)``.  Field operations return canonical results
from canonical arguments, so internal code never normalises; outside
scalars are brought into this form by ``canonical``, ``from_int`` and
``parse`` where they enter.  The matrix kernels call no field method per
entry: a product keeps each entry as an integer numerator over its row's
common denominator, and elimination over Q keeps integer rows, so each
result becomes a field element once, through ``from_ratio``; over F_p
every denominator is 1, and elimination reduces mod p inline.  No
floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _rational(x):
    """An int or Fraction as a canonical rational: an int when integral."""
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class QQ:
    """The field of rationals."""

    name: str = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def canonical(self, a):
        return _rational(a)

    def from_ratio(self, n: int, d: int):
        """n / d for ints n and d > 0."""
        return n if d == 1 else _rational(Fraction(n, d))

    # int results, the common case, skip the denominator test
    def add(self, a, b):
        c = a + b
        return c if type(c) is int else _rational(c)

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int else _rational(c)

    def mul(self, a, b):
        # a factor of 1 or -1, which every identity map contributes, costs
        # no Fraction arithmetic
        if type(a) is int:
            if type(b) is int:
                return a * b
            if a == 1:
                return b
            if a == -1:
                return -b
        elif type(b) is int:
            if b == 1:
                return a
            if b == -1:
                return -a
        return _rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rational(1 / Fraction(a))

    def div(self, a, b):
        return _rational(Fraction(a) / Fraction(b))

    def parse(self, s: str):
        try:
            return _rational(Fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"{s!r} has a zero denominator") from None

    def format(self, a) -> str:
        return str(a)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class GF:
    """The prime field with p elements."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def canonical(self, a):
        return a % self.p

    def from_ratio(self, n: int, d: int):
        """n / d for ints n and d prime to p."""
        return n % self.p if d == 1 else self.div(n, d)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, s: str):
        # accepts "2" or, in F5, "2 mod 5"
        body, mod, p = s.partition("mod")
        if mod and int(p) != self.p:
            raise ValueError(f"{s!r} is not an element of {self.name}")
        return self.from_int(int(body))

    def format(self, a) -> str:
        return f"{a % self.p} mod {self.p}"


def field_from_name(name: str):
    """Parse a field tag: "Q", "F2", "Fp:7"."""
    if name == "Q":
        return QQ()
    if name.startswith("Fp:"):
        return GF(int(name[3:]))
    if name.startswith("F"):
        return GF(int(name[1:]))
    raise ValueError(f"unknown field {name!r}")
