"""Exact scalar fields: rationals and prime fields.

Rational elements are ``fractions.Fraction``; prime-field elements are
plain ints in ``range(p)``.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# Fraction is immutable, so every zero and one can be the same object
_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class QQ:
    """The field of rationals."""

    name: str = "Q"

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def parse(self, s: str):
        return Fraction(s)

    def format(self, a) -> str:
        return str(Fraction(a))


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
        # accepts "2" or "2 mod 5"
        body = s.split("mod")[0].strip()
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
