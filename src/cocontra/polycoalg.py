"""The truncated binomial coalgebra.

The coalgebra has basis 1, z, ..., z^N with comultiplication spreading a
power across the tensor factors with binomial coefficients and counit
picking the constant term.  z^k sits in degree k*d for the declared
``z_degree`` d.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .coalg.core import Coalgebra
from .exactlin import (
    GradedVect,
    LinMap,
    tensor,
    unit_space,
)


@dataclass(eq=False)
class PolyCoalgebra:
    truncation: int  # highest retained power
    z_degree: int
    field: object
    underlying: Coalgebra

    @property
    def space(self) -> GradedVect:
        return self.underlying.space


def build(truncation: int, z_degree: int, field) -> PolyCoalgebra:
    """The span of 1, z, ..., z^N as a coalgebra; closure under the
    comultiplication is automatic because exponents only ever split."""
    if truncation < 0:
        raise ValueError(f"truncation must be at least 0, got {truncation}")
    n = truncation
    dims: dict[int, int] = {}
    labels: dict[int, list] = {}
    for k in range(n + 1):
        deg = k * z_degree
        dims[deg] = dims.get(deg, 0) + 1
        labels.setdefault(deg, []).append(f"z{k}")
    space = GradedVect(
        field, dims, {d: tuple(v) for d, v in labels.items()}
    )
    delta_images = {}
    eps_images = {}
    for k in range(n + 1):
        delta_images[f"z{k}"] = {
            ("t", f"z{i}", f"z{k - i}"): field.from_int(comb(k, i))
            for i in range(k + 1)
        }
        eps_images[f"z{k}"] = (
            {"1": field.one()} if k == 0 else {}
        )
    delta = LinMap.from_images(space, tensor(space, space), 0, delta_images)
    eps = LinMap.from_images(space, unit_space(field), 0, eps_images)
    return PolyCoalgebra(n, z_degree, field, Coalgebra(space, delta, eps))
