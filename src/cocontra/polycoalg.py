"""The truncated binomial coalgebra and its structure families.

The coalgebra has basis 1, z, ..., z^N with comultiplication spreading a
power across the tensor factors with binomial coefficients and counit
picking the constant term.  A comodule is a family of operators indexed by
the exponent; unitality forces the zeroth to be the identity and
coassociativity becomes the binomial composition law

    rho_m o rho_n = binom(m+n, n) rho_{m+n}   (zero past the truncation).

Over the rationals the whole family is the divided-power tower of its first
member, which must be nilpotent below the truncation order.

Degree bookkeeping: z^k sits in degree k*d, so the operator indexed by n
must lower degree by n*d for the assembled structure maps to be
degree-zero (with d = 0 nothing shifts).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .coalg.core import Coalgebra, VComodule, VContramodule
from .errors import NotCounital, RelationFailure
from .exactlin import (
    GradedVect,
    LinMap,
    compose,
    hom_space,
    identity_map,
    scale_map,
    tensor,
    unit_space,
    zero_map,
)
from .exactlin.fields import QQ


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


def _check_family(pc: PolyCoalgebra, space: GradedVect, ops, what: str):
    """Shared validation of an exponent-indexed operator family."""
    n = pc.truncation
    if len(ops) != n + 1:
        raise ValueError(f"need {n + 1} operators, got {len(ops)}")
    for i, op in enumerate(ops):
        if op.dom != space or op.cod != space:
            raise ValueError(f"{what}[{i}] must be an endomorphism")
        if op.degree != -i * pc.z_degree:
            raise ValueError(
                f"{what}[{i}] must lower degree by {i * pc.z_degree}"
            )
    if ops[0] != identity_map(space):
        raise NotCounital(f"{what}[0] must be the identity")


def family_relations_hold(pc: PolyCoalgebra, space, ops):
    """The binomial composition law, with the truncation sending every
    out-of-range composite to zero.  Returns (ok, witness)."""
    n = pc.truncation
    for m in range(n + 1):
        for k in range(n + 1):
            lhs = compose(ops[m], ops[k])
            if m + k <= n:
                rhs = scale_map(
                    pc.field.from_int(comb(m + k, k)), ops[m + k]
                )
            else:
                rhs = zero_map(space, space, -(m + k) * pc.z_degree)
            if lhs != rhs:
                return False, (m, k)
    return True, None


def comodule_from_family(pc: PolyCoalgebra, space: GradedVect,
                         ops) -> VComodule:
    """Assemble the coaction sending x to the sum over n of ops[n](x)
    against the n-th power.  It checks the binomial relations, which are
    equivalent to the comodule axioms, so the result is a comodule."""
    _check_family(pc, space, ops, "rho")
    ok, witness = family_relations_hold(pc, space, ops)
    if not ok:
        raise RelationFailure(
            f"rho_{witness[0]} o rho_{witness[1]} breaks the binomial law",
            witness,
        )
    cs = pc.space
    images = {
        lab: {
            ("t", ylab, f"z{k}"): c
            for k, op in enumerate(ops)
            for ylab, c in op.apply_label(lab).items()
        }
        for _, _, lab in space.basis()
    }
    rho = LinMap.from_images(space, tensor(space, cs), 0, images)
    return VComodule(pc.underlying, space, rho)


def contramodule_from_family(pc: PolyCoalgebra, space: GradedVect,
                             ops) -> VContramodule:
    """Assemble the structure map evaluating a family at each power and
    pushing through the matching operator; the laws coincide with the
    comodule case and are checked the same way."""
    _check_family(pc, space, ops, "theta")
    ok, witness = family_relations_hold(pc, space, ops)
    if not ok:
        raise RelationFailure(
            f"theta_{witness[0]} o theta_{witness[1]} breaks the binomial "
            "law",
            witness,
        )
    cs = pc.space
    ambient = hom_space(cs, space)
    images = {}
    for _, _, lab in ambient.basis():
        _, zlab, xlab = lab
        k = int(zlab[1:])
        images[lab] = ops[k].apply_label(xlab)
    theta = LinMap.from_images(ambient, space, 0, images)
    return VContramodule(pc.underlying, space, theta)


def family_from_first(pc: PolyCoalgebra, space: GradedVect,
                      first: LinMap):
    """The divided-power tower of a single operator (rationals only)."""
    if not isinstance(pc.field, QQ):
        raise ValueError("divided powers need the rationals")
    ops = [identity_map(space)]
    power = first
    for k in range(1, pc.truncation + 1):
        ops.append(
            scale_map(pc.field.div(1, factorial(k)), power)
        )
        power = compose(first, power)
    return ops


def divided_power_certificate(pc: PolyCoalgebra, space: GradedVect,
                              ops) -> dict:
    """Over the rationals the relations force the divided-power form and
    nilpotency just past the truncation; report both."""
    if not isinstance(pc.field, QQ):
        raise ValueError("certificate only applies over the rationals")
    n = pc.truncation
    failures = []
    power = identity_map(space)
    for k in range(n + 1):
        expected = scale_map(pc.field.div(1, factorial(k)), power)
        if ops[k] != expected:
            failures.append(f"op[{k}] differs from first^"
                            f"{k}/{factorial(k)}")
        if k < n:
            power = compose(ops[1], power)
    nil = compose(ops[1], power)
    if not nil.is_zero():
        failures.append(f"first operator is not nilpotent of order "
                        f"<= {n + 1}")
    return {"ok": not failures, "failures": failures}
