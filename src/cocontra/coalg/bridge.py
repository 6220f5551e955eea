"""The dual algebra of a coalgebra and the module pictures of comodules
and contramodules.

At finite dimension the function space out of the coalgebra is the dual
tensored with the target, so a comodule becomes a right module over the
dual algebra, a contramodule a left module, and both conversions are
invertible: the collapse that makes the desk-scale regime degenerate but
exactly checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exactlin import (
    GradedVect,
    LinMap,
    assoc,
    assoc_inv,
    compose,
    dual,
    hom_space,
    identity_map,
    pairing,
    relabel,
    tensor,
    tensor_map,
    unit_left_inv,
    unit_right,
    unit_right_inv,
    unit_space,
)
from .core import (
    Coalgebra,
    VComodule,
    VContramodule,
    require_coalgebra,
    require_same_coalgebra,
    require_valid,
    validate_contramodule,
)


@dataclass(eq=False)
class DualAlgebra:
    coalgebra: Coalgebra
    space: GradedVect  # the dual of the coalgebra
    mult: LinMap  # A (x) A -> A
    unit: LinMap  # k -> A


@dataclass(eq=False)
class DualModule:
    """A module over the dual algebra; ``side`` records which side acts."""

    algebra: DualAlgebra
    space: GradedVect
    action: LinMap  # X (x) A -> X (right)  or  A (x) X -> X (left)
    side: str


def dual_algebra(c: Coalgebra) -> DualAlgebra:
    """Multiplication transposes the comultiplication; the counit is the
    unit element.  The dual is an algebra exactly when C is a coalgebra,
    so C is checked, before anything is built, in place of the algebra."""
    require_coalgebra(c)
    a = dual(c.space)
    fld = c.field
    z = fld.zero()
    deltas = {ck: c.delta.apply_label(ck) for _, _, ck in c.space.basis()}
    images = {}
    for _, _, lab in tensor(a, a).basis():
        _, (_, c1), (_, c2) = lab
        images[lab] = {
            ("d", ck): img.get(("t", c1, c2), z)
            for ck, img in deltas.items()
        }
    mult = LinMap.from_images(tensor(a, a), a, 0, images)
    unit_images = {
        "1": {
            ("d", ck): c.eps.apply_label(ck).get("1", z)
            for _, _, ck in c.space.basis()
        }
    }
    unit = LinMap.from_images(unit_space(fld), a, 0, unit_images)
    return DualAlgebra(c, a, mult, unit)


def validate_module(mod: DualModule) -> dict:
    a = mod.algebra.space
    x = mod.space
    act = mod.action
    failures = []
    if mod.side == "right":
        lhs = compose(act, tensor_map(act, identity_map(a)))
        rhs = compose(
            act,
            compose(
                tensor_map(identity_map(x), mod.algebra.mult),
                assoc(x, a, a),
            ),
        )
        unit_leg = compose(
            act,
            compose(
                tensor_map(identity_map(x), mod.algebra.unit),
                unit_right_inv(x),
            ),
        )
    else:
        lhs = compose(act, tensor_map(identity_map(a), act))
        rhs = compose(
            act,
            compose(
                tensor_map(mod.algebra.mult, identity_map(x)),
                assoc_inv(a, a, x),
            ),
        )
        unit_leg = compose(
            act,
            compose(
                tensor_map(mod.algebra.unit, identity_map(x)),
                unit_left_inv(x),
            ),
        )
    if lhs != rhs:
        failures.append("associativity")
    if unit_leg != identity_map(x):
        failures.append("unit")
    return {"ok": not failures, "failures": failures}


def comodule_to_module(m: VComodule, alg: DualAlgebra) -> DualModule:
    """x . f = sum of x0 f(x1): coact, then pair the coalgebra leg."""
    c = m.coalgebra
    x = m.space
    a = alg.space
    act = compose(
        unit_right(x),
        compose(
            tensor_map(identity_map(x), pairing(c.space)),
            compose(
                assoc(x, c.space, a),
                tensor_map(m.rho, identity_map(a)),
            ),
        ),
    )
    mod = DualModule(alg, x, act, "right")
    require_valid(validate_module(mod), "the module picture of m is not a "
                  "module, so m is not a comodule")
    return mod


def dual_tensor_into_hom(c: Coalgebra, x: GradedVect) -> LinMap:
    """C* (x) X -> [C, X]; an isomorphism at finite dimension."""
    return relabel(tensor(dual(c.space), x), hom_space(c.space, x),
                   lambda t: ("h", t[1][1], t[2]))


def contramodule_to_module(p: VContramodule, alg: DualAlgebra) -> DualModule:
    """f . y = theta of the function sending c to f(c) y."""
    c = p.coalgebra
    act = compose(p.theta, dual_tensor_into_hom(c, p.space))
    mod = DualModule(alg, p.space, act, "left")
    require_valid(validate_module(mod), "the module picture of p is not a "
                  "module, so p is not a contramodule")
    return mod


def _act(mod: DualModule, dual_label, xl) -> dict:
    """A dual basis vector acting on a basis vector, on mod's side."""
    if mod.side == "right":
        return mod.action.apply_label(("t", xl, dual_label))
    return mod.action.apply_label(("t", dual_label, xl))


def module_to_comodule(mod: DualModule) -> VComodule:
    """Recover the coaction from the action of the dual basis, on either
    side."""
    c = mod.algebra.coalgebra
    x = mod.space
    images = {
        xl: {
            ("t", yl, ck): cc
            for _, _, ck in c.space.basis()
            for yl, cc in _act(mod, ("d", ck), xl).items()
        }
        for _, _, xl in x.basis()
    }
    rho = LinMap.from_images(x, tensor(x, c.space), 0, images)
    return VComodule(c, x, rho)


def module_to_contramodule(mod: DualModule) -> VContramodule:
    """Recover the structure map by letting the dual basis act, on either
    side."""
    c = mod.algebra.coalgebra
    x = mod.space
    ambient = hom_space(c.space, x)
    images = {
        ("h", cl, xl): _act(mod, ("d", cl), xl)
        for _, _, (_, cl, xl) in ambient.basis()
    }
    theta = LinMap.from_images(ambient, x, 0, images)
    return VContramodule(c, x, theta)


def contramodule_to_comodule(p: VContramodule, alg: DualAlgebra) -> VComodule:
    """The collapse back: coact through the left action."""
    return module_to_comodule(contramodule_to_module(p, alg))


def bridge_certificate(m: VComodule, p: VContramodule) -> dict:
    """Round trips are identities and the module pictures validate; m and
    p must live over the one coalgebra, which is checked once."""
    require_same_coalgebra(m, p)
    alg = dual_algebra(m.coalgebra)
    right = comodule_to_module(m, alg)
    back_m = module_to_comodule(right)
    back_p = module_to_contramodule(contramodule_to_module(p, alg))
    collapse = module_to_contramodule(right)
    collapse_rep = validate_contramodule(collapse)
    back_collapse = contramodule_to_comodule(collapse, alg)
    comodule_back = back_m.rho == m.rho
    contramodule_back = back_p.theta == p.theta
    collapse_back = back_collapse.rho == m.rho
    return {
        "comodule_round_trip": comodule_back,
        "contramodule_round_trip": contramodule_back,
        "collapse_is_contramodule": collapse_rep["ok"],
        "collapse_round_trip": collapse_back,
        "ok": comodule_back and contramodule_back and collapse_rep["ok"]
        and collapse_back,
    }
