"""The dual algebra of a coalgebra and the module pictures of comodules
and contramodules.

At finite dimension the function space out of the coalgebra is the dual
tensored with the target, so a right comodule and a contramodule are
both left modules over the dual algebra, f . x = x0 f(x1) and
f . y = theta(c -> f(c) y), and both conversions are invertible: the
collapse that makes the desk-scale regime degenerate but exactly
checkable.  Every map here (the product, the unit, both actions and the
structure maps read back off an action) is one ``_from_terms`` call over
another map's entries, with no sign, since each has degree zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exactlin import GradedVect, LinMap, dual, hom_space, tensor, unit_space
from .core import (
    Coalgebra,
    VComodule,
    VContramodule,
    _by_source,
    _entries,
    _from_terms,
    _itself,
    _labels,
    _law_report,
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
    """A left module over the dual algebra."""

    algebra: DualAlgebra
    space: GradedVect
    action: LinMap  # A (x) X -> X


def dual_algebra(c: Coalgebra) -> DualAlgebra:
    """Multiplication transposes the comultiplication,
    mult[(d(c1), d(c2)) -> d(c)] = Delta[c -> (c1, c2)]; the counit is the
    unit element.  The dual is an algebra exactly when C is a coalgebra,
    so C is checked, before anything is built, in place of the algebra."""
    require_coalgebra(c)
    a = dual(c.space)
    mult = _from_terms(tensor(a, a), a, (
        (("t", ("d", c1), ("d", c2)), ("d", ck), x)
        for (_, c1, c2), ck, x in _entries(c.delta)))
    unit = _from_terms(unit_space(c.field), a, (
        ("1", ("d", ck), x) for _, ck, x in _entries(c.eps)))
    return DualAlgebra(c, a, mult, unit)


def validate_module(mod: DualModule) -> dict:
    """Associativity and unit, in that order, each named when it fails,
    read off the entries of the action, the multiplication and the unit.

    Associativity sums a.(b.x) against mult[(a, b) -> e] e.x, keyed by the
    image's label, at each a, b and x; the unit law sums unit(e) e.x
    against x."""
    alg = mod.algebra
    act, mult = _by_source(mod.action), _by_source(alg.mult)
    unit = [(e, u) for e, _, u in _entries(alg.unit)]
    xs, duals = _labels(mod.space), _labels(alg.space)
    rep = _law_report(mod.space.field.canonical, (
        ("associativity", [(a, b, x) for a in duals for b in duals
                           for x in xs],
         lambda t: ((z, v * w) for y, v in act.get(("t", t[1], t[2]), ())
                    for z, w in act.get(("t", t[0], y), ())),
         lambda t: ((z, v * w) for e, v in mult.get(("t", *t[:2]), ())
                    for z, w in act.get(("t", e, t[2]), ()))),
        ("unit", xs,
         lambda x: ((z, u * w) for e, u in unit
                    for z, w in act.get(("t", e, x), ())),
         _itself),
    ))
    return {"ok": rep["ok"], "failures": [f["law"] for f in rep["failures"]]}


def comodule_to_module(m: VComodule, alg: DualAlgebra) -> DualModule:
    """f . x = sum of x0 f(x1): action[(d(c), x) -> y] = rho[x -> (y, c)]."""
    act = _from_terms(tensor(alg.space, m.space), m.space, (
        (("t", ("d", cl), xl), y, v) for (_, y, cl), xl, v in _entries(m.rho)))
    mod = DualModule(alg, m.space, act)
    require_valid(validate_module(mod), "the module picture of m is not a "
                  "module, so m is not a comodule")
    return mod


def contramodule_to_module(p: VContramodule, alg: DualAlgebra) -> DualModule:
    """f . y = theta of the function sending c to f(c) y:
    action[(d(c), x) -> y] = theta[(c -> x) -> y]."""
    act = _from_terms(tensor(alg.space, p.space), p.space, (
        (("t", ("d", cl), xl), y, v)
        for y, (_, cl, xl), v in _entries(p.theta)))
    mod = DualModule(alg, p.space, act)
    require_valid(validate_module(mod), "the module picture of p is not a "
                  "module, so p is not a contramodule")
    return mod


def module_to_comodule(mod: DualModule) -> VComodule:
    """Recover the coaction from the action of the dual basis:
    rho[x -> (y, c)] = action[(d(c), x) -> y]."""
    c = mod.algebra.coalgebra
    x = mod.space
    rho = _from_terms(x, tensor(x, c.space), (
        (xl, ("t", y, cl), v)
        for y, (_, (_, cl), xl), v in _entries(mod.action)))
    return VComodule(c, x, rho)


def module_to_contramodule(mod: DualModule) -> VContramodule:
    """Recover the structure map by letting the dual basis act:
    theta[(c -> x) -> y] = action[(d(c), x) -> y]."""
    c = mod.algebra.coalgebra
    x = mod.space
    theta = _from_terms(hom_space(c.space, x), x, (
        (("h", cl, xl), y, v)
        for y, (_, (_, cl), xl), v in _entries(mod.action)))
    return VContramodule(c, x, theta)


def contramodule_to_comodule(p: VContramodule, alg: DualAlgebra) -> VComodule:
    """The collapse back: coact through the action."""
    return module_to_comodule(contramodule_to_module(p, alg))


def bridge_certificate(m: VComodule, p: VContramodule) -> dict:
    """Round trips are identities and the module pictures validate; m and
    p must live over the one coalgebra, which is checked once."""
    require_same_coalgebra(m, p)
    alg = dual_algebra(m.coalgebra)
    picture = comodule_to_module(m, alg)
    back_m = module_to_comodule(picture)
    back_p = module_to_contramodule(contramodule_to_module(p, alg))
    collapse = module_to_contramodule(picture)
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
