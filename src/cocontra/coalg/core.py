"""Coalgebras over exact fields, their comodules and contramodules.

All structure maps are degree-zero; axioms are exact matrix identities.
Validation returns report dicts with basis-level witnesses rather than
raising, so batch drivers can collect failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    CoalgebraMismatch,
    InvalidImage,
    MismatchedSignature,
    NotCoalgebraMorphism,
)
from ..exactlin import (
    GradedVect,
    LinMap,
    assoc,
    assoc_inv,
    braiding,
    compose,
    hom_map,
    hom_space,
    hom_tensor_iso_inv,
    identity_map,
    relabel,
    sub_maps,
    tensor,
    tensor_map,
    unit_left,
    unit_right,
    unit_space,
)


@dataclass(eq=False)
class Coalgebra:
    space: GradedVect
    delta: LinMap  # C -> C (x) C
    eps: LinMap  # C -> unit

    def __post_init__(self):
        s, d, e = self.space, self.delta, self.eps
        if (d.dom != s or d.cod != tensor(s, s) or d.degree
                or e.dom != s or e.cod != unit_space(s.field) or e.degree):
            raise MismatchedSignature("a coalgebra needs degree-0 maps "
                                      "C -> C (x) C and C -> unit")

    @property
    def field(self):
        return self.space.field

    def __eq__(self, other):
        return (
            isinstance(other, Coalgebra)
            and self.space == other.space
            and self.delta == other.delta
            and self.eps == other.eps
        )


@dataclass(eq=False)
class VComodule:
    """A right comodule; ``side="left"`` marks a left comodule carried in
    right form through the braiding (see :func:`left_coaction`)."""

    coalgebra: Coalgebra
    space: GradedVect
    rho: LinMap  # X -> X (x) C
    side: str = "right"

    def __post_init__(self):
        rho = self.rho
        if (rho.dom != self.space or rho.degree
                or rho.cod != tensor(self.space, self.coalgebra.space)):
            raise MismatchedSignature("a comodule needs a degree-0 map "
                                      "X -> X (x) C")


@dataclass(eq=False)
class VContramodule:
    coalgebra: Coalgebra
    space: GradedVect
    theta: LinMap  # [C, X] -> X

    def __post_init__(self):
        theta = self.theta
        if (theta.cod != self.space or theta.degree
                or theta.dom != hom_space(self.coalgebra.space, self.space)):
            raise MismatchedSignature("a contramodule needs a degree-0 map "
                                      "[C, X] -> X")


def _first_witness(diff: LinMap):
    """The first domain label that the map does not send to zero."""
    return next(
        (lab for _, _, lab in diff.dom.basis() if diff.apply_label(lab)),
        None,
    )


def _identity_check(name, lhs: LinMap, rhs: LinMap, failures):
    if lhs != rhs:
        failures.append(
            {"law": name, "witness": _first_witness(sub_maps(lhs, rhs))}
        )


def _entries(f: LinMap):
    """A degree-zero map's nonzero entries as (codomain label, domain
    label, value) triples, read off its sparse blocks."""
    for k, blk in f.blocks.items():
        dlabs = f.dom.labels[k]
        for clab, row in zip(f.cod.labels[k], blk.srows):
            yield from ((clab, dlabs[j], x) for j, x in row.items())


def validate_coalgebra(c: Coalgebra) -> dict:
    """Coassociativity and the left and right counit laws, in that order,
    each with the first basis label c at which its two sides differ.

    One pass over the nonzero entries of Delta and eps, building no space
    and no composite: at c, sum Delta[c -> (k, d)] Delta[k -> (a, b)]
    against Delta[c -> (a, k)] Delta[k -> (b, d)], both keyed by
    (a, b, d), and check that eps(a) Delta[c -> (a, b)] sums to delta_bc
    and Delta[c -> (a, b)] eps(b) to delta_ac.  Delta, eps and the
    identity have degree 0 and the associator and unitors are unsigned,
    so no sign arises.  The sums are plain int or Fraction arithmetic,
    brought into the field once per key."""
    canon = c.field.canonical
    delta = {}
    for (_, a, b), lab, x in _entries(c.delta):
        delta.setdefault(lab, []).append((a, b, x))
    eps = {lab: x for _, lab, x in _entries(c.eps)}
    laws = ("coassociativity", "left counit", "right counit")
    witness = dict.fromkeys(laws)
    for _, _, lab in c.space.basis():
        terms = delta.get(lab, ())
        if witness["coassociativity"] is None:
            diff = {}
            for k, d, x in terms:
                for a, b, y in delta.get(k, ()):
                    diff[a, b, d] = diff.get((a, b, d), 0) + x * y
            for a, k, x in terms:
                for b, d, y in delta.get(k, ()):
                    diff[a, b, d] = diff.get((a, b, d), 0) - x * y
            if any(canon(v) for v in diff.values()):
                witness["coassociativity"] = lab
        left, right = {lab: -1}, {lab: -1}
        for a, b, x in terms:
            if a in eps:
                left[b] = left.get(b, 0) + eps[a] * x
            if b in eps:
                right[a] = right.get(a, 0) + x * eps[b]
        for law, diff in (("left counit", left), ("right counit", right)):
            if witness[law] is None and any(canon(v) for v in diff.values()):
                witness[law] = lab
    failures = [{"law": law, "witness": lab}
                for law, lab in witness.items() if lab is not None]
    return {"ok": not failures, "failures": failures}


def left_coaction(m: VComodule) -> LinMap:
    """X -> C (x) X for a left comodule carried in right form."""
    return compose(
        braiding(m.space, m.coalgebra.space), m.rho
    )


def left_comodule_from_coaction(
    c: Coalgebra, space: GradedVect, lam: LinMap
) -> VComodule:
    """Wrap a coaction X -> C (x) X as a left comodule."""
    rho = compose(braiding(c.space, space), lam)
    return VComodule(c, space, rho, side="left")


def validate_comodule(m: VComodule) -> dict:
    c = m.coalgebra
    x = m.space
    failures = []
    if m.side == "right":
        counit = compose(
            unit_right(x),
            compose(tensor_map(identity_map(x), c.eps), m.rho),
        )
        _identity_check("counitality", counit, identity_map(x), failures)
        lhs = compose(
            assoc(x, c.space, c.space),
            compose(tensor_map(m.rho, identity_map(c.space)), m.rho),
        )
        rhs = compose(tensor_map(identity_map(x), c.delta), m.rho)
        _identity_check("coassociativity", lhs, rhs, failures)
    else:
        lam = left_coaction(m)
        counit = compose(
            unit_left(x),
            compose(tensor_map(c.eps, identity_map(x)), lam),
        )
        _identity_check("counitality", counit, identity_map(x), failures)
        lhs = compose(tensor_map(c.delta, identity_map(x)), lam)
        rhs = compose(
            assoc_inv(c.space, c.space, x),
            compose(tensor_map(identity_map(c.space), lam), lam),
        )
        _identity_check("coassociativity", lhs, rhs, failures)
    return {"ok": not failures, "failures": failures}


def unit_hom_iso(x: GradedVect) -> LinMap:
    """X -> [unit, X]."""
    return relabel(x, hom_space(unit_space(x.field), x),
                   lambda a: ("h", "1", a))


def eps_star(c: Coalgebra, x: GradedVect) -> LinMap:
    """X -> [C, X], sending x to (a scalar multiple of) x at every basis
    direction the counit sees."""
    return compose(
        hom_map(c.eps, identity_map(x)), unit_hom_iso(x)
    )


def contra_assoc_maps(p: VContramodule):
    """The two composites whose equality is contraassociativity."""
    c = p.coalgebra
    x = p.space
    via_theta = compose(
        p.theta, hom_map(identity_map(c.space), p.theta)
    )
    via_delta = compose(
        p.theta,
        compose(
            hom_map(c.delta, identity_map(x)),
            hom_tensor_iso_inv(c.space, c.space, x),
        ),
    )
    return via_theta, via_delta


def validate_contramodule(p: VContramodule) -> dict:
    c = p.coalgebra
    x = p.space
    failures = []
    contraunit = compose(p.theta, eps_star(c, x))
    _identity_check("contraunitality", contraunit, identity_map(x), failures)
    via_theta, via_delta = contra_assoc_maps(p)
    _identity_check("contraassociativity", via_theta, via_delta, failures)
    return {"ok": not failures, "failures": failures}


def require_valid(rep: dict, what: str):
    """Raise :class:`InvalidImage` when the validation report ``rep`` of
    a structure fails; ``what`` says what the failure shows."""
    if not rep["ok"]:
        laws = ", ".join(f if isinstance(f, str) else f["law"]
                         for f in rep["failures"])
        raise InvalidImage(f"{what} ({laws} fails)", rep["failures"])


def require_coalgebra(c: Coalgebra):
    """Raise :class:`InvalidImage` when C is not a coalgebra: the one check
    a certificate makes, before it builds anything, in place of checking
    the images of C that it builds."""
    require_valid(validate_coalgebra(c), "C is not a coalgebra")


def validate(obj) -> dict:
    """Dispatching validator for the three structure kinds."""
    if isinstance(obj, Coalgebra):
        return validate_coalgebra(obj)
    if isinstance(obj, VComodule):
        return validate_comodule(obj)
    if isinstance(obj, VContramodule):
        return validate_contramodule(obj)
    raise TypeError(f"cannot validate {type(obj).__name__}")


def cofree(x: GradedVect, c: Coalgebra) -> VComodule:
    """X (x) C with the comultiplication acting on the right factor."""
    cs = c.space
    rho = compose(
        assoc_inv(x, cs, cs), tensor_map(identity_map(x), c.delta)
    )
    return VComodule(c, tensor(x, cs), rho)


def free(x: GradedVect, c: Coalgebra) -> VContramodule:
    """[C, X] with precomposition by the comultiplication."""
    cs = c.space
    theta = compose(
        hom_map(c.delta, identity_map(x)),
        hom_tensor_iso_inv(cs, cs, x),
    )
    return VContramodule(c, hom_space(cs, x), theta)


def coalgebra_as_comodule(c: Coalgebra) -> VComodule:
    return VComodule(c, c.space, c.delta)


def require_same_coalgebra(*objs):
    first = objs[0].coalgebra
    for o in objs[1:]:
        if o.coalgebra != first:
            raise CoalgebraMismatch("structures live over different "
                                    "coalgebras")


def is_coalgebra_morphism(f: LinMap, c: Coalgebra, chat: Coalgebra) -> bool:
    if f.dom != c.space or f.cod != chat.space or f.degree != 0:
        return False
    return (
        compose(chat.delta, f) == compose(tensor_map(f, f), c.delta)
        and compose(chat.eps, f) == c.eps
    )


def check_coalgebra_morphism(f: LinMap, c: Coalgebra, chat: Coalgebra):
    if not is_coalgebra_morphism(f, c, chat):
        raise NotCoalgebraMorphism(
            "map fails the comultiplication/counit squares"
        )


def is_comodule_map(f: LinMap, m: VComodule, n: VComodule) -> bool:
    require_same_coalgebra(m, n)
    c = m.coalgebra.space
    lhs = compose(n.rho, f)
    rhs = compose(tensor_map(f, identity_map(c)), m.rho)
    return f.degree == 0 and lhs == rhs


def is_contramodule_map(f: LinMap, p: VContramodule, q: VContramodule) -> bool:
    require_same_coalgebra(p, q)
    c = p.coalgebra.space
    lhs = compose(f, p.theta)
    rhs = compose(q.theta, hom_map(identity_map(c), f))
    return f.degree == 0 and lhs == rhs
