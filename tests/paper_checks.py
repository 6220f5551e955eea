"""Checks of the paper that no ``cocontra`` command runs.

The enriched composition of hom objects, the divided-power family of the
truncated binomial coalgebra, the bridge and change-of-coalgebra
isomorphisms, the linear universal-property checks, the structure laws
multiplied out as composites (the references that the entry-reading
validators are held to) and the small constructions only they use live
here, beside the tier-1 tests that run
them, so that the package ships only what a command reaches
(``test_no_unreached.py``).  This module is imported by the tests; pytest
does not collect it.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import comb, factorial

from cocontra import finset
from cocontra.coalg import bridge, functors
from cocontra.coalg.bridge import DualAlgebra, DualModule
from cocontra.coalg.change import (
    coinduce_contramodule,
    cotensor,
    induce_comodule,
    restrict_comodule,
    restrict_contramodule,
)
from cocontra.coalg.core import (
    Coalgebra,
    VComodule,
    VContramodule,
    left_comodule_from_coaction,
    require_coalgebra,
    require_same_coalgebra,
)
from cocontra.coalg.homobjects import (
    HomObject,
    _action_legs,
    _degree_zero_kernel,
    comodule_hom_object,
    contra_hom_object,
)
from cocontra.coalg.instances import inverse_map
from cocontra.errors import (
    CocontraError,
    InvalidImage,
    MismatchedSignature,
    charge,
)
from cocontra.exactlin import (
    GradedVect,
    LinMap,
    Matrix,
    assoc_inv,
    braiding,
    coequalizer_lin,
    compose,
    dual,
    equalizer_lin,
    factor_through_include,
    hom_map,
    hom_space,
    hom_tensor_iso_inv,
    identity_map,
    relabel,
    sub_maps,
    tensor,
    tensor_map,
    unit_space,
)
from cocontra.exactlin.fields import QQ
from cocontra.finset import FinMap, FinSet
from cocontra.polycoalg import PolyCoalgebra
from cocontra.set_comodule import SetComodule
from cocontra.set_contramodule import ContraTable


class NotCounital(CocontraError):
    """A candidate structure map violates the counit axiom."""


class RelationFailure(CocontraError):
    """A structure family violates its composition relations.

    Carries the witnessing index pair in ``args[1]`` when available.
    """


class IncompatibleTriple(CocontraError):
    """Hom objects passed to composition do not share endpoints."""


# --- graded linear algebra ------------------------------------------------


def scale(a: Matrix, c) -> Matrix:
    f = a.field
    return Matrix.sparse(f, (
        {j: x for j, y in r.items() if (x := f.mul(c, y))}
        for r in a.srows), a.width)


def zero_map(dom: GradedVect, cod: GradedVect, degree: int = 0) -> LinMap:
    return LinMap(dom, cod, degree, {})


def scale_map(c, f: LinMap) -> LinMap:
    return LinMap(
        f.dom,
        f.cod,
        f.degree,
        {k: scale(f.block(k), c) for k in f.dom.degrees()},
    )


def vec_to_linmap(h: dict, v: GradedVect, w: GradedVect) -> LinMap:
    """Read a homogeneous hom-space element, a {("h", a, b): coefficient}
    dict, back as an honest map."""
    degrees = set()
    images = {}
    for (_, a, b), c in h.items():
        if c:
            degrees.add(w.degree_of(b) - v.degree_of(a))
            images.setdefault(a, {})[b] = c
    if len(degrees) > 1:
        raise ValueError("hom element must be homogeneous")
    return LinMap.from_images(v, w, degrees.pop() if degrees else 0, images)


def linmap_to_vec(f: LinMap) -> dict:
    """The hom-space element of a map as {("h", a, b): nonzero}, in the
    basis order of hom(dom, cod)."""
    return {
        ("h", a, b): c
        for _, _, a in f.dom.basis()
        for b, c in f.apply_label(a).items()
    }


def ev_map(v: GradedVect, w: GradedVect) -> LinMap:
    """[V,W] (x) V -> W, pairing a matrix unit a -> b against a basis
    vector: b when the vector is a, zero otherwise."""
    return relabel(tensor(hom_space(v, w), v), w,
                   lambda t: t[1][2] if t[1][1] == t[2] else None)


def uncurry(g: LinMap, u: GradedVect, v: GradedVect, w: GradedVect) -> LinMap:
    """U -> [V,W] into U (x) V -> W."""
    if g.dom != u or g.cod != hom_space(v, w):
        raise MismatchedSignature("uncurry wants a map U -> [V,W]")
    dom = tensor(u, v)
    images = {}
    for _, _, a in u.basis():
        for (_, b, c), cc in g.apply_label(a).items():
            images.setdefault(("t", a, b), {})[c] = cc
    return LinMap.from_images(dom, w, g.degree, images)


def dual_map(f: LinMap) -> LinMap:
    """Transpose of a degree-zero map."""
    if f.degree:
        raise MismatchedSignature("dual_map wants a degree-0 map")
    dom = dual(f.cod)
    cod = dual(f.dom)
    images = {}
    for _, _, dlab in dom.basis():
        _, b = dlab
        kb, ib = f.cod.position(b)
        frow = f.blocks[kb].srows[ib] if kb in f.blocks else {}
        alabs = f.dom.labels.get(kb)
        images[dlab] = {("d", alabs[ia]): c for ia, c in frow.items()}
    return LinMap.from_images(dom, cod, 0, images)


# --- the structure laws as composites of maps ------------------------------
#
# The validators in ``cocontra.coalg`` read each law off the nonzero entries
# of the structure maps.  These references multiply the laws out as
# composites of ``compose``, ``tensor_map``, ``hom_map``, the unitors and the
# associators instead, so they share no code with the entry checks; each
# witness is the first basis label of the composite's domain whose column
# of the difference is nonzero.


def assoc(u: GradedVect, v: GradedVect, w: GradedVect) -> LinMap:
    """((x,y),z) -> (x,(y,z)), a permutation of basis labels."""
    return relabel(tensor(tensor(u, v), w), tensor(u, tensor(v, w)),
                   lambda t: ("t", t[1][1], ("t", t[1][2], t[2])))


def unit_right(v: GradedVect) -> LinMap:
    """V (x) k -> V."""
    return relabel(tensor(v, unit_space(v.field)), v, lambda t: t[1])


def unit_left(v: GradedVect) -> LinMap:
    """k (x) V -> V."""
    return relabel(tensor(unit_space(v.field), v), v, lambda t: t[2])


def unit_left_inv(v: GradedVect) -> LinMap:
    return relabel(v, tensor(unit_space(v.field), v),
                   lambda a: ("t", "1", a))


def unit_right_inv(v: GradedVect) -> LinMap:
    return relabel(v, tensor(v, unit_space(v.field)),
                   lambda a: ("t", a, "1"))


def pairing(v: GradedVect) -> LinMap:
    """V (x) V* -> k."""
    return relabel(tensor(v, dual(v)), unit_space(v.field),
                   lambda t: "1" if t[2] == ("d", t[1]) else None)


def unit_hom_iso(x: GradedVect) -> LinMap:
    """X -> [unit, X]."""
    return relabel(x, hom_space(unit_space(x.field), x),
                   lambda a: ("h", "1", a))


def eps_star(c: Coalgebra, x: GradedVect) -> LinMap:
    """X -> [C, X], sending x to (a scalar multiple of) x at every basis
    direction the counit sees."""
    return compose(hom_map(c.eps, identity_map(x)), unit_hom_iso(x))


def contra_assoc_maps(p: VContramodule):
    """The two composites whose equality is contraassociativity."""
    c = p.coalgebra
    x = p.space
    via_theta = compose(p.theta, hom_map(identity_map(c.space), p.theta))
    via_delta = compose(
        p.theta,
        compose(hom_map(c.delta, identity_map(x)),
                hom_tensor_iso_inv(c.space, c.space, x)),
    )
    return via_theta, via_delta


def _composite_report(laws) -> dict:
    """The report of ``laws``, (name, lhs, rhs) in order, with each failing
    law's witness."""
    failures = []
    for law, lhs, rhs in laws:
        if lhs != rhs:
            diff = sub_maps(lhs, rhs)
            witness = next(lab for _, _, lab in diff.dom.basis()
                           if diff.apply_label(lab))
            failures.append({"law": law, "witness": witness})
    return {"ok": not failures, "failures": failures}


def _reference_validate_coalgebra(c: Coalgebra) -> dict:
    cs = c.space
    one = identity_map(cs)
    return _composite_report((
        ("coassociativity",
         compose(assoc(cs, cs, cs),
                 compose(tensor_map(c.delta, one), c.delta)),
         compose(tensor_map(one, c.delta), c.delta)),
        ("left counit",
         compose(unit_left(cs), compose(tensor_map(c.eps, one), c.delta)),
         one),
        ("right counit",
         compose(unit_right(cs), compose(tensor_map(one, c.eps), c.delta)),
         one),
    ))


def _reference_validate_comodule(m: VComodule) -> dict:
    c = m.coalgebra
    x = m.space
    one_x, one_c = identity_map(x), identity_map(c.space)
    if m.side == "right":
        return _composite_report((
            ("counitality",
             compose(unit_right(x),
                     compose(tensor_map(one_x, c.eps), m.rho)),
             one_x),
            ("coassociativity",
             compose(assoc(x, c.space, c.space),
                     compose(tensor_map(m.rho, one_c), m.rho)),
             compose(tensor_map(one_x, c.delta), m.rho)),
        ))
    lam = compose(braiding(x, c.space), m.rho)
    return _composite_report((
        ("counitality",
         compose(unit_left(x), compose(tensor_map(c.eps, one_x), lam)),
         one_x),
        ("coassociativity",
         compose(tensor_map(c.delta, one_x), lam),
         compose(assoc_inv(c.space, c.space, x),
                 compose(tensor_map(one_c, lam), lam))),
    ))


def _reference_validate_contramodule(p: VContramodule) -> dict:
    via_theta, via_delta = contra_assoc_maps(p)
    return _composite_report((
        ("contraunitality", compose(p.theta, eps_star(p.coalgebra, p.space)),
         identity_map(p.space)),
        ("contraassociativity", via_theta, via_delta),
    ))


def _reference_validate_module(mod: DualModule) -> dict:
    """Associativity and unit of a left module over the dual algebra,
    failures named without a witness."""
    a = mod.algebra.space
    x = mod.space
    act = mod.action
    twice = compose(act, tensor_map(identity_map(a), act))
    product = compose(act, compose(
        tensor_map(mod.algebra.mult, identity_map(x)), assoc_inv(a, a, x)))
    unit_leg = compose(act, compose(
        tensor_map(mod.algebra.unit, identity_map(x)), unit_left_inv(x)))
    rep = _composite_report((("associativity", twice, product),
                             ("unit", unit_leg, identity_map(x))))
    return {"ok": rep["ok"], "failures": [f["law"] for f in rep["failures"]]}


def _reference_validate(obj) -> dict:
    """The composite check of a coalgebra, comodule or contramodule."""
    if isinstance(obj, Coalgebra):
        return _reference_validate_coalgebra(obj)
    if isinstance(obj, VComodule):
        return _reference_validate_comodule(obj)
    return _reference_validate_contramodule(obj)


# --- finite sets ----------------------------------------------------------


def is_injective(f: FinMap) -> bool:
    return len(set(f.table.values())) == len(f.dom)


def coaction_of(m: SetComodule) -> FinMap:
    """The coaction x -> (x, phi(x)) into carrier x base."""
    p, _, _ = finset.product(m.carrier, m.base)
    return FinMap(m.carrier, p,
                  {x: finset.pair_label(x, m.phi(x)) for x in m.carrier})


def comodule_of(rho: FinMap, carrier: FinSet, base: FinSet) -> SetComodule:
    """Validate a raw coaction rho = (id, phi) and extract its phi-form.

    The first component must be the identity (the counit axiom); the
    coassociativity axiom then holds automatically: both nested coactions
    send x to (x, phi(x), phi(x)).
    """
    prod, proj1, proj2 = finset.product(carrier, base)
    if rho.dom != carrier or rho.cod != prod:
        raise ValueError("rho must map the carrier into carrier x base")
    first = finset.compose(proj1, rho)
    if first != finset.identity(carrier):
        bad = next(x for x in carrier if first(x) != x)
        raise NotCounital(f"rho({bad}) does not fix {bad}")
    return SetComodule(carrier, base, finset.compose(proj2, rho))


def contra_components(
    u: FinMap, s: ContraTable, t: ContraTable
) -> dict[str, FinMap]:
    """The slotwise components of a contramodule map between product forms.

    A map between products acts independently in every slot; the component
    over ``a`` is read off by varying only that slot of a fixed choice.
    """
    if s.fibers is None or t.fibers is None:
        raise ValueError("slotwise components need product forms")
    decode_t = finset.choice_table(t.base, t.fibers)
    c0 = finset.choice_table(s.base, s.fibers)[s.carrier.elements[0]].table
    comps = {}
    for a in s.base:
        table = {}
        for x in s.fibers[a]:
            ch = dict(c0)
            ch[a] = x
            val = decode_t[u(finset.encode_table(s.base, ch))].table[a]
            table[x] = val
        comps[a] = FinMap(s.fibers[a], t.fibers[a], table)
    return comps


# --- coalgebras, comodules and change of coalgebra ------------------------


def coalgebra_as_left_comodule(c: Coalgebra) -> VComodule:
    return left_comodule_from_coaction(c, c.space, c.delta)


def grading_comodule(c: Coalgebra, assignment, space) -> VComodule:
    """Over a group-like coalgebra, a choice of group-like per basis vector
    is exactly a comodule."""
    rho = relabel(space, tensor(space, c.space),
                  lambda a: ("t", a, assignment[a]))
    return VComodule(c, space, rho)


def counit_contraction_iso(m: VComodule) -> LinMap:
    """The canonical identification of m cotensor the coalgebra with m."""
    c = m.coalgebra
    sub = cotensor(m, coalgebra_as_left_comodule(c))
    collapse = compose(
        unit_right(m.space),
        tensor_map(identity_map(m.space), c.eps),
    )
    iso = compose(collapse, sub.include)
    # the coaction itself provides the inverse leg
    back = factor_through_include(sub.include, m.rho)
    if not iso.is_iso() or compose(iso, back) != identity_map(m.space):
        raise InvalidImage("m cotensor C is not m, so m or its coalgebra "
                           "is not valid")
    return iso


def change_adjunction_certificate(f: LinMap, c: Coalgebra, chat: Coalgebra,
                                  n: VComodule, m: VComodule,
                                  p: VContramodule,
                                  q: VContramodule) -> dict:
    """Graded dimensions of the four adjunction hom objects.

    n is a comodule over the source, m over the target; q a contramodule
    over the source, p over the target.  Restriction against induction and
    coinduction must produce hom objects of equal graded dimension.
    """
    res_n = restrict_comodule(f, c, chat, n)
    ind_m = induce_comodule(f, c, chat, m)
    lhs_t = comodule_hom_object(res_n, m)
    rhs_t = comodule_hom_object(n, ind_m)

    res_q = restrict_contramodule(f, c, chat, q)
    coind_p = coinduce_contramodule(f, c, chat, p)
    lhs_f = contra_hom_object(coind_p, q)
    rhs_f = contra_hom_object(p, res_q)
    return {
        "comodule_side": (
            dict(lhs_t.space.dims), dict(rhs_t.space.dims)
        ),
        "contramodule_side": (
            dict(lhs_f.space.dims), dict(rhs_f.space.dims)
        ),
        "ok": lhs_t.space.dims == rhs_t.space.dims
        and lhs_f.space.dims == rhs_f.space.dims,
    }


def unit_counit_iso_report(p: VContramodule, m: VComodule) -> dict:
    """Are the unit and counit isomorphisms at these finite instances?"""
    require_same_coalgebra(p, m)
    require_coalgebra(p.coalgebra)
    ldata = functors.functor_L_data(p)
    rdata = functors.functor_R_data(m)
    return functors._unit_counit_report(
        p, m, ldata, functors.functor_R_data(ldata.comodule),
        rdata, functors.functor_L_data(rdata.contramodule),
    )


# --- enriched hom objects and their composition ---------------------------


def coords_of(hobj: HomObject, f: LinMap):
    """Coordinates of a member map in the hom-object basis, as
    {label: nonzero}; None when the map is not a member."""
    k = f.degree
    amb = hobj.ambient
    col = {amb.position(lab)[1]: c for lab, c in linmap_to_vec(f).items()}
    sol = hobj.include.block(k).solve_matrix(
        Matrix.from_columns(amb.field, [col], amb.dim(k))
    )
    if sol is None:
        return None
    labels = hobj.space.labels.get(k, ())
    return {labels[i]: r[0] for i, r in enumerate(sol.srows) if r}


def composition_on_ambient(
    x: GradedVect, y: GradedVect, z: GradedVect
) -> LinMap:
    """[Y,Z] (x) [X,Y] -> [X,Z], matching matrix units through the middle:
    (b' -> c) (x) (a -> b) goes to a -> c when b = b', to zero otherwise."""
    return relabel(tensor(hom_space(y, z), hom_space(x, y)), hom_space(x, z),
                   lambda t: ("h", t[2][1], t[1][2])
                   if t[2][2] == t[1][1] else None)


def identity_element(hobj: HomObject):
    """Coordinates of the identity map inside an endo hom object."""
    if hobj.src is not hobj.dst and hobj.src.space != hobj.dst.space:
        raise IncompatibleTriple("identity needs an endo hom object")
    coords = coords_of(hobj, identity_map(hobj.src.space))
    if coords is None:
        raise IncompatibleTriple("identity is not a member; invalid input")
    return coords


def enriched_composition(h1: HomObject, h2: HomObject):
    """The internal composition restricted to hom objects.

    ``h1`` is the inner hom (X to Y), ``h2`` the outer (Y to Z); returns
    the target hom object together with the factored composition map
    h2 (x) h1 -> h3.  Raises when the restriction fails to land in the
    target, which would mean the inputs were not genuine hom objects.
    """
    if h1.kind != h2.kind:
        raise IncompatibleTriple("mixed comodule/contramodule composition")
    if h1.dst is not h2.src and h1.dst.space != h2.src.space:
        raise IncompatibleTriple("hom objects do not share the middle object")
    if h1.kind == "T":
        h3 = comodule_hom_object(h1.src, h2.dst)
    else:
        h3 = contra_hom_object(h1.src, h2.dst)
    comp = composition_on_ambient(
        h1.src.space, h1.dst.space, h2.dst.space
    )
    restricted = compose(comp, tensor_map(h2.include, h1.include))
    factored = factor_through_include(h3.include, restricted)
    return h3, factored


# --- the dual-algebra bridge ----------------------------------------------


def validate_algebra(alg: DualAlgebra) -> dict:
    a = alg.space
    failures = []
    lhs = compose(alg.mult, tensor_map(alg.mult, identity_map(a)))
    rhs = compose(
        alg.mult,
        compose(tensor_map(identity_map(a), alg.mult), assoc(a, a, a)),
    )
    if lhs != rhs:
        failures.append("associativity")
    left = compose(
        alg.mult,
        compose(tensor_map(alg.unit, identity_map(a)), unit_left_inv(a)),
    )
    if left != identity_map(a):
        failures.append("left unit")
    right = compose(
        alg.mult,
        compose(tensor_map(identity_map(a), alg.unit), unit_right_inv(a)),
    )
    if right != identity_map(a):
        failures.append("right unit")
    return {"ok": not failures, "failures": failures}


def comodule_to_contramodule(m: VComodule, alg: DualAlgebra) -> VContramodule:
    """The finite-dimensional collapse, comodule to contramodule: act with
    the dual basis through the comodule's module picture."""
    return bridge.module_to_contramodule(bridge.comodule_to_module(m, alg))


def module_maps_degree_zero(m1: DualModule, m2: DualModule):
    """Solve the equivariance system for maps between modules: the legs
    have the contramodule oracle's shape, the action in place of theta,
    with the dual basis vector on the left of the tensor."""
    if m1.algebra.space != m2.algebra.space:
        raise MismatchedSignature("modules over different algebras")
    others = [lab for _, _, lab in m1.algebra.space.basis()]
    return _degree_zero_kernel(m1.space, m2.space, _action_legs(
        m1.action, m2.action, others, lambda x, u: ("t", u, x)))


def dual_tensor_into_hom(c: Coalgebra, x: GradedVect) -> LinMap:
    """C* (x) X -> [C, X]; an isomorphism at finite dimension."""
    return relabel(tensor(dual(c.space), x), hom_space(c.space, x),
                   lambda t: ("h", t[1][1], t[2]))


def sections_bridge_iso(m: VComodule):
    """The canonical comparison between the sections contramodule of a
    comodule and its bridge image: include the sections into the function
    space, read that as dual-tensor, and act.

    Returns (iso, sections_contramodule, bridged_contramodule); at finite
    dimension the map is an isomorphism of contramodules; it is not
    checked here.  C is checked once, by ``dual_algebra``, before
    anything else is built."""
    alg = bridge.dual_algebra(m.coalgebra)
    picture = bridge.comodule_to_module(m, alg)
    rdata = functors.functor_R_data(m)
    dt = dual_tensor_into_hom(m.coalgebra, m.space)
    phi = compose(picture.action,
                  compose(inverse_map(dt), rdata.hom.include))
    return phi, rdata.contramodule, bridge.module_to_contramodule(picture)


def quotient_bridge_iso(p: VContramodule):
    """The canonical comparison between the quotient comodule of a
    contramodule and its bridge image: coact through the bridge and
    project.

    Returns (iso, quotient_comodule, bridged_comodule).  C is checked
    once, by ``dual_algebra``, before anything else is built."""
    bridged = bridge.contramodule_to_comodule(
        p, bridge.dual_algebra(p.coalgebra))
    ldata = functors.functor_L_data(p)
    psi = compose(ldata.quot.project, bridged.rho)
    return psi, ldata.comodule, bridged


# --- operator families of the truncated binomial coalgebra ----------------
#
# A comodule over the truncated binomial coalgebra is a family of
# operators indexed by the exponent; unitality forces the zeroth to be the
# identity and coassociativity becomes the binomial composition law
#
#     rho_m o rho_n = binom(m+n, n) rho_{m+n}   (zero past the truncation).
#
# Over the rationals the whole family is the divided-power tower of its
# first member, which must be nilpotent below the truncation order.  The
# operator indexed by n lowers degree by n*d, where z sits in degree d.


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


# --- linear brute-force oracles -------------------------------------------


def all_linmaps(v: GradedVect, w: GradedVect, degree: int = 0):
    """Every degree-homogeneous map exactly once over a prime field,
    charged against the budget of the job that runs it."""
    fld = v.field
    if not hasattr(fld, "p"):
        raise ValueError("exhaustive map enumeration needs a prime field")
    cells = []
    for k in v.degrees():
        m, n = w.dim(k + degree), v.dim(k)
        cells.extend(((k, i, j) for i in range(m) for j in range(n)))
    charge(fld.p ** len(cells), "matrix enumeration")
    for values in iproduct(range(fld.p), repeat=len(cells)):
        blocks: dict[int, list] = {}
        for (k, i, j), val in zip(cells, values):
            if k not in blocks:
                blocks[k] = [
                    [fld.zero()] * v.dim(k)
                    for _ in range(w.dim(k + degree))
                ]
            blocks[k][i][j] = val
        yield LinMap(
            v,
            w,
            degree,
            {k: Matrix(fld, rows, v.dim(k)) for k, rows in blocks.items()},
        )


def linear_equalizer_up_check(f: LinMap, g: LinMap,
                              test_dims=(1, 2)) -> dict:
    """Complete universal-property check for the linear equaliser: the
    space of cones, solved from scratch, must have the dimension of the
    maps into the sub-object (factorisation is then unique because the
    inclusion has full column rank)."""
    eq = equalizer_lin(f, g)
    fld = f.dom.field
    diff = sub_maps(f, g)
    probe_degrees = f.dom.degrees() or [0]
    for n in test_dims:
        for base_deg in probe_degrees:
            z = GradedVect(fld, {base_deg: n}, prefix="up")
            cols = []
            cells = [
                (k, i, j)
                for k in z.degrees()
                if f.dom.dim(k) > 0
                for i in range(f.dom.dim(k))
                for j in range(z.dim(k))
            ]
            for k, i, j in cells:
                unit = [{} for _ in range(f.dom.dim(k))]
                unit[i] = {j: fld.one()}
                h = LinMap(z, f.dom, 0,
                           {k: Matrix.sparse(fld, unit, z.dim(k))})
                comp = compose(diff, h)
                col = []
                for kk in z.degrees():
                    blk = comp.block(kk)
                    col.extend(
                        blk[i2, j2]
                        for i2 in range(blk.nrows)
                        for j2 in range(blk.ncols)
                    )
                cols.append(tuple(col))
            if cells and cols[0]:
                cone_dim = len(
                    Matrix(fld, zip(*cols), len(cols)).kernel_basis())
            else:
                cone_dim = len(cells)
            expected = sum(eq.space.dim(k) * z.dim(k) for k in z.degrees())
            if cone_dim != expected:
                return {"ok": False, "test_dim": n, "degree": base_deg,
                        "cone_dim": cone_dim, "expected": expected}
    return {"ok": True}


def linear_coequalizer_up_check(f: LinMap, g: LinMap,
                                test_dims=(1, 2)) -> dict:
    """Dual check: cocones out of the codomain match maps out of the
    quotient."""
    q = coequalizer_lin(f, g)
    fld = f.dom.field
    diff = sub_maps(f, g)
    probe_degrees = f.cod.degrees() or [0]
    for n in test_dims:
        for base_deg in probe_degrees:
            z = GradedVect(fld, {base_deg: n}, prefix="up")
            cols = []
            cells = [
                (k, i, j)
                for k in f.cod.degrees()
                if z.dim(k) > 0
                for i in range(z.dim(k))
                for j in range(f.cod.dim(k))
            ]
            for k, i, j in cells:
                unit = [{} for _ in range(z.dim(k))]
                unit[i] = {j: fld.one()}
                h = LinMap(f.cod, z, 0,
                           {k: Matrix.sparse(fld, unit, f.cod.dim(k))})
                comp = compose(h, diff)
                col = []
                for kk in f.dom.degrees():
                    blk = comp.block(kk)
                    col.extend(
                        blk[i2, j2]
                        for i2 in range(blk.nrows)
                        for j2 in range(blk.ncols)
                    )
                cols.append(tuple(col))
            if cells and cols and cols[0]:
                cocone_dim = len(
                    Matrix(fld, zip(*cols), len(cols)).kernel_basis())
            else:
                cocone_dim = len(cells)
            expected = sum(q.space.dim(k) * z.dim(k) for k in z.degrees())
            if cocone_dim != expected:
                return {"ok": False, "test_dim": n, "degree": base_deg,
                        "cocone_dim": cocone_dim, "expected": expected}
    return {"ok": True}
