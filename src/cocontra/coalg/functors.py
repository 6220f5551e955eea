"""The two functors between comodules and contramodules, their unit and
counit, the adjunction certificate, and the cofree/free comparison.

The contramodule of a comodule is the hom object out of the coalgebra
itself; the comodule of a contramodule is a quotient of its free cover.
Everything returns honest matrices.  L's beta and coaction, the map R's
structure map factors, the counit's evaluation and the Kleisli push are
built in one pass off the entries of Delta, the sections or the quotient
(``_beta_map`` and the like).  ``core``'s validators read the laws off
the entries too; the tests hold them to the composite checks they
replaced, and check the images these builders make with those
composites, which read no entries, so the builders stay checked
independently.

``functor_R``, ``functor_L`` and each certificate here check the
coalgebra C once, before they build anything (``require_coalgebra``);
the ``*_data`` builders and the maps between images do not, and no
image is validated in its place: over a valid C, R(m) and L(p) satisfy
their axioms whatever m and p are, so R(m), L(p) and images of images
such as L(R(m)) hold by construction.
Declared structures are not checked when parsed, so that one check
refuses, with :class:`InvalidImage` and under ``python -O`` too, every
input over an invalid coalgebra; an invalid m or p over a valid C is
seen by ``check``.  Descent is still checked wherever a map onto a
quotient is built, images of images included: R's structure map must
factor through the sections (``functor_R_data``), and L's coaction
(``functor_L_data``), the counit's evaluation (``counit_map``) and L on
a map (``_l_mor``) must descend; each raises :class:`InvalidImage` when
it does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidImage
from ..exactlin import (
    GradedVect,
    LinMap,
    QuotPresentation,
    compose,
    curry,
    factor_through_include,
    hom_map,
    hom_space,
    hom_tensor_iso,
    identity_map,
    coequalizer_lin,
    tensor,
    tensor_map,
)
from .core import (
    Coalgebra,
    VComodule,
    VContramodule,
    _entries,
    _from_terms,
    coalgebra_as_comodule,
    is_comodule_map,
    is_contramodule_map,
    require_coalgebra,
    require_same_coalgebra,
)
from .homobjects import (
    HomObject,
    comodule_hom_object,
    contra_hom_object,
)


@dataclass(eq=False)
class RData:
    contramodule: VContramodule
    hom: HomObject  # sections inside [C, M]


@dataclass(eq=False)
class LData:
    comodule: VComodule
    quot: QuotPresentation  # quotient of P (x) C
    pair: tuple[LinMap, LinMap]  # on [C,P] (x) C, coequalised by quot


def functor_R_data(m: VComodule) -> RData:
    """The sections contramodule: comodule maps from the coalgebra into m,
    with the structure map factored through the equaliser."""
    c = m.coalgebra
    hobj = comodule_hom_object(coalgebra_as_comodule(c), m)
    try:
        theta = factor_through_include(hobj.include,
                                       _sections_action(c.delta, hobj.include))
    except ValueError:
        raise InvalidImage("R(m) is not a contramodule: theta does not factor "
                           "through the sections, so m or its coalgebra is "
                           "not valid") from None
    return RData(VContramodule(c, hobj.space, theta), hobj)


def _sections_action(delta: LinMap, include: LinMap) -> LinMap:
    """[C, S] -> [C, M] for include: S -> [C, M]; its entry at (c' -> x,
    c -> s) is the sum over c1 of Delta[c (x) c1, c'] include[c1 -> x, s]."""
    legs = {}
    for (_, c, c1), c2, x in _entries(delta):
        legs.setdefault(c1, []).append((c, c2, x))
    return _from_terms(hom_space(delta.dom, include.dom), include.cod, (
        (("h", c, s), ("h", c2, a), delta.dom.field.mul(x, y))
        for (_, c1, a), s, y in _entries(include)
        for c, c2, x in legs.get(c1, ())))


def functor_R(m: VComodule) -> VContramodule:
    require_coalgebra(m.coalgebra)
    return functor_R_data(m).contramodule


def R_mor(v: LinMap, rm: RData, rn: RData) -> LinMap:
    """Push a comodule map through the sections construction."""
    lifted = compose(
        hom_map(identity_map(rm.contramodule.coalgebra.space), v),
        rm.hom.include,
    )
    return factor_through_include(rn.hom.include, lifted)


def functor_L_data(p: VContramodule) -> LData:
    """The quotient comodule of a contramodule, with its coaction induced
    from the comultiplication on the free cover."""
    c = p.coalgebra
    # the parallel pair on [C,P] (x) C whose coequaliser carries L
    delta_map = tensor_map(p.theta, identity_map(c.space))
    beta_map = _beta_map(c.delta, p.space)
    quot = coequalizer_lin(delta_map, beta_map, prefix="l")
    w = _cofree_coaction(c.delta, quot.project)
    # the candidate coaction must respect the identification
    if compose(w, delta_map) != compose(w, beta_map):
        raise InvalidImage("L(p) is not a comodule: the coaction does not "
                           "descend to the quotient, so p or its "
                           "coalgebra is not valid")
    rho = compose(w, quot.section)
    return LData(VComodule(c, quot.space, rho), quot, (delta_map, beta_map))


def _beta_map(delta: LinMap, x: GradedVect) -> LinMap:
    """[C, X] (x) C -> X (x) C, evaluation on the first leg of Delta: its
    entry at (x (x) c2, (c -> x) (x) c') is Delta[c (x) c2, c']."""
    cs = delta.dom
    xl = [a for _, _, a in x.basis()]
    return _from_terms(tensor(hom_space(cs, x), cs), tensor(x, cs), (
        (("t", ("h", c, a), c1), ("t", a, c2), v)
        for (_, c, c2), c1, v in _entries(delta) for a in xl))


def _cofree_coaction(delta: LinMap, project: LinMap) -> LinMap:
    """X (x) C -> L (x) C for project: X (x) C -> L; its entry at (l (x) c2,
    x (x) c') is the sum over c of Delta[c (x) c2, c'] project[l, x (x) c]."""
    legs = {}
    for (_, c, c2), c1, v in _entries(delta):
        legs.setdefault(c, []).append((c2, c1, v))
    return _from_terms(project.dom, tensor(project.cod, delta.dom), (
        (("t", a, c1), ("t", lab, c2), delta.dom.field.mul(v, y))
        for lab, (_, a, c), y in _entries(project)
        for c2, c1, v in legs.get(c, ())))


def functor_L(p: VContramodule) -> VComodule:
    require_coalgebra(p.coalgebra)
    return functor_L_data(p).comodule


def unit_map(p: VContramodule, ldata: LData, rdata: RData) -> LinMap:
    """P -> sections of the quotient comodule, given L(p) and R(L(p))."""
    c = p.coalgebra
    curried = curry(
        ldata.quot.project, p.space, c.space, ldata.comodule.space
    )
    return factor_through_include(rdata.hom.include, curried)


def counit_map(m: VComodule, rdata: RData, ldata: LData) -> LinMap:
    """Quotient of the sections back onto m, by evaluation, given R(m)
    and L(R(m))."""
    evaluate = _evaluation(rdata.hom.include, m.coalgebra.space, m.space)
    delta_map, beta_map = ldata.pair
    if compose(evaluate, delta_map) != compose(evaluate, beta_map):
        raise InvalidImage("evaluation does not descend to L(R(m)), so m "
                           "or its coalgebra is not valid")
    return compose(evaluate, ldata.quot.section)


def _evaluation(include: LinMap, cs: GradedVect, x: GradedVect) -> LinMap:
    """S (x) C -> X for include: S -> [C, X], evaluation after include (x)
    id: its entry at (x, s (x) c) is include[c -> x, s]."""
    return _from_terms(tensor(include.dom, cs), x, (
        (("t", s, c), a, v) for (_, c, a), s, v in _entries(include)))


def triangle_identities(p: VContramodule, m: VComodule) -> dict:
    """Both triangle identities at the given objects, exactly."""
    require_same_coalgebra(p, m)
    require_coalgebra(p.coalgebra)
    return _triangles(p, m, functor_L_data(p), functor_R_data(m))


def _triangles(p: VContramodule, m: VComodule, ldata: LData,
               rdata: RData) -> dict:
    """:func:`triangle_identities` given L(p) and R(m), over a checked
    coalgebra; builds L(R(m)), R(L(R(m))), R(L(p)) and L(R(L(p))) once
    each."""
    # contramodule side: R(counit) after unit at the sections of m
    ldata_rm = functor_L_data(rdata.contramodule)
    r_lrm = functor_R_data(ldata_rm.comodule)
    eps = counit_map(m, rdata, ldata_rm)
    eta_rm = unit_map(rdata.contramodule, ldata_rm, r_lrm)
    r_eps = R_mor(eps, r_lrm, rdata)
    tri_r = (
        compose(r_eps, eta_rm) == identity_map(rdata.contramodule.space)
    )
    # comodule side: counit at L(p) after L(unit)
    rdata_lp = functor_R_data(ldata.comodule)
    eta = unit_map(p, ldata, rdata_lp)
    ldata_rlp = functor_L_data(rdata_lp.contramodule)
    l_eta = _l_mor(eta, p, ldata, ldata_rlp)
    eps_lp = counit_map(ldata.comodule, rdata_lp, ldata_rlp)
    tri_l = compose(eps_lp, l_eta) == identity_map(ldata.comodule.space)
    return {"ok": tri_r and tri_l, "sections_side": tri_r,
            "quotient_side": tri_l}


def _l_mor(u: LinMap, p: VContramodule, lp: LData, lq: LData) -> LinMap:
    """L on a contramodule map u : p -> q, given L(p) and L(q)."""
    c = p.coalgebra
    w = compose(lq.quot.project, tensor_map(u, identity_map(c.space)))
    delta_map, beta_map = lp.pair
    if compose(w, delta_map) != compose(w, beta_map):
        raise InvalidImage("L(u) does not descend to L(p), so u is not a "
                           "contramodule map or p or q is not valid")
    return compose(w, lp.quot.section)


def round_trip_report(m: VComodule):
    """The comodule L(R(m)) and the unit and counit report at R(m) and m,
    building R(m), L(R(m)) and R(L(R(m))) once each after checking C."""
    require_coalgebra(m.coalgebra)
    rdata = functor_R_data(m)
    ldata = functor_L_data(rdata.contramodule)
    rep = _unit_counit_report(
        rdata.contramodule, m, ldata, functor_R_data(ldata.comodule),
        rdata, ldata,
    )
    return ldata.comodule, rep


def _unit_counit_report(p, m, ldata: LData, rdata_lp: RData,
                        rdata: RData, ldata_rm: LData) -> dict:
    """Are the unit at p and the counit at m isomorphisms and maps of
    their kind?  Given L(p), R(L(p)), R(m) and L(R(m))."""
    eta = unit_map(p, ldata, rdata_lp)
    eps = counit_map(m, rdata, ldata_rm)
    return {
        "unit_iso": eta.is_iso(),
        "counit_iso": eps.is_iso(),
        "unit_is_contramodule_map": is_contramodule_map(
            eta, p, rdata_lp.contramodule
        ),
        "counit_is_comodule_map": is_comodule_map(
            eps, ldata_rm.comodule, m
        ),
    }


def _embeddings(p: VContramodule, m: VComodule, ldata: LData,
                rdata: RData):
    """The comodule maps L(p) -> m and the contramodule maps p -> R(m),
    each with its embedding into [P, FM]: (homT, a_incl, homF, b_incl)."""
    c = p.coalgebra
    homT = comodule_hom_object(ldata.comodule, m)
    to_pfm_T = compose(
        hom_tensor_iso(p.space, c.space, m.space),
        hom_map(ldata.quot.project, identity_map(m.space)),
    )
    a_incl = compose(to_pfm_T, homT.include)
    homF = contra_hom_object(p, rdata.contramodule)
    b_incl = compose(
        hom_map(identity_map(p.space), rdata.hom.include), homF.include
    )
    return homT, a_incl, homF, b_incl


def adjunction_certificate(
    p: VContramodule, m: VComodule, squares=None
) -> dict:
    """Certify the adjunction by the two-embeddings route.

    Comodule maps out of the quotient embed into [P, FM] by precomposing
    with the projection and transposing; contramodule maps into the
    sections embed by postcomposing with the inclusion.  The certificate
    checks the two images coincide (dimension and mutual containment) and,
    when morphism squares are supplied, that the identification is natural
    in both arguments.  Its ``"ok"`` covers those checks; the triangle
    identities, from the same L(p) and R(m), are reported under
    ``"triangles"``.  Every object, the squares' included, must live over
    the one coalgebra, which is checked once.
    """
    squares = list(squares or ())
    require_same_coalgebra(p, m, *(obj for _, p2, _, m2 in squares
                                   for obj in (p2, m2)))
    c = p.coalgebra
    require_coalgebra(c)
    ldata = functor_L_data(p)
    rdata = functor_R_data(m)
    homT, a_incl, homF, b_incl = _embeddings(p, m, ldata, rdata)

    report = {
        "dim_comodule_side": homT.space.total_dim,
        "dim_contramodule_side": homF.space.total_dim,
        "failures": [],
    }
    if homT.space.total_dim != a_incl.rank():
        report["failures"].append("comodule-side embedding not injective")
    if homF.space.total_dim != b_incl.rank():
        report["failures"].append("contramodule-side embedding not injective")
    if homT.space.total_dim != homF.space.total_dim:
        report["failures"].append("dimension mismatch")
    try:
        factor_through_include(a_incl, b_incl)
    except ValueError:
        report["failures"].append(
            "contramodule side not contained in comodule side"
        )
    try:
        factor_through_include(b_incl, a_incl)
    except ValueError:
        report["failures"].append(
            "comodule side not contained in contramodule side"
        )
    report["naturality_squares"] = 0
    for u, p2, v, m2 in squares:
        # u : P2 -> P a contramodule map, v : M -> M2 a comodule map
        ldata2 = functor_L_data(p2)
        rdata2 = functor_R_data(m2)
        homT2, a_incl2, homF2, b_incl2 = _embeddings(p2, m2, ldata2, rdata2)
        fv = hom_map(identity_map(c.space), v)
        transport = hom_map(u, fv)  # [P,FM] -> [P2,FM2]
        lu = _l_mor(u, p2, ldata2, ldata)
        chi_t = factor_through_include(
            homT2.include,
            compose(hom_map(lu, v), homT.include),
        )
        if compose(transport, a_incl) != compose(a_incl2, chi_t):
            report["failures"].append("comodule-side square broke")
        rv = R_mor(v, rdata, rdata2)
        chi_f = factor_through_include(
            homF2.include,
            compose(hom_map(u, rv), homF.include),
        )
        if compose(transport, b_incl) != compose(b_incl2, chi_f):
            report["failures"].append("contramodule-side square broke")
        report["naturality_squares"] += 2
    report["ok"] = not report["failures"]
    report["triangles"] = _triangles(p, m, ldata, rdata)
    return report


def _kleisli_push(delta: LinMap, x: GradedVect) -> LinMap:
    """[C, X] -> [C, X (x) C], h to (h (x) id) Delta: its entry at
    (c' -> x (x) c2, c -> x) is Delta[c (x) c2, c']."""
    cs = delta.dom
    xl = [a for _, _, a in x.basis()]
    return _from_terms(hom_space(cs, x), hom_space(cs, tensor(x, cs)), (
        (("h", c, a), ("h", c1, ("t", a, c2)), v)
        for (_, c, c2), c1, v in _entries(delta) for a in xl))


def kleisli_certificate(x, c: Coalgebra) -> dict:
    """The free contramodule on x maps isomorphically onto the sections of
    the cofree comodule on x, compatibly with the structure maps."""
    from .core import cofree, free

    require_coalgebra(c)
    tx = cofree(x, c)
    fx = free(x, c)
    rdata = functor_R_data(tx)
    # h goes to (h (x) id) o delta
    push = _kleisli_push(c.delta, x)
    kappa = factor_through_include(rdata.hom.include, push)
    ok_iso = kappa.is_iso()
    lhs = compose(kappa, fx.theta)
    rhs = compose(
        rdata.contramodule.theta,
        hom_map(identity_map(c.space), kappa),
    )
    ok_map = lhs == rhs
    expected = c.space.total_dim * x.total_dim
    return {
        "ok": ok_iso and ok_map
        and rdata.contramodule.space.total_dim == expected,
        "iso": ok_iso,
        "contramodule_map": ok_map,
        "dim_sections_of_cofree": rdata.contramodule.space.total_dim,
        "dim_expected": expected,
    }
