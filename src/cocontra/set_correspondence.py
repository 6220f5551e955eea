"""The sections / quotient correspondence between set comodules and
contramodules.

The sections functor carries a set over C to its set of sections (a product
contramodule, empty exactly when some fiber is empty).  The quotient functor
goes the other way as a coequaliser of evaluation against the structure map.
At desk scale both are computed on the nose and the unit/counit, triangle
identities, and the explicit description of the round trip are certified by
exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from . import finset, set_comodule, set_contramodule
from .errors import charge
from .finset import FinMap, FinSet, QuotPresentation
from .set_comodule import SetComodule, fibers, is_degenerate
from .set_contramodule import (
    ContraTable,
    all_product_shapes,
    empty_contramodule,
    product_contra,
    to_extensional,
)


@dataclass(eq=True)
class SectionSet:
    """The sections of a set over C, with the induced contramodule."""

    of: SetComodule
    sections: FinSet
    theta: ContraTable


def R_set(m: SetComodule) -> ContraTable:
    """The sections contramodule; empty exactly when m is degenerate."""
    fam = fibers(m)
    if any(len(v) == 0 for v in fam.values()):
        return empty_contramodule(m.base)
    return product_contra(m.base, fam)


def section_set(m: SetComodule) -> SectionSet:
    t = R_set(m)
    decode = finset.choice_table(m.base, fibers(m))
    for label in t.carrier:
        beta = FinMap(m.base, m.carrier, decode[label].table)
        assert all(m.phi(beta(a)) == a for a in m.base)
    return SectionSet(m, t.carrier, t)


def R_mor(v: FinMap, m: SetComodule, n: SetComodule) -> FinMap:
    """Push sections forward along a comodule map."""
    return _push_sections(v, m, R_set(m), R_set(n))


def _push_sections(v: FinMap, m: SetComodule, rm: ContraTable,
                   rn: ContraTable) -> FinMap:
    """:func:`R_mor` given the sections of both comodules."""
    decode = finset.choice_table(m.base, fibers(m))
    table = {}
    for label in rm.carrier:
        ch = decode[label].table
        table[label] = finset.encode_table(
            m.base, {a: v(ch[a]) for a in m.base}
        )
    return FinMap(rm.carrier, rn.carrier, table)


def l_set_with_projection(t: ContraTable):
    """The quotient comodule together with the projection from carrier x base.

    Product-form input takes the closed-form route (the disjoint union of
    the fibers); extensional input goes through the generic coequaliser.
    """
    c = t.base
    if t.fibers is not None:
        labels = []
        proj_table = {}
        for a in c:
            for v in t.fibers[a]:
                labels.append(finset.pair_label(v, a))
        carrier = FinSet(labels)
        ambient, _, _ = finset.product(t.carrier, c)
        decode = finset.choice_table(c, t.fibers)
        for y in t.carrier:
            ch = decode[y].table
            for a in c:
                proj_table[finset.pair_label(y, a)] = finset.pair_label(
                    ch[a], a
                )
        project = FinMap(ambient, carrier, proj_table)
        phi = FinMap(
            carrier,
            c,
            {
                finset.pair_label(v, a): a
                for a in c
                for v in t.fibers[a]
            },
        )
        return SetComodule(carrier, c, phi), project
    charge((len(t.carrier) ** len(c)) * len(c), "coequaliser ambient")
    betas = finset.function_table(c, t.carrier)
    hom_cy = FinSet(betas)
    dom, _, _ = finset.product(hom_cy, c)
    cod, _, _ = finset.product(t.carrier, c)
    eta_table = {}
    nu_table = {}
    for label, beta in betas.items():
        tv = t.theta_value(beta)
        for a in c:
            key = finset.pair_label(label, a)
            eta_table[key] = finset.pair_label(beta(a), a)
            nu_table[key] = finset.pair_label(tv, a)
    eta = FinMap(dom, cod, eta_table)
    nu = FinMap(dom, cod, nu_table)
    q = finset.coequalizer(eta, nu)
    carrier = q.project.cod
    _, _, proj2 = finset.product(t.carrier, c)
    phi_table = {}
    for k in carrier:
        members = q.classes[k]
        bases = {proj2(y) for y in members}
        assert len(bases) == 1, "quotient classes must respect the base"
        phi_table[k] = bases.pop()
    phi = FinMap(carrier, c, phi_table)
    return SetComodule(carrier, c, phi), q.project


def L_set(t: ContraTable) -> SetComodule:
    m, _ = l_set_with_projection(t)
    return m


def L_mor(u: FinMap, s: ContraTable, t: ContraTable) -> FinMap:
    """The induced map on quotient comodules: [(y,a)] -> [(u(y),a)]."""
    ls, proj_s = l_set_with_projection(s)
    lt, proj_t = l_set_with_projection(t)
    return _quotient_map(u, s, ls, proj_s, lt, proj_t)


def _quotient_map(u: FinMap, s: ContraTable, ls: SetComodule, proj_s: FinMap,
                  lt: SetComodule, proj_t: FinMap) -> FinMap:
    """:func:`L_mor` given both quotients with their projections."""
    table = {}
    for y in s.carrier:
        for a in s.base:
            src = proj_s(finset.pair_label(y, a))
            dst = proj_t(finset.pair_label(u(y), a))
            if src in table:
                assert table[src] == dst, "map does not respect classes"
            table[src] = dst
    return FinMap(ls.carrier, lt.carrier, table)


def lr_explicit(m: SetComodule) -> QuotPresentation:
    """The round trip as an explicit quotient of sections x base.

    Two pairs are identified exactly when they share the base point and
    their sections agree there.
    """
    return _lr_explicit(m, R_set(m))


def _lr_explicit(m: SetComodule, r: ContraTable) -> QuotPresentation:
    """:func:`lr_explicit` given the sections ``r`` of m."""
    ambient, proj1, proj2 = finset.product(r.carrier, m.base)
    decode = finset.choice_table(m.base, fibers(m))
    pairs = []
    labels = list(ambient.elements)
    for i, lab1 in enumerate(labels):
        b1, a1 = proj1(lab1), proj2(lab1)
        v1 = decode[b1].table[a1] if len(r.carrier) else None
        for lab2 in labels[i + 1 :]:
            b2, a2 = proj1(lab2), proj2(lab2)
            if a1 != a2:
                continue
            v2 = decode[b2].table[a2]
            if v1 == v2:
                pairs.append((lab1, lab2))
    return finset.quotient_by_pairs(ambient, pairs)


@dataclass
class _RoundTrip:
    """Everything the equivalence checks and the ``lr`` job read of one
    comodule, built once: its sections, their extensional form, the
    explicit round-trip quotient with its counit, and the generic quotient
    of the extensional sections with its projection.  A degenerate
    comodule has no sections, so both quotients are empty."""

    m: SetComodule
    sections: ContraTable
    extensional: ContraTable
    explicit: QuotPresentation
    counit: FinMap
    quotient: SetComodule
    project: FinMap


def _round_trip(m: SetComodule) -> _RoundTrip:
    r = R_set(m)
    q = _lr_explicit(m, r)
    re = to_extensional(r)
    return _RoundTrip(m, r, re, q, _counit(m, r, q),
                      *l_set_with_projection(re))


def _routes_agree(explicit: QuotPresentation, project: FinMap) -> bool:
    """:func:`lr_routes_agree` given both quotients."""
    generic: dict[str, set] = {}
    for y in explicit.ambient:
        generic.setdefault(project(y), set()).add(y)
    explicit_classes = {frozenset(v) for v in explicit.classes.values()}
    generic_classes = {frozenset(v) for v in generic.values()}
    return explicit_classes == generic_classes


def lr_routes_agree(m: SetComodule) -> bool:
    """The explicit relation and the generic coequaliser produce the same
    partition of sections x base."""
    _, project = l_set_with_projection(to_extensional(R_set(m)))
    return _routes_agree(lr_explicit(m), project)


def counit(m: SetComodule) -> FinMap:
    """Evaluation on the explicit round-trip quotient: [(beta,a)] -> beta(a)."""
    r = R_set(m)
    return _counit(m, r, _lr_explicit(m, r))


def _counit(m: SetComodule, r: ContraTable, q: QuotPresentation) -> FinMap:
    """:func:`counit` given the sections and the explicit quotient."""
    _, proj1, proj2 = finset.product(r.carrier, m.base)
    decode = finset.choice_table(m.base, fibers(m))
    table = {}
    for k, members in q.classes.items():
        values = set()
        for lab in members:
            beta_label, a = proj1(lab), proj2(lab)
            values.add(decode[beta_label].table[a])
        assert len(values) == 1, "counit must be constant on classes"
        table[k] = values.pop()
    return FinMap(q.project.cod, m.carrier, table)


def counit_is_comodule_map(m: SetComodule) -> bool:
    r = R_set(m)
    q = _lr_explicit(m, r)
    return _counit_is_comodule_map(m, r, q, _counit(m, r, q))


def _counit_is_comodule_map(m: SetComodule, r: ContraTable,
                            q: QuotPresentation, eps: FinMap) -> bool:
    """:func:`counit_is_comodule_map` given the sections, the explicit
    quotient and the counit."""
    _, _, proj2 = finset.product(r.carrier, m.base)
    for k, members in q.classes.items():
        for lab in members:
            if m.phi(eps(k)) != proj2(lab):
                return False
    return True


def unit(t: ContraTable) -> FinMap:
    """The carrier map into the sections of the quotient comodule."""
    l, project = l_set_with_projection(t)
    return _unit(t, project, R_set(l))


def _unit(t: ContraTable, project: FinMap, rl: ContraTable) -> FinMap:
    """:func:`unit` given the quotient's projection and its sections."""
    table = {}
    for y in t.carrier:
        choice = {
            a: project(finset.pair_label(y, a)) for a in t.base
        }
        table[y] = finset.encode_table(t.base, choice)
    return FinMap(t.carrier, rl.carrier, table)


def unit_is_contramodule_map(t: ContraTable) -> bool:
    l, project = l_set_with_projection(t)
    rl = R_set(l)
    return set_contramodule.is_contramodule_map(_unit(t, project, rl), t, rl)


# --- batch certificate --------------------------------------------------------


def all_comodules(carrier_size: int, base_size: int):
    """Every set comodule on canonical labels of the given sizes."""
    charge(base_size ** carrier_size, "comodule enumeration")
    carrier = FinSet([f"x{i}" for i in range(1, carrier_size + 1)])
    base = FinSet([f"c{i}" for i in range(1, base_size + 1)])
    for phi in finset._all_maps(carrier, base):
        yield SetComodule(carrier, base, phi)


def triangle_identities_hold(m: SetComodule) -> bool:
    """Sections-side triangle: pushing sections through the counit after the
    unit of the sections contramodule is the identity."""
    if is_degenerate(m):
        return True
    return _triangle_r(_round_trip(m))


def _triangle_r(rt: _RoundTrip) -> bool:
    """:func:`triangle_identities_hold` given the comodule's round trip."""
    l, eps = rt.quotient, rt.counit
    assert l.carrier == rt.explicit.project.cod, (
        "quotient carriers must coincide")
    eta = _unit(rt.extensional, rt.project, R_set(l))
    decode = finset.choice_table(l.base, fibers(l))
    for y in rt.sections.carrier:
        ch = decode[eta(y)].table
        pushed = finset.encode_table(l.base, {a: eps(ch[a]) for a in l.base})
        if pushed != y:
            return False
    return True


def triangle_identities_hold_l(t: ContraTable) -> bool:
    """Quotient-side triangle: mapping the quotient through the unit and then
    evaluating is the identity.  Each quotient and section set is built
    once."""
    te = to_extensional(t)
    lt, project_t = l_set_with_projection(te)
    if len(lt.carrier) == 0:
        return True
    r_lt = R_set(lt)
    rlt = to_extensional(r_lt)
    eta = _unit(te, project_t, r_lt)
    l_rlt, project_rlt = l_set_with_projection(rlt)
    l_eta = _quotient_map(eta, te, lt, project_t, l_rlt, project_rlt)
    q = _lr_explicit(lt, r_lt)
    eps = _counit(lt, r_lt, q)
    assert q.project.cod == l_rlt.carrier
    for z in lt.carrier:
        if eps(l_eta(z)) != z:
            return False
    return True


def equivalence_certificate(
    max_carrier: int = 4,
    max_base: int = 2,
    max_fiber: int = 3,
    naturality_carrier: int = 3,
) -> dict:
    """Exhaustively certify the correspondence on bounded instances.

    For every non-degenerate comodule: the counit is a bijective comodule
    map, the explicit quotient agrees with the generic coequaliser, and the
    sections-side triangle holds.  For every product contramodule: the unit
    is a bijective contramodule map and the quotient-side triangle holds.
    Naturality of both is checked on all structure maps between instances
    with carriers up to ``naturality_carrier``.  Degenerate comodules are
    reported and excluded, never errors.  Every enumeration, the
    comodules, homs, extensional tables, coequaliser ambients and
    contramodule-map checks, is charged against the job's budget.  Each
    comodule's sections, quotients and counit are built once and shared
    by its checks.
    """
    report = {
        "comodules": 0,
        "nondegenerate": 0,
        "degenerate": 0,
        "contramodules": 0,
        "failures": [],
        "naturality_squares": 0,
    }
    for base_size in range(1, max_base + 1):
        # the round trips the naturality check reuses, by structure map
        round_trips = {}
        for carrier_size in range(0, max_carrier + 1):
            for m in all_comodules(carrier_size, base_size):
                report["comodules"] += 1
                if is_degenerate(m):
                    report["degenerate"] += 1
                    if not R_set(m).is_empty():
                        report["failures"].append(
                            {"kind": "degenerate-with-sections",
                             "phi": m.phi.table}
                        )
                    continue
                report["nondegenerate"] += 1
                rt = _round_trip(m)
                if carrier_size <= naturality_carrier:
                    round_trips[finset.encode_map(m.phi)] = rt
                if not rt.counit.is_bijective():
                    report["failures"].append(
                        {"kind": "counit-not-bijective", "phi": m.phi.table}
                    )
                if not _counit_is_comodule_map(m, rt.sections, rt.explicit,
                                               rt.counit):
                    report["failures"].append(
                        {"kind": "counit-not-comodule-map",
                         "phi": m.phi.table}
                    )
                if not _routes_agree(rt.explicit, rt.project):
                    report["failures"].append(
                        {"kind": "lr-routes-disagree", "phi": m.phi.table}
                    )
                if not _triangle_r(rt):
                    report["failures"].append(
                        {"kind": "triangle-R", "phi": m.phi.table}
                    )
        base = FinSet([f"c{i}" for i in range(1, base_size + 1)])
        for t in all_product_shapes(base, max_fiber):
            report["contramodules"] += 1
            l, project = l_set_with_projection(t)
            rl = R_set(l)
            eta = _unit(t, project, rl)
            if not eta.is_bijective():
                report["failures"].append(
                    {"kind": "unit-not-bijective",
                     "shape": {a: len(v) for a, v in t.fibers.items()}}
                )
            if not set_contramodule.is_contramodule_map(eta, t, rl):
                report["failures"].append(
                    {"kind": "unit-not-contramodule-map",
                     "shape": {a: len(v) for a, v in t.fibers.items()}}
                )
            if not triangle_identities_hold_l(t):
                report["failures"].append(
                    {"kind": "triangle-L",
                     "shape": {a: len(v) for a, v in t.fibers.items()}}
                )
        report["naturality_squares"] += _counit_naturality(
            base_size, naturality_carrier, report, round_trips
        )
    report["ok"] = not report["failures"]
    return report


def _counit_naturality(base_size: int, max_carrier: int, report,
                       round_trips: dict) -> int:
    """counit o L(R(f)) == f o counit for every comodule map f, on the
    round trips of the instances (built here when the main loop did not)."""
    squares = 0
    comodules = []
    for carrier_size in range(0, max_carrier + 1):
        comodules.extend(all_comodules(carrier_size, base_size))
    instances = [
        round_trips.get(finset.encode_map(m.phi)) or _round_trip(m)
        for m in comodules if not is_degenerate(m)
    ]
    for a in instances:
        for b in instances:
            m, n = a.m, b.m
            hom = set_comodule.hom_over(m, n)
            maps = finset.function_table(m.carrier, n.carrier)
            for label in hom.members:
                f = maps[label]
                rf = _push_sections(f, m, a.sections, b.sections)
                lrf = _quotient_map(rf, a.extensional, a.quotient, a.project,
                                    b.quotient, b.project)
                for k in a.quotient.carrier:
                    if b.counit(lrf(k)) != f(a.counit(k)):
                        report["failures"].append(
                            {"kind": "counit-not-natural",
                             "f": f.table,
                             "phi_m": m.phi.table,
                             "phi_n": n.phi.table}
                        )
                        break
                squares += 1
    return squares
