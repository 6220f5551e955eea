import hashlib
import itertools
import sys
from dataclasses import dataclass

import pytest

from cocontra import errors, finset, serialize, set_comodule as scm
from cocontra import set_contramodule as sct
from cocontra import set_correspondence as sco
from cocontra.errors import charge
from cocontra.finset import FinMap, FinSet, QuotPresentation
from cocontra.set_comodule import SetComodule, fibers, is_degenerate
from cocontra.set_contramodule import ContraTable


C2 = FinSet(["1", "2"])


# --- the label path of the correspondence -------------------------------------
#
# The equivalence certificate, the lr job and L of a theta table run on
# integer codes.  Below is the label path they replaced, kept as their
# reference: every map a FinMap between labelled sets, the explicit quotient
# by a scan over all pairs, the generic one by finset.coequalizer.


def l_by_labels(t: ContraTable):
    """L of a theta table with its projection, on labels: eta(beta, a) =
    (beta(a), a) and nu(beta, a) = (theta(beta), a) as maps from the
    pair-labelled hom(C, X) x C, coequalised by finset.coequalizer."""
    c = t.base
    charge((len(t.carrier) ** len(c)) * len(c), "coequaliser ambient")
    betas = finset.function_table(c, t.carrier)
    dom, _, _ = finset.product(FinSet(betas), c)
    cod, _, proj2 = finset.product(t.carrier, c)
    eta_table = {}
    nu_table = {}
    for label, beta in betas.items():
        tv = t.theta_fn()(beta)
        for a in c:
            key = finset.pair_label(label, a)
            eta_table[key] = finset.pair_label(beta(a), a)
            nu_table[key] = finset.pair_label(tv, a)
    q = finset.coequalizer(FinMap(dom, cod, eta_table),
                           FinMap(dom, cod, nu_table))
    # both maps keep the base point, so each class lies over one point
    phi_table = {k: proj2(members[0]) for k, members in q.classes.items()}
    carrier = q.project.cod
    return SetComodule(carrier, c, FinMap(carrier, c, phi_table)), q.project


def l_with_projection(t: ContraTable):
    """L on labels: the closed form of a product, the label coequaliser of
    a theta table."""
    if t.fibers is not None:
        return sco.l_set_with_projection(t)
    return l_by_labels(t)


@dataclass(eq=True)
class SectionSet:
    """The sections of a set over C, with the induced contramodule."""

    of: SetComodule
    sections: FinSet
    theta: ContraTable


def section_set(m: SetComodule) -> SectionSet:
    t = sco.R_set(m)
    decode = finset.choice_table(m.base, fibers(m))
    for label in t.carrier:
        beta = FinMap(m.base, m.carrier, decode[label].table)
        assert all(m.phi(beta(a)) == a for a in m.base)
    return SectionSet(m, t.carrier, t)


def R_mor(v: FinMap, m: SetComodule, n: SetComodule) -> FinMap:
    """Push sections forward along a comodule map."""
    return _push_sections(v, m, sco.R_set(m), sco.R_set(n))


def _push_sections(v: FinMap, m: SetComodule, rm: ContraTable,
                   rn: ContraTable) -> FinMap:
    decode = finset.choice_table(m.base, fibers(m))
    table = {}
    for label in rm.carrier:
        ch = decode[label].table
        table[label] = finset.encode_table(
            m.base, {a: v(ch[a]) for a in m.base}
        )
    return FinMap(rm.carrier, rn.carrier, table)


def L_mor(u: FinMap, s: ContraTable, t: ContraTable) -> FinMap:
    """The induced map on quotient comodules: [(y,a)] -> [(u(y),a)]."""
    ls, proj_s = l_with_projection(s)
    lt, proj_t = l_with_projection(t)
    return _quotient_map(u, s, ls, proj_s, lt, proj_t)


def _quotient_map(u: FinMap, s: ContraTable, ls: SetComodule, proj_s: FinMap,
                  lt: SetComodule, proj_t: FinMap) -> FinMap:
    table = {}
    for y in s.carrier:
        for a in s.base:
            src = proj_s(finset.pair_label(y, a))
            dst = proj_t(finset.pair_label(u(y), a))
            if src in table:
                assert table[src] == dst, "map does not respect classes"
            table[src] = dst
    return FinMap(ls.carrier, lt.carrier, table)


def _lr_explicit(m: SetComodule, r: ContraTable) -> QuotPresentation:
    """The explicit round trip by a scan over every pair of sections x
    base."""
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
    m: SetComodule
    sections: ContraTable
    extensional: ContraTable
    explicit: QuotPresentation
    counit: FinMap
    quotient: SetComodule
    project: FinMap


def _round_trip(m: SetComodule) -> _RoundTrip:
    r = sco.R_set(m)
    q = _lr_explicit(m, r)
    re = sct.to_extensional(r)
    return _RoundTrip(m, r, re, q, _counit(m, r, q), *l_by_labels(re))


def _routes_agree(explicit: QuotPresentation, project: FinMap) -> bool:
    generic: dict[str, set] = {}
    for y in explicit.ambient:
        generic.setdefault(project(y), set()).add(y)
    explicit_classes = {frozenset(v) for v in explicit.classes.values()}
    generic_classes = {frozenset(v) for v in generic.values()}
    return explicit_classes == generic_classes


def lr_routes_agree(m: SetComodule) -> bool:
    _, project = l_by_labels(sct.to_extensional(sco.R_set(m)))
    return _routes_agree(_lr_explicit(m, sco.R_set(m)), project)


def _counit(m: SetComodule, r: ContraTable, q: QuotPresentation) -> FinMap:
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
    r = sco.R_set(m)
    q = _lr_explicit(m, r)
    return _counit_is_comodule_map(m, r, q, _counit(m, r, q))


def _counit_is_comodule_map(m: SetComodule, r: ContraTable,
                            q: QuotPresentation, eps: FinMap) -> bool:
    _, _, proj2 = finset.product(r.carrier, m.base)
    for k, members in q.classes.items():
        for lab in members:
            if m.phi(eps(k)) != proj2(lab):
                return False
    return True


def _unit(t: ContraTable, project: FinMap, rl: ContraTable) -> FinMap:
    table = {}
    for y in t.carrier:
        choice = {a: project(finset.pair_label(y, a)) for a in t.base}
        table[y] = finset.encode_table(t.base, choice)
    return FinMap(t.carrier, rl.carrier, table)


def unit_is_contramodule_map(t: ContraTable) -> bool:
    l, project = l_with_projection(t)
    rl = sco.R_set(l)
    return sct.is_contramodule_map(_unit(t, project, rl), t, rl)


def all_comodules(carrier_size: int, base_size: int):
    charge(base_size ** carrier_size, "comodule enumeration")
    carrier = FinSet([f"x{i}" for i in range(1, carrier_size + 1)])
    base = FinSet([f"c{i}" for i in range(1, base_size + 1)])
    for phi in finset._all_maps(carrier, base):
        yield SetComodule(carrier, base, phi)


def triangle_identities_hold(m: SetComodule) -> bool:
    if is_degenerate(m):
        return True
    return _triangle_r(_round_trip(m))


def _triangle_r(rt: _RoundTrip) -> bool:
    l, eps = rt.quotient, rt.counit
    assert l.carrier == rt.explicit.project.cod, (
        "quotient carriers must coincide")
    eta = _unit(rt.extensional, rt.project, sco.R_set(l))
    decode = finset.choice_table(l.base, fibers(l))
    for y in rt.sections.carrier:
        ch = decode[eta(y)].table
        pushed = finset.encode_table(l.base, {a: eps(ch[a]) for a in l.base})
        if pushed != y:
            return False
    return True


def triangle_identities_hold_l(t: ContraTable) -> bool:
    te = sct.to_extensional(t)
    lt, project_t = l_by_labels(te)
    if len(lt.carrier) == 0:
        return True
    r_lt = sco.R_set(lt)
    rlt = sct.to_extensional(r_lt)
    eta = _unit(te, project_t, r_lt)
    l_rlt, project_rlt = l_by_labels(rlt)
    l_eta = _quotient_map(eta, te, lt, project_t, l_rlt, project_rlt)
    q = _lr_explicit(lt, r_lt)
    eps = _counit(lt, r_lt, q)
    assert q.project.cod == l_rlt.carrier
    for z in lt.carrier:
        if eps(l_eta(z)) != z:
            return False
    return True


def _reference_equivalence(max_carrier, max_base, max_fiber,
                           naturality_carrier) -> dict:
    """sco.equivalence_certificate on labels."""
    report = {
        "comodules": 0,
        "nondegenerate": 0,
        "degenerate": 0,
        "contramodules": 0,
        "failures": [],
        "naturality_squares": 0,
    }
    for base_size in range(1, max_base + 1):
        round_trips = {}
        for carrier_size in range(0, max_carrier + 1):
            for m in all_comodules(carrier_size, base_size):
                report["comodules"] += 1
                if is_degenerate(m):
                    report["degenerate"] += 1
                    if not sco.R_set(m).is_empty():
                        report["failures"].append(
                            {"kind": "degenerate-with-sections",
                             "phi": m.phi.table}
                        )
                    continue
                report["nondegenerate"] += 1
                rt = _round_trip(m)
                if carrier_size <= naturality_carrier:
                    round_trips[finset.encode_map(m.phi)] = rt
                eps = rt.counit
                if not (eps.is_injective() and eps.is_surjective()):
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
        for t in sct.all_product_shapes(base, max_fiber):
            report["contramodules"] += 1
            l, project = l_with_projection(t)
            rl = sco.R_set(l)
            eta = _unit(t, project, rl)
            if not (eta.is_injective() and eta.is_surjective()):
                report["failures"].append(
                    {"kind": "unit-not-bijective",
                     "shape": {a: len(v) for a, v in t.fibers.items()}}
                )
            if not sct.is_contramodule_map(eta, t, rl):
                report["failures"].append(
                    {"kind": "unit-not-contramodule-map",
                     "shape": {a: len(v) for a, v in t.fibers.items()}}
                )
            if not triangle_identities_hold_l(t):
                report["failures"].append(
                    {"kind": "triangle-L",
                     "shape": {a: len(v) for a, v in t.fibers.items()}}
                )
        report["naturality_squares"] += _reference_naturality(
            base_size, naturality_carrier, report, round_trips
        )
    report["ok"] = not report["failures"]
    return report


def _reference_naturality(base_size, max_carrier, report, round_trips):
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
            hom = scm.hom_over(m, n)
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


def _lr_payload(m: SetComodule) -> dict:
    """The lr job's payload on labels."""
    rt = _round_trip(m)
    q = rt.explicit
    return {
        "classes": {k: list(v) for k, v in sorted(q.classes.items())},
        "counit_bijective": (rt.counit.is_injective()
                             and rt.counit.is_surjective()),
        "routes_agree": _routes_agree(q, rt.project),
    }


# --- tests --------------------------------------------------------------------


def comodule(phi_table, carrier, base=C2):
    return scm.SetComodule(carrier, base, FinMap(carrier, base, phi_table))


def test_sections_of_identity_comodule():
    m = scm.SetComodule(C2, C2, finset.identity(C2))
    r = sco.R_set(m)
    assert len(r.carrier) == 1  # only the identity section


def test_sections_count_is_fiber_product():
    x = FinSet(["a", "b", "c"])
    m = comodule({"a": "1", "b": "2", "c": "2"}, x)
    r = sco.R_set(m)
    assert len(r.carrier) == 2
    ss = section_set(m)
    assert ss.sections == r.carrier


def test_sections_fibers_are_comodule_fibers():
    x = FinSet(["a", "b", "c"])
    m = comodule({"a": "1", "b": "2", "c": "2"}, x)
    r = sco.R_set(m)
    assert r.fibers == scm.fibers(m)


def test_sections_of_degenerate_is_empty():
    one = FinSet(["a"])
    m = comodule({"a": "1"}, one)
    assert sco.R_set(m).is_empty()


def test_l_of_product_has_matching_fibers():
    t = sct.product_contra(
        C2, {"1": FinSet(["p", "q"]), "2": FinSet(["r", "s"])}
    )
    l = sco.L_set(t)
    fam = scm.fibers(l)
    assert sorted(len(v) for v in fam.values()) == [2, 2]


def test_l_of_empty_contramodule_is_empty():
    t = sct.empty_contramodule(C2)
    assert len(sco.L_set(t).carrier) == 0


def test_l_of_point_is_base():
    t = sct.product_contra(C2, {"1": FinSet(["u"]), "2": FinSet(["v"])})
    l = sco.L_set(t)
    assert len(l.carrier) == 2
    assert l.phi.is_injective() and l.phi.is_surjective()


def test_l_closed_form_agrees_with_coequalizer():
    shapes = [
        {"1": FinSet(["p"]), "2": FinSet(["r", "s"])},
        {"1": FinSet(["p", "q"]), "2": FinSet(["r", "s"])},
        {"1": FinSet(["p", "q", "t"]), "2": FinSet(["r"])},
    ]
    for fam in shapes:
        t = sct.product_contra(C2, fam)
        closed = sco.L_set(t)
        generic = sco.L_set(sct.to_extensional(t))
        # same fiber data; the explicit bijection sends (v,a) to the class
        # of (y,a) for any choice y picking v at a
        fc, fg = scm.fibers(closed), scm.fibers(generic)
        assert {a: len(v) for a, v in fc.items()} == {
            a: len(v) for a, v in fg.items()
        }
        _, project = sco.l_set_with_projection(sct.to_extensional(t))
        for a in C2:
            seen = set()
            for y in t.carrier:
                ch = finset.choice_table(C2, t.fibers)[y].table
                cls = project(finset.pair_label(y, a))
                seen.add((ch[a], cls))
            assert len(seen) == len(fam[a])  # value at a determines class


def test_lr_explicit_matches_generic_everywhere_small():
    for size in range(0, 5):
        x = FinSet([f"x{i}" for i in range(size)])
        for phi in finset._all_maps(x, C2):
            m = scm.SetComodule(x, C2, phi)
            assert lr_routes_agree(m)


def test_lr_explicit_example_classes():
    x = FinSet(["a", "b", "c"])
    m = comodule({"a": "1", "b": "2", "c": "2"}, x)
    q = sco.lr_explicit(m)
    assert len(q.project.cod) == 3  # one class per carrier element


def test_lr_explicit_degenerate_is_empty_quotient():
    degenerate = comodule({"a": "1"}, FinSet(["a"]))
    q = sco.lr_explicit(degenerate)
    assert len(q.project.cod) == 0


def test_counit_bijective_iff_nondegenerate():
    x = FinSet(["a", "b", "c"])
    m = comodule({"a": "1", "b": "2", "c": "2"}, x)
    eps = sco.counit(m)
    assert eps.is_injective() and eps.is_surjective()
    assert counit_is_comodule_map(m)

    degenerate = comodule({"a": "1"}, FinSet(["a"]))
    eps_d = sco.counit(degenerate)
    assert not eps_d.is_surjective()


def test_counit_on_identity_comodule():
    m = scm.SetComodule(C2, C2, finset.identity(C2))
    eps = sco.counit(m)
    assert eps.is_injective() and eps.is_surjective()


def test_unit_bijective_for_products():
    t = sct.product_contra(
        C2, {"1": FinSet(["p", "q"]), "2": FinSet(["r", "s"])}
    )
    eta = sco.unit(t)
    assert eta.is_injective() and eta.is_surjective()
    assert unit_is_contramodule_map(t)

    point = sct.product_contra(C2, {"1": FinSet(["u"]), "2": FinSet(["v"])})
    eta = sco.unit(point)
    assert eta.is_injective() and eta.is_surjective()


def test_unit_of_empty_contramodule():
    t = sct.empty_contramodule(C2)
    eta = sco.unit(t)
    assert len(eta.dom) == 0 and len(eta.cod) == 0


def test_triangle_identities_on_samples():
    x = FinSet(["a", "b", "c"])
    m = comodule({"a": "1", "b": "2", "c": "2"}, x)
    assert triangle_identities_hold(m)
    t = sct.product_contra(
        C2, {"1": FinSet(["p", "q"]), "2": FinSet(["r"])}
    )
    assert triangle_identities_hold_l(t)


def test_equivalence_certificate_bounded():
    rep = sco.equivalence_certificate(
        max_carrier=3, max_base=2, max_fiber=2, naturality_carrier=2
    )
    assert rep["ok"]
    assert rep["degenerate"] > 0  # degenerate cases are reported, not errors
    assert rep["nondegenerate"] > 0
    assert rep["naturality_squares"] > 0


# Recorded before the counit naturality check built each instance's
# sections, counit and quotient once instead of once per comodule map.
EQUIVALENCE_GOLDEN_SHA256 = (
    "8de76d9deb58154344658ca7aaf6d58db2733af5687075d68c33558d76c53518"
)


def test_equivalence_report_matches_golden_digest():
    rep = sco.equivalence_certificate(max_carrier=4, max_base=2, max_fiber=3)
    assert rep["ok"] and rep["naturality_squares"] == 204
    digest = hashlib.sha256(serialize.canonical_bytes(rep)).hexdigest()
    assert digest == EQUIVALENCE_GOLDEN_SHA256


# Recorded before each comodule's sections, quotient and counit were built
# once per comodule: the largest equivalence instance of the benchmark.
EQUIVALENCE_CARRIER_5_GOLDEN_SHA256 = (
    "3c51a366f6f05d3f33b69875d9208f6cf4365e747137739d00811429b128d2eb"
)


def test_equivalence_carrier_5_report_matches_golden_digest():
    rep = sco.equivalence_certificate(max_carrier=5, max_base=2, max_fiber=3)
    assert rep["ok"] and rep["nondegenerate"] == 57
    digest = hashlib.sha256(serialize.canonical_bytes(rep)).hexdigest()
    assert digest == EQUIVALENCE_CARRIER_5_GOLDEN_SHA256


def test_unit_naturality_small():
    # R(L(u)) o unit_s == unit_t o u for contramodule maps u between products
    shapes = [
        {"1": FinSet(["p"]), "2": FinSet(["r", "s"])},
        {"1": FinSet(["p", "q"]), "2": FinSet(["r"])},
    ]
    for fam_s in shapes:
        for fam_t in shapes:
            s = sct.product_contra(C2, fam_s)
            t = sct.product_contra(C2, fam_t)
            se, te = sct.to_extensional(s), sct.to_extensional(t)
            for u in sct.contra_hom_members(se, te):
                eta_s, eta_t = sco.unit(se), sco.unit(te)
                lu = L_mor(u, se, te)
                rls = sco.R_set(sco.L_set(se))
                rlt = sco.R_set(sco.L_set(te))
                rlu = R_mor(
                    lu, sco.L_set(se), sco.L_set(te)
                )
                lhs = finset.compose(rlu, eta_s)
                rhs = finset.compose(eta_t, u)
                assert lhs == rhs


# --- the code path against the label path -------------------------------------


def _odd_comodules():
    """Every comodule on up to four points over two, and some whose labels
    sort unlike their codes: "a+" sorts after "a" as a label but its
    section labels sort first."""
    for size in range(0, 5):
        x = FinSet([f"x{i}" for i in range(size)])
        for phi in finset._all_maps(x, C2):
            yield scm.SetComodule(x, C2, phi)
    x = FinSet(["a", "a+", "b", "b,"])
    for phi in finset._all_maps(x, C2):
        yield scm.SetComodule(x, C2, phi)
    yield scm.SetComodule(finset.EMPTY, finset.EMPTY,
                          FinMap(finset.EMPTY, finset.EMPTY, {}))


def test_label_surface_matches_the_label_path():
    # lr_explicit, counit and the lr payload are built from codes
    for m in _odd_comodules():
        r = sco.R_set(m)
        q = _lr_explicit(m, r)
        assert sco.lr_explicit(m) == q
        assert sco.counit(m) == _counit(m, r, q)
        assert sco.lr_report(m) == _lr_payload(m)


@pytest.fixture
def charges(monkeypatch):
    """Every charge the set-side modules and the label reference make, in
    order, as (projected, what)."""
    log = []

    def record(projected, what):
        log.append((projected, what))
        errors.charge(projected, what)

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if ((name.startswith("cocontra.") and mod is not errors
                or mod is sys.modules[__name__])
                and getattr(mod, "charge", None) is charge):
            monkeypatch.setattr(mod, "charge", record)
    return log


@pytest.mark.parametrize("args", [
    (3, 2, 2, 2), (4, 2, 3, 3), (5, 2, 3, 3), (3, 1, 3, 3), (2, 3, 2, 2),
])
def test_equivalence_matches_label_reference(charges, args):
    rep = sco.equivalence_certificate(*args)
    code_charges = list(charges)
    charges.clear()
    assert rep == _reference_equivalence(*args)
    assert code_charges == charges
    assert rep["ok"] and len(code_charges) > 10


def test_lr_charges_match_label_reference(charges):
    for m in _odd_comodules():
        charges.clear()
        sco.lr_report(m)
        code_charges = list(charges)
        charges.clear()
        _lr_payload(m)
        assert code_charges == charges


def _theta_tables():
    """Theta tables to quotient: every contramodule on up to three points
    over two, and on labels whose pair labels sort unlike their positions
    ("(a+,1)" before "(a,1)"); every table on two points over two, most of
    them no contramodule; the extensional form of products; and tables
    over one, three and no base points."""
    c1, c3 = FinSet(["1"]), FinSet(["1", "2", "3"])
    for nx in range(4):
        yield from sct.enumerate_all(FinSet([f"x{i}" for i in range(nx)]),
                                     C2)
    odd = FinSet(["a", "a+", "b"])
    yield from sct.enumerate_all(odd, C2)
    yield from sct.enumerate_all(odd, c1)
    yield from sct.enumerate_all(FinSet(["x0", "x1"]), c3)
    yield from sct.enumerate_all(FinSet(["a"]), finset.EMPTY)
    for theta in itertools.product(range(2), repeat=4):
        yield ContraTable(FinSet(["a", "a+"]), C2, theta=theta)
    for fam in ({"1": FinSet(["p", "q"]), "2": FinSet(["r", "s", "t"])},
                {"1": FinSet(["a", "a+"]), "2": FinSet(["b,", "b"])}):
        yield sct.to_extensional(sct.product_contra(C2, fam))


def test_l_of_a_theta_table_matches_the_label_route(charges):
    for t in _theta_tables():
        charges.clear()
        got = sco.l_set_with_projection(t)
        code_charges = list(charges)
        charges.clear()
        assert got == l_by_labels(t)
        assert code_charges == charges


# --- mutants of the code path -------------------------------------------------
#
# Each corrupts one step of the code path and must make the certificate
# fail with a named kind and witnesses in labels.

KINDS = {"degenerate-with-sections", "counit-not-bijective",
         "counit-not-comodule-map", "lr-routes-disagree", "triangle-R",
         "unit-not-bijective", "unit-not-contramodule-map", "triangle-L",
         "counit-not-natural"}


def _failing_kinds(args, expected):
    rep = sco.equivalence_certificate(*args)
    assert not rep["ok"]
    kinds = {fail["kind"] for fail in rep["failures"]}
    assert kinds <= KINDS and expected <= kinds
    for fail in rep["failures"]:
        for key in ("phi", "phi_m", "phi_n", "f"):
            if key in fail:
                assert set(fail[key]) <= {f"x{i}" for i in range(1, 6)}
                assert set(fail[key].values()) <= {
                    "c1", "c2", "c3", *(f"x{i}" for i in range(1, 6))}
        if "shape" in fail:
            assert set(fail["shape"]) <= {"c1", "c2", "c3"}
    return rep


def test_counit_mutant_fails(monkeypatch):
    honest = sco._counit

    def constant(sec, explicit):
        eps = honest(sec, explicit)
        first = eps[min(eps)] if eps else None
        return {root: first for root in eps}

    monkeypatch.setattr(sco, "_counit", constant)
    rep = _failing_kinds((3, 2, 2, 2), {"counit-not-bijective",
                                        "counit-not-comodule-map",
                                        "triangle-R", "triangle-L"})
    assert {"kind": "counit-not-bijective",
            "phi": {"x1": "c1", "x2": "c1"}} in rep["failures"]


def test_section_push_mutant_fails(monkeypatch):
    honest = sco._push

    def twisted(f, m, n):
        # f followed by a swap of two points of one fiber of n
        swap = list(range(sum(map(len, n.fibers))))
        for fib in n.fibers:
            if len(fib) > 1:
                swap[fib[0]], swap[fib[1]] = fib[1], fib[0]
                break
        return honest(tuple(swap[y] for y in f), m, n)

    monkeypatch.setattr(sco, "_push", twisted)
    rep = _failing_kinds((3, 2, 2, 2), {"counit-not-natural"})
    assert {"kind": "counit-not-natural",
            "f": {"x1": "x1", "x2": "x1"},
            "phi_m": {"x1": "c1", "x2": "c1"},
            "phi_n": {"x1": "c1", "x2": "c1"}} in rep["failures"]
    # a push that is no map over the base breaks the quotient map, which
    # raises, as the label path does
    monkeypatch.setattr(sco, "_push", lambda f, m, n: [
        (s + 1) % len(n.values) for s in honest(f, m, n)])
    with pytest.raises(errors.InvalidConstruction,
                       match="does not respect classes"):
        sco.equivalence_certificate(4, 2, 1, 4)


def test_generic_nu_mutant_fails(monkeypatch):
    honest = sco._nu

    def moved(sec):
        # on two fibers of two points (sections 2i + j, points 2s + a),
        # move the point (3, 0) from the class of (2, 0) into that of
        # (0, 0): no class loses its least point, so the quotient
        # carriers still coincide, but the partition differs
        nu = honest(sec)
        if (sec.nc, len(sec.values)) == (2, 4):
            for b0 in range(4):
                for b1 in range(4):
                    p = (4 * b0 + b1) * 2
                    if b0 == 3:
                        nu[p] = 0
                    elif nu[p] == 6:
                        nu[p] = 2 * b0
        return nu

    monkeypatch.setattr(sco, "_nu", moved)
    rep = _failing_kinds((4, 2, 1, 2), {"lr-routes-disagree", "triangle-R"})
    assert {"kind": "lr-routes-disagree",
            "phi": {"x1": "c1", "x2": "c1", "x3": "c2", "x4": "c2"}
            } in rep["failures"]
    # a nu that merges classes changes the generic carrier: the routes
    # disagree and the sections-side triangle fails, reported, not
    # raised; one that mixes base points breaks the quotient comodule,
    # and the certificate raises, as the label path does
    monkeypatch.setattr(sco, "_nu", lambda sec: [0] * len(honest(sec)))
    with pytest.raises(errors.InvalidConstruction,
                       match="must respect the base"):
        sco.equivalence_certificate(1, 2, 1, 1)
    rep = _failing_kinds((2, 1, 1, 1), {"lr-routes-disagree", "triangle-R"})
    assert {"kind": "lr-routes-disagree", "phi": {"x1": "c1", "x2": "c1"}
            } in rep["failures"]

    def split(sec):
        # nu = eta: nothing is identified, so every class splits
        count = len(sec.values)
        return [b * sec.nc + a
                for beta in itertools.product(range(count), repeat=sec.nc)
                for a, b in enumerate(beta)]

    monkeypatch.setattr(sco, "_nu", split)
    _failing_kinds((3, 2, 2, 2),
                   {"lr-routes-disagree", "triangle-R", "triangle-L"})


def test_explicit_mutant_breaks_the_counit(monkeypatch):
    # an explicit quotient that merges every (s, a) over one base point
    # leaves the counit no map on classes once a fiber has two points: the
    # certificate raises, under python -O too
    monkeypatch.setattr(sco, "_explicit", lambda sec: [
        p % sec.nc for p in range(len(sec.values) * sec.nc)])
    with pytest.raises(errors.InvalidConstruction,
                       match="counit must be constant on classes"):
        sco.equivalence_certificate(2, 1, 1, 1)


def test_unit_mutant_fails(monkeypatch):
    monkeypatch.setattr(sco, "_unit",
                        lambda count, nc, project, target: [0] * count)
    rep = _failing_kinds((3, 2, 2, 2), {"unit-not-bijective", "triangle-L",
                                        "triangle-R"})
    assert {"kind": "unit-not-bijective",
            "shape": {"c1": 1, "c2": 2}} in rep["failures"]


def test_quotient_map_mutant_fails(monkeypatch):
    honest = sco._quotient_map

    def collapsed(u, nc, src, dst):
        table = honest(u, nc, src, dst)
        first = table[min(table)]
        return {k: first for k in table}

    monkeypatch.setattr(sco, "_quotient_map", collapsed)
    _failing_kinds((3, 2, 2, 2), {"triangle-L", "counit-not-natural"})


def test_quotient_classes_lie_over_one_base_point():
    """Both maps that L_set coequalises keep the base point, so each class
    lies over one point and the projection commutes with the maps to the
    base, on every contramodule with up to three points over two."""
    for nx in (0, 1, 2, 3):
        carrier = FinSet([f"x{i}" for i in range(nx)])
        for t in sct.enumerate_all(carrier, C2):
            l, project = sco.l_set_with_projection(t)
            _, _, proj2 = finset.product(t.carrier, t.base)
            assert all(l.phi(project(y)) == proj2(y) for y in project.dom)
