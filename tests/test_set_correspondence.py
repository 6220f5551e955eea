import hashlib

from cocontra import finset, serialize, set_comodule as scm
from cocontra import set_contramodule as sct
from cocontra import set_correspondence as sco
from cocontra.finset import FinMap, FinSet


C2 = FinSet(["1", "2"])


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
    ss = sco.section_set(m)
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
    assert l.phi.is_bijective()


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
            assert sco.lr_routes_agree(m)


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
    assert eps.is_bijective()
    assert sco.counit_is_comodule_map(m)

    degenerate = comodule({"a": "1"}, FinSet(["a"]))
    eps_d = sco.counit(degenerate)
    assert not eps_d.is_surjective()


def test_counit_on_identity_comodule():
    m = scm.SetComodule(C2, C2, finset.identity(C2))
    assert sco.counit(m).is_bijective()


def test_unit_bijective_for_products():
    t = sct.product_contra(
        C2, {"1": FinSet(["p", "q"]), "2": FinSet(["r", "s"])}
    )
    eta = sco.unit(t)
    assert eta.is_bijective()
    assert sco.unit_is_contramodule_map(t)

    point = sct.product_contra(C2, {"1": FinSet(["u"]), "2": FinSet(["v"])})
    assert sco.unit(point).is_bijective()


def test_unit_of_empty_contramodule():
    t = sct.empty_contramodule(C2)
    eta = sco.unit(t)
    assert len(eta.dom) == 0 and len(eta.cod) == 0


def test_triangle_identities_on_samples():
    x = FinSet(["a", "b", "c"])
    m = comodule({"a": "1", "b": "2", "c": "2"}, x)
    assert sco.triangle_identities_hold(m)
    t = sct.product_contra(
        C2, {"1": FinSet(["p", "q"]), "2": FinSet(["r"])}
    )
    assert sco.triangle_identities_hold_l(t)


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
                lu = sco.L_mor(u, se, te)
                rls = sco.R_set(sco.L_set(se))
                rlt = sco.R_set(sco.L_set(te))
                rlu = sco.R_mor(
                    lu, sco.L_set(se), sco.L_set(te)
                )
                lhs = finset.compose(rlu, eta_s)
                rhs = finset.compose(eta_t, u)
                assert lhs == rhs
