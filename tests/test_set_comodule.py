import pytest

from cocontra import finset, set_comodule as scm
from cocontra.errors import BaseMismatch
from cocontra.finset import FinMap, FinSet
from paper_checks import NotCounital, comodule_of


C2 = FinSet(["1", "2"])
X3 = FinSet(["a", "b", "c"])


def make(phi_table, carrier=X3, base=C2):
    return scm.SetComodule(carrier, base, FinMap(carrier, base, phi_table))


def test_comodule_of_reads_off_phi():
    prod, _, _ = finset.product(X3, C2)
    rho = FinMap(
        X3,
        prod,
        {"a": "(a,1)", "b": "(b,2)", "c": "(c,2)"},
    )
    m = comodule_of(rho, X3, C2)
    assert m.phi.table == {"a": "1", "b": "2", "c": "2"}
    # the phi form gives back the coaction it was read from
    assert m.rho() == rho


def test_comodule_of_constant_second_component():
    x = FinSet(["p", "q"])
    c = FinSet(["0"])
    prod, _, _ = finset.product(x, c)
    rho = FinMap(x, prod, {"p": "(p,0)", "q": "(q,0)"})
    m = comodule_of(rho, x, c)
    assert set(m.phi.table.values()) == {"0"}


def test_comodule_of_rejects_non_counital():
    prod, _, _ = finset.product(X3, C2)
    rho = FinMap(
        X3, prod, {"a": "(b,1)", "b": "(b,2)", "c": "(c,2)"}
    )
    with pytest.raises(NotCounital):
        comodule_of(rho, X3, C2)


def test_round_trip_phi_rho_phi():
    for phi in finset._all_maps(X3, C2):
        m = scm.SetComodule(X3, C2, phi)
        again = comodule_of(m.rho(), X3, C2)
        assert again == m


def test_fibers():
    m = make({"a": "1", "b": "2", "c": "2"})
    fam = scm.fibers(m)
    assert fam["1"].elements == ("a",)
    assert fam["2"].elements == ("b", "c")

    degenerate = scm.SetComodule(
        FinSet(["a"]), C2, FinMap(FinSet(["a"]), C2, {"a": "1"})
    )
    assert scm.fibers(degenerate)["2"].elements == ()

    empty = scm.SetComodule(
        finset.EMPTY, C2, FinMap(finset.EMPTY, C2, {})
    )
    assert all(len(v) == 0 for v in scm.fibers(empty).values())


def test_is_degenerate():
    assert not scm.is_degenerate(make({"a": "1", "b": "2", "c": "2"}))
    one = FinSet(["a"])
    assert scm.is_degenerate(
        scm.SetComodule(one, C2, FinMap(one, C2, {"a": "1"}))
    )
    over_empty = scm.SetComodule(
        finset.EMPTY, finset.EMPTY, FinMap(finset.EMPTY, finset.EMPTY, {})
    )
    assert not scm.is_degenerate(over_empty)


def test_hom_over_contains_identity():
    m = make({"a": "1", "b": "2", "c": "2"})
    hom = scm.hom_over(m, m)
    assert finset.encode_map(finset.identity(X3)) in hom.members


def test_hom_over_fiberwise_count():
    x = FinSet(["x1", "x2", "x3"])
    y = FinSet(["y1", "y2", "y3"])
    m = scm.SetComodule(x, C2, FinMap(x, C2, {"x1": "1", "x2": "2", "x3": "2"}))
    n = scm.SetComodule(y, C2, FinMap(y, C2, {"y1": "1", "y2": "1", "y3": "2"}))
    hom = scm.hom_over(m, n)
    # oracle: the product over the base of |fiber(n)|^|fiber(m)|
    expected = 1
    fm, fn = scm.fibers(m), scm.fibers(n)
    for a in C2:
        expected *= len(fn[a]) ** len(fm[a])
    assert len(hom.members) == expected == 2


def test_hom_over_empty_when_target_misses_base_point():
    m = make({"a": "1", "b": "2", "c": "2"})
    one = FinSet(["y"])
    n = scm.SetComodule(one, C2, FinMap(one, C2, {"y": "1"}))
    assert len(scm.hom_over(m, n).members) == 0
    with pytest.raises(BaseMismatch):
        scm.hom_over(m, scm.SetComodule(one, FinSet(["z"]),
                                        FinMap(one, FinSet(["z"]), {"y": "z"})))


def test_hom_over_matches_generic_equalizer():
    for nx in range(0, 4):
        x = FinSet([f"x{i}" for i in range(nx)])
        for ny in range(0, 4):
            y = FinSet([f"y{i}" for i in range(ny)])
            for nc in (1, 2, 3):
                c = FinSet([f"c{i}" for i in range(nc)])
                for phi_m in finset._all_maps(x, c):
                    for phi_n in finset._all_maps(y, c):
                        m = scm.SetComodule(x, c, phi_m)
                        n = scm.SetComodule(y, c, phi_n)
                        direct = scm.hom_over(m, n)
                        generic = scm.hom_over_generic(m, n)
                        assert direct.members == generic.members


def test_restrict_along():
    m = make({"a": "1", "b": "2", "c": "2"})
    assert scm.restrict_along(finset.identity(C2), m) == m

    collapse = finset.constant(C2, finset.POINT, "*")
    r = scm.restrict_along(collapse, m)
    assert set(r.phi.table.values()) == {"*"}

    c3 = FinSet(["1", "2", "3"])
    target = FinSet(["x", "y"])
    f = FinMap(c3, target, {"1": "x", "2": "x", "3": "y"})
    m3 = scm.SetComodule(c3, c3, finset.identity(c3))
    assert scm.restrict_along(f, m3).phi.table == {
        "1": "x", "2": "x", "3": "y"
    }


def test_induce_along():
    p = make({"a": "1", "b": "2", "c": "2"})
    same = scm.induce_along(finset.identity(C2), p)
    assert len(same.carrier) == len(p.carrier)

    uv = FinSet(["u", "v"])
    over_point = scm.SetComodule(
        uv, finset.POINT, finset.constant(uv, finset.POINT, "*")
    )
    f = finset.constant(C2, finset.POINT, "*")
    ind = scm.induce_along(f, over_point)
    assert set(ind.carrier.elements) == {
        "(u,1)", "(u,2)", "(v,1)", "(v,2)"
    }
    assert ind.phi("(u,1)") == "1"


def test_restrict_induce_adjunction_bijection():
    # |hom_chat(Res m, p)| == |hom_c(m, Ind p)| on small instances
    c = FinSet(["1", "2"])
    chat = FinSet(["x", "y"])
    for f in finset._all_maps(c, chat):
        for nx in range(0, 3):
            x = FinSet([f"m{i}" for i in range(nx)])
            for phim in finset._all_maps(x, c):
                m = scm.SetComodule(x, c, phim)
                for ny in range(0, 3):
                    y = FinSet([f"p{i}" for i in range(ny)])
                    for phip in finset._all_maps(y, chat):
                        p = scm.SetComodule(y, chat, phip)
                        lhs = scm.hom_over(scm.restrict_along(f, m), p)
                        rhs = scm.hom_over(m, scm.induce_along(f, p))
                        assert len(lhs.members) == len(rhs.members)


def test_restrict_induce_explicit_natural_bijection():
    # the bijection sends g to x -> (g(x), phi(x)); check it lands in the
    # right hom set, is bijective, and is natural in the comodule argument
    c = FinSet(["1", "2"])
    chat = FinSet(["x", "y"])
    f = FinMap(c, chat, {"1": "x", "2": "x"})
    xset = FinSet(["m1", "m2"])
    yset = FinSet(["p1", "p2", "p3"])

    def transpose(g, m, p, ind):
        table = {
            v: finset.pair_label(g(v), m.phi(v)) for v in m.carrier
        }
        return FinMap(m.carrier, ind.carrier, table)

    for phim in finset._all_maps(xset, c):
        m = scm.SetComodule(xset, c, phim)
        for phip in finset._all_maps(yset, chat):
            p = scm.SetComodule(yset, chat, phip)
            ind = scm.induce_along(f, p)
            lhs = scm.hom_over(scm.restrict_along(f, m), p)
            rhs = scm.hom_over(m, ind)
            maps = finset.function_table(xset, yset)
            image = set()
            for label in lhs.members:
                g = maps[label]
                t = transpose(g, m, p, ind)
                assert finset.encode_map(t) in rhs.members
                image.add(finset.encode_map(t))
            assert len(image) == len(lhs.members) == len(rhs.members)
            # naturality in m: transposing after precomposition equals
            # postcomposing the transpose
            for phim2 in list(finset._all_maps(xset, c))[:2]:
                m2 = scm.SetComodule(xset, c, phim2)
                for hlabel in scm.hom_over(m2, m).members.elements[:2]:
                    h = finset.function_table(xset, xset)[hlabel]
                    for label in lhs.members:
                        g = maps[label]
                        t1 = transpose(
                            finset.compose(g, h), m2, p,
                            scm.induce_along(f, p),
                        )
                        t2 = finset.compose(transpose(g, m, p, ind), h)
                        assert t1 == t2


def test_unique_comonoid_certificate():
    for n, candidates in ((1, 1), (2, 16), (3, 729)):
        c = FinSet([f"c{i}" for i in range(n)])
        rep = scm.unique_comonoid_certificate(c)
        assert rep["candidates"] == candidates
        assert rep["valid"] == 1
        assert rep["valid_is_diagonal"]
        assert rep["coassociative"]


def _reference_comonoid_report(c):
    """Brute-force reference: every map c -> c x c is built, and both
    projections composed with it are compared with the identity."""
    prod, proj1, proj2 = finset.product(c, c)
    ident = finset.identity(c)
    candidates = 0
    valid = []
    for psi in finset._all_maps(c, prod):
        candidates += 1
        if (finset.compose(proj1, psi) == ident
                and finset.compose(proj2, psi) == ident):
            valid.append(psi)
    report = {
        "base": list(c.elements),
        "candidates": candidates,
        "valid": len(valid),
        "valid_is_diagonal": (len(valid) == 1
                              and valid[0] == scm.SetComonoid(c).diagonal()),
    }
    if valid:
        report["coassociative"] = scm._is_coassociative(c, valid[0])
    return report


@pytest.mark.parametrize("labels", [
    [], ["c0"], ["c0", "c1"], ["c0", "c1", "c2"], ["z", "a1", "b"],
    ["c0", "c1", "c2", "c3"],
])
def test_unique_comonoid_matches_reference_loop(labels):
    c = FinSet(labels)
    rep = scm.unique_comonoid_certificate(c)
    ref = _reference_comonoid_report(c)
    assert rep == ref and list(rep) == list(ref)


def test_unique_comonoid_size_four():
    rep = scm.unique_comonoid_certificate(FinSet([f"c{i}" for i in range(4)]))
    assert rep["candidates"] == 65536
    assert rep["valid"] == 1
    assert rep["valid_is_diagonal"] and rep["coassociative"]
