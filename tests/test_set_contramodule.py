import pytest

from cocontra import finset, set_contramodule as sct
from cocontra.errors import (
    BaseMismatch,
    Budget,
    BudgetExceeded,
    EmptyCarrier,
    EmptyFiber,
)
from cocontra.finset import FinMap, FinSet


C2 = FinSet(["1", "2"])


def two_by_two():
    """Product of {p,q} and {r,s}: the pick-your-slot structure."""
    return sct.product_contra(
        C2, {"1": FinSet(["p", "q"]), "2": FinSet(["r", "s"])}
    )


def test_product_contra_carrier_and_theta():
    t = two_by_two()
    assert len(t.carrier) == 4
    # theta((y1,y2),(z1,z2)) = (y1,z2): slot 1 from the first argument,
    # slot 2 from the second
    y = "{1:p,2:r}"
    z = "{1:q,2:s}"
    beta = FinMap(C2, t.carrier, {"1": y, "2": z})
    assert t.theta_value(beta) == "{1:p,2:s}"


def test_product_contra_rejects_empty_fiber():
    with pytest.raises(EmptyFiber):
        sct.product_contra(
            C2, {"1": FinSet(["p"]), "2": finset.EMPTY}
        )


def test_product_contra_singletons_give_point():
    t = sct.product_contra(
        C2, {"1": FinSet(["p"]), "2": FinSet(["r"])}
    )
    assert len(t.carrier) == 1


def test_validate_paper_style_product():
    t = sct.to_extensional(two_by_two())
    rep = sct.validate(t)
    assert rep["ok"] and rep["contraunital"] and rep["row_diagonal"]
    assert rep["checked_matrices"] == 4 ** 4


def test_validate_projection_is_valid():
    x = FinSet(["a", "b", "c"])
    ambient = finset.function_space(C2, x)
    # first-argument projection: theta(beta) = beta(1)
    table = {
        lab: finset.decode_map(lab, C2, x)("1") for lab in ambient
    }
    t = sct.ContraTable(x, C2, theta=FinMap(ambient, x, table))
    assert sct.validate(t)["ok"]


def test_validate_catches_broken_binary_operation():
    x = FinSet(["a", "b"])
    ambient = finset.function_space(C2, x)

    def op(u, v):
        # not a projection: "and"-like table, fails the row-diagonal law
        return "a" if (u, v) == ("a", "a") else "b"

    table = {}
    for lab in ambient:
        beta = finset.decode_map(lab, C2, x)
        table[lab] = op(beta("1"), beta("2"))
    # contraunitality fails here already (op(b,b)=b holds, op(a,a)=a holds),
    # so craft the violation in the row-diagonal instead
    t = sct.ContraTable(x, C2, theta=FinMap(ambient, x, table))
    rep = sct.validate(t)
    assert not rep["ok"]
    assert rep["witness"] is not None


def test_validate_budget_exceeded_reports_projected_count():
    x = FinSet([f"x{i}" for i in range(3)])
    t = sct.to_extensional(
        sct.product_contra(
            C2, {"1": FinSet(["x0"]), "2": FinSet(["x1", "x2"])}
        ),
    )
    # carrier size 2: 2^(2*2) = 16 matrices; force a tiny budget
    with pytest.raises(BudgetExceeded) as exc:
        sct.validate(t, Budget(3))
    assert exc.value.projected == 16


def test_enumerate_counts():
    for nx, expected in ((1, 1), (2, 2), (3, 2)):
        x = FinSet([f"x{i}" for i in range(nx)])
        tables = sct.enumerate_all(x, C2)
        assert len(tables) == expected
        assert expected == sct.count_product_structures(x, C2)


def test_enumerate_two_gives_the_two_projections():
    x = FinSet(["a", "b"])
    tables = sct.enumerate_all(x, C2)
    projections = set()
    for t in tables:
        beta = FinMap(C2, x, {"1": "a", "2": "b"})
        projections.add(t.theta_value(beta))
    assert projections == {"a", "b"}


def test_enumerate_budget():
    x = FinSet(["a", "b", "c"])
    with pytest.raises(BudgetExceeded) as exc:
        sct.enumerate_all(x, C2, Budget(100))
    assert exc.value.projected == 3 ** 9


def test_decompose_round_trips_product():
    t = sct.to_extensional(two_by_two())
    for u in t.carrier:
        family, pi, sigma = sct.decompose(t, u)
        assert sorted(len(v) for v in family.values()) == [2, 2]
        # mutually inverse is asserted inside decompose; check the
        # projection is a contramodule map onto the fiber product
        prod = sct.product_contra(t.base, family)
        assert sct.is_contramodule_map(pi, t, prod)


def test_decompose_singleton_base():
    c1 = FinSet(["0"])
    x = FinSet(["a", "b"])
    t = sct.product_contra(c1, {"0": x})
    te = sct.to_extensional(t)
    family, pi, sigma = sct.decompose(te, te.carrier.elements[0])
    assert len(family["0"]) == len(x)


def test_decompose_empty_carrier_is_distinguished():
    t = sct.empty_contramodule(C2)
    with pytest.raises(EmptyCarrier):
        sct.decompose(t, "anything")


def test_decompose_fibers_independent_of_base_point():
    x = FinSet(["a", "b", "c"])
    for t in sct.enumerate_all(x, C2):
        shapes = set()
        for u in t.carrier:
            family, _, _ = sct.decompose(t, u)
            shapes.add(
                tuple(sorted(len(family[a]) for a in t.base))
            )
        assert len(shapes) == 1


def test_projection_identities_for_every_enumerated_table():
    # pi_a pi_a = pi_a, pi_a pi_b = const u (a != b),
    # pi_a(theta(beta)) = pi_a(beta(a))
    x = FinSet(["a", "b", "c"])
    for t in sct.enumerate_all(x, C2):
        for u in t.carrier:
            pis = {a: sct.pi_map(t, u, a) for a in t.base}
            for a in t.base:
                assert finset.compose(pis[a], pis[a]) == pis[a]
                for b in t.base:
                    if a != b:
                        assert finset.compose(pis[a], pis[b]) == \
                            finset.constant(t.carrier, t.carrier, u)
            for beta in finset._all_maps(t.base, t.carrier):
                tv = t.theta_value(beta)
                for a in t.base:
                    assert pis[a](tv) == pis[a](beta(a))


def test_contra_hom_contains_identity():
    t = two_by_two()
    members = sct.contra_hom_members(t, t)
    assert finset.identity(t.carrier) in members


def test_contra_hom_fiberwise_count():
    s = sct.product_contra(
        C2, {"1": FinSet(["a", "b"]), "2": FinSet(["c"])}
    )
    t = sct.product_contra(
        C2, {"1": FinSet(["x"]), "2": FinSet(["y", "z"])}
    )
    members = sct.contra_hom_members(s, t)
    assert len(members) == 1 ** 2 * 2 ** 1 == 2
    sub = sct.contra_hom(s, t)
    assert len(sub.members) == 2


def test_contra_hom_from_empty_is_single():
    t = sct.empty_contramodule(C2)
    s = two_by_two()
    assert len(sct.contra_hom_members(t, s)) == 1
    assert len(sct.contra_hom_members(s, t)) == 0


def test_contra_hom_matches_definition_oracle():
    small = [
        sct.product_contra(C2, {"1": FinSet(["a"]), "2": FinSet(["b", "c"])}),
        sct.product_contra(C2, {"1": FinSet(["a", "b"]), "2": FinSet(["c"])}),
        sct.product_contra(C2, {"1": FinSet(["a"]), "2": FinSet(["b"])}),
    ]
    for s in small:
        for t in small:
            se, te = sct.to_extensional(s), sct.to_extensional(t)
            direct = {
                finset.encode_map(f) for f in sct.contra_hom_members(se, te)
            }
            oracle = {
                finset.encode_map(f)
                for f in sct.contra_hom_by_definition(se, te)
            }
            assert direct == oracle


def test_contra_hom_base_mismatch():
    t = two_by_two()
    other = sct.product_contra(
        FinSet(["x"]), {"x": FinSet(["a"])}
    )
    with pytest.raises(BaseMismatch):
        sct.contra_hom_members(t, other)


def test_restrict_identity_and_collapse():
    t = two_by_two()
    r_id = sct.restrict_contra(finset.identity(C2), t)
    assert {a: v.elements for a, v in r_id.fibers.items()} == {
        "1": ("{1:p}", "{1:q}"),
        "2": ("{2:r}", "{2:s}"),
    }
    collapse = finset.constant(C2, finset.POINT, "*")
    r = sct.restrict_contra(collapse, t)
    assert len(r.fibers["*"]) == 4  # the whole product in one fiber


def test_restrict_injective_nonsurjective_gives_singletons():
    c1 = FinSet(["1"])
    t = sct.product_contra(c1, {"1": FinSet(["p", "q"])})
    f = FinMap(c1, C2, {"1": "1"})
    r = sct.restrict_contra(f, t)
    assert len(r.fibers["1"]) == 2
    assert len(r.fibers["2"]) == 1  # empty preimage gives a singleton


def test_restrict_forms_agree_elementwise():
    t = two_by_two()
    for f in finset._all_maps(C2, FinSet(["x", "y"])):
        assert sct.restrict_forms_agree(f, t)
    assert sct.restrict_forms_agree(
        finset.constant(C2, finset.POINT, "*"), t
    )


def test_induce_examples():
    t = two_by_two()
    same = sct.induce_contra(finset.identity(C2), t)
    assert same.fibers == t.fibers

    const = finset.constant(C2, finset.POINT, "*")
    point_t = sct.product_contra(
        finset.POINT, {"*": FinSet(["u", "v"])}
    )
    ind = sct.induce_contra(const, point_t)
    assert all(v.elements == ("u", "v") for v in ind.fibers.values())

    empty = sct.empty_contramodule(C2)
    f = finset.identity(C2)
    assert sct.induce_contra(f, empty).is_empty()


def test_induce_surjective_agrees_with_quotient_section_route():
    from cocontra import set_comodule as scm
    from cocontra import set_correspondence as sco

    surj = finset.constant(C2, finset.POINT, "*")
    t = sct.product_contra(finset.POINT, {"*": FinSet(["u", "v"])})
    direct = sct.induce_contra(surj, t)
    composite = sco.R_set(
        scm.induce_along(surj, sco.L_set(t))
    )
    assert sorted(len(v) for v in direct.fibers.values()) == sorted(
        len(v) for v in composite.fibers.values()
    )
    # explicit per-fiber bijection: v  <->  ((v,*),z)
    for z in C2:
        for v in t.fibers["*"]:
            lifted = finset.pair_label(finset.pair_label(v, "*"), z)
            assert lifted in composite.fibers[z]


def test_noncocontinuity_demo():
    rep2 = sct.noncocontinuity_demo(C2)
    assert (
        rep2["quotient_after_function_space"],
        rep2["function_space_of_quotient"],
    ) == (3, 1)
    rep3 = sct.noncocontinuity_demo(FinSet(["1", "2", "3"]))
    assert (
        rep3["quotient_after_function_space"],
        rep3["function_space_of_quotient"],
    ) == (7, 1)
    rep1 = sct.noncocontinuity_demo(FinSet(["1"]))
    assert rep1["cocontinuous_here"]


def test_induction_adjunction_small():
    c = FinSet(["1", "2"])
    chat = FinSet(["x"])
    f = finset.constant(c, chat, "x")
    rep = sct.induction_adjunction_certificate(f, fiber_bound=2)
    assert rep["ok"]
    assert rep["pairs"] > 0 and rep["naturality_squares"] > 0


def test_component_calculus_matches_carrier_maps():
    # the slotwise representation used by the certificate agrees with
    # honest carrier-level maps on all small bases
    c = FinSet(["1", "2"])
    chat = FinSet(["x", "y"])
    for f in finset._all_maps(c, chat):
        for t in sct.all_product_shapes(chat, 2):
            ind_t = sct.induce_contra(f, t)
            for s in sct.all_product_shapes(c, 2):
                members = sct.contra_hom_members(ind_t, s)
                for u in members:
                    v = sct.transpose_hom(f, t, s, u)
                    comps_u = sct.contra_components(u, ind_t, s)
                    comp_v = sct._transpose_components(
                        f, t, {z: dict(m.table)
                               for z, m in comps_u.items()}
                    )
                    res_s = sct.restrict_contra(f, s)
                    rebuilt = sct._product_map(
                        t,
                        res_s,
                        {
                            y: FinMap(
                                t.fibers[y], res_s.fibers[y], comp_v[y]
                            )
                            for y in chat
                        },
                    )
                    assert rebuilt == v
