import random

import pytest

from cocontra import coalg
from cocontra.coalg import instances as inst
from cocontra.errors import CoalgebraMismatch, IncompatibleTriple
from cocontra.exactlin import (
    GF,
    QQ,
    GradedVect,
    LinMap,
    compose,
    sub_maps,
    vec_to_linmap,
    zero_space,
)


F2 = GF(2)
Q = QQ()


def test_cofree_free_validate_on_random_instances():
    rng = random.Random(0)
    for _ in range(8):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        x = GradedVect(F2, {0: rng.randint(1, 3)}, prefix="x")
        assert coalg.validate(coalg.cofree(x, c))["ok"]
        assert coalg.validate(coalg.free(x, c))["ok"]


def test_cofree_of_unit_is_coalgebra_as_comodule():
    c = inst.group_like_coalgebra(F2, 2)
    from cocontra.exactlin import unit_space

    tx = coalg.cofree(unit_space(F2), c)
    assert tx.space.total_dim == c.space.total_dim


def test_dim_counts_for_cofree_and_free():
    c = inst.group_like_coalgebra(F2, 2)
    x = GradedVect(F2, {0: 2}, prefix="x")
    assert coalg.cofree(x, c).space.total_dim == 4
    assert coalg.free(x, c).space.total_dim == 4


def test_validate_reports_broken_counit():
    # primitive-style comultiplication with a wrong counit on purpose
    from cocontra.exactlin import LinMap, Matrix, tensor, unit_space

    space = GradedVect(Q, {0: 2}, labels={0: ("u", "z")})
    one = Q.one()
    delta = LinMap.from_images(
        space,
        tensor(space, space),
        0,
        {
            "u": {("t", "u", "u"): one},
            "z": {("t", "u", "z"): one, ("t", "z", "u"): one},
        },
    )
    eps = LinMap.from_images(
        space, unit_space(Q), 0,
        {"u": {"1": one}, "z": {"1": one}},  # z should have counit zero
    )
    c = coalg.Coalgebra(space, delta, eps)
    rep = coalg.validate_coalgebra(c)
    assert not rep["ok"]
    assert any(f["witness"] == "z" for f in rep["failures"])


def test_endo_hom_object_of_coalgebra_has_coalgebra_dim():
    for n in (1, 2, 3):
        c = inst.group_like_coalgebra(F2, n)
        cc = coalg.coalgebra_as_comodule(c)
        h = coalg.comodule_hom_object(cc, cc)
        assert h.space.total_dim == n


def test_endo_hom_object_of_free_rank_one():
    for n in (1, 2, 3):
        c = inst.group_like_coalgebra(F2, n)
        from cocontra.exactlin import unit_space

        fx = coalg.free(unit_space(F2), c)
        h = coalg.contra_hom_object(fx, fx)
        assert h.space.total_dim == n


def test_hom_object_of_zero_module_is_zero():
    c = inst.group_like_coalgebra(F2, 2)
    zero = coalg.VComodule(
        c, zero_space(F2),
        coalg.cofree(zero_space(F2), c).rho,
    )
    m = coalg.cofree(GradedVect(F2, {0: 1}, prefix="x"), c)
    h = coalg.comodule_hom_object(zero, m)
    assert h.space.total_dim == 0


def test_grouplike_hom_objects_are_grading_preserving_maps():
    c = inst.group_like_coalgebra(F2, 2)
    space = GradedVect(F2, {0: 2}, prefix="m")
    m = inst.grading_comodule(
        c, {"m0_0": "g0", "m0_1": "g1"}, space
    )
    h = coalg.comodule_hom_object(m, m)
    # only grading-preserving matrix units survive: the two diagonals
    assert h.space.total_dim == 2


def test_hom_objects_match_direct_solution_random():
    rng = random.Random(1)
    for _ in range(10):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        m = inst.random_comodule(c, rng, max_dim=3)
        n = inst.random_comodule(c, rng, max_dim=3)
        h = coalg.comodule_hom_object(m, n)
        units, kernel = coalg.comodule_maps_direct(m, n)
        assert coalg.same_degree_zero_subspace(h, units, kernel)
        p = inst.random_contramodule(c, rng, max_dim=3)
        q = inst.random_contramodule(c, rng, max_dim=3)
        hf = coalg.contra_hom_object(p, q)
        units_f, kernel_f = coalg.contra_maps_direct(p, q)
        assert coalg.same_degree_zero_subspace(hf, units_f, kernel_f)


def test_degree_zero_members_are_exactly_structure_maps():
    rng = random.Random(2)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    m = inst.random_comodule(c, rng, max_dim=2)
    n = inst.random_comodule(c, rng, max_dim=2)
    h = coalg.comodule_hom_object(m, n)
    for f in h.degree_zero_members():
        assert coalg.is_comodule_map(f, m, n)


def test_enriched_composition_closed_associative_unital():
    rng = random.Random(3)
    for _ in range(5):
        c = inst.random_coalgebra(F2, rng, max_dim=2)
        x = inst.random_comodule(c, rng, max_dim=2)
        y = inst.random_comodule(c, rng, max_dim=2)
        z = inst.random_comodule(c, rng, max_dim=2)
        hxy = coalg.comodule_hom_object(x, y)
        hyz = coalg.comodule_hom_object(y, z)
        hxz, comp = coalg.enriched_composition(hxy, hyz)
        # closure: every product of members is a member
        for _, _, lg in hyz.space.basis():
            for _, _, lf in hxy.space.basis():
                g = hyz.member_map(lg)
                f = hxy.member_map(lf)
                assert hxz.contains(compose(g, f))
                # the factored map computes the same composite
                via = vec_to_linmap(
                    compose(hxz.include, comp).apply_label(("t", lg, lf)),
                    x.space, z.space,
                )
                assert sub_maps(via, compose(g, f)).is_zero()
        # unitality through the identity element
        ident_coords = coalg.identity_element(
            coalg.comodule_hom_object(x, x)
        )
        assert ident_coords is not None
    # associativity is matrix associativity once closure holds: check on
    # one random triple of members explicitly
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    x = inst.random_comodule(c, rng, max_dim=2)
    hxx = coalg.comodule_hom_object(x, x)
    members = [hxx.member_map(lab) for _, _, lab in hxx.space.basis()]
    for f in members[:3]:
        for g in members[:3]:
            for h in members[:3]:
                assert sub_maps(
                    compose(h, compose(g, f)), compose(compose(h, g), f)
                ).is_zero()


@pytest.mark.parametrize("field", [F2, GF(3), Q], ids=["F2", "F3", "Q"])
def test_hom_object_members_round_trip(field):
    """Each basis label's member map is a member with that label's unit
    coordinates, in every degree; a degree-zero matrix unit is a member
    exactly when it is a structure map, and some are not."""
    rng = random.Random(f"hom-members-{field.name}")
    one = field.one()
    comodules = (coalg.comodule_hom_object, coalg.is_comodule_map)
    contramodules = (coalg.contra_hom_object, coalg.is_contramodule_map)
    c = inst.group_like_coalgebra(field, 2)
    x = GradedVect(field, {0: 1, 1: 1}, prefix="x")
    cases = [
        (comodules, coalg.cofree(x, c), coalg.cofree(x, c)),
        (contramodules, coalg.free(x, c), coalg.free(x, c)),
    ]
    for _ in range(3):
        c = inst.random_coalgebra(field, rng, max_dim=2)
        cases.append((comodules, inst.random_comodule(c, rng, 2),
                      inst.random_comodule(c, rng, 2)))
        cases.append((contramodules, inst.random_contramodule(c, rng, 2),
                      inst.random_contramodule(c, rng, 2)))
    seen = {"members": 0, "graded": 0, "rejected": 0}
    for (hom_object, is_map), src, dst in cases:
        hom = hom_object(src, dst)
        for k, _, lab in hom.space.basis():
            f = hom.member_map(lab)
            assert hom.coords_of(f) == {lab: one}
            assert hom.contains(f)
            seen["members"] += 1
            seen["graded"] += k != 0
        for k, _, (_, a, b) in hom.ambient.basis():
            if k != 0:
                continue
            unit = LinMap.from_images(src.space, dst.space, 0,
                                      {a: {b: one}})
            member = is_map(unit, src, dst)
            assert hom.contains(unit) is member
            assert (hom.coords_of(unit) is None) is not member
            seen["rejected"] += not member
    assert all(seen.values()), seen


def test_enriched_composition_contra_side():
    rng = random.Random(4)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    p = inst.random_contramodule(c, rng, max_dim=2)
    q = inst.random_contramodule(c, rng, max_dim=2)
    hpq = coalg.contra_hom_object(p, q)
    hqq = coalg.contra_hom_object(q, q)
    hpq2, comp = coalg.enriched_composition(hpq, hqq)
    assert hpq2.space.dims == coalg.contra_hom_object(p, q).space.dims


def test_mismatched_coalgebras_are_rejected():
    rng = random.Random(5)
    c1 = inst.group_like_coalgebra(F2, 2)
    c2 = inst.group_like_coalgebra(F2, 3)
    m1 = inst.random_comodule(c1, rng, max_dim=2)
    m2 = inst.random_comodule(c2, rng, max_dim=2)
    with pytest.raises(CoalgebraMismatch):
        coalg.comodule_hom_object(m1, m2)


def test_incompatible_triple_rejected():
    rng = random.Random(6)
    c = inst.group_like_coalgebra(F2, 2)
    m1 = coalg.cofree(GradedVect(F2, {0: 1}, prefix="a"), c)
    m2 = coalg.cofree(GradedVect(F2, {0: 2}, prefix="b"), c)
    h11 = coalg.comodule_hom_object(m1, m1)
    h22 = coalg.comodule_hom_object(m2, m2)
    with pytest.raises(IncompatibleTriple):
        coalg.enriched_composition(h11, h22)


def test_trivial_coalgebra_hom_objects_are_full_homs():
    # over the one-point coalgebra both equalisers are everything
    from cocontra.exactlin import hom_space

    c = inst.group_like_coalgebra(F2, 1)
    rng = random.Random(8)
    p = inst.random_contramodule(c, rng, max_dim=2)
    q = inst.random_contramodule(c, rng, max_dim=2)
    hf = coalg.contra_hom_object(p, q)
    assert hf.space.dims == hom_space(p.space, q.space).dims
    m = inst.random_comodule(c, rng, max_dim=2)
    n = inst.random_comodule(c, rng, max_dim=2)
    ht = coalg.comodule_hom_object(m, n)
    assert ht.space.dims == hom_space(m.space, n.space).dims


def test_rational_hom_objects_small():
    rng = random.Random(7)
    c = inst.random_coalgebra(Q, rng, max_dim=2)
    m = inst.random_comodule(c, rng, max_dim=2)
    n = inst.random_comodule(c, rng, max_dim=2)
    h = coalg.comodule_hom_object(m, n)
    units, kernel = coalg.comodule_maps_direct(m, n)
    assert coalg.same_degree_zero_subspace(h, units, kernel)
