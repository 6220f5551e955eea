from math import comb

import pytest

from cocontra import coalg, polycoalg as pcg
from cocontra.exactlin import (
    GF,
    QQ,
    GradedVect,
    LinMap,
    Matrix,
    compose,
    identity_map,
)
from paper_checks import (
    NotCounital,
    RelationFailure,
    comodule_from_family,
    comodule_to_contramodule,
    contramodule_from_family,
    divided_power_certificate,
    family_from_first,
    family_relations_hold,
    scale_map,
    unit_counit_iso_report,
    zero_map,
)


Q = QQ()
F2 = GF(2)


def nilpotent_shift(space, field):
    """e_{i+1} -> e_i, e_0 -> 0 on an ungraded space."""
    n = space.total_dim
    rows = tuple(
        tuple(field.one() if j == i + 1 else field.zero()
              for j in range(n))
        for i in range(n)
    )
    return LinMap(space, space, 0, {0: Matrix(field, rows, n)})


def test_build_validates_for_all_truncations_and_fields():
    for field in (Q, F2):
        for n in range(0, 7):
            for d in (0, 1):
                pc = pcg.build(n, d, field)
                assert coalg.validate_coalgebra(pc.underlying)["ok"]


def test_build_zero_truncation_is_trivial():
    pc = pcg.build(0, 0, Q)
    assert pc.space.total_dim == 1


def test_comultiplication_binomials():
    pc = pcg.build(2, 0, Q)
    img = dict(pc.underlying.delta.apply_label("z2").items())
    assert img[("t", "z1", "z1")] == Q.from_int(2)
    assert img[("t", "z0", "z2")] == Q.one()

    pc2 = pcg.build(2, 0, F2)
    img2 = dict(pc2.underlying.delta.apply_label("z2").items())
    assert ("t", "z1", "z1") not in img2  # the middle binomial vanishes


def test_comodule_from_divided_power_family():
    pc = pcg.build(2, 0, Q)
    v = GradedVect(Q, {0: 2})
    r1 = LinMap(v, v, 0, {0: Matrix(Q, [[0, 1], [0, 0]])})
    ops = [identity_map(v), r1, zero_map(v, v, 0)]
    m = comodule_from_family(pc, v, ops)
    assert coalg.validate(m)["ok"]
    p = contramodule_from_family(pc, v, ops)
    assert coalg.validate(p)["ok"]


def test_trivial_family_is_accepted():
    pc = pcg.build(3, 0, Q)
    v = GradedVect(Q, {0: 2})
    ops = [identity_map(v)] + [zero_map(v, v, 0)] * 3
    assert coalg.validate(comodule_from_family(pc, v, ops))["ok"]


def test_family_with_wrong_zeroth_is_not_counital():
    pc = pcg.build(1, 0, Q)
    v = GradedVect(Q, {0: 2})
    bad = [zero_map(v, v, 0), zero_map(v, v, 0)]
    with pytest.raises(NotCounital):
        comodule_from_family(pc, v, bad)


def test_relation_failure_witness():
    pc = pcg.build(2, 0, Q)
    v = GradedVect(Q, {0: 2})
    involution = LinMap(v, v, 0,
                        {0: Matrix(Q, [[0, 1], [1, 0]])})
    with pytest.raises(RelationFailure) as exc:
        comodule_from_family(
            pc, v, [identity_map(v), involution, zero_map(v, v, 0)]
        )
    assert exc.value.args[1] == (1, 1)


def test_nilpotency_past_truncation_is_enforced():
    # a shift of order 3 cannot fit a truncation at 1
    pc = pcg.build(1, 0, Q)
    v = GradedVect(Q, {0: 3})
    shift = nilpotent_shift(v, Q)
    with pytest.raises(RelationFailure):
        comodule_from_family(pc, v, [identity_map(v), shift])


def test_relations_iff_comodule_axioms():
    # for every family built from a shift with scalars, acceptance by the
    # relations agrees with acceptance by the axioms
    pc = pcg.build(2, 0, F2)
    v = GradedVect(F2, {0: 2})
    shift = nilpotent_shift(v, F2)
    from itertools import product as iproduct

    for a, b in iproduct(range(2), repeat=2):
        ops = [
            identity_map(v),
            scale_map(a, shift),
            scale_map(b, compose(shift, shift)),
        ]
        ok_rel, _ = family_relations_hold(pc, v, ops)
        # assemble by hand and validate the axioms independently
        from cocontra.exactlin import tensor

        cs = pc.space
        images = {}
        for _, _, lab in v.basis():
            coeffs = {}
            for k, op in enumerate(ops):
                for ylab, c in op.apply_label(lab).items():
                    coeffs[("t", ylab, f"z{k}")] = c
            images[lab] = coeffs
        rho = LinMap.from_images(v, tensor(v, cs), 0, images)
        m = coalg.VComodule(pc.underlying, v, rho)
        assert ok_rel == coalg.validate_comodule(m)["ok"]


def test_divided_power_certificate_passes_by_construction():
    pc = pcg.build(4, 0, Q)
    v = GradedVect(Q, {0: 4})
    shift = nilpotent_shift(v, Q)
    ops = family_from_first(pc, v, shift)
    m = comodule_from_family(pc, v, ops)
    assert coalg.validate(m)["ok"]
    cert = divided_power_certificate(pc, v, ops)
    assert cert["ok"], cert


def test_relations_force_divided_powers_over_q():
    # any family passing the relations passes the certificate, and any
    # family passing the certificate satisfies the relations
    pc = pcg.build(2, 0, Q)
    v = GradedVect(Q, {0: 2})
    shift = nilpotent_shift(v, Q)
    candidates = []
    for s in (0, 1):
        for t in (0, 1, 2):
            r1 = scale_map(Q.from_int(s), shift)
            r2 = scale_map(Q.div(t, 2), compose(r1, r1))
            candidates.append([identity_map(v), r1, r2])
    for ops in candidates:
        ok_rel, _ = family_relations_hold(pc, v, ops)
        ok_dp = divided_power_certificate(pc, v, ops)["ok"]
        assert ok_rel == ok_dp


def test_divided_power_rejects_prime_fields():
    pc = pcg.build(2, 0, F2)
    v = GradedVect(F2, {0: 2})
    with pytest.raises(ValueError):
        divided_power_certificate(
            pc, v, [identity_map(v)] * 3
        )


def test_graded_mode_families():
    pc = pcg.build(2, 1, Q)
    w = GradedVect(Q, {0: 1, 1: 1, 2: 1})
    blocks = {1: Matrix(Q, [[1]]), 2: Matrix(Q, [[1]])}
    r1 = LinMap(w, w, -1, blocks)
    ops = family_from_first(pc, w, r1)
    m = comodule_from_family(pc, w, ops)
    assert m.rho.degree == 0
    p = contramodule_from_family(pc, w, ops)
    assert p.theta.degree == 0


def test_same_family_through_both_constructors_and_the_bridge():
    pc = pcg.build(2, 0, Q)
    v = GradedVect(Q, {0: 2})
    shift = nilpotent_shift(v, Q)
    ops = family_from_first(pc, v, shift)
    m = comodule_from_family(pc, v, ops)
    p = contramodule_from_family(pc, v, ops)
    alg = coalg.dual_algebra(pc.underlying)
    collapsed = comodule_to_contramodule(m, alg)
    from cocontra.exactlin import sub_maps

    assert sub_maps(collapsed.theta, p.theta).is_zero()


def test_full_stack_on_graded_instances():
    # z in degree 1 produces hom objects with components in several
    # degrees; the whole correspondence must hold there too
    pc = pcg.build(2, 1, Q)
    w = GradedVect(Q, {0: 1, 1: 1, 2: 1})
    blocks = {1: Matrix(Q, [[1]]), 2: Matrix(Q, [[1]])}
    r1 = LinMap(w, w, -1, blocks)
    ops = family_from_first(pc, w, r1)
    m = comodule_from_family(pc, w, ops)
    p = contramodule_from_family(pc, w, ops)

    h = coalg.comodule_hom_object(m, m)
    assert h.space.dims == {-2: 1, -1: 1, 0: 1}
    units, kernel = coalg.comodule_maps_direct(m, m)
    assert coalg.same_degree_zero_subspace(h, units, kernel)
    hf = coalg.contra_hom_object(p, p)
    units_f, kernel_f = coalg.contra_maps_direct(p, p)
    assert coalg.same_degree_zero_subspace(hf, units_f, kernel_f)

    assert coalg.validate(coalg.functor_R(m))["ok"]
    assert coalg.validate(coalg.functor_L(p))["ok"]
    assert all(unit_counit_iso_report(p, m).values())
    assert coalg.adjunction_certificate(p, m)["ok"]
    assert coalg.triangle_identities(p, m)["ok"]
    assert coalg.kleisli_certificate(
        GradedVect(Q, {0: 1, 1: 1}, prefix="kk"), pc.underlying
    )["ok"]
    assert coalg.bridge_certificate(m, p)["ok"]


def test_functors_round_trip_on_poly_structures():
    pc = pcg.build(2, 0, Q)
    v = GradedVect(Q, {0: 2})
    shift = nilpotent_shift(v, Q)
    ops = family_from_first(pc, v, shift)
    m = comodule_from_family(pc, v, ops)
    p = contramodule_from_family(pc, v, ops)
    rep = unit_counit_iso_report(p, m)
    assert all(rep.values()), rep


def test_checks_on_poly_arguments_raise():
    """A negative truncation and divided powers over F2 raise ValueError,
    under python -O too."""
    with pytest.raises(ValueError, match="truncation must be at least 0"):
        pcg.build(-1, 0, Q)
    pc = pcg.build(2, 0, F2)
    v = GradedVect(F2, {0: 2})
    with pytest.raises(ValueError, match="rationals"):
        family_from_first(pc, v, nilpotent_shift(v, F2))
