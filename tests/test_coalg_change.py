import random

import pytest

from cocontra import coalg
from cocontra.coalg import instances as inst
from cocontra.errors import (CocontraError, CoalgebraMismatch,
                             InvalidImage, MismatchedSignature,
                             NotCoalgebraMorphism)
from cocontra.exactlin import (
    GF,
    QQ,
    GradedVect,
    LinMap,
    Matrix,
    compose,
    identity_map,
    sub_maps,
    tensor,
    unit_space,
)
from paper_checks import (
    all_linmaps,
    change_adjunction_certificate,
    coalgebra_as_left_comodule,
    comodule_to_contramodule,
    counit_contraction_iso,
    grading_comodule,
    module_maps_degree_zero,
    quotient_bridge_iso,
    sections_bridge_iso,
    validate_algebra,
)


F2 = GF(2)
Q = QQ()


def grouplike_inclusion(field, n_small, n_big):
    """The coalgebra morphism embedding fewer group-likes into more."""
    c = inst.group_like_coalgebra(field, n_small)
    chat = inst.group_like_coalgebra(field, n_big)
    blocks = {
        0: Matrix(
            field,
            tuple(
                tuple(
                    field.one() if i == j else field.zero()
                    for j in range(n_small)
                )
                for i in range(n_big)
            ),
            n_small,
        )
    }
    f = LinMap(c.space, chat.space, 0, blocks)
    assert coalg.is_coalgebra_morphism(f, c, chat)
    return f, c, chat


def test_cotensor_against_coalgebra_is_identity():
    rng = random.Random(0)
    for _ in range(5):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        m = inst.random_comodule(c, rng, max_dim=3)
        iso = counit_contraction_iso(m)
        assert iso.is_iso()


def test_cotensor_trivial_coalgebra_is_plain_tensor():
    c = inst.group_like_coalgebra(F2, 1)
    m = inst.random_comodule(c, random.Random(1), max_dim=2)
    n = coalgebra_as_left_comodule(c)
    sub = coalg.cotensor(m, n)
    assert sub.space.total_dim == m.space.total_dim * 1


def test_cotensor_grouplike_is_matching_blocks():
    c = inst.group_like_coalgebra(F2, 2)
    sm = GradedVect(F2, {0: 2}, prefix="m")
    sn = GradedVect(F2, {0: 2}, prefix="n")
    m = grading_comodule(c, {"m0_0": "g0", "m0_1": "g1"}, sm)
    n_right = grading_comodule(c, {"n0_0": "g0", "n0_1": "g1"}, sn)
    # reuse the grading as a left comodule through the braiding
    from cocontra.coalg.core import left_comodule_from_coaction
    from cocontra.exactlin import braiding

    lam = compose(braiding(sn, c.space), n_right.rho)
    n = left_comodule_from_coaction(c, sn, lam)
    sub = coalg.cotensor(m, n)
    # only matching group-like blocks survive: 1*1 + 1*1
    assert sub.space.total_dim == 2


def test_cohom_dims():
    rng = random.Random(2)
    c = inst.group_like_coalgebra(F2, 1)
    m = inst.random_comodule(c, rng, max_dim=2)
    p = inst.random_contramodule(c, rng, max_dim=2)
    quot = coalg.cohom(m, p)
    # trivial coalgebra: plain hom
    assert quot.space.total_dim == m.space.total_dim * p.space.total_dim


def test_cohom_of_cofree_unit():
    rng = random.Random(3)
    for _ in range(4):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        m = coalg.cofree(unit_space(F2), c)
        p = inst.random_contramodule(c, rng, max_dim=3)
        quot = coalg.cohom(m, p)
        assert quot.space.total_dim == p.space.total_dim


def test_restrict_validates_and_identity_morphism_is_noop():
    rng = random.Random(4)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    m = inst.random_comodule(c, rng, max_dim=2)
    p = inst.random_contramodule(c, rng, max_dim=2)
    ident = identity_map(c.space)
    assert sub_maps(
        coalg.restrict_comodule(ident, c, c, m).rho, m.rho
    ).is_zero()
    assert sub_maps(
        coalg.restrict_contramodule(ident, c, c, p).theta, p.theta
    ).is_zero()


def test_restrict_along_counit_gives_plain_space():
    rng = random.Random(5)
    c = inst.group_like_coalgebra(F2, 2)
    m = inst.random_comodule(c, rng, max_dim=2)
    trivial = inst.group_like_coalgebra(F2, 1)
    # the counit as a morphism to the one-point coalgebra
    f = LinMap(c.space, trivial.space, 0,
               {0: Matrix(F2, [[1, 1]])})
    assert coalg.is_coalgebra_morphism(f, c, trivial)
    out = coalg.restrict_comodule(f, c, trivial, m)
    assert coalg.validate(out)["ok"]


def test_not_coalgebra_morphism_rejected():
    c = inst.group_like_coalgebra(F2, 2)
    chat = inst.group_like_coalgebra(F2, 2)
    bad = LinMap(
        c.space, chat.space, 0,
        {0: Matrix(F2, [[1, 1], [0, 1]])},
    )
    with pytest.raises(NotCoalgebraMorphism):
        coalg.restrict_comodule(bad, c, chat,
                                coalg.cofree(unit_space(F2), c))


def test_objects_over_the_wrong_coalgebra_are_rejected():
    # raised errors, not asserts: they must survive python -O
    f, c, chat = grouplike_inclusion(F2, 1, 2)
    over_c = coalg.cofree(unit_space(F2), c)
    over_chat = coalg.cofree(unit_space(F2), chat)
    free_c = coalg.free(unit_space(F2), c)
    free_chat = coalg.free(unit_space(F2), chat)
    for fn, obj, end in (
        (coalg.restrict_comodule, over_chat, "domain"),
        (coalg.restrict_contramodule, free_chat, "domain"),
        (coalg.induce_comodule, over_c, "codomain"),
        (coalg.coinduce_contramodule, free_c, "codomain"),
    ):
        with pytest.raises(CoalgebraMismatch, match=f"the {end} coalgebra"):
            fn(f, c, chat, obj)


def test_cotensor_checks_the_sides():
    c = inst.group_like_coalgebra(F2, 2)
    right = coalg.cofree(unit_space(F2), c)
    left = coalgebra_as_left_comodule(c)
    assert coalg.cotensor(right, left).space.total_dim == 2
    with pytest.raises(CocontraError, match="right factor .* left comodule"):
        coalg.cotensor(right, right)
    with pytest.raises(CocontraError, match="left factor .* right comodule"):
        coalg.cotensor(left, left)
    with pytest.raises(CocontraError, match="must be a left comodule"):
        coalg.hom_of_contramodule(right, unit_space(F2))


def test_induce_comodule_grouplike_restriction_of_grading():
    f, c, chat = grouplike_inclusion(F2, 1, 2)
    m = inst.random_comodule(chat, random.Random(6), max_dim=2)
    out = coalg.induce_comodule(f, c, chat, m)
    assert coalg.validate(out)["ok"]


def test_coinduce_contramodule_validates():
    f, c, chat = grouplike_inclusion(F2, 1, 2)
    p = inst.random_contramodule(chat, random.Random(7), max_dim=2)
    out = coalg.coinduce_contramodule(f, c, chat, p)
    assert coalg.validate(out)["ok"]


def test_induction_along_identity_is_equivalence():
    rng = random.Random(8)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    ident = identity_map(c.space)
    m = inst.random_comodule(c, rng, max_dim=2)
    out = coalg.induce_comodule(ident, c, c, m)
    assert out.space.total_dim == m.space.total_dim
    p = inst.random_contramodule(c, rng, max_dim=2)
    outp = coalg.coinduce_contramodule(ident, c, c, p)
    assert outp.space.total_dim == p.space.total_dim


def test_induce_along_counit_to_trivial_is_cofree():
    # inducing from the one-point coalgebra builds the cofree comodule
    trivial = inst.group_like_coalgebra(F2, 1)
    c = inst.group_like_coalgebra(F2, 2)
    eps_mor = LinMap(
        c.space, trivial.space, 0,
        {0: Matrix(F2, [[1, 1]])},
    )
    assert coalg.is_coalgebra_morphism(eps_mor, c, trivial)
    x = GradedVect(F2, {0: 2}, prefix="x")
    m_triv = coalg.VComodule(trivial, x, _trivial_coaction(trivial, x))
    out = coalg.induce_comodule(eps_mor, c, trivial, m_triv)
    assert out.space.total_dim == x.total_dim * c.space.total_dim


def _trivial_coaction(trivial, x):
    from cocontra.exactlin import LinMap as LM

    one = x.field.one()
    images = {
        lab: {("t", lab, trivial.space.labels[0][0]): one}
        for _, _, lab in x.basis()
    }
    return LM.from_images(x, tensor(x, trivial.space), 0, images)


def test_change_adjunction_certificate():
    f, c, chat = grouplike_inclusion(F2, 2, 3)
    rng = random.Random(9)
    n = inst.random_comodule(c, rng, max_dim=2)
    m = inst.random_comodule(chat, rng, max_dim=2)
    q = inst.random_contramodule(c, rng, max_dim=2)
    p = inst.random_contramodule(chat, rng, max_dim=2)
    rep = change_adjunction_certificate(f, c, chat, n, m, p, q)
    assert rep["ok"], rep


def test_trifunctor_probe_produces_consistent_report():
    rng = random.Random(10)
    rows = []
    for _ in range(5):
        c = inst.random_coalgebra(F2, rng, max_dim=2)
        m = inst.random_comodule(c, rng, max_dim=2)
        n = coalgebra_as_left_comodule(c)
        x = GradedVect(F2, {0: rng.randint(1, 2)}, prefix="w")
        rep = coalg.trifunctor_probe(m, n, x)
        rows.append(rep)
        # internal consistency: if the candidate map descends and is an
        # iso then the dimensions must agree
        if rep.get("candidate_iso"):
            assert rep["dims_equal"]
    assert len(rows) == 5


def test_trifunctor_trivial_coalgebra():
    c = inst.group_like_coalgebra(F2, 1)
    rng = random.Random(11)
    m = inst.random_comodule(c, rng, max_dim=2)
    n = coalgebra_as_left_comodule(c)
    x = GradedVect(F2, {0: 2}, prefix="w")
    rep = coalg.trifunctor_probe(m, n, x)
    assert rep["dims_equal"]


# --- dual algebra bridge ------------------------------------------------------


def test_dual_algebra_of_grouplike_is_function_algebra():
    c = inst.group_like_coalgebra(F2, 3)
    alg = coalg.dual_algebra(c)
    assert validate_algebra(alg)["ok"]
    assert alg.space.total_dim == 3


def test_dual_algebra_trivial():
    c = inst.group_like_coalgebra(Q, 1)
    alg = coalg.dual_algebra(c)
    assert alg.space.total_dim == 1


def test_bridge_round_trips_random():
    rng = random.Random(12)
    for _ in range(6):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        m = inst.random_comodule(c, rng, max_dim=3)
        p = inst.random_contramodule(c, rng, max_dim=3)
        rep = coalg.bridge_certificate(m, p)
        assert rep["ok"], rep


def test_bridge_preserves_morphism_spaces():
    rng = random.Random(13)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    alg = coalg.dual_algebra(c)
    m = inst.random_comodule(c, rng, max_dim=2)
    n = inst.random_comodule(c, rng, max_dim=2)
    units, kernel = coalg.comodule_maps_direct(m, n)
    mu, mk = module_maps_degree_zero(
        coalg.comodule_to_module(m, alg), coalg.comodule_to_module(n, alg)
    )
    assert units == mu
    assert len(kernel) == len(mk)
    # same subspace, both ways
    from cocontra.exactlin import Matrix as Mx

    if units:
        a = Mx.from_columns(F2, kernel, len(units))
        b = Mx.from_columns(F2, mk, len(units))
        assert a.solve_matrix(b) is not None
        assert b.solve_matrix(a) is not None


def test_functors_commute_with_bridge_up_to_canonical_iso():
    rng = random.Random(14)
    for _ in range(5):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        m = inst.random_comodule(c, rng, max_dim=3)
        p = inst.random_contramodule(c, rng, max_dim=3)
        phi, sections, bridged_p = sections_bridge_iso(m)
        assert phi.is_iso()
        assert coalg.is_contramodule_map(phi, sections, bridged_p)
        psi, quotient, bridged_m = quotient_bridge_iso(p)
        assert psi.is_iso()
        assert coalg.is_comodule_map(psi, bridged_m, quotient)


def test_bridge_structure_bijective_exhaustively_tiny():
    # enumerate every coaction and every structure map on a 2-space over a
    # 2-dimensional coalgebra over F2 and match them through the bridge
    from cocontra.exactlin import hom_space

    c = inst.group_like_coalgebra(F2, 2)
    alg = coalg.dual_algebra(c)
    x = GradedVect(F2, {0: 2}, prefix="x")
    comodules = []
    for rho in all_linmaps(x, tensor(x, c.space)):
        m = coalg.VComodule(c, x, rho)
        if coalg.validate_comodule(m)["ok"]:
            comodules.append(m)
    contras = []
    for theta in all_linmaps(hom_space(c.space, x), x):
        p = coalg.VContramodule(c, x, theta)
        if coalg.validate_contramodule(p)["ok"]:
            contras.append(p)
    assert len(comodules) == len(contras) > 0
    seen = set()
    for m in comodules:
        p = comodule_to_contramodule(m, alg)
        assert coalg.validate_contramodule(p)["ok"]
        key = str(sorted(
            (str(k), str(p.theta.block(k).rows))
            for k in p.theta.dom.degrees()
        ))
        assert key not in seen
        seen.add(key)
        back = coalg.contramodule_to_comodule(p, alg)
        assert sub_maps(back.rho, m.rho).is_zero()


def test_bridge_builds_the_comodule_module_once(monkeypatch):
    from cocontra.coalg import bridge

    built = []
    build = bridge.comodule_to_module

    def counted(m, alg):
        built.append(m)
        return build(m, alg)

    monkeypatch.setattr(bridge, "comodule_to_module", counted)
    rng = random.Random(15)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    m = inst.random_comodule(c, rng, max_dim=2)
    p = inst.random_contramodule(c, rng, max_dim=2)
    assert coalg.bridge_certificate(m, p)["ok"]
    assert len(built) == 1
    phi, sections, bridged_p = sections_bridge_iso(m)
    assert coalg.is_contramodule_map(phi, sections, bridged_p)
    assert len(built) == 2


def test_checks_on_linear_arguments_raise():
    """Structure maps of the wrong signature, modules acting on different
    sides and a comodule that is no comodule are refused by raised
    errors, so the checks hold under python -O too."""
    c = inst.group_like_coalgebra(F2, 2)
    x = GradedVect(F2, {0: 1}, prefix="x")
    ix = identity_map(x)
    for build in (lambda: coalg.Coalgebra(c.space, identity_map(c.space),
                                          c.eps),
                  lambda: coalg.VComodule(c, x, ix),
                  lambda: coalg.VContramodule(c, x, ix),
                  lambda: coalg.left_comodule_from_coaction(c, x, ix)):
        with pytest.raises(MismatchedSignature):
            build()
    alg = coalg.dual_algebra(c)
    right = coalg.comodule_to_module(coalg.cofree(x, c), alg)
    left = coalg.contramodule_to_module(coalg.free(x, c), alg)
    with pytest.raises(MismatchedSignature, match="different sides"):
        module_maps_degree_zero(right, left)
    # a zero coaction: m cotensor C is not m
    broken = coalg.VComodule(c, x, LinMap(x, tensor(x, c.space), 0, {}))
    with pytest.raises(InvalidImage, match="m cotensor C is not m"):
        counit_contraction_iso(broken)
    with pytest.raises(ValueError, match="degree-0 isomorphism"):
        inst.inverse_map(LinMap(x, x, 0, {}))
