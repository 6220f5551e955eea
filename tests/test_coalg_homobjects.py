import random
import sys
from dataclasses import replace

import pytest

from cocontra import cli, coalg, polycoalg, serialize
from cocontra.coalg import instances as inst
from cocontra.errors import CoalgebraMismatch, MismatchedSignature
from cocontra.exactlin import (
    GF,
    QQ,
    GradedVect,
    LinMap,
    Matrix,
    compose,
    hom_map,
    hom_space,
    identity_map,
    sub_maps,
    tensor,
    tensor_map,
)
from paper_checks import (
    IncompatibleTriple,
    assoc,
    coalgebra_as_left_comodule,
    coords_of,
    enriched_composition,
    grading_comodule,
    identity_element,
    linmap_to_vec,
    module_maps_degree_zero,
    vec_to_linmap,
)


F2 = GF(2)
Q = QQ()


def member_map(hobj, label):
    """The honest linear map behind a basis label of a hom object."""
    return vec_to_linmap(hobj.include.apply_label(label), hobj.src.space,
                         hobj.dst.space)


def test_cofree_free_validate_on_random_instances():
    rng = random.Random(0)
    for _ in range(8):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        x = GradedVect(F2, {0: rng.randint(1, 3)}, prefix="x")
        assert coalg.validate(coalg.cofree(x, c))["ok"]
        assert coalg.validate(coalg.free(x, c))["ok"]


@pytest.mark.parametrize("field", [Q, F2, GF(3)], ids=["Q", "F2", "F3"])
def test_seeded_instances_validate(field):
    """The generators build valid structures by construction and do not
    validate them: group-like coalgebras, their random conjugates,
    transported comodules and contramodules, and gradings."""
    rng = random.Random(7)
    for n in range(4):
        assert coalg.validate(inst.group_like_coalgebra(field, n))["ok"]
    for _ in range(6):
        c = inst.random_coalgebra(field, rng, max_dim=3)
        assert coalg.validate(c)["ok"]
        assert coalg.validate(inst.random_comodule(c, rng, 3))["ok"]
        assert coalg.validate(inst.random_contramodule(c, rng, 3))["ok"]
    g = inst.group_like_coalgebra(field, 2)
    x = GradedVect(field, {0: 3}, prefix="x")
    grading = grading_comodule(
        g, {"x0_0": "g1", "x0_1": "g0", "x0_2": "g1"}, x)
    assert coalg.validate(grading)["ok"]


def test_oracle_units_must_be_the_ambient_basis():
    c = inst.group_like_coalgebra(F2, 2)
    m = coalg.cofree(GradedVect(F2, {0: 1}, prefix="x"), c)
    h = coalg.comodule_hom_object(m, m)
    units, kernel = coalg.comodule_maps_direct(m, m)
    with pytest.raises(MismatchedSignature):
        coalg.same_degree_zero_subspace(h, units[::-1], kernel)


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
        c, GradedVect(F2, {}),
        coalg.cofree(GradedVect(F2, {}), c).rho,
    )
    m = coalg.cofree(GradedVect(F2, {0: 1}, prefix="x"), c)
    h = coalg.comodule_hom_object(zero, m)
    assert h.space.total_dim == 0


def test_grouplike_hom_objects_are_grading_preserving_maps():
    c = inst.group_like_coalgebra(F2, 2)
    space = GradedVect(F2, {0: 2}, prefix="m")
    m = grading_comodule(
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
    for k, _, lab in h.space.basis():
        if k == 0:
            assert coalg.is_comodule_map(member_map(h, lab), m, n)


def test_enriched_composition_closed_associative_unital():
    rng = random.Random(3)
    for _ in range(5):
        c = inst.random_coalgebra(F2, rng, max_dim=2)
        x = inst.random_comodule(c, rng, max_dim=2)
        y = inst.random_comodule(c, rng, max_dim=2)
        z = inst.random_comodule(c, rng, max_dim=2)
        hxy = coalg.comodule_hom_object(x, y)
        hyz = coalg.comodule_hom_object(y, z)
        hxz, comp = enriched_composition(hxy, hyz)
        # closure: every product of members is a member
        for _, _, lg in hyz.space.basis():
            for _, _, lf in hxy.space.basis():
                g = member_map(hyz, lg)
                f = member_map(hxy, lf)
                assert coords_of(hxz, compose(g, f)) is not None
                # the factored map computes the same composite
                via = vec_to_linmap(
                    compose(hxz.include, comp).apply_label(("t", lg, lf)),
                    x.space, z.space,
                )
                assert sub_maps(via, compose(g, f)).is_zero()
        # unitality through the identity element
        ident_coords = identity_element(
            coalg.comodule_hom_object(x, x)
        )
        assert ident_coords is not None
    # associativity is matrix associativity once closure holds: check on
    # one random triple of members explicitly
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    x = inst.random_comodule(c, rng, max_dim=2)
    hxx = coalg.comodule_hom_object(x, x)
    members = [member_map(hxx, lab) for _, _, lab in hxx.space.basis()]
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
            f = member_map(hom, lab)
            assert coords_of(hom, f) == {lab: one}
            seen["members"] += 1
            seen["graded"] += k != 0
        for k, _, (_, a, b) in hom.ambient.basis():
            if k != 0:
                continue
            unit = LinMap.from_images(src.space, dst.space, 0,
                                      {a: {b: one}})
            member = is_map(unit, src, dst)
            assert (coords_of(hom, unit) is None) is not member
            seen["rejected"] += not member
    assert all(seen.values()), seen


def test_enriched_composition_contra_side():
    rng = random.Random(4)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    p = inst.random_contramodule(c, rng, max_dim=2)
    q = inst.random_contramodule(c, rng, max_dim=2)
    hpq = coalg.contra_hom_object(p, q)
    hqq = coalg.contra_hom_object(q, q)
    hpq2, comp = enriched_composition(hpq, hqq)
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
        enriched_composition(h11, h22)


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


# --- the degree-zero oracles against their compose-per-unit reference ------


def _reference_degree_zero_kernel(src, dst, sides):
    """The oracles' former body: one map per matrix unit, both legs
    ``sides(f)`` built by the map kernels and flattened, then the same
    kernel."""
    fld = src.field
    one = fld.one()
    units = [lab for k, _, lab in hom_space(src, dst).basis() if k == 0]
    rows = {}
    for t, (_, a, b) in enumerate(units):
        lhs, rhs = sides(LinMap.from_images(src, dst, 0, {a: {b: one}}))
        col = linmap_to_vec(lhs)
        for lab, y in linmap_to_vec(rhs).items():
            col[lab] = fld.sub(col[lab], y) if lab in col else fld.neg(y)
        for lab, x in col.items():
            if x:
                rows.setdefault(lab, {})[t] = x
    return units, Matrix.sparse(fld, rows.values(), len(units)).kernel_basis()


def _reference_comodule_maps(m, n):
    c = m.coalgebra.space
    return _reference_degree_zero_kernel(
        m.space, n.space,
        lambda f: (compose(n.rho, f),
                   compose(tensor_map(f, identity_map(c)), m.rho)))


def _reference_contra_maps(p, q):
    c = p.coalgebra.space
    return _reference_degree_zero_kernel(
        p.space, q.space,
        lambda f: (compose(f, p.theta),
                   compose(q.theta, hom_map(identity_map(c), f))))


def _reference_module_maps(m1, m2):
    a = m1.algebra.space
    return _reference_degree_zero_kernel(
        m1.space, m2.space,
        lambda f: (compose(f, m1.action),
                   compose(m2.action, tensor_map(identity_map(a), f))))


def _corrupted(f, rng):
    """f with one entry changed to another value: a corrupted structure
    map, still of degree zero between f's spaces."""
    fld = f.dom.field
    k = rng.choice(sorted(f.blocks))
    rows = [dict(r) for r in f.blocks[k].srows]
    i, j = rng.randrange(len(rows)), rng.randrange(f.dom.dim(k))
    x = fld.add(rows[i].get(j, 0), fld.from_int(rng.choice((1, -1))))
    rows[i].pop(j, None)
    if x:
        rows[i][j] = x
    return LinMap(f.dom, f.cod, 0, {
        **f.blocks, k: Matrix.sparse(fld, rows, f.dom.dim(k))})


def _oracle_cases(field, rng):
    """(oracle, reference, kind, source, target) for the three degree-zero
    oracles over a conjugated group-like coalgebra and two binomial
    coalgebras with z in degrees 1 and -1, on spaces over degrees -1, 0
    and 1: right and left comodules, contramodules, and the module
    pictures of comodules and of contramodules, each pair valid and once
    more with one entry of each structure map corrupted."""
    x = GradedVect(field, {-1: 1, 0: 1, 1: 1}, prefix="x")
    y = GradedVect(field, {0: 1, 1: 1}, prefix="y")
    coalgebras = [inst.random_coalgebra(field, rng, max_dim=2),
                  polycoalg.build(2, 1, field).underlying,
                  polycoalg.build(1, -1, field).underlying]
    for c in coalgebras:
        cs = c.space
        alg = coalg.dual_algebra(c)
        # the cofree left comodule C (x) X, coacting on the left factor
        left = coalg.left_comodule_from_coaction(
            c, tensor(cs, x),
            compose(assoc(cs, cs, x), tensor_map(c.delta, identity_map(x))))
        comodules = [
            (coalg.cofree(x, c), coalg.cofree(y, c)),
            (coalg.coalgebra_as_comodule(c), coalg.cofree(y, c)),
            (left, coalgebra_as_left_comodule(c)),
        ]
        contramodules = [(coalg.free(x, c), coalg.free(y, c)),
                         (coalg.free(y, c), coalg.free(x, c))]
        modules = [
            *(("of a comodule", coalg.comodule_to_module(m, alg),
               coalg.comodule_to_module(n, alg)) for m, n in comodules[:2]),
            *(("of a contramodule", coalg.contramodule_to_module(p, alg),
               coalg.contramodule_to_module(q, alg))
              for p, q in contramodules),
        ]
        for oracle, reference, structure, pairs in (
                (coalg.comodule_maps_direct, _reference_comodule_maps, "rho",
                 [(m.side, m, n) for m, n in comodules]),
                (coalg.contra_maps_direct, _reference_contra_maps, "theta",
                 [("contramodule", p, q) for p, q in contramodules]),
                (module_maps_degree_zero, _reference_module_maps,
                 "action", modules)):
            for kind, src, dst in pairs:
                yield oracle, reference, kind, src, dst
                yield oracle, reference, kind, *(
                    replace(obj, **{structure: _corrupted(
                        getattr(obj, structure), rng)})
                    for obj in (src, dst))


@pytest.mark.parametrize("field", [F2, GF(3), Q], ids=["F2", "F3", "Q"])
def test_oracles_match_the_compose_per_unit_reference(field):
    """Each oracle reads its legs off the structure maps; it returns the
    reference's units and kernel on valid and corrupted inputs alike,
    because it must build the same system for any input."""
    seen = set()
    for oracle, reference, kind, src, dst in _oracle_cases(
            field, random.Random(f"oracle-{field.name}")):
        units, kernel = oracle(src, dst)
        assert (units, kernel) == reference(src, dst)
        odd = any(k % 2 for k in src.space.degrees())
        seen.add((oracle.__name__, kind, odd, 0 < len(kernel) < len(units)))
    assert {(name, side) for name, side, _, _ in seen} == {
        ("comodule_maps_direct", "right"), ("comodule_maps_direct", "left"),
        ("contra_maps_direct", "contramodule"),
        ("module_maps_degree_zero", "of a comodule"),
        ("module_maps_degree_zero", "of a contramodule")}
    assert all(any(o and k for n, _, o, k in seen if n == name)
               for name, _, _, _ in seen)


def _refuse(monkeypatch, functions, who):
    """Make each of ``functions`` raise at every binding in the package."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "cocontra" or name.startswith("cocontra.")]
    for fn in functions:
        def refuse(*args, name=fn.__name__, **kwargs):
            raise AssertionError(f"{who} reached {name}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, refuse)


def _refuse_map_kernels(monkeypatch):
    """Make ``compose``, ``hom_map``, ``tensor_map``, ``equalizer_lin``,
    ``LinMap.from_images`` and the maps built straight off the structure
    maps' entries, with their two helpers, raise at every binding in the
    package."""
    from cocontra.coalg import core, functors, homobjects
    from cocontra.exactlin import graded

    _refuse(monkeypatch, [
        graded.compose, graded.hom_map, graded.tensor_map,
        graded.equalizer_lin, homobjects.comodule_structure_pair,
        homobjects.contra_structure_pair, core._entries,
        homobjects._from_terms, functors._beta_map,
        functors._cofree_coaction, functors._sections_action,
        functors._evaluation, functors._kleisli_push], "the oracle")

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached LinMap.from_images")

    monkeypatch.setattr(LinMap, "from_images", refuse)


@pytest.mark.parametrize("field", [F2, GF(3), Q], ids=["F2", "F3", "Q"])
def test_oracles_are_independent_of_the_map_kernels(monkeypatch, field):
    """The oracles cross-check hom objects built by the map kernels, so
    they must not call them: with every binding of those kernels raising,
    they still return the reference's answers, while the reference
    itself is refused."""
    cases = list(_oracle_cases(field, random.Random(f"guard-{field.name}")))
    expected = [reference(src, dst) for _, reference, _, src, dst in cases]
    _refuse_map_kernels(monkeypatch)
    assert [oracle(src, dst) for oracle, _, _, src, dst in cases] == expected
    _, reference, _, src, dst = cases[0]
    with pytest.raises(AssertionError, match="the oracle reached"):
        reference(src, dst)


@pytest.mark.parametrize("field", [F2, GF(3), Q], ids=["F2", "F3", "Q"])
def test_entry_builders_are_independent_of_the_oracles(monkeypatch, field):
    """The other direction: the hom objects, L, R and the Kleisli push
    are built the same with the oracles' legs and row and column readers
    raising, so they share no code with what cross-checks them."""
    from cocontra.coalg import homobjects

    g = inst.group_like_coalgebra(field, 2)
    rng = random.Random(f"builders-{field.name}")
    x = GradedVect(field, {-1: 1, 0: 1, 1: 1}, prefix="x")
    coalgebras = [
        inst.conjugate_coalgebra(g, inst.random_invertible(g.space, rng)),
        polycoalg.build(2, 1, field).underlying]

    def build():
        out = []
        for c in coalgebras:
            m, p = coalg.cofree(x, c), coalg.free(x, c)
            lp, rm = coalg.functor_L_data(p), coalg.functor_R_data(m)
            out.append((
                coalg.comodule_hom_object(m, m).include,
                coalg.contra_hom_object(p, p).include,
                lp.comodule.rho, lp.quot.project,
                rm.contramodule.theta, rm.hom.include,
                coalg.kleisli_certificate(x, c)))
        return out

    expected = build()
    _refuse(monkeypatch, [homobjects._degree_zero_kernel,
                          homobjects._action_legs, homobjects._rows,
                          homobjects._columns], "a builder")
    assert build() == expected
    with pytest.raises(AssertionError, match="a builder reached"):
        coalg.comodule_maps_direct(coalg.cofree(x, g), coalg.cofree(x, g))


# --- the hom oracle refuses a perturbed hom object --------------------------


def _perturbed(hobj, how):
    """hobj with its degree-zero inclusion perturbed: "drop" its last
    column, "add" the first matrix unit outside its span, or "swap" the
    last column for that unit (same dimension, different span)."""
    fld = hobj.ambient.field
    blk = hobj.include.block(0)
    height = blk.nrows
    cols = [{} for _ in range(blk.ncols)]
    for i, row in enumerate(blk.srows):
        for j, x in row.items():
            cols[j][i] = x
    outside = next(
        {i: fld.one()} for i in range(height)
        if blk.solve_matrix(Matrix.from_columns(fld, [{i: fld.one()}],
                                                height)) is None)
    cols = {"drop": cols[:-1], "add": [*cols, outside],
            "swap": [*cols[:-1], outside]}[how]
    space = GradedVect(fld, {**hobj.space.dims, 0: len(cols)}, {
        **hobj.space.labels, 0: tuple(("hx", 0, i) for i in range(len(cols)))})
    include = LinMap(space, hobj.ambient, 0, {
        **hobj.include.blocks, 0: Matrix.from_columns(fld, cols, height)})
    return coalg.HomObject(hobj.kind, hobj.src, hobj.dst, hobj.ambient,
                           space, include)


HOM_DECLS = [
    {"kind": "group_like_coalgebra", "name": "G", "field": "F2", "size": 2},
    {"kind": "graded_space", "name": "V", "field": "F2", "dims": {"0": 2}},
    {"kind": "cofree_comodule", "name": "TV", "coalgebra": "G", "on": "V"},
    {"kind": "free_contramodule", "name": "FV", "coalgebra": "G",
     "on": "V"},
]


@pytest.mark.parametrize("how", ["drop", "add", "swap"])
@pytest.mark.parametrize("name, hom_object, oracle", [
    ("TV", "comodule_hom_object", coalg.comodule_maps_direct),
    ("FV", "contra_hom_object", coalg.contra_maps_direct),
])
def test_hom_oracle_refuses_a_perturbed_hom_object(monkeypatch, name,
                                                   hom_object, oracle, how):
    """A hom object whose degree-zero inclusion lost a member, gained a
    non-member or traded one for the other is not the solved subspace:
    ``same_degree_zero_subspace`` says so and the ``hom --oracle`` job
    ends as ``fail``, where the honest object passes."""
    env = serialize.parse_bundle({"declarations": HOM_DECLS})
    ctx = {"budget": 10 ** 6, "oracle": True, "seed": 1, "timing": False}
    job = {"command": "hom", "args": {"source": name, "target": name}}
    obj = env.get(name, ("cofree_comodule", "free_contramodule"))
    honest = getattr(coalg, hom_object)
    hobj = honest(obj, obj)
    units, kernel = oracle(obj, obj)
    assert 0 < hobj.space.dim(0) < len(units)
    assert coalg.same_degree_zero_subspace(hobj, units, kernel)
    assert cli.run_job(env, job, ctx)["status"] == "pass"
    mutant = _perturbed(hobj, how)
    assert not coalg.same_degree_zero_subspace(mutant, units, kernel)
    monkeypatch.setattr(coalg, hom_object,
                        lambda a, b: _perturbed(honest(a, b), how))
    entry = cli.run_job(env, job, ctx)
    assert entry["status"] == "fail"
    assert entry["witnesses"] == [{"dims": {"0": mutant.space.dim(0)}}]
