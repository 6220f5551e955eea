import random
from collections import Counter

import pytest

from cocontra import coalg
from cocontra.coalg import instances as inst
from cocontra.coalg.functors import _l_mor
from cocontra.exactlin import GF, QQ, GradedVect, compose, sub_maps, unit_space
from paper_checks import (
    grading_comodule,
    scale_map,
    unit_counit_iso_report,
    vec_to_linmap,
    zero_map,
)


F2 = GF(2)
Q = QQ()


def _random_member(units, kernel, src, dst, rng):
    """A random combination of kernel vectors over the matrix units, one
    scalar drawn per vector, read back as a map src -> dst."""
    fld = src.field
    coeffs = {}
    for vec in kernel:
        cscale = (
            rng.randrange(fld.p)
            if hasattr(fld, "p")
            else fld.from_int(rng.randint(-2, 2))
        )
        for t, coef in vec.items():
            lab = units[t]
            coeffs[lab] = fld.add(
                coeffs.get(lab, fld.zero()), fld.mul(cscale, coef)
            )
    return vec_to_linmap(coeffs, src, dst)


def random_comodule_map(m, n, rng):
    """A random element of the degree-zero comodule hom space."""
    return _random_member(*coalg.comodule_maps_direct(m, n), m.space,
                          n.space, rng)


def random_contramodule_map(p, q, rng):
    """A random element of the degree-zero contramodule hom space."""
    return _random_member(*coalg.contra_maps_direct(p, q), p.space,
                          q.space, rng)


def test_sections_of_cofree_is_free_shaped():
    # over the trivial coalgebra both functors are the identity
    c = inst.group_like_coalgebra(F2, 1)
    x = GradedVect(F2, {0: 2}, prefix="x")
    m = coalg.cofree(x, c)
    r = coalg.functor_R(m)
    assert r.space.total_dim == m.space.total_dim
    lp = coalg.functor_L(coalg.free(x, c))
    assert lp.space.total_dim == x.total_dim


def test_R_of_grouplike_grading_has_matching_dim():
    c = inst.group_like_coalgebra(F2, 2)
    space = GradedVect(F2, {0: 2}, prefix="m")
    m = grading_comodule(c, {"m0_0": "g0", "m0_1": "g1"}, space)
    r = coalg.functor_R(m)
    assert r.space.total_dim == m.space.total_dim
    assert coalg.validate(r)["ok"]


def test_L_of_free_matches_cofree():
    rng = random.Random(0)
    for _ in range(5):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        x = GradedVect(F2, {0: rng.randint(1, 3)}, prefix="x")
        ld = coalg.functor_L_data(coalg.free(x, c))
        assert ld.comodule.space.total_dim == \
            x.total_dim * c.space.total_dim
        assert coalg.validate(ld.comodule)["ok"]


def test_functors_validate_on_random_instances():
    rng = random.Random(1)
    for _ in range(8):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        m = inst.random_comodule(c, rng, max_dim=3)
        p = inst.random_contramodule(c, rng, max_dim=3)
        assert coalg.validate(coalg.functor_R(m))["ok"]
        assert coalg.validate(coalg.functor_L(p))["ok"]


def test_unit_counit_isomorphisms_finite_collapse():
    rng = random.Random(2)
    for _ in range(8):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        m = inst.random_comodule(c, rng, max_dim=3)
        p = inst.random_contramodule(c, rng, max_dim=3)
        rep = unit_counit_iso_report(p, m)
        assert all(rep.values()), rep


def test_triangle_identities_random():
    rng = random.Random(3)
    for _ in range(6):
        c = inst.random_coalgebra(F2, rng, max_dim=2)
        m = inst.random_comodule(c, rng, max_dim=2)
        p = inst.random_contramodule(c, rng, max_dim=2)
        assert coalg.triangle_identities(p, m)["ok"]


def test_adjunction_certificate_random_f2():
    rng = random.Random(4)
    for _ in range(6):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        m = inst.random_comodule(c, rng, max_dim=3)
        p = inst.random_contramodule(c, rng, max_dim=3)
        rep = coalg.adjunction_certificate(p, m)
        assert rep["ok"], rep
        assert rep["dim_comodule_side"] == rep["dim_contramodule_side"]


def test_adjunction_certificate_with_naturality_squares():
    rng = random.Random(5)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    m = inst.random_comodule(c, rng, max_dim=2)
    m2 = inst.random_comodule(c, rng, max_dim=2)
    p = inst.random_contramodule(c, rng, max_dim=2)
    p2 = inst.random_contramodule(c, rng, max_dim=2)
    squares = []
    for _ in range(3):
        u = random_contramodule_map(p2, p, rng)
        v = random_comodule_map(m, m2, rng)
        squares.append((u, p2, v, m2))
    rep = coalg.adjunction_certificate(p, m, squares=squares)
    assert rep["ok"], rep
    assert rep["naturality_squares"] == 6


def test_naturality_square_over_another_coalgebra_is_refused(monkeypatch):
    """The certificate checks its coalgebra once, so every square's
    objects must live over it: one that does not is refused before the
    coalgebra is checked or any functor image is built."""
    from cocontra.coalg import core, functors
    from cocontra.errors import CoalgebraMismatch

    rng = random.Random(5)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    m = inst.random_comodule(c, rng, max_dim=2)
    p = inst.random_contramodule(c, rng, max_dim=2)
    other = inst.group_like_coalgebra(F2, 3)
    assert other != c
    x = GradedVect(F2, {0: 1}, prefix="x")
    p2, m2 = coalg.free(x, other), coalg.cofree(x, other)
    for module, name in ((core, "validate_coalgebra"),
                         (functors, "functor_L_data"),
                         (functors, "functor_R_data")):
        monkeypatch.setattr(module, name, None)
    for square in ((zero_map(p2.space, p.space), p2,
                    zero_map(m.space, m.space), m),
                   (zero_map(p.space, p.space), p,
                    zero_map(m.space, m2.space), m2)):
        with pytest.raises(CoalgebraMismatch):
            coalg.adjunction_certificate(p, m, squares=[square])


def test_adjunction_dims_on_free_and_cofree():
    # free against cofree: both sides have dim X * dim C * dim Y
    for nc in (1, 2, 3):
        c = inst.group_like_coalgebra(F2, nc)
        x = GradedVect(F2, {0: 2}, prefix="x")
        y = GradedVect(F2, {0: 2}, prefix="y")
        rep = coalg.adjunction_certificate(
            coalg.free(x, c), coalg.cofree(y, c)
        )
        assert rep["ok"]
        assert rep["dim_comodule_side"] == \
            x.total_dim * c.space.total_dim * y.total_dim


def test_adjunction_certificate_over_rationals():
    rng = random.Random(6)
    for _ in range(3):
        c = inst.random_coalgebra(Q, rng, max_dim=2)
        m = inst.random_comodule(c, rng, max_dim=2)
        p = inst.random_contramodule(c, rng, max_dim=2)
        rep = coalg.adjunction_certificate(p, m)
        assert rep["ok"], rep
        assert coalg.triangle_identities(p, m)["ok"]


def test_kleisli_certificate_dims():
    rng = random.Random(7)
    for _ in range(6):
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        x = GradedVect(F2, {0: rng.randint(1, 3)}, prefix="x")
        rep = coalg.kleisli_certificate(x, c)
        assert rep["ok"], rep
        assert rep["dim_sections_of_cofree"] == \
            c.space.total_dim * x.total_dim


def test_kleisli_on_unit_gives_dual_shaped_sections():
    c = inst.group_like_coalgebra(F2, 3)
    rep = coalg.kleisli_certificate(unit_space(F2), c)
    assert rep["ok"]
    assert rep["dim_sections_of_cofree"] == 3


def test_kleisli_trivial_coalgebra_is_identity_like():
    c = inst.group_like_coalgebra(F2, 1)
    x = GradedVect(F2, {0: 2}, prefix="x")
    rep = coalg.kleisli_certificate(x, c)
    assert rep["ok"] and rep["dim_sections_of_cofree"] == 2


def test_functor_images_are_natural_on_random_maps():
    # R and L on morphisms commute with the unit and counit
    rng = random.Random(8)
    c = inst.random_coalgebra(F2, rng, max_dim=2)
    m = inst.random_comodule(c, rng, max_dim=2)
    n = inst.random_comodule(c, rng, max_dim=2)
    v = random_comodule_map(m, n, rng)
    rm, rn = coalg.functor_R_data(m), coalg.functor_R_data(n)
    rv = coalg.R_mor(v, rm, rn)
    ldm = coalg.functor_L_data(rm.contramodule)
    ldn = coalg.functor_L_data(rn.contramodule)
    lrv = _l_mor(rv, rm.contramodule, ldm, ldn)
    eps_m = coalg.counit_map(m, rm, ldm)
    eps_n = coalg.counit_map(n, rn, ldn)
    assert sub_maps(
        compose(eps_n, lrv), compose(v, eps_m)
    ).is_zero()


def test_adjoint_job_builds_each_functor_datum_once(monkeypatch):
    # per instance: L(p), L(R(m)), L(R(L(p))) and R(m), R(L(R(m))), R(L(p))
    from cocontra import cli, serialize
    from cocontra.coalg import functors

    calls = Counter()
    for name in ("functor_L_data", "functor_R_data"):
        def counted(obj, _build=getattr(functors, name), _name=name):
            calls[_name] += 1
            return _build(obj)
        monkeypatch.setattr(functors, name, counted)
    env = serialize.parse_bundle({"declarations": [
        {"kind": "group_like_coalgebra", "name": "G", "field": "F2",
         "size": 2},
        {"kind": "graded_space", "name": "V", "field": "F2",
         "dims": {"0": 2}},
        {"kind": "cofree_comodule", "name": "TV", "coalgebra": "G",
         "on": "V"},
        {"kind": "free_contramodule", "name": "FV", "coalgebra": "G",
         "on": "V"},
    ]})
    ctx = {"budget": 10 ** 6, "oracle": False, "seed": 1, "timing": False}
    jobs = [
        ({"contramodule": "FV", "comodule": "TV"}, 1),
        ({"random": {"field": "F2", "count": 2, "max_dim": 2}}, 2),
    ]
    for args, instances in jobs:
        calls.clear()
        entry = cli.run_job(env, {"command": "adjoint", "args": args}, ctx)
        assert entry["status"] == "pass", entry
        assert calls == {"functor_L_data": 3 * instances,
                         "functor_R_data": 3 * instances}


@pytest.mark.parametrize("field", [F2, GF(3), Q], ids=lambda f: f.name)
def test_certificate_reports_the_triangle_identities(field):
    rng = random.Random(9)
    for _ in range(3):
        c = inst.random_coalgebra(field, rng, max_dim=2)
        m = inst.random_comodule(c, rng, max_dim=2)
        p = inst.random_contramodule(c, rng, max_dim=2)
        rep = coalg.adjunction_certificate(p, m)
        assert rep["triangles"] == coalg.triangle_identities(p, m)
        assert rep["triangles"]["ok"]


# --- images: checked here, not at run time ----------------------------------

JOB_CTX = {"budget": 10 ** 6, "oracle": False, "seed": 1, "timing": False}


def _linear_env(c, m, p):
    from cocontra import serialize

    env = serialize.Environment()
    env.add("C", "coalgebra", c)
    env.add("M", "vcomodule", m)
    env.add("P", "vcontramodule", p)
    return env


def _linear_jobs():
    return [
        ("adjoint", {"contramodule": "P", "comodule": "M"}),
        ("lr", {"target": "M"}),
        ("kleisli", {"coalgebra": "C", "dim": 2}),
    ]


def _random_instances(field, seed, count=3):
    rng = random.Random(seed)
    for _ in range(count):
        c = inst.random_coalgebra(field, rng, max_dim=2)
        yield (c, inst.random_comodule(c, rng, max_dim=2),
               inst.random_contramodule(c, rng, max_dim=2))


@pytest.mark.parametrize("field", [F2, GF(3), Q], ids=lambda f: f.name)
def test_images_of_images_validate(monkeypatch, field):
    """The adjoint, lr and kleisli jobs check their coalgebra once and
    validate no image in its place; every image they build, L(p), R(m),
    L(R(m)), R(L(R(m))), R(L(p)) and L(R(L(p))) among them, satisfies its
    axioms.  Descent is still checked wherever a map onto a quotient is
    built."""
    from cocontra import cli
    from cocontra.coalg import functors

    built = []
    for name, part in (("functor_L_data", "comodule"),
                       ("functor_R_data", "contramodule")):
        def recorded(obj, _build=getattr(functors, name), _part=part):
            data = _build(obj)
            built.append(getattr(data, _part))
            return data
        monkeypatch.setattr(functors, name, recorded)
    for c, m, p in _random_instances(field, 10):
        env = _linear_env(c, m, p)
        for command, args in _linear_jobs():
            built.clear()
            entry = cli.run_job(env, {"command": command, "args": args},
                                JOB_CTX)
            assert entry["status"] == "pass", entry
            # adjoint: L(p), R(m) and the four of the triangles; lr: R(m),
            # L(R(m)), R(L(R(m))); kleisli: R of the cofree comodule
            assert len(built) == {"adjoint": 6, "lr": 3, "kleisli": 1}[
                command]
            for image in built:
                assert coalg.validate(image)["ok"], (command, image)


@pytest.mark.parametrize("field", [F2, GF(3), Q], ids=lambda f: f.name)
def test_each_job_checks_its_coalgebra_once(monkeypatch, field):
    """Over a valid coalgebra the r, l, lr, kleisli, adjoint and bridge
    jobs validate the coalgebra exactly once and no comodule or
    contramodule, but for the bridge's reported check that its collapse
    is a contramodule.  (The dual algebra's validator is a test helper,
    which no job can reach.)"""
    from cocontra import cli
    from cocontra.coalg import bridge, change, core, functors

    calls = Counter()
    names = ("validate_coalgebra", "validate_comodule",
             "validate_contramodule")
    for name in names:
        def counted(obj, _name=name, _check=getattr(core, name)):
            calls[_name] += 1
            return _check(obj)

        for module in (core, functors, bridge, change, coalg):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    jobs = [("r", {"target": "M"}), ("l", {"target": "P"}),
            *_linear_jobs(),
            ("bridge", {"coalgebra": "C", "comodule": "M",
                        "contramodule": "P"})]
    for c, m, p in _random_instances(field, 12):
        env = _linear_env(c, m, p)
        for command, args in jobs:
            calls.clear()
            entry = cli.run_job(env, {"command": command, "args": args},
                                JOB_CTX)
            assert entry["status"] == "pass", entry
            expected = {"validate_coalgebra": 1}
            if command == "bridge":
                expected["validate_contramodule"] = 1
            assert calls == expected, command


def _corrupt_theta(rdata):
    """R(m) with theta doubled (zero over F2): contraunitality breaks."""
    p = rdata.contramodule
    theta = scale_map(p.space.field.from_int(2), p.theta)
    return coalg.RData(coalg.VContramodule(p.coalgebra, p.space, theta),
                       rdata.hom)


def _corrupt_quotient(ldata):
    """L(p) whose quotient presentation projects and lifts by zero."""
    from cocontra.exactlin import QuotPresentation

    q = ldata.quot
    quot = QuotPresentation(q.ambient, q.space,
                            zero_map(q.ambient, q.space),
                            zero_map(q.space, q.ambient))
    return coalg.LData(ldata.comodule, quot, ldata.pair)


@pytest.mark.parametrize("field", [F2, GF(3), Q], ids=lambda f: f.name)
@pytest.mark.parametrize("name, corrupt, commands", [
    ("functor_R_data", _corrupt_theta, ("adjoint", "lr", "kleisli")),
    # the Kleisli comparison builds no L
    ("functor_L_data", _corrupt_quotient, ("adjoint", "lr")),
], ids=["R-theta", "L-quotient"])
def test_corrupted_functor_never_passes(monkeypatch, field, name, corrupt,
                                        commands):
    """With the intermediate images no longer validated, a functor that
    builds a wrong image still ends every job that uses it as ``fail`` or
    ``error``, never ``pass``."""
    from cocontra import cli
    from cocontra.coalg import functors

    build = getattr(functors, name)
    monkeypatch.setattr(functors, name, lambda obj: corrupt(build(obj)))
    checked = 0
    for c, m, p in _random_instances(field, 11, count=4):
        if not (m.space.total_dim and p.space.total_dim):
            continue
        env = _linear_env(c, m, p)
        for command, args in _linear_jobs():
            if command not in commands:
                continue
            entry = cli.run_job(env, {"command": command, "args": args},
                                JOB_CTX)
            assert entry["status"] in ("fail", "error"), (command, entry)
            checked += 1
    assert checked >= 2 * len(commands)
