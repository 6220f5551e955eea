"""The comodule, contramodule and dual-module validators read their laws
off the entries of the structure maps; the composite checks they
replaced, kept in ``paper_checks`` as the references, multiply the laws
out with ``compose``, ``tensor_map``, ``hom_map``, the unitors and the
associators.  The two must agree on ``ok``, the failing laws, their order
and each witness: the first failing label in the composite's domain
order, which for contraassociativity is the basis order of [C, [C, X]].
Left comodules are held in right form, so graded ones, over the
divided-power coalgebras with z in odd degree, exercise the braiding's
sign."""

import functools
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from cocontra import errors, polycoalg
from cocontra.coalg import (
    Coalgebra,
    DualModule,
    VComodule,
    VContramodule,
    cofree,
    comodule_to_module,
    contramodule_to_module,
    dual_algebra,
    free,
    left_comodule_from_coaction,
    validate,
    validate_comodule,
    validate_contramodule,
    validate_module,
)
from cocontra.coalg.instances import (
    conjugate_coalgebra,
    group_like_coalgebra,
    random_comodule,
    random_contramodule,
    random_invertible,
)
from cocontra.exactlin import (
    GF,
    QQ,
    GradedVect,
    LinMap,
    Matrix,
    compose,
    hom_space,
    identity_map,
    tensor,
    tensor_map,
    unit_space,
)
from paper_checks import (
    _reference_validate_coalgebra,
    assoc,
    _reference_validate_comodule,
    _reference_validate_contramodule,
    _reference_validate_module,
)

Q = QQ()
F2 = GF(2)
F3 = GF(3)
KINDS = ("right comodule", "left comodule", "contramodule", "left module")


def _check(obj):
    """The entry check's report, asserted equal to the reference's."""
    if isinstance(obj, DualModule):
        got, want = validate_module(obj), _reference_validate_module(obj)
    elif isinstance(obj, VComodule):
        got, want = validate_comodule(obj), _reference_validate_comodule(obj)
    else:
        got = validate_contramodule(obj)
        want = _reference_validate_contramodule(obj)
    assert got == want, obj
    return got


def _laws(rep):
    return tuple(f if isinstance(f, str) else f["law"]
                 for f in rep["failures"])


def _structures(kind, c: Coalgebra, alg, x: GradedVect, map_of):
    """The structures of ``kind`` on x over c, one per map that
    ``map_of(dom, cod)`` yields for its structure map."""
    if kind in ("right comodule", "left comodule"):
        side = kind.split()[0]
        for rho in map_of(x, tensor(x, c.space)):
            yield VComodule(c, x, rho, side=side)
    elif kind == "contramodule":
        for theta in map_of(hom_space(c.space, x), x):
            yield VContramodule(c, x, theta)
    else:
        for act in map_of(tensor(alg.space, x), x):
            yield DualModule(alg, x, act)


# --- every small F2 structure --------------------------------------------


def _all_f2_maps(dom, cod):
    """Every degree-0 map between F2 spaces that live in degree 0."""
    m, n = cod.dim(0), dom.dim(0)
    for bits in itertools.product((0, 1), repeat=m * n):
        rows = [bits[i * n:(i + 1) * n] for i in range(m)]
        yield LinMap(dom, cod, 0, {0: Matrix(F2, rows, n)})


@functools.lru_cache(maxsize=None)
def _f2_coalgebras():
    """The 1 one-dimensional and 12 two-dimensional F2 coalgebras in
    degree 0, found among all structures by the composite check."""
    found = []
    for n in (1, 2):
        space = GradedVect(F2, {0: n}, prefix="c")
        for delta in _all_f2_maps(space, tensor(space, space)):
            for eps in _all_f2_maps(space, unit_space(F2)):
                c = Coalgebra(space, delta, eps)
                if _reference_validate_coalgebra(c)["ok"]:
                    found.append(c)
    return tuple(found)


@pytest.mark.parametrize("kind", KINDS)
def test_matches_the_reference_on_every_small_f2_structure(kind):
    """Every structure of ``kind`` on a 1- or 2-dimensional F2 space over
    each 1- and 2-dimensional F2 coalgebra: 3,138 of each kind."""
    coalgebras = _f2_coalgebras()
    assert [c.space.total_dim for c in coalgebras] == [1] + [2] * 12
    laws = Counter()
    for c in coalgebras:
        with errors.job(errors.DEFAULT_BUDGET):
            alg = dual_algebra(c)
            for n in (1, 2):
                x = GradedVect(F2, {0: n}, prefix="x")
                for obj in _structures(kind, c, alg, x, _all_f2_maps):
                    laws[_laws(_check(obj))] += 1
    assert sum(laws.values()) == 3138
    assert len(laws) == 4, laws  # each law fails alone and with the other
    assert laws[()] > 12


# --- seeded, perturbed Q and F3 objects ----------------------------------


def _perturbed(f: LinMap, rng, field) -> LinMap:
    """f with one entry of one block moved by a nonzero scalar."""
    k = rng.choice(sorted(k for k, b in f.blocks.items() if b.ncols))
    blk = f.blocks[k]
    i, j = rng.randrange(blk.nrows), rng.randrange(blk.ncols)
    if field == Q:
        step = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 3]))
    else:
        step = rng.randint(1, field.p - 1)
    rows = [dict(r) for r in blk.srows]
    x = field.add(rows[i].get(j, 0), field.canonical(step))
    if x:
        rows[i][j] = x
    else:
        del rows[i][j]
    blocks = {**f.blocks, k: Matrix.sparse(field, rows, blk.ncols)}
    return LinMap(f.dom, f.cod, 0, blocks)


def _perturb(obj, rng, field):
    """obj with one entry of its structure map moved."""
    if isinstance(obj, DualModule):
        return DualModule(obj.algebra, obj.space,
                          _perturbed(obj.action, rng, field))
    if isinstance(obj, VComodule):
        return VComodule(obj.coalgebra, obj.space,
                         _perturbed(obj.rho, rng, field), obj.side)
    return VContramodule(obj.coalgebra, obj.space,
                         _perturbed(obj.theta, rng, field))


def _left_cofree(x: GradedVect, c: Coalgebra) -> VComodule:
    """C (x) X with the comultiplication acting on the left factor."""
    cs = c.space
    lam = compose(assoc(cs, cs, x), tensor_map(c.delta, identity_map(x)))
    return left_comodule_from_coaction(c, tensor(cs, x), lam)


def _triangular_coalgebra(field) -> Coalgebra:
    """The incidence coalgebra of the chain 1 < 2, dual to the upper
    triangular 2 x 2 matrices: Delta(e_ij) is the sum of e_ik (x) e_kj
    over i <= k <= j and eps(e_ij) is 1 when i = j.  It is not
    cocommutative, so it tells apart the two tensor factors."""
    space = GradedVect(field, {0: 3}, {0: ("e11", "e12", "e22")})
    one = field.one()
    delta = LinMap.from_images(space, tensor(space, space), 0, {
        "e11": {("t", "e11", "e11"): one},
        "e12": {("t", "e11", "e12"): one, ("t", "e12", "e22"): one},
        "e22": {("t", "e22", "e22"): one}})
    eps = LinMap.from_images(space, unit_space(field), 0,
                             {"e11": {"1": one}, "e22": {"1": one}})
    return Coalgebra(space, delta, eps)


def _objects(c: Coalgebra, m: VComodule, p: VContramodule,
             x: GradedVect):
    """m, p, a left cofree comodule, C as a left comodule, the dual algebra
    as a left module over itself, and m's and p's modules: each valid."""
    alg = dual_algebra(c)
    return [m, p, _left_cofree(x, c),
            left_comodule_from_coaction(c, c.space, c.delta),
            DualModule(alg, alg.space, alg.mult),
            comodule_to_module(m, alg), contramodule_to_module(p, alg)]


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_matches_the_reference_on_perturbed_objects(field):
    """Random comodules and contramodules, the left cofree comodule and
    the dual-algebra modules (the algebra itself and the pictures of the
    comodule and the contramodule) over group-like coalgebras and the
    triangular one, moved along a random basis change, each as built and
    with one entry perturbed."""
    rng = random.Random(f"structure-laws-{field.name}")
    seen = Counter()
    for i in range(24):
        base = (_triangular_coalgebra(field) if i % 4 == 0
                else group_like_coalgebra(field, rng.randint(1, 3)))
        c = conjugate_coalgebra(base, random_invertible(base.space, rng))
        x = GradedVect(field, {0: rng.randint(1, 2)}, prefix="x")
        m = random_comodule(c, rng, 3)
        p = random_contramodule(c, rng, 3)
        for obj in _objects(c, m, p, x):
            assert _check(obj)["ok"]
            for _ in range(2):
                seen.update(_laws(_check(_perturb(obj, rng, field))))
    assert set(seen) == {"counitality", "coassociativity", "contraunitality",
                         "contraassociativity", "associativity", "unit"}


@pytest.mark.parametrize("field", [F3, Q], ids=["F3", "Q"])
def test_matches_the_reference_on_divided_power_objects(field):
    """Cofree, free and left objects and their dual modules over the
    graded divided-power coalgebras, z in degrees -2 to 2, on a space
    with an even and an odd basis vector, as built and perturbed.  In odd
    degrees a left comodule's entries carry the braiding's sign."""
    rng = random.Random(f"structure-laws-poly-{field.name}")
    x = GradedVect(field, {0: 1, 1: 1}, prefix="x")
    failed = Counter()
    for z_degree in range(-2, 3):
        for truncation in (1, 2):
            c = polycoalg.build(truncation, z_degree, field).underlying
            with errors.job(errors.DEFAULT_BUDGET):
                for obj in _objects(c, cofree(x, c), free(x, c), x):
                    assert _check(obj)["ok"]
                    for _ in range(3):
                        rep = _check(_perturb(obj, rng, field))
                        failed[z_degree % 2] += not rep["ok"]
    assert failed[0] and failed[1]


# --- the module picture of a comodule -------------------------------------


@pytest.mark.parametrize("field", [F2, F3, Q], ids=["F2", "F3", "Q"])
def test_module_picture_fails_the_laws_its_comodule_fails(monkeypatch,
                                                          field):
    """f . x = x0 f(x1) makes a right comodule a left module over the dual
    algebra, law for law: the picture fails associativity exactly when the
    comodule fails coassociativity, and unit exactly when it fails
    counitality.  Comodules over conjugated group-like and incidence
    coalgebras and over the divided-power ones with z in degrees -2 to 2,
    each as built and perturbed, with the builder's own refusal of a
    picture that is no module bypassed."""
    from cocontra.coalg import bridge

    monkeypatch.setattr(bridge, "require_valid", lambda rep, what: None)
    rng = random.Random(f"module-picture-{field.name}")
    x = GradedVect(field, {0: 1, 1: 1}, prefix="x")
    coalgebras = [
        conjugate_coalgebra(base, random_invertible(base.space, rng))
        for base in (_triangular_coalgebra(field),
                     group_like_coalgebra(field, 2))]
    coalgebras += [polycoalg.build(truncation, z_degree, field).underlying
                   for z_degree in range(-2, 3) for truncation in (1, 2)]
    module_law = {"counitality": "unit", "coassociativity": "associativity"}
    seen = Counter()
    for c in coalgebras:
        with errors.job(errors.DEFAULT_BUDGET):
            alg = dual_algebra(c)
            for m in (cofree(x, c), random_comodule(c, rng, 2)):
                for obj in (m, *(_perturb(m, rng, field) for _ in range(4))):
                    laws = _laws(validate_comodule(obj))
                    picture = comodule_to_module(obj, alg)
                    got = validate_module(picture)
                    assert set(got["failures"]) == {module_law[law]
                                                    for law in laws}, obj
                    seen[laws] += 1
    assert {law for laws in seen for law in laws} == set(module_law)
    assert seen[()] >= 2 * len(coalgebras)


# --- no space and no composite -------------------------------------------


@pytest.mark.parametrize("field", [F2, Q], ids=["F2", "Q"])
def test_validators_build_no_space_and_no_composite(monkeypatch, field):
    """Inside a job the validators read the structure maps as they are:
    they build no space and call none of ``compose``, ``tensor_map``,
    ``hom_map``, ``relabel`` or ``LinMap.from_images``."""
    from cocontra.exactlin import graded

    rng = random.Random(f"structure-laws-spaces-{field.name}")
    c = polycoalg.build(2, 1, field).underlying
    x = GradedVect(field, {0: 1, 1: 1}, prefix="x")
    valid = [c, *_objects(c, cofree(x, c), free(x, c), x)]
    cases = valid + [_perturb(obj, rng, field) for obj in valid[1:]]
    built = []
    init = graded.GradedVect.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a validator built a composite")

    monkeypatch.setattr(graded.GradedVect, "__init__", counted_init)
    monkeypatch.setattr(graded.LinMap, "from_images", classmethod(refuse))
    for fn in (graded.compose, graded.tensor_map, graded.hom_map,
               graded.relabel):
        for name, mod in list(sys.modules.items()):
            if name.startswith("cocontra"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, refuse)
    with errors.job(errors.DEFAULT_BUDGET):
        reports = [validate_module(obj) if isinstance(obj, DualModule)
                   else validate(obj) for obj in cases]
    assert built == []
    assert all(r["ok"] for r in reports[:len(valid)])
    assert not all(r["ok"] for r in reports[len(valid):])
