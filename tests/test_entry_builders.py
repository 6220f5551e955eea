"""The maps that L, R, the hom objects and the Kleisli comparison build in
one pass off the structure maps' entries, each against the composite of
structural maps it replaces.

The composites are kept here as the reference: ``tensor_id_on_hom`` and
``hom_functor_push`` and the chains of ``ev_map``, ``assoc_inv``,
``hom_tensor_iso_inv``, ``tensor_map``, ``hom_map`` and ``compose``.
The builders are linear in each structure map, so they must agree with
the composites on any degree-zero maps, not only on valid structures:
the cases include random dense maps over graded spaces, where sums of
several products and odd degrees arise.
"""

import random

import pytest

from cocontra import coalg, polycoalg
from cocontra.coalg import functors, homobjects
from cocontra.coalg import instances as inst
from cocontra.exactlin import (
    GF,
    QQ,
    GradedVect,
    LinMap,
    assoc_inv,
    compose,
    hom_map,
    hom_space,
    hom_tensor_iso_inv,
    identity_map,
    tensor,
    tensor_map,
)
from paper_checks import ev_map


FIELDS = [GF(2), GF(3), QQ()]


# --- the composite references ---------------------------------------------


def tensor_id_on_hom(m, n, c):
    """[M,N] -> [M (x) C, N (x) C] sending f to f (x) id (no signs: the
    identity has even degree)."""
    dom = hom_space(m, n)
    cod = hom_space(tensor(m, c), tensor(n, c))
    one = m.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, a, b = lab
        images[lab] = {
            ("h", ("t", a, cl), ("t", b, cl)): one for _, _, cl in c.basis()
        }
    return LinMap.from_images(dom, cod, 0, images)


def hom_functor_push(c, p, q):
    """[P,Q] -> [[C,P], [C,Q]] sending f to postcomposition by f."""
    dom = hom_space(p, q)
    cod = hom_space(hom_space(c, p), hom_space(c, q))
    one = p.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, a, b = lab
        images[lab] = {
            ("h", ("h", cl, a), ("h", cl, b)): one
            for _, _, cl in c.basis()
        }
    return LinMap.from_images(dom, cod, 0, images)


def beta_map_reference(delta, x):
    cs = delta.dom
    fp = hom_space(cs, x)
    return compose(
        tensor_map(ev_map(cs, x), identity_map(cs)),
        compose(assoc_inv(fp, cs, cs), tensor_map(identity_map(fp), delta)),
    )


def cofree_coaction_reference(delta, project, x):
    cs = delta.dom
    return compose(
        tensor_map(project, identity_map(cs)),
        compose(assoc_inv(x, cs, cs), tensor_map(identity_map(x), delta)),
    )


def sections_action_reference(delta, include, m):
    cs = delta.dom
    return compose(
        hom_map(delta, identity_map(m)),
        compose(hom_tensor_iso_inv(cs, cs, m),
                hom_map(identity_map(cs), include)),
    )


def evaluation_reference(include, cs, x):
    return compose(ev_map(cs, x), tensor_map(include, identity_map(cs)))


def kleisli_push_reference(delta, x):
    cs = delta.dom
    return compose(hom_map(delta, identity_map(tensor(x, cs))),
                   tensor_id_on_hom(cs, x, cs))


def comodule_pair_reference(m, n):
    c = m.coalgebra.space
    phi = hom_map(identity_map(m.space), n.rho)
    psi = compose(hom_map(m.rho, identity_map(tensor(n.space, c))),
                  tensor_id_on_hom(m.space, n.space, c))
    return phi, psi


def contra_pair_reference(p, q):
    c = p.coalgebra.space
    phi = compose(hom_map(identity_map(hom_space(c, p.space)), q.theta),
                  hom_functor_push(c, p.space, q.space))
    psi = hom_map(p.theta, identity_map(q.space))
    return phi, psi


# --- instances ---------------------------------------------------------------


def _random_map(dom, cod, rng):
    """A random dense degree-zero map dom -> cod."""
    fld = dom.field
    return LinMap(dom, cod, 0, {
        k: inst.random_matrix(fld, cod.dim(k), dom.dim(k), rng)
        for k in dom.degrees() if cod.dim(k)})


def _cases(field, rng):
    """(coalgebra, its delta or a random map C -> C (x) C, x, y): a
    3-dimensional conjugated group-like coalgebra and binomial
    coalgebras with z in degrees 1 and -1, against spaces over several
    degrees."""
    x = GradedVect(field, {-1: 1, 0: 2, 1: 1}, prefix="x")
    y = GradedVect(field, {0: 1, 1: 2, 2: 1}, prefix="y")
    g = inst.group_like_coalgebra(field, 3)
    for c in (
            inst.conjugate_coalgebra(g, inst.random_invertible(g.space, rng)),
            polycoalg.build(2, 1, field).underlying,
            polycoalg.build(1, -1, field).underlying):
        cs = c.space
        for delta in (c.delta, _random_map(cs, tensor(cs, cs), rng)):
            yield c, delta, x, y


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F3", "Q"])
def test_functor_builders_match_their_composites(field):
    """beta and the coaction candidate of L, the action of R on its
    sections, the counit's evaluation and the Kleisli push, on the
    structure maps of valid objects and on random maps."""
    rng = random.Random(f"functor-builders-{field.name}")
    seen = 0
    for c, delta, x, y in _cases(field, rng):
        cs = c.space
        assert functors._beta_map(delta, x) == beta_map_reference(delta, x)
        assert functors._kleisli_push(delta, y) == kleisli_push_reference(
            delta, y)
        p, m = coalg.free(x, c), coalg.cofree(y, c)
        lp, rm = coalg.functor_L_data(p), coalg.functor_R_data(m)
        projects = [(lp.quot.project, p.space), (_random_map(
            tensor(x, cs), GradedVect(field, {-1: 1, 0: 1, 1: 2}, prefix="l"),
            rng), x)]
        includes = [(rm.hom.include, m.space), (_random_map(
            GradedVect(field, {-1: 2, 0: 1, 1: 1}, prefix="s"),
            hom_space(cs, y), rng), y)]
        for project, space in projects:
            got = functors._cofree_coaction(delta, project)
            assert got == cofree_coaction_reference(delta, project, space)
            seen += not got.is_zero()
        for include, space in includes:
            got = functors._sections_action(delta, include)
            assert got == sections_action_reference(delta, include, space)
            assert functors._evaluation(include, cs, space) == (
                evaluation_reference(include, cs, space))
            seen += not got.is_zero()
    assert seen


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F3", "Q"])
def test_structure_pairs_match_their_composites(field):
    """Both parallel pairs whose equalisers are the hom objects, on valid
    cofree and free objects and on random structure maps."""
    rng = random.Random(f"structure-pairs-{field.name}")
    for c, _, x, y in _cases(field, rng):
        cs = c.space
        comodules = [
            coalg.cofree(x, c), coalg.cofree(y, c),
            coalg.VComodule(c, y, _random_map(y, tensor(y, cs), rng))]
        contramodules = [
            coalg.free(x, c), coalg.free(y, c),
            coalg.VContramodule(c, x, _random_map(hom_space(cs, x), x, rng))]
        for m in comodules:
            for n in comodules:
                assert homobjects.comodule_structure_pair(m, n) == (
                    comodule_pair_reference(m, n))
        for p in contramodules:
            for q in contramodules:
                assert homobjects.contra_structure_pair(p, q) == (
                    contra_pair_reference(p, q))
