"""Seeded generators of valid coalgebras, comodules, and contramodules.

Randomness never invents axioms: every instance is built from a family
known to satisfy them (group-like coalgebras, cofree/free objects,
gradings, truncated binomial coalgebras) and then transported along a
random basis change, which preserves validity on the nose.  Everything is
driven by an explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random

from ..exactlin import (
    GradedVect,
    LinMap,
    Matrix,
    compose,
    hom_map,
    identity_map,
    relabel,
    tensor,
    tensor_map,
    unit_space,
)
from .core import (
    Coalgebra,
    VComodule,
    VContramodule,
    cofree,
    free,
)


def group_like_coalgebra(field, n: int) -> Coalgebra:
    """n group-like basis vectors, each its own tensor square; they lie in
    degree 0, where the comultiplication and counit keep them."""
    space = GradedVect(field, {0: n}, {0: [f"g{i}" for i in range(n)]})
    delta = relabel(space, tensor(space, space), lambda g: ("t", g, g))
    eps = relabel(space, unit_space(field), lambda g: "1")
    return Coalgebra(space, delta, eps)


def random_matrix(field, m, n, rng: random.Random) -> Matrix:
    if hasattr(field, "p"):
        pool = list(range(field.p))
    else:
        pool = [field.from_int(k) for k in (-2, -1, 0, 1, 2)]
    return Matrix(
        field,
        tuple(
            tuple(field.from_int(rng.choice(pool))
                  if not hasattr(field, "p") else rng.choice(pool)
                  for _ in range(n))
            for _ in range(m)
        ),
        n,
    )


def random_invertible(space: GradedVect, rng: random.Random) -> LinMap:
    """A random degree-zero automorphism, sampled by rejection."""
    blocks = {}
    for k in space.degrees():
        n = space.dim(k)
        while True:
            m = random_matrix(space.field, n, n, rng)
            if m.rank() == n:
                blocks[k] = m
                break
    return LinMap(space, space, 0, blocks)


def inverse_map(f: LinMap) -> LinMap:
    blocks = {}
    for k in f.dom.degrees():
        blk = f.block(k)
        inv = blk.solve_matrix(Matrix.identity(f.dom.field, blk.nrows))
        if f.degree or inv is None:
            raise ValueError("map is not a degree-0 isomorphism")
        blocks[k] = inv
    return LinMap(f.cod, f.dom, 0, blocks)


def conjugate_coalgebra(c: Coalgebra, g: LinMap) -> Coalgebra:
    """Transport the structure along a basis change of the underlying
    space; validity is preserved exactly."""
    ginv = inverse_map(g)
    delta = compose(tensor_map(g, g), compose(c.delta, ginv))
    eps = compose(c.eps, ginv)
    return Coalgebra(c.space, delta, eps)


def transport_comodule(m: VComodule, g: LinMap) -> VComodule:
    """Move a comodule along an automorphism of its underlying space."""
    ginv = inverse_map(g)
    rho = compose(
        tensor_map(g, identity_map(m.coalgebra.space)),
        compose(m.rho, ginv),
    )
    return VComodule(m.coalgebra, m.space, rho, side=m.side)


def transport_contramodule(p: VContramodule, g: LinMap) -> VContramodule:
    ginv = inverse_map(g)
    theta = compose(
        g,
        compose(
            p.theta,
            hom_map(identity_map(p.coalgebra.space), ginv),
        ),
    )
    return VContramodule(p.coalgebra, p.space, theta)


def random_coalgebra(field, rng: random.Random, max_dim: int = 3) -> Coalgebra:
    n = rng.randint(1, max_dim)
    c = group_like_coalgebra(field, n)
    return conjugate_coalgebra(c, random_invertible(c.space, rng))


def random_comodule(c: Coalgebra, rng: random.Random,
                    max_dim: int = 3) -> VComodule:
    n = rng.randint(1, max_dim)
    x = GradedVect(c.field, {0: n}, prefix="x")
    m = cofree(x, c) if rng.random() < 0.5 else _cofree_slice(x, c, rng)
    g = random_invertible(m.space, rng)
    return transport_comodule(m, g)


def _cofree_slice(x: GradedVect, c: Coalgebra, rng: random.Random):
    # a cofree comodule on a possibly smaller space keeps instance sizes
    # honest while staying valid by construction
    k = rng.randint(1, max(1, x.total_dim - 1)) if x.total_dim > 1 else 1
    y = GradedVect(c.field, {0: k}, prefix="y")
    return cofree(y, c)


def random_contramodule(c: Coalgebra, rng: random.Random,
                        max_dim: int = 3) -> VContramodule:
    n = rng.randint(1, max_dim)
    x = GradedVect(c.field, {0: n}, prefix="z")
    p = free(x, c) if rng.random() < 0.5 else free(
        GradedVect(c.field, {0: max(1, n - 1)}, prefix="w"), c
    )
    g = random_invertible(p.space, rng)
    return transport_contramodule(p, g)
