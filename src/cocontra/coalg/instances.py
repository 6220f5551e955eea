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
    validate_coalgebra,
    validate_comodule,
    validate_contramodule,
)


def group_like_coalgebra(field, n: int, degrees=None) -> Coalgebra:
    """n group-like basis vectors, each its own tensor square."""
    degrees = degrees or [0] * n
    dims: dict[int, int] = {}
    for d in degrees:
        dims[d] = dims.get(d, 0) + 1
    labels: dict[int, list] = {}
    for i, d in enumerate(degrees):
        labels.setdefault(d, []).append(f"g{i}")
    space = GradedVect(
        field, dims, {k: tuple(v) for k, v in labels.items()}
    )
    delta = relabel(space, tensor(space, space), lambda g: ("t", g, g))
    eps = relabel(space, unit_space(field), lambda g: "1")
    c = Coalgebra(space, delta, eps)
    assert validate_coalgebra(c)["ok"]
    return c


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
    assert f.degree == 0
    blocks = {}
    for k in f.dom.degrees():
        blk = f.block(k)
        inv = blk.solve_matrix(Matrix.identity(f.dom.field, blk.nrows))
        assert inv is not None, "map is not invertible"
        blocks[k] = inv
    return LinMap(f.cod, f.dom, 0, blocks)


def conjugate_coalgebra(c: Coalgebra, g: LinMap) -> Coalgebra:
    """Transport the structure along a basis change of the underlying
    space; validity is preserved exactly."""
    ginv = inverse_map(g)
    delta = compose(tensor_map(g, g), compose(c.delta, ginv))
    eps = compose(c.eps, ginv)
    out = Coalgebra(c.space, delta, eps)
    assert validate_coalgebra(out)["ok"]
    return out


def transport_comodule(m: VComodule, g: LinMap) -> VComodule:
    """Move a comodule along an automorphism of its underlying space."""
    ginv = inverse_map(g)
    rho = compose(
        tensor_map(g, identity_map(m.coalgebra.space)),
        compose(m.rho, ginv),
    )
    out = VComodule(m.coalgebra, m.space, rho, side=m.side)
    assert validate_comodule(out)["ok"]
    return out


def transport_contramodule(p: VContramodule, g: LinMap) -> VContramodule:
    ginv = inverse_map(g)
    theta = compose(
        g,
        compose(
            p.theta,
            hom_map(identity_map(p.coalgebra.space), ginv),
        ),
    )
    out = VContramodule(p.coalgebra, p.space, theta)
    assert validate_contramodule(out)["ok"]
    return out


def grading_comodule(c: Coalgebra, assignment, space) -> VComodule:
    """Over a group-like coalgebra, a choice of group-like per basis vector
    is exactly a comodule."""
    rho = relabel(space, tensor(space, c.space),
                  lambda a: ("t", a, assignment[a]))
    out = VComodule(c, space, rho)
    assert validate_comodule(out)["ok"]
    return out


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
