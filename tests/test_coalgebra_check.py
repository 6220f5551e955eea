"""``validate_coalgebra`` reads the laws off the entries of Delta and eps;
the composite check it replaced, kept in ``paper_checks`` as the
reference, multiplies out (Delta (x) id) Delta, (id (x) Delta) Delta and
the two counit composites.  The two must agree on ``ok``, the failing
laws, their order and each witness."""

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from cocontra import errors, polycoalg
from cocontra.coalg import Coalgebra, validate_coalgebra
from cocontra.coalg.instances import (
    conjugate_coalgebra,
    group_like_coalgebra,
    random_invertible,
)
from cocontra.exactlin import (GF, QQ, GradedVect, LinMap, Matrix, tensor,
                               unit_space)
from paper_checks import _reference_validate_coalgebra

Q = QQ()
F2 = GF(2)
F3 = GF(3)


def _assert_matches_reference(c):
    got = validate_coalgebra(c)
    assert got == _reference_validate_coalgebra(c)
    return got


def _f2_coalgebras(n):
    """Every F2 coalgebra structure on an n-dimensional space in degree 0,
    lawful or not."""
    space = GradedVect(F2, {0: n}, prefix="c")
    square, unit = tensor(space, space), unit_space(F2)
    for bits in itertools.product((0, 1), repeat=n ** 3 + n):
        delta = [bits[i * n:(i + 1) * n] for i in range(n * n)]
        yield Coalgebra(
            space, LinMap(space, square, 0, {0: Matrix(F2, delta, n)}),
            LinMap(space, unit, 0, {0: Matrix(F2, [bits[n ** 3:]], n)}))


def test_matches_the_reference_on_every_small_f2_coalgebra():
    """All 4 one-dimensional and 1,024 two-dimensional F2 structures.  The
    12 that are coassociative and break one counit law are the
    ``COUNIT_BREAKERS`` of the CLI tests."""
    laws = Counter()
    for n in (1, 2):
        for c in _f2_coalgebras(n):
            rep = _assert_matches_reference(c)
            laws[n, tuple(f["law"] for f in rep["failures"])] += 1
    assert laws[1, ()] == 1 and laws[2, ()] == 12
    assert laws[2, ("left counit",)] == laws[2, ("right counit",)] == 6
    assert sum(laws.values()) == 4 + 1024


def _perturbed(c, rng, field):
    """C with one entry of one block of Delta moved by a nonzero scalar."""
    degrees = sorted(c.delta.blocks)
    k = rng.choice(degrees)
    blk = c.delta.blocks[k]
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
    blocks = {**c.delta.blocks, k: Matrix.sparse(field, rows, blk.ncols)}
    delta = LinMap(c.space, c.delta.cod, 0, blocks)
    return Coalgebra(c.space, delta, c.eps)


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_matches_the_reference_on_perturbed_conjugates(field):
    """Group-like coalgebras moved along a random basis change, which keeps
    them lawful, each also with one Delta entry perturbed."""
    rng = random.Random(f"coalgebra-check-{field.name}")
    seen = Counter()
    for _ in range(150):
        base = group_like_coalgebra(field, rng.randint(1, 3))
        c = conjugate_coalgebra(base, random_invertible(base.space, rng))
        assert _assert_matches_reference(c)["ok"]
        rep = _assert_matches_reference(_perturbed(c, rng, field))
        seen.update(f["law"] for f in rep["failures"])
    assert set(seen) == {"coassociativity", "left counit", "right counit"}


@pytest.mark.parametrize("field", [F2, F3, Q], ids=["F2", "F3", "Q"])
def test_matches_the_reference_on_divided_power_coalgebras(field):
    """The graded divided-power coalgebras of ``polycoalg``, with z in
    degrees -2 to 2, as built and with one Delta entry perturbed."""
    rng = random.Random(f"coalgebra-check-poly-{field.name}")
    failed = 0
    for z_degree in range(-2, 3):
        for truncation in range(4):
            c = polycoalg.build(truncation, z_degree, field).underlying
            assert _assert_matches_reference(c)["ok"]
            for _ in range(8):
                rep = _assert_matches_reference(_perturbed(c, rng, field))
                failed += not rep["ok"]
    assert failed


@pytest.mark.parametrize("field", [F2, Q], ids=["F2", "Q"])
def test_coalgebra_check_builds_no_space(monkeypatch, field):
    """Inside a job the check reads Delta and eps as they are: it builds
    no space and calls neither ``compose`` nor ``tensor_map``."""
    from cocontra.exactlin import graded

    rng = random.Random(f"coalgebra-check-spaces-{field.name}")
    base = group_like_coalgebra(field, 3)
    cases = [conjugate_coalgebra(base, random_invertible(base.space, rng))]
    cases.append(_perturbed(cases[0], rng, field))
    cases.append(polycoalg.build(3, 1, field).underlying)
    built = []
    init = graded.GradedVect.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the coalgebra check built a composite")

    monkeypatch.setattr(graded.GradedVect, "__init__", counted_init)
    for fn in (graded.compose, graded.tensor_map):
        for name, mod in list(sys.modules.items()):
            if name.startswith("cocontra"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, refuse)
    with errors.job(errors.DEFAULT_BUDGET):
        reports = [validate_coalgebra(c) for c in cases]
    assert built == []
    assert [r["ok"] for r in reports] == [True, False, True]
