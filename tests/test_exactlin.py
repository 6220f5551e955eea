import random
from contextlib import nullcontext
from fractions import Fraction
from functools import partial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cocontra.coalg import Coalgebra
from cocontra.coalg.instances import group_like_coalgebra
from cocontra.errors import DEFAULT_BUDGET, MismatchedSignature, job
from cocontra.exactlin import (
    GF,
    QQ,
    GradedVect,
    LinMap,
    Matrix,
    assoc_inv,
    braiding,
    coequalizer_lin,
    compose,
    curry,
    dual,
    equalizer_lin,
    factor_through_include,
    hom_map,
    hom_space,
    hom_tensor_iso,
    hom_tensor_iso_inv,
    identity_map,
    relabel,
    sub_maps,
    tensor,
    tensor_map,
    unit_space,
)
from paper_checks import (
    assoc,
    composition_on_ambient,
    dual_map,
    dual_tensor_into_hom,
    ev_map,
    grading_comodule,
    linmap_to_vec,
    pairing,
    scale,
    uncurry,
    unit_hom_iso,
    unit_left,
    unit_left_inv,
    unit_right,
    unit_right_inv,
    vec_to_linmap,
    zero_map,
)


Q = QQ()
F2 = GF(2)
F5 = GF(5)


def _apply(f, vec):
    """f applied to a {label: coefficient} vector, as {label: nonzero}."""
    fld = f.dom.field
    out = {}
    for lab, c in vec.items():
        for y, x in f.apply_label(lab).items():
            out[y] = fld.add(out.get(y, fld.zero()), fld.mul(c, x))
    return {y: x for y, x in out.items() if x}


def rand_linmap(rng, dom, cod, degree=0):
    blocks = {}
    for k in dom.degrees():
        m, n = cod.dim(k + degree), dom.dim(k)
        if m == 0:
            continue
        blocks[k] = Matrix(
            dom.field,
            tuple(
                tuple(dom.field.from_int(rng.randint(-2, 2))
                      for _ in range(n))
                for _ in range(m)
            ),
            n,
        )
    return LinMap(dom, cod, degree, blocks)


# --- fields -------------------------------------------------------------------


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_gf5_matches_integer_arithmetic(a, b):
    assert F5.add(F5.from_int(a), F5.from_int(b)) == (a + b) % 5
    assert F5.mul(F5.from_int(a), F5.from_int(b)) == (a * b) % 5
    if b % 5:
        assert F5.mul(F5.from_int(b), F5.inv(F5.from_int(b))) == 1


def test_field_parsing_round_trips():
    assert Q.parse("3/4") == Fraction(3, 4)
    assert Q.format(Fraction(-7, 2)) == "-7/2"
    assert F5.parse("2 mod 5") == 2
    assert F5.format(7) == "2 mod 5"
    with pytest.raises(ValueError):
        GF(4)


def test_equal_rationals_have_one_type():
    """An integral rational is an int and any other a Fraction, so block
    ``==`` and hashing agree and reports never see ``Fraction(2)``."""
    half = Fraction(1, 2)
    assert type(Q.add(half, half)) is int
    assert type(Q.sub(half, -half)) is int
    assert type(Q.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert type(Q.div(4, 2)) is int
    assert type(Q.zero()) is int and type(Q.one()) is int
    assert type(Q.from_int(-3)) is int
    assert Q.inv(-2) == Fraction(-1, 2)
    assert type(Q.inv(half)) is int
    assert Q.parse("4/2") == 2 and type(Q.parse("4/2")) is int
    assert Q.format(Q.parse("4/2")) == "2"
    m = Matrix(Q, [[Fraction(2)]])
    assert type(m.srows[0][0]) is int and m.srows[0][0] == 2
    assert m == Matrix(Q, [[2]])
    assert Matrix(Q, [[Fraction(0), half]]).srows == ({1: half},)
    # outside F_p input is reduced where it enters, and a zero is dropped
    assert Matrix(GF(2), [[3, 2]]).srows == ({0: 1},)


# --- matrices -----------------------------------------------------------------


def test_kernel_example():
    m = Matrix(Q, [[1, 1], [0, 0]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1]


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        m = Matrix(
            Q,
            tuple(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(cols))
                for _ in range(rows)
            ),
            cols,
        )
        assert m.rank() + len(m.kernel_basis()) == cols


def test_solve_and_complement():
    m = Matrix(Q, [[1, 0], [1, 0]])
    assert m.solve_matrix(Matrix(Q, [[2], [2]])) is not None
    assert m.solve_matrix(Matrix(Q, [[1], [2]])) is None
    # greedy complement takes the lowest basis index that extends the
    # column space: e_0 is independent of (1,1)
    assert m.column_space_complement() == [0]
    assert Matrix(Q, [[1, 0], [0, 0]]).column_space_complement() \
        == [1]


def _greedy_complement(m):
    """Reference: add e_i whenever it raises the rank, lowest index first."""
    f = m.field
    current, rank, chosen = m, m.rank(), []
    for i in range(m.nrows):
        e = Matrix(
            f,
            tuple((f.one(),) if r == i else (f.zero(),)
                  for r in range(m.nrows)),
            1,
        )
        candidate = current.hstack(e)
        if candidate.rank() > rank:
            current, rank = candidate, rank + 1
            chosen.append(i)
    return chosen


def test_column_space_complement_matches_greedy_rank_test():
    rng = random.Random(11)
    for field, values in ((Q, range(-2, 3)), (GF(2), range(2)),
                          (GF(3), range(3))):
        for _ in range(300):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            m = Matrix(
                field,
                [[rng.choice(values) for _ in range(cols)]
                 for _ in range(rows)],
                cols,
            )
            assert m.column_space_complement() == _greedy_complement(m)


def test_zero_row_matrices_keep_their_width():
    m = Matrix.zeros(Q, 0, 3)
    assert m.ncols == 3
    assert len(m.kernel_basis()) == 3


# --- graded spaces and maps -----------------------------------------------


def test_tensor_dims_convolve():
    v = GradedVect(Q, {0: 1, 1: 1})
    w = GradedVect(Q, {0: 1, 1: 1}, prefix="f")
    assert tensor(v, w).dims == {0: 1, 1: 2, 2: 1}
    assert tensor(v, unit_space(Q)).dims == v.dims


def test_hom_space_degrees():
    v = GradedVect(Q, {0: 1, 1: 1})
    w = GradedVect(Q, {0: 1}, prefix="f")
    assert hom_space(v, w).dims == {-1: 1, 0: 1}
    assert hom_space(GradedVect(Q, {0: 2}), GradedVect(Q, {0: 3},
                                                       prefix="f")).dims \
        == {0: 6}


def test_dual_flips_degrees():
    assert dual(GradedVect(Q, {1: 2})).dims == {-1: 2}
    assert dual(unit_space(Q)).dims == {0: 1}


def test_unit_isos():
    v = GradedVect(Q, {0: 2, 3: 1})
    assert unit_left(v).is_iso() and unit_right(v).is_iso()


def test_tensor_unit_is_identity_after_unitor():
    v = GradedVect(Q, {0: 2, 1: 1})
    k = unit_space(Q)
    rng = random.Random(3)
    f = rand_linmap(rng, v, v)
    via = compose(
        unit_right(v), compose(tensor_map(f, identity_map(k)),
                               unit_right_inv(v))
    )
    assert via == f


def test_assoc_is_natural_iso():
    rng = random.Random(11)
    u = GradedVect(Q, {0: 1, 1: 1}, prefix="u")
    v = GradedVect(Q, {0: 2}, prefix="v")
    w = GradedVect(Q, {0: 1, 2: 1}, prefix="w")
    a = assoc(u, v, w)
    assert compose(assoc_inv(u, v, w), a) == identity_map(
        tensor(tensor(u, v), w)
    )
    f = rand_linmap(rng, u, u)
    g = rand_linmap(rng, v, v)
    h = rand_linmap(rng, w, w)
    lhs = compose(assoc(u, v, w),
                  tensor_map(tensor_map(f, g), h))
    rhs = compose(tensor_map(f, tensor_map(g, h)), assoc(u, v, w))
    assert lhs == rhs


def test_braiding_symmetry_and_sign():
    v = GradedVect(Q, {1: 1}, prefix="v")
    w = GradedVect(Q, {1: 1}, prefix="w")
    b = braiding(v, w)
    back = braiding(w, v)
    assert compose(back, b) == identity_map(tensor(v, w))
    # odd times odd picks up the sign
    lab = tensor(v, w).labels[2][0]
    img = b.apply_label(lab)
    (out_lab, coeff), = img.items()
    assert coeff == Fraction(-1)


def test_koszul_sign_in_tensor_map():
    # g of odd degree sliding past an odd-degree basis vector flips sign
    v = GradedVect(Q, {1: 1}, prefix="v")
    w = GradedVect(Q, {0: 1, 1: 1}, prefix="w")
    g = LinMap(w, w, 1, {0: Matrix(Q, [[1]])})
    f = identity_map(v)
    fg = tensor_map(f, g)
    lab = ("t", v.labels[1][0], w.labels[0][0])
    img = fg.apply_label(lab)
    (out_lab, coeff), = img.items()
    assert coeff == Fraction(-1)
    # and an even source degree keeps the sign positive
    v0 = GradedVect(Q, {0: 1}, prefix="z")
    fg0 = tensor_map(identity_map(v0), g)
    img0 = fg0.apply_label(("t", v0.labels[0][0], w.labels[0][0]))
    (_, coeff0), = img0.items()
    assert coeff0 == Fraction(1)


def test_curry_uncurry_mutually_inverse():
    rng = random.Random(5)
    u = GradedVect(Q, {0: 2}, prefix="u")
    v = GradedVect(Q, {0: 1, 1: 1}, prefix="v")
    w = GradedVect(Q, {0: 2, 1: 1}, prefix="w")
    for _ in range(10):
        f = rand_linmap(rng, tensor(u, v), w)
        assert uncurry(curry(f, u, v, w), u, v, w) == f
        g = rand_linmap(rng, u, hom_space(v, w))
        assert curry(uncurry(g, u, v, w), u, v, w) == g


def test_tensor_hom_adjunction_natural_in_each_argument():
    rng = random.Random(13)
    u = GradedVect(Q, {0: 2}, prefix="u")
    u2 = GradedVect(Q, {0: 1}, prefix="s")
    v = GradedVect(Q, {0: 2}, prefix="v")
    w = GradedVect(Q, {0: 2}, prefix="w")
    w2 = GradedVect(Q, {0: 1}, prefix="r")
    for _ in range(5):
        f = rand_linmap(rng, tensor(u, v), w)
        a = rand_linmap(rng, u2, u)
        # naturality in the first argument
        lhs = curry(compose(f, tensor_map(a, identity_map(v))), u2, v, w)
        rhs = compose(curry(f, u, v, w), a)
        assert lhs == rhs
        # naturality in the target
        b = rand_linmap(rng, w, w2)
        lhs2 = curry(compose(b, f), u, v, w2)
        rhs2 = compose(hom_map(identity_map(v), b), curry(f, u, v, w))
        assert lhs2 == rhs2


def test_ev_is_evaluation():
    v = GradedVect(Q, {0: 2}, prefix="v")
    w = GradedVect(Q, {0: 2}, prefix="w")
    rng = random.Random(2)
    f = rand_linmap(rng, v, w)
    fv = linmap_to_vec(f)
    for _, _, a in v.basis():
        out = _apply(ev_map(v, w), {("t", h, a): c for h, c in fv.items()})
        assert out == f.apply_label(a)


def test_vec_linmap_round_trip():
    rng = random.Random(4)
    v = GradedVect(Q, {0: 2, 1: 1}, prefix="v")
    w = GradedVect(Q, {0: 1, 1: 2}, prefix="w")
    for d in (-1, 0, 1):
        f = rand_linmap(rng, v, w, degree=d)
        assert vec_to_linmap(linmap_to_vec(f), v, w) == f


def test_hom_tensor_iso_round_trip():
    a = GradedVect(Q, {0: 2}, prefix="a")
    b = GradedVect(Q, {0: 1, 1: 1}, prefix="b")
    x = GradedVect(Q, {0: 2}, prefix="x")
    i = hom_tensor_iso(a, b, x)
    j = hom_tensor_iso_inv(a, b, x)
    assert compose(j, i) == identity_map(hom_space(tensor(a, b), x))
    assert compose(i, j) == identity_map(hom_space(a, hom_space(b, x)))


def test_dual_map_and_double_dual():
    rng = random.Random(9)
    v = GradedVect(Q, {0: 2}, prefix="v")
    w = GradedVect(Q, {0: 2}, prefix="w")
    f = rand_linmap(rng, v, w)
    g = rand_linmap(rng, w, v)
    assert dual_map(compose(g, f)) == compose(dual_map(f), dual_map(g))
    assert relabel(v, dual(dual(v)), lambda a: ("d", ("d", a))).is_iso()


def test_equalizer_coequalizer_rank_laws():
    rng = random.Random(21)
    for field in (Q, F2, F5):
        for _ in range(15):
            dims = {k: rng.randint(0, 2) for k in (0, 1)}
            v = GradedVect(field, dims, prefix="v")
            w = GradedVect(field, {k: rng.randint(0, 2) for k in (0, 1)},
                           prefix="w")
            f = _rand_over(rng, field, v, w)
            g = _rand_over(rng, field, v, w)
            eq = equalizer_lin(f, g)
            cq = coequalizer_lin(f, g)
            h = sub_maps(f, g)
            assert eq.space.total_dim + h.rank() == v.total_dim
            reachable = sum(w.dim(k) for k in v.degrees())
            assert cq.space.total_dim == w.total_dim - h.rank()
            assert eq.include.is_injective()
            assert cq.project.is_surjective()
            assert compose(cq.project, cq.section) == identity_map(cq.space)


def _rand_over(rng, field, v, w):
    blocks = {}
    for k in v.degrees():
        m, n = w.dim(k), v.dim(k)
        if m == 0:
            continue
        pool = list(range(field.p)) if hasattr(field, "p") else \
            [field.from_int(t) for t in (-2, -1, 0, 1, 2)]
        blocks[k] = Matrix(
            field,
            tuple(tuple(rng.choice(pool) for _ in range(n))
                  for _ in range(m)),
            n,
        )
    return LinMap(v, w, 0, blocks)


def test_equalizer_examples():
    x = GradedVect(Q, {0: 2})
    f = LinMap(x, x, 0, {0: Matrix(Q, [[1, 1], [0, 0]])})
    z = zero_map(x, x)
    eq = equalizer_lin(f, z)
    assert eq.space.total_dim == 1
    assert equalizer_lin(f, f).space.total_dim == 2
    ident = identity_map(x)
    assert equalizer_lin(ident, z).space.total_dim == 0


def test_coequalizer_examples():
    x = GradedVect(Q, {0: 2})
    f = LinMap(x, x, 0, {0: Matrix(Q, [[1, 0], [1, 0]])})
    z = zero_map(x, x)
    cq = coequalizer_lin(f, z)
    assert cq.space.total_dim == 1
    assert coequalizer_lin(f, f).space.total_dim == 2
    ident = identity_map(x)
    assert coequalizer_lin(ident, z).space.total_dim == 0


# --- sparse column reads and writes ------------------------------------------


F3 = GF(3)


def _rand_scalar(rng, field):
    # zeros in half the entries, so the zero-skipping paths are exercised
    if rng.random() < 0.5:
        return field.zero()
    if field == Q:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return field.from_int(rng.randint(1, field.p - 1))


def _rand_graded(rng, field, prefix):
    # degrees -1..1, each possibly empty
    return GradedVect(
        field, {k: rng.randint(0, 2) for k in (-1, 0, 1)}, prefix=prefix
    )


def _rand_graded_map(rng, field):
    dom = _rand_graded(rng, field, "a")
    cod = _rand_graded(rng, field, "b")
    return _rand_map_between(rng, dom, cod, rng.randint(-1, 1))


def _rand_map_between(rng, dom, cod, degree):
    field = dom.field
    blocks = {
        k: Matrix(
            field,
            tuple(
                tuple(_rand_scalar(rng, field) for _ in range(dom.dim(k)))
                for _ in range(cod.dim(k + degree))
            ),
            dom.dim(k),
        )
        for k in dom.degrees()
    }
    return LinMap(dom, cod, degree, blocks)


def _naive_matmul(a, b):
    f = a.field
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = f.zero()
            for t in range(a.ncols):
                acc = f.add(acc, f.mul(a[i, t], b[t, j]))
            row.append(acc)
        out.append(tuple(row))
    return Matrix(f, tuple(out), b.ncols)


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_apply_label_reads_the_column(field):
    rng = random.Random(f"apply-label-{field.name}")
    for _ in range(40):
        f = _rand_graded_map(rng, field)
        images = {}
        for _, _, a in f.dom.basis():
            img = f.apply_label(a)
            k, j = f.dom.position(a)
            column = zip(f.cod.labels.get(k + f.degree, ()),
                         f.block(k).rows)
            assert img == {lab: row[j] for lab, row in column if row[j]}
            assert all(c != field.zero() for c in img.values())
            images[a] = img
        assert LinMap.from_images(f.dom, f.cod, f.degree, images) == f


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_map_equality_agrees_with_a_zero_difference(field):
    """``f == g`` holds exactly when ``sub_maps(f, g)`` is zero: on equal
    maps built apart, on independent random maps, and on pairs that
    differ in one entry, including maps of nonzero degree."""
    rng = random.Random(f"map-equality-{field.name}")
    seen = {"equal": 0, "unequal": 0, "one entry": 0, "nonzero degree": 0}
    for _ in range(60):
        f = _rand_graded_map(rng, field)
        images = {a: f.apply_label(a) for _, _, a in f.dom.basis()}
        pairs = [
            (LinMap.from_images(f.dom, f.cod, f.degree, images), None),
            (_rand_map_between(rng, f.dom, f.cod, f.degree), None),
        ]
        cells = [(a, b) for k, _, a in f.dom.basis()
                 for b in f.cod.labels.get(k + f.degree, ())]
        if cells:
            a, b = rng.choice(cells)
            moved = {**images, a: dict(images[a])}
            moved[a][b] = field.add(moved[a].get(b, field.zero()),
                                    _rand_scalar(rng, field) or field.one())
            g = LinMap.from_images(f.dom, f.cod, f.degree, moved)
            pairs.append((g, "one entry"))
        for g, kind in pairs:
            zero = sub_maps(f, g).is_zero()
            assert (f == g) is zero and (g == f) is zero
            assert (f != g) is not zero
            seen["equal" if zero else "unequal"] += 1
            if kind:
                assert not zero
                seen[kind] += 1
            if f.degree and f.dom.total_dim:
                seen["nonzero degree"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_matmul_and_apply_match_the_naive_loop(field):
    rng = random.Random(f"matmul-{field.name}")
    shapes = [(0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(30)]
    for m, k, n in shapes:
        a = Matrix(field, tuple(
            tuple(_rand_scalar(rng, field) for _ in range(k))
            for _ in range(m)), k)
        b = Matrix(field, tuple(
            tuple(_rand_scalar(rng, field) for _ in range(n))
            for _ in range(k)), n)
        assert a @ b == _naive_matmul(a, b)
        # a vector is applied as a one-column matrix
        vec = tuple(_rand_scalar(rng, field) for _ in range(k))
        col = Matrix(field, tuple((x,) for x in vec), 1)
        assert a @ col == _naive_matmul(a, col)


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_matmul_makes_each_entry_once(field, monkeypatch):
    """The product sums each entry as an integer over a common
    denominator: no field ``add`` or ``mul`` runs, and ``from_ratio``
    is asked once per nonzero sum.  Denominators 1, 2, 3, 5 and 7 make
    the row denominator widen."""
    rng = random.Random(f"matmul-once-{field.name}")

    def scalar():
        if rng.random() < 0.3:
            return 0
        if field == Q:
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))
        return rng.randint(1, field.p - 1)

    pairs = []
    for _ in range(30):
        m, k, n = (rng.randint(1, 5) for _ in range(3))
        pairs.append((Matrix(field, [[scalar() for _ in range(k)]
                                     for _ in range(m)], k),
                      Matrix(field, [[scalar() for _ in range(n)]
                                     for _ in range(k)], n)))
    expected = [_naive_matmul(a, b) for a, b in pairs]

    def refuse(self, x, y):
        raise AssertionError("field arithmetic inside matmul")

    calls = []
    ratio = type(field).from_ratio

    def counted(self, n, d):
        calls.append((n, d))
        return ratio(self, n, d)

    monkeypatch.setattr(type(field), "add", refuse)
    monkeypatch.setattr(type(field), "mul", refuse)
    monkeypatch.setattr(type(field), "from_ratio", counted)
    for (a, b), want in zip(pairs, expected):
        before = len(calls)
        prod = a @ b
        assert prod == want and _stores_no_zero(prod)
        assert len(calls) - before <= prod.nrows * prod.ncols
    assert any(d > 1 for _, d in calls) is (field == Q)


def test_unit_factors_skip_fraction_arithmetic():
    third = Fraction(1, 3)
    assert Q.mul(1, third) is third and Q.mul(third, 1) is third
    assert Q.mul(-1, third) == Q.mul(third, -1) == Fraction(-1, 3)
    assert Q.mul(-1, 5) == -5 and Q.mul(Fraction(3, 2), 2) == 3
    assert type(Q.mul(Fraction(3, 2), 2)) is int
    assert Q.from_ratio(6, 4) == Fraction(3, 2) and Q.from_ratio(6, 3) == 2
    assert type(Q.from_ratio(6, 3)) is int
    assert F3.from_ratio(7, 1) == 1 and F3.from_ratio(1, 2) == 2


def test_from_images_rejects_entries_outside_the_target_degree():
    one = Q.one()
    x = GradedVect(Q, {0: 1}, prefix="x")
    y = GradedVect(Q, {0: 1, 1: 1}, prefix="y")
    # an image spread over two degrees is not homogeneous
    with pytest.raises(MismatchedSignature):
        LinMap.from_images(x, y, 0, {"x0_0": {"y0_0": one, "y1_0": one}})
    # a nonzero image into a degree the target lacks
    x01 = GradedVect(Q, {0: 1, 1: 1}, prefix="x")
    y0 = GradedVect(Q, {0: 1}, prefix="y")
    with pytest.raises(MismatchedSignature):
        LinMap.from_images(x01, y0, 0, {"x1_0": {"y0_0": one}})
    # zero coefficients may sit anywhere
    assert LinMap.from_images(
        x01, y0, 0, {"x1_0": {"y0_0": Q.zero()}}
    ).is_zero()


# --- structural maps against the label-dict reference ---------------------
#
# tensor_map and hom_map write their blocks by offset arithmetic; these are
# their earlier bodies, which route every entry through labels, and the two
# must agree entry for entry.


def _reference_tensor_map(f, g):
    dom = tensor(f.dom, g.dom)
    cod = tensor(f.cod, g.cod)
    fld = dom.field
    gcols = {lb: g.apply_label(lb) for _, _, lb in g.dom.basis()}
    images = {}
    for _, _, la in f.dom.basis():
        fx = f.apply_label(la)
        odd = g.degree % 2 == 1 and f.dom.degree_of(la) % 2 == 1
        for lb, gy in gcols.items():
            img = {}
            for xa, ca in fx.items():
                for yb, cb in gy.items():
                    c = fld.mul(ca, cb)
                    img[("t", xa, yb)] = fld.neg(c) if odd else c
            images[("t", la, lb)] = img
    return LinMap.from_images(dom, cod, f.degree + g.degree, images)


def _reference_hom_map(f, g):
    dom = hom_space(f.cod, g.dom)
    cod = hom_space(f.dom, g.cod)
    fld = dom.field
    images = {}
    for _, _, lab in dom.basis():
        _, b, x = lab
        kb, ib = f.cod.position(b)
        frow = f.blocks[kb].srows[ib] if kb in f.blocks else {}
        alabs = f.dom.labels.get(kb)
        gx = g.apply_label(x)
        images[lab] = {
            ("h", alabs[ja], y): fld.mul(fa, cy)
            for ja, fa in frow.items()
            for y, cy in gx.items()
        }
    return LinMap.from_images(dom, cod, 0, images)


def _wide_graded(rng, field, prefix):
    # degrees -2..2, odd and even, each possibly empty
    return GradedVect(
        field, {k: rng.randint(0, 2) for k in range(-2, 3)}, prefix=prefix
    )


def _structural_pairs(rng, field):
    """Random map pairs, with zero maps and all-zero spaces mixed in."""
    for trial in range(60):
        a, b = _wide_graded(rng, field, "a"), _wide_graded(rng, field, "b")
        x, y = _wide_graded(rng, field, "x"), _wide_graded(rng, field, "y")
        if trial % 10 == 0:
            a = GradedVect(field, {})
        df, dg = rng.randint(-2, 2), rng.randint(-2, 2)
        if trial % 4 == 0:
            dg = rng.choice((-1, 1))  # odd, so the Koszul sign shows
        f = _rand_map_between(rng, a, b, df)
        g = _rand_map_between(rng, x, y, dg)
        if trial % 7 == 0:
            g = zero_map(x, y, dg)
        f0 = _rand_map_between(rng, a, b, 0)
        g0 = _rand_map_between(rng, x, y, 0)
        yield f, g, f0, g0


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_tensor_and_hom_maps_match_the_label_reference(field):
    rng = random.Random(f"structural-{field.name}")
    odd_signs = 0
    for f, g, f0, g0 in _structural_pairs(rng, field):
        want_t = _reference_tensor_map(f, g)
        want_h = _reference_hom_map(f0, g0)
        odd_signs += g.degree % 2 == 1 and not g.is_zero() and any(
            k % 2 and not f.block(k).is_zero() for k in f.dom.degrees())
        for scope in (nullcontext, partial(job, DEFAULT_BUDGET)):
            with scope():
                got_t, got_h = tensor_map(f, g), hom_map(f0, g0)
            assert got_t == want_t
            assert got_h == want_h
            for got in (got_t, got_h):
                assert all(_stores_no_zero(got.block(k))
                           for k in got.dom.degrees())
    assert odd_signs > 0


# --- relabelling maps against their label-dict bodies ----------------------
#
# Every structural map is one ``relabel`` call; these are their earlier
# bodies, which build a {label: {label: one}} dict and go through
# ``from_images``, and the two must agree entry for entry.


def _reference_assoc(u, v, w):
    dom = tensor(tensor(u, v), w)
    cod = tensor(u, tensor(v, w))
    one = dom.field.one()
    images = {
        ("t", ("t", a, b), c): {("t", a, ("t", b, c)): one}
        for _, _, (_, (_, a, b), c) in dom.basis()
    }
    return LinMap.from_images(dom, cod, 0, images)


def _reference_assoc_inv(u, v, w):
    dom = tensor(u, tensor(v, w))
    cod = tensor(tensor(u, v), w)
    one = dom.field.one()
    images = {
        ("t", a, ("t", b, c)): {("t", ("t", a, b), c): one}
        for _, _, (_, a, (_, b, c)) in dom.basis()
    }
    return LinMap.from_images(dom, cod, 0, images)


def _reference_unit_left(v):
    dom = tensor(unit_space(v.field), v)
    one = v.field.one()
    images = {
        ("t", "1", a): {a: one} for _, _, (_, _, a) in dom.basis()
    }
    return LinMap.from_images(dom, v, 0, images)


def _reference_unit_right(v):
    dom = tensor(v, unit_space(v.field))
    one = v.field.one()
    images = {
        ("t", a, "1"): {a: one} for _, _, (_, a, _) in dom.basis()
    }
    return LinMap.from_images(dom, v, 0, images)


def _reference_unit_left_inv(v):
    cod = tensor(unit_space(v.field), v)
    one = v.field.one()
    images = {a: {("t", "1", a): one} for _, _, a in v.basis()}
    return LinMap.from_images(v, cod, 0, images)


def _reference_unit_right_inv(v):
    cod = tensor(v, unit_space(v.field))
    one = v.field.one()
    images = {a: {("t", a, "1"): one} for _, _, a in v.basis()}
    return LinMap.from_images(v, cod, 0, images)


def _reference_braiding(v, w):
    dom = tensor(v, w)
    cod = tensor(w, v)
    fld = v.field
    images = {}
    for _, _, lab in dom.basis():
        _, a, b = lab
        c = fld.one()
        if v.degree_of(a) % 2 == 1 and w.degree_of(b) % 2 == 1:
            c = fld.from_int(-1)
        images[lab] = {("t", b, a): c}
    return LinMap.from_images(dom, cod, 0, images)


def _reference_ev_map(v, w):
    dom = tensor(hom_space(v, w), v)
    one = v.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, h, a2 = lab
        _, a, b = h
        if a == a2:
            images[lab] = {b: one}
    return LinMap.from_images(dom, w, 0, images)


def _reference_hom_tensor_iso(a, b, x):
    dom = hom_space(tensor(a, b), x)
    cod = hom_space(a, hom_space(b, x))
    one = a.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, tlab, xl = lab
        _, la, lb = tlab
        images[lab] = {("h", la, ("h", lb, xl)): one}
    return LinMap.from_images(dom, cod, 0, images)


def _reference_hom_tensor_iso_inv(a, b, x):
    dom = hom_space(a, hom_space(b, x))
    cod = hom_space(tensor(a, b), x)
    one = a.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, la, hlab = lab
        _, lb, xl = hlab
        images[lab] = {("h", ("t", la, lb), xl): one}
    return LinMap.from_images(dom, cod, 0, images)


def _reference_double_dual_iso(v):
    one = v.field.one()
    images = {
        a: {("d", ("d", a)): one} for _, _, a in v.basis()
    }
    return LinMap.from_images(v, dual(dual(v)), 0, images)


def _reference_pairing(v):
    dom = tensor(v, dual(v))
    one = v.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, a, dl = lab
        if dl == ("d", a):
            images[lab] = {"1": one}
    return LinMap.from_images(dom, unit_space(v.field), 0, images)


def _reference_unit_hom_iso(x):
    cod = hom_space(unit_space(x.field), x)
    one = x.field.one()
    images = {lab: {("h", "1", lab): one} for _, _, lab in x.basis()}
    return LinMap.from_images(x, cod, 0, images)


def _reference_dual_tensor_into_hom(c, x):
    dom = tensor(dual(c.space), x)
    cod = hom_space(c.space, x)
    one = c.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, dl, xl = lab
        images[lab] = {("h", dl[1], xl): one}
    return LinMap.from_images(dom, cod, 0, images)


def _reference_composition_on_ambient(x, y, z):
    dom = tensor(hom_space(y, z), hom_space(x, y))
    cod = hom_space(x, z)
    one = x.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, g, f = lab
        _, b2, cl = g
        _, a, b = f
        if b == b2:
            images[lab] = {("h", a, cl): one}
    return LinMap.from_images(dom, cod, 0, images)


def _reference_group_like(space):
    one = space.field.one()
    delta = LinMap.from_images(
        space, tensor(space, space), 0,
        {g: {("t", g, g): one} for _, _, g in space.basis()},
    )
    eps = LinMap.from_images(
        space, unit_space(space.field), 0,
        {g: {"1": one} for _, _, g in space.basis()},
    )
    return delta, eps


def _reference_grading_rho(c, assignment, space):
    one = c.field.one()
    images = {
        lab: {("t", lab, assignment[lab]): one}
        for _, _, lab in space.basis()
    }
    return LinMap.from_images(space, tensor(space, c.space), 0, images)


def _relabel_cases(field):
    """(name, build, reference) for every map ``relabel`` builds, on
    spaces with degrees 0 and 1; ``build`` makes the map when called."""
    u = GradedVect(field, {0: 2, 1: 1}, prefix="u")
    v = GradedVect(field, {0: 1, 1: 2}, prefix="v")
    w = GradedVect(field, {0: 2, 1: 2}, prefix="w")
    unvalidated = Coalgebra(u, zero_map(u, tensor(u, u)),
                            zero_map(u, unit_space(field)))
    grouplike = group_like_coalgebra(field, 2)
    x = GradedVect(field, {0: 3}, prefix="x")
    g0, g1 = grouplike.space.labels[0]
    assignment = {"x0_0": g1, "x0_1": g0, "x0_2": g1}
    delta, eps = _reference_group_like(grouplike.space)
    return [
        ("assoc", lambda: assoc(u, v, w), _reference_assoc(u, v, w)),
        ("assoc_inv", lambda: assoc_inv(u, v, w),
         _reference_assoc_inv(u, v, w)),
        ("unit_left", lambda: unit_left(v), _reference_unit_left(v)),
        ("unit_right", lambda: unit_right(v), _reference_unit_right(v)),
        ("unit_left_inv", lambda: unit_left_inv(v),
         _reference_unit_left_inv(v)),
        ("unit_right_inv", lambda: unit_right_inv(v),
         _reference_unit_right_inv(v)),
        ("braiding", lambda: braiding(v, w), _reference_braiding(v, w)),
        ("ev_map", lambda: ev_map(v, w), _reference_ev_map(v, w)),
        ("hom_tensor_iso", lambda: hom_tensor_iso(u, v, w),
         _reference_hom_tensor_iso(u, v, w)),
        ("hom_tensor_iso_inv", lambda: hom_tensor_iso_inv(u, v, w),
         _reference_hom_tensor_iso_inv(u, v, w)),
        ("double_dual_iso",
         lambda: relabel(v, dual(dual(v)), lambda a: ("d", ("d", a))),
         _reference_double_dual_iso(v)),
        ("pairing", lambda: pairing(v), _reference_pairing(v)),
        ("unit_hom_iso", lambda: unit_hom_iso(v), _reference_unit_hom_iso(v)),
        ("dual_tensor_into_hom", lambda: dual_tensor_into_hom(unvalidated, w),
         _reference_dual_tensor_into_hom(unvalidated, w)),
        ("composition_on_ambient", lambda: composition_on_ambient(u, v, w),
         _reference_composition_on_ambient(u, v, w)),
        ("group_like delta", lambda: group_like_coalgebra(field, 2).delta,
         delta),
        ("group_like eps", lambda: group_like_coalgebra(field, 2).eps, eps),
        ("grading_comodule", lambda: grading_comodule(
            grouplike, assignment, x).rho,
         _reference_grading_rho(grouplike, assignment, x)),
    ]


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_relabelling_maps_match_the_label_reference(field, monkeypatch):
    """Each map equals its label-dict body, and none of them goes through
    ``from_images``: it is patched to raise while they are built."""
    cases = _relabel_cases(field)

    def refused(cls, *args):
        raise AssertionError("a relabelling map called from_images")

    monkeypatch.setattr(LinMap, "from_images", classmethod(refused))
    minus = field.from_int(-1)
    for name, build, want in cases:
        for scope in (nullcontext, partial(job, DEFAULT_BUDGET)):
            with scope():
                got = build()
            assert got == want, name
            assert all(_stores_no_zero(got.block(k))
                       for k in got.dom.degrees()), name
        columns = [got.apply_label(a) for _, _, a in got.dom.basis()]
        if name in ("ev_map", "pairing", "composition_on_ambient"):
            # labels that meet no matrix unit go to zero
            assert {} in columns and any(columns), name
        if name == "braiding":
            # odd past odd: the Koszul sign shows over Q and F3
            assert any(minus in col.values() for col in columns)


def test_dual_tensor_into_hom_is_an_iso():
    """C* (x) X -> [C, X] is invertible whatever the coalgebra's maps: it
    matches the labels one to one."""
    for field in (Q, F3):
        for c_dims, x_dims in (({0: 2, 1: 1}, {0: 1, 1: 2}), ({1: 2}, {0: 3}),
                               ({0: 1}, {})):
            u = GradedVect(field, c_dims, prefix="u")
            c = Coalgebra(u, zero_map(u, tensor(u, u)),
                          zero_map(u, unit_space(field)))
            x = GradedVect(field, x_dims, prefix="x")
            assert dual_tensor_into_hom(c, x).is_iso()


def _signature_cases():
    """(name, call, error) for each public map kernel given arguments of
    the wrong signature."""
    u = GradedVect(Q, {0: 1, 1: 1}, prefix="u")
    v = GradedVect(Q, {0: 2}, prefix="v")
    f2 = GradedVect(GF(2), {0: 1}, prefix="f")
    shift = LinMap.from_images(u, u, 1, {"u0_0": {"u1_0": Q.one()}})
    iv = identity_map(v)
    return [
        ("LinMap block shape", lambda: LinMap(
            v, v, 0, {0: Matrix.identity(Q, 3)}), MismatchedSignature),
        ("sub_maps", lambda: sub_maps(iv, identity_map(u)),
         MismatchedSignature),
        ("tensor across fields", lambda: tensor(v, f2),
         MismatchedSignature),
        ("hom_space across fields", lambda: hom_space(f2, v),
         MismatchedSignature),
        ("hom_map of degree 1", lambda: hom_map(shift, iv),
         MismatchedSignature),
        ("curry", lambda: curry(iv, v, v, v), MismatchedSignature),
        ("uncurry", lambda: uncurry(iv, v, v, v), MismatchedSignature),
        ("dual_map of degree 1", lambda: dual_map(shift),
         MismatchedSignature),
        ("factor_through_include", lambda: factor_through_include(
            identity_map(u), iv), MismatchedSignature),
        ("vec_to_linmap", lambda: vec_to_linmap(
            {("h", "u0_0", "u0_0"): Q.one(), ("h", "u0_0", "u1_0"): Q.one()},
            u, u), ValueError),
    ]


@pytest.mark.parametrize("name, call, error", _signature_cases(),
                         ids=[case[0] for case in _signature_cases()])
def test_map_kernels_raise_on_the_wrong_signature(name, call, error):
    """Each check on a kernel's arguments raises, with or without -O."""
    with pytest.raises(error):
        call()


def test_relabel_keeps_the_degree_check():
    x = GradedVect(Q, {0: 1, 1: 1}, prefix="x")
    y = GradedVect(Q, {0: 2}, prefix="y")
    # x1_0 would land in degree 0
    with pytest.raises(MismatchedSignature):
        relabel(x, y, lambda a: "y0_" + a[-1])
    assert relabel(x, y, lambda a: "y0_1" if a == "x0_0" else None) == \
        LinMap.from_images(x, y, 0, {"x0_0": {"y0_1": Q.one()}})


# --- the sparse kernels against dense references ------------------------------
#
# Gauss-Jordan elimination and the solve over full dense rows, walking every
# entry.  Reduced row echelon form is unique, so the sparse kernels must
# agree with them entry for entry.


def _dense_rref(field, rows, n):
    f = field
    z = f.zero()
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][c] != z), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, a) for a in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != z:
                factor = rows[i][c]
                rows[i] = [f.sub(a, f.mul(factor, b))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(r) for r in rows), pivots


def _dense_kernel(field, rows, n):
    z, o = field.zero(), field.one()
    red, pivots = _dense_rref(field, rows, n)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        vec = [z] * n
        vec[j] = o
        for r, c in enumerate(pivots):
            vec[c] = field.neg(red[r][j])
        basis.append(tuple(vec))
    return basis


def _dense_solve(field, rows, n, targets, k):
    z = field.zero()
    if n == 0:
        return () if all(x == z for t in targets for x in t) else None
    aug = [tuple(r) + tuple(t) for r, t in zip(rows, targets)]
    red, pivots = _dense_rref(field, aug, n + k)
    if any(p >= n for p in pivots):
        return None
    sol = [[z] * k for _ in range(n)]
    for r, c in enumerate(pivots):
        for j in range(k):
            sol[c][j] = red[r][n + j]
    return tuple(tuple(r) for r in sol)


def _dense_complement(field, rows, m, n):
    eye = [tuple(field.one() if i == j else field.zero() for j in range(m))
           for i in range(m)]
    _, pivots = _dense_rref(
        field, [tuple(r) + e for r, e in zip(rows, eye)], n + m)
    return [p - n for p in pivots if p >= n]


def _stores_no_zero(mat):
    return all(
        x and 0 <= j < mat.ncols for r in mat.srows for j, x in r.items()
    )


def _rand_dense(rng, field, m, n, rank=None):
    """Random dense rows; with ``rank`` the product of an m x rank and a
    rank x n factor, so rank deficiency is common."""
    if rank is None:
        return [[_rand_scalar(rng, field) for _ in range(n)]
                for _ in range(m)]
    a = _rand_dense(rng, field, m, rank)
    b = _rand_dense(rng, field, rank, n)
    return [list(r) for r in _naive_matmul(
        Matrix(field, a, rank), Matrix(field, b, n)).rows]


def _dense_shapes(rng):
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)]
    return shapes


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_rref_kernel_and_complement_match_the_dense_reference(field):
    rng = random.Random(f"dense-rref-{field.name}")
    for m, n in _dense_shapes(rng):
        for rank in (None, rng.randint(0, min(m, n))):
            rows = _rand_dense(rng, field, m, n, rank)
            mat = Matrix(field, rows, n)
            assert _stores_no_zero(mat)
            red, pivots = mat.rref()
            assert _stores_no_zero(red)
            assert (red.rows, pivots) == _dense_rref(field, rows, n)
            assert mat.rank() == len(pivots)
            assert mat.kernel_basis() == [
                {i: x for i, x in enumerate(vec) if x}
                for vec in _dense_kernel(field, rows, n)]
            assert mat.column_space_complement() == _dense_complement(
                field, rows, m, n)


# --- integer-row elimination against the field-method reference -------------


def _reference_rref(mat):
    """``Matrix.rref`` as it was before it eliminated on integer rows:
    each pivot row normalised at once, every entry through the field's
    methods.  The form is unique, and each row of the integer-row
    elimination stays a nonzero multiple of the row here, so the two
    agree entry for entry, in type and in key order too."""
    f = mat.field
    rows = [dict(r) for r in mat.srows]
    m, n = mat.nrows, mat.ncols
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot_row = next((i for i in range(r, m) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = f.inv(rows[r][c])
        prow = rows[r] = {j: f.mul(inv, a) for j, a in rows[r].items()}
        for i in range(m):
            row = rows[i]
            if i == r or c not in row:
                continue
            factor = f.neg(row[c])
            for j, b in prow.items():
                x = f.mul(factor, b)
                if j in row:
                    x = f.add(row[j], x)
                if x:
                    row[j] = x
                else:
                    del row[j]
        pivots.append(c)
        r += 1
    return Matrix.sparse(f, rows, n), pivots


def _strict_rows(mat):
    """Each row's (column, type, value) entries in key order."""
    return [[(j, type(x), x) for j, x in r.items()] for r in mat.srows]


def _assert_rref_matches_reference(mat):
    red, pivots = mat.rref()
    ref, ref_pivots = _reference_rref(mat)
    assert pivots == ref_pivots
    assert red.width == ref.width and red.field == ref.field
    assert _strict_rows(red) == _strict_rows(ref)


def _sparse_scalar(rng, field):
    """A nonzero scalar; over Q mixed denominators and either sign."""
    if field == Q:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                        rng.choice([1, 1, 2, 3, 4, 6, 7]))
    return rng.randint(1, field.p - 1)


def _sparse_systems(rng, field):
    """Seeded sparse matrices: empty and zero-width ones, then random
    ones with duplicated rows and rows that are combinations of others."""
    yield Matrix(field, [], 0)
    yield Matrix(field, [], 4)
    yield Matrix(field, [[], [], []], 0)
    for _ in range(60):
        m, n = rng.randint(1, 9), rng.randint(1, 12)
        density = rng.choice([0.15, 0.3, 0.6])
        rows = [[_sparse_scalar(rng, field) if rng.random() < density
                 else 0 for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(0, 3)):
            i, k = rng.randrange(len(rows)), rng.randrange(len(rows))
            s = _sparse_scalar(rng, field)
            if rng.random() < 0.5:
                rows.insert(rng.randrange(len(rows) + 1), list(rows[i]))
            else:
                rows.append([field.add(field.canonical(x),
                                       field.mul(s, field.canonical(y)))
                             for x, y in zip(rows[i], rows[k])])
        yield Matrix(field, rows, n)


@pytest.mark.parametrize("field", [Q, F2, F3, F5],
                         ids=["Q", "F2", "F3", "F5"])
def test_rref_matches_the_field_method_reference(field):
    """The integer-row ``rref`` agrees with the reference row for row and
    pivot for pivot, over seeded sparse systems with duplicated and
    dependent rows (over Q with mixed denominators and negative
    pivots)."""
    rng = random.Random(f"int-rref-{field.name}")
    deficient = negative = 0
    for mat in _sparse_systems(rng, field):
        _assert_rref_matches_reference(mat)
        _, pivots = _reference_rref(mat)
        deficient += len(pivots) < mat.nrows
        negative += field == Q and any(r and r[min(r)] < 0
                                       for r in mat.srows)
    assert deficient and (negative or field != Q)


def test_rref_matches_the_reference_on_a_hom_system(monkeypatch):
    """Every system a Q ``hom`` of cofree comodules over a 3-dimensional
    coalgebra with fractional structure constants eliminates, the
    largest 54 x 18, agrees with the reference."""
    from cocontra.coalg import cofree, comodule_hom_object
    from cocontra.coalg.instances import (
        conjugate_coalgebra,
        random_invertible,
        transport_comodule,
    )

    rng = random.Random("int-rref-hom")
    base = group_like_coalgebra(Q, 3)
    c = conjugate_coalgebra(base, random_invertible(base.space, rng))
    m, n = (transport_comodule(cofree(x, c), random_invertible(
        tensor(x, c.space), rng)) for x in (
            GradedVect(Q, {0: 1}, prefix="x"),
            GradedVect(Q, {0: 2}, prefix="y")))
    systems = []
    rref = Matrix.rref

    def recording(self):
        systems.append(self)
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", recording)
    with job(DEFAULT_BUDGET):
        comodule_hom_object(m, n)
    monkeypatch.undo()
    assert max(s.shape for s in systems) == (54, 18)
    assert any(type(x) is Fraction
               for s in systems for r in s.srows for x in r.values())
    for mat in systems:
        _assert_rref_matches_reference(mat)


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_solve_matrix_matches_the_dense_reference(field):
    rng = random.Random(f"dense-solve-{field.name}")
    consistent = inconsistent = 0
    for m, n in _dense_shapes(rng):
        k = rng.randint(0, 3)
        rows = _rand_dense(rng, field, m, n, rng.randint(0, min(m, n)))
        mat = Matrix(field, rows, n)
        for targets in (
            # a random right-hand side, often inconsistent
            _rand_dense(rng, field, m, k),
            # one in the column space, always consistent
            _naive_matmul(mat, Matrix(field, _rand_dense(rng, field, n, k),
                                      k)).rows,
        ):
            sol = mat.solve_matrix(Matrix(field, targets, k))
            expected = _dense_solve(field, rows, n, targets, k)
            if expected is None:
                inconsistent += 1
                assert sol is None
                continue
            consistent += 1
            assert _stores_no_zero(sol)
            assert sol.rows == expected
            assert mat @ sol == Matrix(field, targets, k)
    assert consistent and inconsistent


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_products_differences_and_scalings_store_no_zero(field):
    rng = random.Random(f"dense-arith-{field.name}")
    for m, n in _dense_shapes(rng):
        k = rng.randint(0, 4)
        a = Matrix(field, _rand_dense(rng, field, m, n), n)
        b = Matrix(field, _rand_dense(rng, field, n, k), k)
        c = Matrix(field, _rand_dense(rng, field, m, n), n)
        prod = a @ b
        assert _stores_no_zero(prod) and prod == _naive_matmul(a, b)
        diff = a - c
        assert _stores_no_zero(diff)
        assert diff.rows == tuple(
            tuple(field.sub(x, y) for x, y in zip(r1, r2))
            for r1, r2 in zip(a.rows, c.rows))
        # a difference with itself cancels every entry
        assert (a - a).is_zero() and _stores_no_zero(a - a)
        for s in (field.zero(), field.one(), _rand_scalar(rng, field)):
            scaled = scale(a, s)
            assert _stores_no_zero(scaled)
            assert scaled.rows == tuple(
                tuple(field.mul(s, x) for x in r) for r in a.rows)


def _dense_row_sites(allowed, is_site):
    """``file:line`` of every AST node that ``is_site`` picks out, over the
    package sources whose path does not start with one of ``allowed``."""
    import ast
    from pathlib import Path

    import cocontra

    root = Path(cocontra.__file__).parent
    return [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if not path.relative_to(root).as_posix().startswith(allowed)
        for node in ast.walk(ast.parse(path.read_text()))
        if is_site(node)
    ]


def test_only_the_report_writer_reads_dense_rows():
    """Dense rows exist only at the edges.  ``Matrix.rows`` builds them;
    outside matrix.py only serialize.py, which writes reports, may read
    it.  ``Matrix(...)`` takes them; outside exactlin only outside input
    (serialize.py), the reference checks (oracle.py) and random
    generation (coalg/instances.py) may call it,
    so that every vector elsewhere stays a ``{label: nonzero}`` dict and
    every block a sparse matrix."""
    import ast

    readers = _dense_row_sites(
        ("exactlin/matrix.py", "serialize.py"),
        lambda node: isinstance(node, ast.Attribute) and node.attr == "rows",
    )
    assert readers == []

    def builds_from_dense_rows(node):
        if not isinstance(node, ast.Call):
            return False
        return isinstance(node.func, ast.Name) and node.func.id == "Matrix"

    builders = _dense_row_sites(
        ("exactlin/", "serialize.py", "oracle.py", "coalg/instances.py"),
        builds_from_dense_rows,
    )
    assert builders == []
