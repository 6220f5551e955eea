"""Sparse exact matrices over a field, with just enough linear algebra for
kernels, cokernels, and factorisation problems: reduced row echelon form,
rank, nullspace bases, and linear solves.

Matrices act on column vectors; an m x n matrix maps n-space to m-space.
Each row is a ``{column: nonzero}`` dict that never holds a zero: every
operation reads the nonzeros alone and drops an entry once it cancels
(zero is the int ``0`` in both fields, and falsy).  A vector is a
one-column matrix or, where it stands alone (a nullspace basis vector),
an ``{index: nonzero}`` dict.  Entries are in their field's canonical
form (see ``fields``); the constructor brings outside input into it, and
every other operation keeps it.  Dense rows exist only at the edges: the
constructor for outside input, and the ``rows`` view that reports are
written from.  The kernels take shapes as given: ``LinMap``, which holds
every matrix the package multiplies, checks its blocks' shapes.

The two kernels that carry the work, the product and elimination, call
no field method in their inner loops.  Elimination (``rref``) over Q
works on integer rows: each row is scaled by the lcm of its
denominators, a column is cleared from a row by cross-multiplying it
with the pivot row (fraction-free, as in Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp.
1968), each new row is divided by its content, the gcd of its entries,
and each pivot row is divided by its pivot once, at the end.  Over F_p
the entries are ints already: each pivot row is normalised by its
inverse once and rows are cleared mod p inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm


@dataclass(eq=True)
class Matrix:
    field: object
    srows: tuple  # one {column: nonzero} dict per row
    width: int

    def __init__(self, field, rows, width=None):
        """Build from dense rows (outside input: ints or field elements,
        put into canonical form); width is needed when there are no
        rows."""
        rows = [tuple(r) for r in rows]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        if rows:
            inferred = len(rows[0])
            if width is None:
                width = inferred
            elif width != inferred:
                raise ValueError("width disagrees with the rows")
        elif width is None:
            width = 0
        self.field = field
        canon = field.canonical
        self.srows = tuple({j: c for j, x in enumerate(r) if (c := canon(x))}
                           for r in rows)
        self.width = width

    @classmethod
    def sparse(cls, field, srows, width):
        """Build from {column: nonzero} rows, taken as they are."""
        m = object.__new__(cls)
        m.field, m.srows, m.width = field, tuple(srows), width
        return m

    @classmethod
    def from_columns(cls, field, columns, height):
        """Build from {row: nonzero} columns, such as nullspace vectors."""
        rows = [{} for _ in range(height)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                rows[i][j] = x
        return cls.sparse(field, rows, len(columns))

    @classmethod
    def zeros(cls, field, m, n):
        return cls.sparse(field, ({} for _ in range(m)), n)

    @classmethod
    def identity(cls, field, n):
        one = field.one()
        return cls.sparse(field, ({i: one} for i in range(n)), n)

    @property
    def rows(self) -> tuple:
        """Dense rows, for writing reports."""
        z = self.field.zero()
        cols = range(self.width)
        return tuple(tuple(r.get(j, z) for j in cols) for r in self.srows)

    @property
    def nrows(self) -> int:
        return len(self.srows)

    @property
    def ncols(self) -> int:
        return self.width

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.srows[i].get(j, self.field.zero())

    def __sub__(self, other) -> "Matrix":
        f = self.field
        out = []
        for r1, r2 in zip(self.srows, other.srows):
            row = dict(r1)
            for j, b in r2.items():
                x = f.sub(row[j], b) if j in row else f.neg(b)
                if x:
                    row[j] = x
                else:
                    del row[j]
            out.append(row)
        return Matrix.sparse(f, out, self.width)

    def __matmul__(self, other) -> "Matrix":
        """The product.  Each entry of a row is summed as an integer over
        the row's common denominator and becomes a field element once
        (``from_ratio``), so the inner loop does no Fraction arithmetic
        and a product over Q costs about the same whether its entries are
        integral or not; over F_p every denominator is 1."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ratio = self.field.from_ratio
        brows = other.srows
        out = []
        for r in self.srows:
            acc, den = {}, 1  # entry j is acc[j] / den
            for t, a in r.items():
                if type(a) is int:
                    na, da = a, 1
                else:
                    na, da = a.numerator, a.denominator
                for j, b in brows[t].items():
                    if type(b) is int:
                        n, d = na * b, da
                    else:
                        n, d = na * b.numerator, da * b.denominator
                    if d != den:
                        if den % d:
                            # widen den to lcm(den, d)
                            up = d // gcd(den, d)
                            for k in acc:
                                acc[k] *= up
                            den *= up
                        n *= den // d
                    acc[j] = acc[j] + n if j in acc else n
            out.append({j: x for j, s in acc.items()
                        if s and (x := ratio(s, den))})
        return Matrix.sparse(self.field, out, other.ncols)

    def is_zero(self) -> bool:
        return not any(self.srows)

    def hstack(self, other) -> "Matrix":
        w = self.width
        return Matrix.sparse(self.field, (
            {**r1, **{j + w: x for j, x in r2.items()}}
            for r1, r2 in zip(self.srows, other.srows)), w + other.width)

    def rref(self):
        """Reduced row echelon form and the pivot column indices.

        Pivots are taken column by column, each from the first remaining
        row that holds the column; the form is unique, so the choice does
        not show in the result.  Over Q the rows are integer rows: row i
        holding a in the pivot column of a pivot row holding p becomes
        (p/g) row_i - (a/g) pivot_row, g = gcd(p, a), divided by its
        content, and each pivot row is divided by its pivot, made
        positive, at the end (``from_ratio``).  Every row so stays a
        nonzero multiple of the row that normalising each pivot row at
        once would hold, with the same zeros.  Over F_p each pivot row is
        normalised by its inverse once and rows are cleared mod p."""
        p = getattr(self.field, "p", None)
        if p is None:
            rows, pivots = _rref_int(self.srows, self.width,
                                     self.field.from_ratio)
        else:
            rows, pivots = _rref_mod(self.srows, self.width, p)
        return Matrix.sparse(self.field, rows, self.width), pivots

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        _, pivots = self.rref()
        return len(pivots)

    def kernel_basis(self):
        """The nullspace basis in canonical order: one ``{index: nonzero}``
        column per free column j, holding 1 at j and minus the reduced
        column j at the pivots (all of which lie left of j)."""
        f = self.field
        one = f.one()
        red, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for j in range(self.ncols):
            if j in pivot_set:
                continue
            vec = {c: f.neg(x) for c, row in zip(pivots, red.srows)
                   if (x := row.get(j))}
            vec[j] = one
            basis.append(vec)
        return basis

    def solve_matrix(self, targets: "Matrix"):
        """One solution X of self @ X = targets, or None."""
        n, k = self.ncols, targets.ncols
        if n == 0:
            if targets.is_zero():
                return Matrix.zeros(self.field, 0, k)
            return None
        red, pivots = self.hstack(targets).rref()
        # any pivot in the target block means inconsistency
        if pivots and pivots[-1] >= n:
            return None
        sol = [{} for _ in range(n)]
        for r, c in enumerate(pivots):
            sol[c] = {j - n: x for j, x in red.srows[r].items() if j >= n}
        return Matrix.sparse(self.field, sol, k)

    def column_space_complement(self):
        """Indices of standard basis vectors extending the column space to
        the whole target, greedily from the lowest index.

        These are the pivots of rref([self | I]) inside the identity block:
        e_i is a pivot exactly when it lies outside the span of the columns
        and of e_0 ... e_(i-1).
        """
        n = self.ncols
        _, pivots = self.hstack(Matrix.identity(self.field, self.nrows)).rref()
        return [p - n for p in pivots if p >= n]


def _rref_int(srows, n, ratio):
    """``rref`` over Q on integer rows; ``ratio`` is ``QQ.from_ratio``."""
    rows = []
    for row in srows:
        den = 1
        for x in row.values():
            if type(x) is not int:
                den = lcm(den, x.denominator)
        rows.append(dict(row) if den == 1 else {
            j: x * den if type(x) is int
            else x.numerator * (den // x.denominator)
            for j, x in row.items()})
    m = len(rows)
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        for i in range(r, m):
            if c in rows[i]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            a = row[c]
            g = gcd(pv, a)
            mp, ma = pv // g, a // g
            if mp != 1:
                row = {j: mp * x for j, x in row.items()}
            for j, b in prow.items():
                x = row[j] - ma * b if j in row else -ma * b
                if x:
                    row[j] = x
                else:
                    del row[j]
            if row:
                g = gcd(*row.values())
                if g != 1:
                    row = {j: x // g for j, x in row.items()}
            rows[i] = row
        pivots.append(c)
        r += 1
    for i, c in enumerate(pivots):
        row = rows[i]
        pv = row[c]
        if pv < 0:
            pv = -pv
            row = {j: -x for j, x in row.items()}
        if pv != 1:
            row = {j: ratio(x, pv) for j, x in row.items()}
        rows[i] = row
    return rows, pivots


def _rref_mod(srows, n, p):
    """``rref`` over F_p, entries ints in range(p)."""
    rows = [dict(r) for r in srows]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        for i in range(r, m):
            if c in rows[i]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            inv = pow(pv, p - 2, p)
            prow = rows[r] = {j: x * inv % p for j, x in prow.items()}
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            a = row[c]
            for j, b in prow.items():
                x = (row[j] - a * b) % p if j in row else -a * b % p
                if x:
                    row[j] = x
                else:
                    del row[j]
        pivots.append(c)
        r += 1
    return rows, pivots
