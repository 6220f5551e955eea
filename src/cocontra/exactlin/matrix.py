"""Dense exact matrices over a field, with just enough linear algebra for
kernels, cokernels, and factorisation problems: reduced row echelon form,
rank, nullspace bases, and linear solves.

Matrices act on column vectors; an m x n matrix maps n-space to m-space.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(eq=True)
class Matrix:
    field: object
    rows: tuple
    width: int | None = None  # needed when there are no rows

    def __post_init__(self):
        if type(self.rows) is not tuple or not all(
            type(r) is tuple for r in self.rows
        ):
            self.rows = tuple(tuple(r) for r in self.rows)
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        if self.rows:
            inferred = len(self.rows[0])
            if self.width is None:
                self.width = inferred
            elif self.width != inferred:
                raise ValueError("width disagrees with the rows")
        elif self.width is None:
            self.width = 0

    @classmethod
    def from_rows(cls, field, rows, width=None):
        return cls(
            field,
            tuple(
                tuple(
                    field.from_int(x) if isinstance(x, int) else x for x in r
                )
                for r in rows
            ),
            width,
        )

    @classmethod
    def zeros(cls, field, m, n):
        z = field.zero()
        return cls(
            field, tuple(tuple(z for _ in range(n)) for _ in range(m)), n
        )

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(
            field,
            tuple(
                tuple(o if i == j else z for j in range(n)) for i in range(n)
            ),
            n,
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.width

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            tuple(
                tuple(self.rows[i][j] for i in range(self.nrows))
                for j in range(self.ncols)
            ),
            self.nrows,
        )

    def __add__(self, other) -> "Matrix":
        f = self.field
        return Matrix(
            f,
            tuple(
                tuple(f.add(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
            self.width,
        )

    def __sub__(self, other) -> "Matrix":
        f = self.field
        return Matrix(
            f,
            tuple(
                tuple(f.sub(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
            self.width,
        )

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(
            f,
            tuple(tuple(f.mul(c, a) for a in r) for r in self.rows),
            self.width,
        )

    def __matmul__(self, other) -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        bt = other.transpose().rows
        return Matrix(
            f,
            tuple(tuple(_dot(f, r, c) for c in bt) for r in self.rows),
            other.ncols,
        )

    def apply(self, vec):
        """Matrix times column vector (a tuple)."""
        return tuple(_dot(self.field, r, vec) for r in self.rows)

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(a == z for r in self.rows for a in r)

    def hstack(self, other) -> "Matrix":
        assert self.nrows == other.nrows
        return Matrix(
            self.field,
            tuple(r1 + r2 for r1, r2 in zip(self.rows, other.rows)),
            self.width + other.width,
        )

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def rref(self):
        """Reduced row echelon form and the pivot column indices."""
        f = self.field
        z = f.zero()
        rows = [list(r) for r in self.rows]
        m, n = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(n):
            if r >= m:
                break
            pivot_row = next(
                (i for i in range(r, m) if rows[i][c] != z), None
            )
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = f.inv(rows[r][c])
            rows[r] = [f.mul(inv, a) for a in rows[r]]
            for i in range(m):
                if i != r and rows[i][c] != z:
                    factor = rows[i][c]
                    rows[i] = [
                        f.sub(a, f.mul(factor, b))
                        for a, b in zip(rows[i], rows[r])
                    ]
            pivots.append(c)
            r += 1
        return Matrix(f, tuple(tuple(r) for r in rows), n), pivots

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        _, pivots = self.rref()
        return len(pivots)

    def kernel_basis(self):
        """Column vectors spanning the nullspace, in canonical order."""
        f = self.field
        z, o = f.zero(), f.one()
        n = self.ncols
        if n == 0:
            return []
        if self.nrows == 0:
            return [
                tuple(o if i == j else z for i in range(n)) for j in range(n)
            ]
        red, pivots = self.rref()
        free = [j for j in range(n) if j not in pivots]
        basis = []
        for j in free:
            vec = [z] * n
            vec[j] = o
            for r, c in enumerate(pivots):
                vec[c] = f.neg(red.rows[r][j])
            basis.append(tuple(vec))
        return basis

    def solve(self, target):
        """One solution x of self @ x = target, or None."""
        sol = self.solve_matrix(
            Matrix(self.field, tuple((t,) for t in target), 1)
        )
        return None if sol is None else sol.column(0)

    def solve_matrix(self, targets: "Matrix"):
        """One solution X of self @ X = targets, or None."""
        f = self.field
        z = f.zero()
        m, n = self.nrows, self.ncols
        k = targets.ncols
        assert targets.nrows == m
        if n == 0:
            if targets.is_zero():
                return Matrix.zeros(f, 0, k)
            return None
        aug = self.hstack(targets)
        red, pivots = aug.rref()
        # any pivot in the target block means inconsistency
        if any(p >= n for p in pivots):
            return None
        sol = [[z] * k for _ in range(n)]
        for r, c in enumerate(pivots):
            for j in range(k):
                sol[c][j] = red.rows[r][n + j]
        return Matrix(f, tuple(tuple(r) for r in sol), k)

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


def _dot(f, row, col):
    """Sum of row[i] * col[i] over the terms whose factors are both
    nonzero; a skipped term would add the field's zero, which changes no
    sum (both fields' zeros, Fraction(0) and 0, are falsy)."""
    acc = f.zero()
    for a, b in zip(row, col):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc
