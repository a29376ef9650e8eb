"""Dense exact matrices over QQ or GF(p), with the kernels everything
else reduces to: RREF, rank, null space, image, solving, Kronecker
products.

Matrices are immutable by convention; 0 x n and n x 0 shapes are legal
and behave as empty maps.  Reduction is Gauss-Jordan elimination to
reduced row echelon form with first-nonzero pivoting, so all outputs
are deterministic.  Over QQ it runs fraction-free on integer rows and
divides by the pivots only at the end; over GF(p) it runs on the field
elements.  The RREF of a row space is unique, so both give the same R.
Over QQ, the constructor (through ``FieldSpec.of``) and the RREF store
each integral entry as an int (field.py).
"""

from __future__ import annotations

from math import gcd, lcm

from .field import _RAT, FieldSpec


class Matrix:
    __slots__ = ("field", "rows", "cols", "data", "_rref")

    def __init__(self, field: FieldSpec, rows: int, cols: int, data=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            z = field.zero()
            self.data = [[z] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data shape mismatch")
            self.data = [[field.of(x) for x in row] for row in data]
        self._rref = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _adopt(cls, field, rows, cols, data):
        """A matrix owning `data`: rows x cols nested lists already of
        field elements, taken as they are, with no copy or coercion."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.data = data
        m._rref = None
        return m

    @staticmethod
    def identity(field, n):
        m = Matrix(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
        return m

    @staticmethod
    def from_rows(field, rows):
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        return Matrix(field, nr, nc, rows)

    @staticmethod
    def from_cols(field, cols, nrows=None):
        if not cols:
            if nrows is None:
                raise ValueError("need nrows for an empty column list")
            return Matrix(field, nrows, 0)
        nr = len(cols[0])
        m = Matrix(field, nr, len(cols))
        for j, c in enumerate(cols):
            for i in range(nr):
                m.data[i][j] = field.of(c[i])
        return m

    def copy(self):
        return Matrix._adopt(self.field, self.rows, self.cols,
                             [row[:] for row in self.data])

    # -- basic algebra ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix._adopt(self.field, self.rows, self.cols, [
            [(a + b if b else a) if a else b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.data, other.data)
        ])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._adopt(self.field, self.rows, self.cols,
                             [[-a for a in row] for row in self.data])

    def scale(self, c):
        c = self.field.of(c)
        if c == 1:
            return self.copy()
        data = [[c * a if a else a for a in row] for row in self.data]
        return Matrix._adopt(self.field, self.rows, self.cols, data)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch in product: %dx%d @ %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        out = Matrix(self.field, self.rows, other.cols)
        if self.cols == 0:
            return out
        ot = other.data
        for i in range(self.rows):
            srow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                s = srow[k]
                if not s:
                    continue
                trow = ot[k]
                for j in range(other.cols):
                    t = trow[j]
                    if t:
                        orow[j] = orow[j] + s * t
        return out

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.data:
            s = self.field.zero()
            for a, x in zip(row, v):
                if a and x:
                    s = s + a * x
            out.append(s)
        return out

    def transpose(self):
        data = ([list(col) for col in zip(*self.data)] if self.rows
                else [[] for _ in range(self.cols)])
        return Matrix._adopt(self.field, self.cols, self.rows, data)

    def kron(self, other):
        """Kronecker product, row-major block convention:
        entry ((i*other.rows + k), (j*other.cols + l)) = a[i][j] * b[k][l]."""
        m = Matrix(self.field, self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if not a:
                    continue
                for k in range(other.rows):
                    orow = other.data[k]
                    mrow = m.data[i * other.rows + k]
                    base = j * other.cols
                    for l in range(other.cols):
                        b = orow[l]
                        if b:
                            mrow[base + l] = a * b
        return m

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        data = [r1 + r2 for r1, r2 in zip(self.data, other.data)]
        return Matrix._adopt(self.field, self.rows, self.cols + other.cols, data)

    def col(self, j):
        return [row[j] for row in self.data]

    def select_cols(self, js):
        return Matrix._adopt(self.field, self.rows, len(js),
                             [[row[j] for j in js] for row in self.data])

    def is_zero(self):
        return all(not a for row in self.data for a in row)

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot_columns)."""
        if self._rref is not None:
            return self._rref
        if self.field.kind == "rationals":
            R, pivots = _rref_integral(self.data, self.rows, self.cols)
        else:
            R, pivots = self._rref_generic()
        self._rref = (Matrix._adopt(self.field, self.rows, self.cols, R),
                      tuple(pivots))
        return self._rref

    def _rref_generic(self):
        R = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            pr = None
            for i in range(r, self.rows):
                if R[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            R[r], R[pr] = R[pr], R[r]
            prow = R[r]
            if prow[c] != 1:
                inv = self.field.inv(prow[c])
                prow = R[r] = [a * inv if a else a for a in prow]
            # columns left of c are zero in the pivot row
            nz = [j for j in range(c, self.cols) if prow[j]]
            for i in range(self.rows):
                row = R[i]
                f = row[c]
                if i != r and f:
                    for j in nz:
                        row[j] = row[j] - f * prow[j]
            pivots.append(c)
            r += 1
        return R, pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Columns span the null space {x : self @ x = 0}."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        cols = []
        zero, one = self.field.zero(), self.field.one()
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for i, pc in enumerate(pivots):
                v[pc] = -R.data[i][fc]
            cols.append(v)
        return Matrix.from_cols(self.field, cols, nrows=self.cols)

    def image_basis(self):
        """Columns form a basis of the column space (original pivot columns)."""
        _, pivots = self.rref()
        return self.select_cols(list(pivots))

    def solve(self, b):
        """One solution x of self @ x = b, or None if b is outside the image."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        X = self.solve_matrix(Matrix.from_cols(self.field, [b], nrows=self.rows))
        return None if X is None else X.col(0)

    def solve_matrix(self, B):
        """X with self @ X = B, or None.  One RREF of [self | B]; the
        free coordinates of each column of X are 0."""
        R, pivots = self.hstack(B).rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        X = Matrix(self.field, self.cols, B.cols)
        for i, pc in enumerate(pivots):
            X.data[pc] = R.data[i][self.cols:]
        return X

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug = self.hstack(Matrix.identity(self.field, self.rows))
        R, pivots = aug.rref()
        if list(pivots[: self.rows]) != list(range(self.rows)):
            return None
        return R.select_cols(list(range(self.rows, 2 * self.rows)))

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    def __repr__(self):
        return "Matrix(%dx%d over %r)" % (self.rows, self.cols, self.field)


def rank(m: Matrix) -> int:
    return m.rank()


def _integer_row(row):
    """row times the lcm of its denominators, as ints, divided by the
    gcd of its entries (a positive multiple of row)."""
    try:
        g = gcd(*row)  # a TypeError unless every entry is an int
    except TypeError:
        den = lcm(*(int(x.denominator) for x in row if type(x) is not int))
        row = [x * den if type(x) is int
               else int(x.numerator) * (den // int(x.denominator)) for x in row]
        g = gcd(*row)
    return [x // g for x in row] if g > 1 else row[:]


def _rref_integral(data, nrows, ncols):
    """Fraction-free Gauss-Jordan over QQ (von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 5): the rows are scaled to integer rows,
    each update row <- (a/g) row - (f/g) pivot_row with g = gcd(a, f)
    stays integral and is divided by the gcd of its entries, and the
    pivot rows are divided by their pivots only at the end.  The RREF of
    a row space is unique, so this equals the reduction over QQ."""
    R = [_integer_row(row) for row in data]
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = None
        for i in range(r, nrows):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        prow = R[pr]
        if prow[c] < 0:
            # a pivot -1 then skips the row scaling below, as 1 does
            prow = [-x for x in prow]
        R[pr] = R[r]
        R[r] = prow
        a = prow[c]
        # columns left of c are zero in the pivot row
        nz = [j for j in range(c, ncols) if prow[j]]
        for i in range(nrows):
            row = R[i]
            f = row[c]
            if i == r or not f:
                continue
            g = gcd(a, f)
            if g != a:
                ag = a // g
                row = [ag * x for x in row]
            fg = f // g
            for j in nz:
                row[j] -= fg * prow[j]
            g = gcd(*row)
            R[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    for i, c in enumerate(pivots):
        p = R[i][c]
        if p != 1:
            R[i] = [x // p if not x % p else _RAT(x, p) for x in R[i]]
    return R, pivots
