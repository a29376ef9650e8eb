"""Dense exact matrices over QQ or GF(p), with the kernels everything
else reduces to: RREF, rank, null space, image, solving, Kronecker
products.

Matrices are immutable by convention; 0 x n and n x 0 shapes are legal
and behave as empty maps.  Reduction is Gauss-Jordan elimination to
reduced row echelon form with first-nonzero pivoting, so all outputs
are deterministic.  Over QQ it runs fraction-free on integer rows and
divides by the pivots only at the end; over GF(p) it runs on int rows
reduced mod p.  The RREF of a row space is unique, so both give the
same R.  Entries are canonical (field.py): over QQ each integral entry
is an int, and over GF(p) every entry is an int in [0, p).  The
constructor gets them through ``FieldSpec.of``; every operation that
adds or multiplies entries accumulates in ints and reduces each output
row once.  Operations on two matrices refuse operands over different
fields.
"""

from __future__ import annotations

from math import gcd, lcm

from .field import _RAT, FieldSpec


def _same_field(a, b):
    if a.field is not b.field and a.field != b.field:
        raise TypeError("field mismatch: %r and %r" % (a.field, b.field))


def _reduced(field, data):
    """data (rows of entries) with each entry reduced mod p over GF(p);
    data itself over QQ."""
    p = field.p
    return [[x % p for x in row] for row in data] if p else data


class Matrix:
    # _rref keeps the RREF in a slot, not in memo: Matrix has no _cache,
    # and the traced benchmark reads the slot to count RREF reuse
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
        _same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix._adopt(self.field, self.rows, self.cols, _reduced(
            self.field,
            [[(a + b if b else a) if a else b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)]))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._adopt(self.field, self.rows, self.cols, _reduced(
            self.field, [[-a for a in row] for row in self.data]))

    def scale(self, c):
        c = self.field.of(c)
        if c == 1:
            return self.copy()
        data = [[c * a if a else a for a in row] for row in self.data]
        return Matrix._adopt(self.field, self.rows, self.cols,
                             _reduced(self.field, data))

    def __matmul__(self, other):
        _same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch in product: %dx%d @ %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        p = self.field.p
        ncols = other.cols
        ot = other.data
        out = []
        for srow in self.data:
            orow = [0] * ncols
            for s, trow in zip(srow, ot):
                if s:
                    for j, t in enumerate(trow):
                        if t:
                            orow[j] += s * t
            out.append([x % p for x in orow] if p else orow)
        return Matrix._adopt(self.field, self.rows, ncols, out)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        out = [sum(a * x for a, x in zip(row, v) if a and x)
               for row in self.data]
        return [s % p for s in out] if p else out

    def transpose(self):
        data = ([list(col) for col in zip(*self.data)] if self.rows
                else [[] for _ in range(self.cols)])
        return Matrix._adopt(self.field, self.cols, self.rows, data)

    def kron(self, other):
        """Kronecker product, row-major block convention:
        entry ((i*other.rows + k), (j*other.cols + l)) = a[i][j] * b[k][l]."""
        _same_field(self, other)
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
        m.data = _reduced(self.field, m.data)
        return m

    def hstack(self, other):
        _same_field(self, other)
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
        p = self.field.p
        if p:
            R, pivots = _rref_mod_p(self.data, self.rows, self.cols, p)
        else:
            R, pivots = _rref_integral(self.data, self.rows, self.cols)
        self._rref = (Matrix._adopt(self.field, self.rows, self.cols, R),
                      tuple(pivots))
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Columns span the null space {x : self @ x = 0}."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        p = self.field.p
        data = [[0] * len(free) for _ in range(self.cols)]
        for k, fc in enumerate(free):
            data[fc][k] = 1
            for i, pc in enumerate(pivots):
                x = R.data[i][fc]
                data[pc][k] = -x % p if p else -x
        return Matrix._adopt(self.field, self.cols, len(free), data)

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


def _rref_mod_p(data, nrows, ncols, p):
    """Gauss-Jordan over GF(p) on int rows, each entry reduced mod p as
    it is written."""
    R = [row[:] for row in data]
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
        R[r], R[pr] = R[pr], R[r]
        prow = R[r]
        if prow[c] != 1:
            inv = pow(prow[c], -1, p)
            prow = R[r] = [a * inv % p for a in prow]
        # columns left of c are zero in the pivot row
        nz = [j for j in range(c, ncols) if prow[j]]
        for i in range(nrows):
            row = R[i]
            f = row[c]
            if i != r and f:
                f = p - f
                for j in nz:
                    row[j] = (row[j] + f * prow[j]) % p
        pivots.append(c)
        r += 1
    return R, pivots
