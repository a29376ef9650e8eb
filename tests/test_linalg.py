"""Exact linear algebra over the rationals and GF(p).

Oracle: hand-checked small matrices, algebraic identities
(rank-nullity, A @ kernel = 0, solve consistency) and a plain dense
Gauss-Jordan elimination written below."""

import random
from fractions import Fraction

import pytest

from gptau.field import GF, QQ
from gptau.linalg import Matrix
from gptau.algebra import linear_a_n
from gptau.module import (
    hom,
    injective_modules,
    projective_modules,
    rad_end,
    regular_module,
)


def mat(f, rows):
    m = Matrix(f, len(rows), len(rows[0]) if rows else 0)
    m.data = [[f.of(x) for x in r] for r in rows]
    return m


@pytest.fixture(params=[QQ, GF(7)])
def f(request):
    return request.param


def test_rref_idempotent_known_rank(f):
    a = mat(f, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert a.rank() == 2
    r = a.rref()[0]
    assert r.rref()[0] == r


def test_rank_nullity(f):
    a = mat(f, [[1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1]])
    k = a.kernel_basis()
    assert a.rank() + k.cols == a.cols
    prod = a @ k
    assert all(not x for row in prod.data for x in row)


def test_solve_exact_rationals():
    a = mat(QQ, [[2, 1], [1, 3]])
    b = [QQ.of(1), QQ.of(0)]
    x = a.solve(b)
    assert x == [QQ.of("3/5"), QQ.of("-1/5")]


def test_solve_inconsistent_returns_none(f):
    a = mat(f, [[1, 1], [1, 1]])
    assert a.solve([f.of(1), f.of(2)]) is None


def test_inverse_round_trip(f):
    a = mat(f, [[1, 2], [3, 5]])
    inv = a.inverse()
    assert a @ inv == Matrix.identity(f, 2)
    singular = mat(f, [[1, 2], [2, 4]])
    assert singular.inverse() is None


def test_image_basis_spans_columns(f):
    a = mat(f, [[1, 2, 3], [0, 0, 1]])
    img = a.image_basis()
    assert img.cols == 2
    for j in range(a.cols):
        assert img.hstack(Matrix.from_cols(f, [a.col(j)], nrows=2)).rank() == 2


def test_kron_dimensions_and_values():
    a = mat(QQ, [[1, 2]])
    b = mat(QQ, [[3], [4]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (2, 2)
    assert [[str(x) for x in r] for r in k.data] == [["3", "6"], ["4", "8"]]


def test_gf_division_by_zero_raises():
    f = GF(5)
    for zero in (f.of(0), f.of(5), 10):
        with pytest.raises(ZeroDivisionError):
            f.inv(zero)
    with pytest.raises(ZeroDivisionError):
        f.of(Fraction(1, 5))


def test_rational_string_round_trip():
    x = QQ.of("22/7")
    assert QQ.of(str(x)) == x
    assert x.numerator == 22 and x.denominator == 7


# -- cross-check against a plain dense Gauss-Jordan elimination ----------
#
# rref() skips zero entries and multiplication by one; the reference
# below touches every entry, so any shortcut that changes a value shows
# up as an entrywise difference.


def dense_rref(f, rows, ncols):
    R = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(R):
            break
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        # over QQ an exact 1 to divide by (QQ.one() is the int 1); over
        # GF(p) the modular inverse, every entry reduced as it is written
        inv = Fraction(1) / R[r][c] if f == QQ else f.inv(R[r][c])
        R[r] = [f.of(a * inv) for a in R[r]]
        for i in range(len(R)):
            if i != r:
                fac = R[i][c]
                R[i] = [f.of(a - fac * b) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, tuple(pivots)


def random_matrix(f, rng, rows, cols, density, zero_rows=0):
    """Seeded random matrix; nonzero entries are rarely 1 and never -1,
    so most pivots are not 1, and over QQ some carry denominators."""

    def entry():
        if rng.random() >= density:
            return 0
        v = rng.choice([-5, -3, -2, 2, 3, 4, 6, 1])
        if f == QQ and rng.random() < 0.3:
            return Fraction(v, rng.choice([2, 3, 5]))
        return v

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in rng.sample(range(rows), min(zero_rows, rows)):
        data[i] = [0] * cols
    return Matrix(f, rows, cols, data)


CROSS_CASES = {
    # name: (rows, cols, density, zero rows)
    "sparse": (6, 8, 0.2, 0),
    "dense": (5, 5, 1.0, 0),
    "dense-wide": (4, 9, 0.9, 0),
    "dense-tall": (9, 4, 0.9, 0),
    "zero-rows": (7, 6, 0.6, 3),
    "square-sparse": (6, 6, 0.35, 0),
    "0xn": (0, 5, 1.0, 0),
    "nx0": (5, 0, 1.0, 0),
}


def cross_matrices(f, case):
    rows, cols, density, zr = CROSS_CASES[case]
    rng = random.Random("%s/%r" % (case, f))
    return [random_matrix(f, rng, rows, cols, density, zr) for _ in range(25)]


@pytest.mark.parametrize("case", sorted(CROSS_CASES))
def test_rref_matches_dense_reference(f, case):
    for a in cross_matrices(f, case):
        R, pivots = a.rref()
        ref, ref_pivots = dense_rref(f, a.data, a.cols)
        assert pivots == ref_pivots
        assert (R.rows, R.cols) == (a.rows, a.cols)
        assert R.data == ref


@pytest.mark.parametrize("case", sorted(CROSS_CASES))
def test_kernel_solve_inverse_identities(f, case):
    rng = random.Random(case)
    for a in cross_matrices(f, case):
        k = a.kernel_basis()
        assert (k.rows, k.cols) == (a.cols, a.cols - a.rank())
        assert (a @ k).is_zero()
        assert k.rank() == k.cols
        x0 = [f.of(rng.randint(-3, 3)) for _ in range(a.cols)]
        b = a.mul_vec(x0)
        x = a.solve(b)
        assert x is not None and a.mul_vec(x) == b
        B = a @ random_matrix(f, rng, a.cols, 3, 0.7)
        X = a.solve_matrix(B)
        assert a @ X == B
        assert X == Matrix.from_cols(f, [a.solve(B.col(j)) for j in range(3)])
        if a.rank() < a.rows:
            # a vector outside the column space is refused
            outside = [
                e for e in Matrix.identity(f, a.rows).data
                if a.hstack(Matrix.from_cols(f, [e])).rank() > a.rank()
            ]
            assert a.solve(outside[0]) is None
            assert a.solve_matrix(Matrix.from_cols(f, [outside[0]]).hstack(B)) is None
        if a.rows == a.cols:
            inv = a.inverse()
            if a.rank() == a.rows:
                ident = Matrix.identity(f, a.rows)
                assert a @ inv == ident and inv @ a == ident
            else:
                assert inv is None


def test_scale_add_action_match_entrywise_formula(battery):
    rng = random.Random(11)
    scalars = [QQ.of(x) for x in (0, 1, -1, 2, "1/3", "-5/2")]
    for name, alg in battery.items():
        f = alg.field
        mods = [regular_module(alg)] + projective_modules(alg)
        mods += injective_modules(alg)
        for m in mods:
            for _ in range(4):
                c, d = rng.choice(scalars), rng.choice(scalars)
                a, b = rng.choice(m.actions), rng.choice(m.actions)
                assert a.scale(c).data == [[c * x for x in r] for r in a.data]
                assert (a + b.scale(d)).data == [
                    [x + d * y for x, y in zip(r, s)]
                    for r, s in zip(a.data, b.data)
                ]
                vec = [rng.choice(scalars) for _ in range(alg.dim)]
                expect = [[f.zero()] * m.dim for _ in range(m.dim)]
                for ck, act in zip(vec, m.actions):
                    expect = [
                        [e + ck * x for e, x in zip(er, ar)]
                        for er, ar in zip(expect, act.data)
                    ]
                assert m.action_of(vec).data == expect, name


# -- the integer-row elimination over QQ and the scalar representation ----


def big_rational_matrix(rng, rows=12, cols=16, rank=None, negate=False):
    """Dense seeded matrix, entries up to +-50, about 30% of them with a
    denominator; with `rank`, rows are combinations of `rank` rows."""

    def entry():
        v = rng.randint(-50, 50)
        return Fraction(v, rng.choice([2, 3, 4, 7])) if rng.random() < 0.3 else v

    base = [[entry() for _ in range(cols)] for _ in range(rank or rows)]
    if rank is None:
        data = base
    else:
        data = [
            [sum((c * x for c, x in zip(coeffs, col)), Fraction(0)) for col in zip(*base)]
            for coeffs in ([rng.randint(-3, 3) for _ in base] for _ in range(rows))
        ]
    if negate:
        data = [[-x for x in row] for row in data]
    return Matrix(QQ, rows, cols, data)


@pytest.mark.parametrize("rank", [None, 3, 7, 11])
@pytest.mark.parametrize("negate", [False, True])
def test_integer_rref_matches_dense_reference_on_large_rationals(rank, negate):
    rng = random.Random("big/%r/%r" % (rank, negate))
    negative_first_pivots = 0
    for _ in range(6):
        a = big_rational_matrix(rng, rank=rank, negate=negate)
        R, pivots = a.rref()
        ref, ref_pivots = dense_rref(QQ, a.data, a.cols)
        assert pivots == ref_pivots
        assert len(pivots) == (rank or 12)
        assert R.data == ref
        c = pivots[0]
        negative_first_pivots += next(row[c] for row in a.data if row[c]) < 0
    assert negative_first_pivots > 0


def assert_canonical(m):
    """Over QQ every entry is an int or a rational with a denominator > 1;
    over GF(p) every entry is an int in [0, p)."""
    p = m.field.p
    for row in m.data:
        for x in row:
            assert not isinstance(x, float), x
            if p:
                assert type(x) is int and 0 <= x < p, (repr(x), p)
            else:
                assert type(x) is int or x.denominator != 1, repr(x)


def test_rational_entries_are_ints_when_integral():
    rng = random.Random("canonical")
    half = Fraction(1, 2)
    built = Matrix(QQ, 1, 4, [[Fraction(4, 2), half, "6/3", True]])
    assert built.data == [[2, half, 2, 1]]
    assert_canonical(built)
    assert_canonical(Matrix.from_cols(QQ, [[Fraction(3), half]]))
    for rank in (None, 5):
        for _ in range(3):
            a = big_rational_matrix(rng, 8, 8, rank=rank)
            b = big_rational_matrix(rng, 8, 3)
            assert_canonical(a)
            assert_canonical(a.rref()[0])
            assert_canonical(a.kernel_basis())
            inv = a.inverse()
            assert (inv is None) == (rank is not None)
            if inv is not None:
                assert_canonical(inv)
                assert_canonical(a.solve_matrix(b))
            assert_canonical(a.solve_matrix(a @ b))


def test_qq_of_demotes_integral_rationals():
    assert type(QQ.zero()) is int and QQ.zero() == 0
    assert type(QQ.one()) is int and QQ.one() == 1
    for x, want in [(5, 5), (Fraction(6, 3), 2), ("4/2", 2), ("-7", -7),
                    (True, 1), (False, 0)]:
        y = QQ.of(x)
        assert type(y) is int and y == want, (x, y)
    for x, want in [(Fraction(1, 2), Fraction(1, 2)), ("-3/6", Fraction(-1, 2))]:
        y = QQ.of(x)
        assert y == want and y.denominator == want.denominator


def test_gf_of_reduces_into_range():
    f = GF(7)
    assert (f.zero(), f.one()) == (0, 1)
    for x, want in [(3, 3), (10, 3), (-1, 6), (-14, 0), (True, 1),
                    (Fraction(1, 2), 4), ("-3/2", 2), ("5", 5)]:
        y = f.of(x)
        assert type(y) is int and y == want, (x, y)


@pytest.mark.parametrize("a, b", [(QQ, GF(7)), (GF(5), GF(7)), (GF(7), QQ)])
def test_field_mismatch_raises(a, b):
    x = Matrix.identity(a, 2)
    y = Matrix.identity(b, 2)
    for op in (lambda: x @ y, lambda: x + y, lambda: x - y,
               lambda: x.hstack(y), lambda: x.solve_matrix(y),
               lambda: x.kron(y)):
        with pytest.raises(TypeError, match="field mismatch"):
            op()
    # equal fields built apart are the same field
    z = Matrix.identity(GF(7) if b.p else QQ, 2)
    assert y @ z == y and (y + z).data == (y.scale(2)).data


def test_inv_is_exact():
    for f in (QQ, GF(7)):
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero())
        for v in (1, -1, 2, 3, -5, 6):
            x = f.of(v)
            assert f.of(x * f.inv(x)) == f.one()
    assert QQ.inv(3) == Fraction(1, 3)
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(-2, 5)) == Fraction(-5, 2)
    y = QQ.inv(Fraction(1, 4))
    assert y == 4 and type(y) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    assert GF(7).inv(GF(7).of(3)) == GF(7).of(5)


def assert_reduced(v, p):
    assert all(type(x) is int and 0 <= x < p for x in v), (v, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_gf_outputs_are_reduced(p):
    """Every matrix, vector and structure constant built over GF(p) holds
    ints in [0, p), whatever the operation that built it."""
    f = GF(p)
    rng = random.Random("reduced/%d" % p)
    for _ in range(6):
        a = random_matrix(f, rng, 4, 4, 0.8)
        b = random_matrix(f, rng, 4, 4, 0.8)
        outs = [a, a @ b, a + b, a - b, -a, a.scale(p - 1), a.scale(-3),
                a.kron(b), a.rref()[0], a.kernel_basis()]
        if a.is_invertible():
            outs += [a.inverse(), a.solve_matrix(b)]
        for m in outs:
            assert_canonical(m)
        assert_reduced(a.mul_vec([p - 1, 1, -1, 2]), p)
    alg = linear_a_n(3, f)
    for row in alg.mult:
        for v in row:
            assert_reduced(v, p)
    for _ in range(20):
        x = [rng.randint(0, p - 1) for _ in range(alg.dim)]
        y = [rng.randint(0, p - 1) for _ in range(alg.dim)]
        assert_reduced(alg.product(x, y), p)
    mods = projective_modules(alg) + injective_modules(alg)
    mods.append(regular_module(alg))
    for m in mods:
        assert_canonical(m.action_of([rng.randint(-p, p) for _ in range(alg.dim)]))
        for n in mods:
            for h in hom(m, n):
                assert_canonical(h.matrix)
        for v in rad_end(m)[0]:
            assert_reduced(v, p)
