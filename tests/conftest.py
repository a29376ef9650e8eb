import itertools
import random

import pytest

from gptau.algebra import (
    Quiver,
    Relation,
    bound_quiver_algebra,
    cyclic_nakayama,
    example_loop_flag_algebra,
    linear_a_n,
    loop_algebra,
    t2,
    trivial_algebra,
)
from gptau.classify import enumerate_indecomposables
from gptau.linalg import Matrix
from gptau.module import Module, ModuleMap, direct_sum


@pytest.fixture(scope="session")
def a3():
    return linear_a_n(3)


@pytest.fixture(scope="session")
def loop_flag():
    return example_loop_flag_algebra()


@pytest.fixture(scope="session")
def kx3():
    return loop_algebra(3)


@pytest.fixture(scope="session")
def nakayama22():
    return cyclic_nakayama(2, 2)


@pytest.fixture(scope="session")
def ground_field_algebra():
    return trivial_algebra()


@pytest.fixture(scope="session")
def t2_loop_flag():
    return t2(example_loop_flag_algebra())


@pytest.fixture(scope="session")
def battery(a3, loop_flag, kx3, nakayama22, ground_field_algebra):
    return {
        "a3": a3,
        "loop_flag": loop_flag,
        "kx3": kx3,
        "nakayama22": nakayama22,
        "ground_field": ground_field_algebra,
    }


def _two_loops_radical_square_zero(f):
    """k[x, y]/(x, y)^2: one vertex, two loops, every path of length 2
    zero."""
    q = Quiver((1,), (("x", 1, 1), ("y", 1, 1)))
    rels = [Relation(((1, p),)) for p in itertools.product("xy", repeat=2)]
    return bound_quiver_algebra(q, rels, 2, f)


def _battery_algebras(f):
    """The battery algebras over the field f."""
    return [linear_a_n(3, f), example_loop_flag_algebra(f), loop_algebra(3, f),
            cyclic_nakayama(2, 2, f), trivial_algebra(f)]


def _classes_and_sums(f):
    """[(algebra, modules)] for the battery algebras over the field f and
    their opposites: the classes enumerated to 2 dim A, and three seeded
    sums of two classes with their actions conjugated by a random
    invertible matrix, so that the Module constructor re-bases them
    (its branch for idempotents that do not act diagonally)."""
    rng = random.Random(20241109)
    out = []
    for base in _battery_algebras(f):
        for a in (base, base.opposite()):
            mods = list(enumerate_indecomposables(a, 2 * a.dim)
                        .representatives)
            small = [m for m in mods if m.dim <= 4]
            for _ in range(3):
                s = direct_sum(a, [rng.choice(small), rng.choice(small)])[0]
                mods.append(_in_random_basis(s, rng))
            out.append((a, mods))
    return out


def _in_random_basis(m, rng):
    """m with its actions conjugated by a seeded random invertible
    matrix, which the Module constructor re-bases."""
    f = m.field
    while True:
        P = Matrix(f, m.dim, m.dim, [[rng.randint(-2, 2) for _ in range(m.dim)]
                                     for _ in range(m.dim)])
        if P.is_invertible():
            break
    Pinv = P.inverse()
    return Module(m.algebra, [Pinv @ x @ P for x in m.actions])


def _reference_quotient(m, basis):
    """(Q, projection) by the [B | I] route that quotient_module took
    before it read the projection off one reversed RREF: the pivots of
    [B | I] past B pick the unit vectors C completing the column space B
    of the subspace, the projection is the last rows of [B | C]^-1, and
    Q acts by projection a C, re-based by the Module constructor."""
    f = m.field
    basis = basis.image_basis()
    k = basis.cols
    if k == m.dim:
        Q = Module(m.algebra, [Matrix(f, 0, 0)] * m.algebra.dim,
                   validate=False)
        return Q, ModuleMap(m, Q, Matrix(f, 0, m.dim))
    _, pivots = basis.hstack(Matrix.identity(f, m.dim)).rref()
    C = Matrix.from_cols(f, [[int(i == p - k) for i in range(m.dim)]
                             for p in pivots if p >= k], nrows=m.dim)
    proj_raw = Matrix.from_rows(f, basis.hstack(C).inverse().data[k:])
    Q = Module(m.algebra, [proj_raw @ a @ C for a in m.actions],
               validate=False)
    return Q, ModuleMap(m, Q, Q.from_raw_matrix() @ proj_raw)
