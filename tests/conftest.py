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
from gptau.module import Module, direct_sum


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
                while True:
                    P = Matrix(f, s.dim, s.dim,
                               [[rng.randint(-2, 2) for _ in range(s.dim)]
                                for _ in range(s.dim)])
                    if P.is_invertible():
                        break
                Pinv = P.inverse()
                mods.append(Module(a, [Pinv @ x @ P for x in s.actions]))
            out.append((a, mods))
    return out
