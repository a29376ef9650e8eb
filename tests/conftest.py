import itertools

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
