"""The memo cache: module arguments are keyed by content, memo is the
only cache mechanism in the library, and a cover domain shared by the
whole algebra keeps no entry per partner module."""

import pathlib
import random
import re

import pytest

import gptau
from gptau.algebra import linear_a_n
from gptau.field import GF, QQ
from gptau.homalg import ext_dim
from gptau.linalg import Matrix
from gptau.memo import entries
from gptau.module import (
    Module,
    ModuleError,
    _hom_matrices,
    _projective_sum,
    direct_sum,
    hom,
    hom_coords,
    projective_modules,
    regular_module,
    simple_modules,
)


def _copy(m, algebra=None):
    return Module(algebra or m.algebra, [a.copy() for a in m.actions],
                  validate=False)


@pytest.mark.parametrize("p", [None, 7])
def test_hom_answers_a_copy_with_equal_content(p):
    a = linear_a_n(3, QQ if p is None else GF(p))
    m, n = projective_modules(a)[0], regular_module(a)
    n2 = _copy(n)
    hs = hom(m, n)
    hs2 = hom(m, n2)
    assert hs2 and all(h.source is m and h.target is n2 for h in hs2)
    assert [h.matrix for h in hs2] == [h.matrix for h in hs]
    assert entries(m, _hom_matrices) == [(n.content_key(),)]
    g = hom(n2, m)[0]
    assert all(g.compose(h).target is m for h in hs2)
    # equal content over another algebra object gets no cached answer
    n3 = _copy(n, linear_a_n(3, a.field))
    with pytest.raises(ModuleError):
        hom(m, n3)
    with pytest.raises(ModuleError):
        hom_coords(m, n3, [])
    assert entries(m, _hom_matrices) == [(n.content_key(),)]


def _fresh_partner(a, rng):
    """A sum of two simples and a projective in a random basis."""
    S, P = simple_modules(a), projective_modules(a)
    s = direct_sum(a, [rng.choice(S), rng.choice(S), rng.choice(P)])[0]
    while True:
        U = Matrix(a.field, s.dim, s.dim,
                   [[rng.randint(-2, 2) for _ in range(s.dim)]
                    for _ in range(s.dim)])
        if U.is_invertible():
            break
    Uinv = U.inverse()
    return Module(a, [Uinv @ x @ U for x in s.actions])


def test_shared_cover_domain_keeps_no_entry_per_partner():
    """hom, hom_coords and ext_dim between one _projective_sum P and 20
    fresh modules leave P with the memo entries one partner leaves: P
    lives as long as its algebra, so per-partner entries would pile up."""
    a = linear_a_n(3)
    P = _projective_sum(a, (0, 1, 1))
    rng = random.Random(5)

    def touch(n):
        hs = hom(P, n)
        hom_coords(P, n, [h.matrix for h in hs])
        for i in (1, 2):
            ext_dim(P, n, i)
            ext_dim(n, P, i)

    touch(_fresh_partner(a, rng))
    before = entries(P)
    for _ in range(20):
        touch(_fresh_partner(a, rng))
    assert entries(P) == before


# gorenstein_algebra keeps only certified verdicts, by hand, under one key
CERTIFIED_RULE = re.compile(r"_cache(\[|\.get\()_CERTIFIED\b")
HAND_CACHE = re.compile(r"_cache\[|_cache\.get\(|hasattr\(")


def test_memo_is_the_only_cache():
    """No hand-written cache: no _cache[...], _cache.get(...) or hasattr
    outside the memo module and gorenstein_algebra's certified-only rule."""
    found = []
    for path in sorted(pathlib.Path(gptau.__file__).parent.glob("*.py")):
        if path.name == "memo.py":
            continue
        for no, line in enumerate(path.read_text().splitlines(), 1):
            if HAND_CACHE.search(line) and not (
                    path.name == "gorenstein.py" and CERTIFIED_RULE.search(line)):
                found.append("%s:%d: %s" % (path.name, no, line.strip()))
    assert not found
