"""The memo cache: module arguments are keyed by content, memo is the
only cache mechanism in the library, and a cover domain shared by the
whole algebra keeps no entry per partner module."""

import gc
import pathlib
import random
import re
import weakref

import pytest

import gptau
from gptau.algebra import example_loop_flag_algebra, linear_a_n
from gptau.approx import (
    _hom_E,
    cached_gamma,
    e_gorenstein_projective,
    e_rigid,
    generator_data,
    hom_E,
    minimal_addE_presentation,
)
from gptau.classify import enumerate_indecomposables
from gptau.field import GF, QQ
from gptau.homalg import ext_dim, tau, transpose_Tr
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
    is_projective,
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


def test_tr_and_hom_E_are_kept_per_module_content():
    """Tr is built once per module (so tau m = D Tr m is one module),
    Hom(E, -) once per Gamma and module content, a fresh module of equal
    content gets its own correct Tr, two generators keep two Hom(E, m),
    and no entry keeps the module alive."""
    a = example_loop_flag_algebra()
    reps = enumerate_indecomposables(a, 6).representatives
    m = next(x for x in reps if x.dim == 3)
    assert tau(m) is tau(m)
    tr = transpose_Tr(m)
    assert transpose_Tr(m) is tr and tr.dim > 0
    assert entries(m, transpose_Tr) == [()]
    fresh = _copy(m)
    assert transpose_Tr(fresh) is not tr
    assert (transpose_Tr(fresh).content_key()
            == transpose_Tr.__wrapped__(fresh).content_key()
            == tr.content_key())

    P = list(projective_modules(a))
    extras = [x for x in reps if not is_projective(x)]
    gs = [cached_gamma(generator_data(direct_sum(a, P + [x])[0]))
          for x in extras[:2]]
    ns = [_hom_E(g, m) for g in gs]
    assert gs[0].algebra is not gs[1].algebra and ns[0] is not ns[1]
    for g, n in zip(gs, ns):
        assert _hom_E(g, m) is n and _hom_E(g, _copy(m)) is n
        assert n.algebra is g.algebra
        assert n.content_key() == hom_E(m, g).content_key()
        assert entries(g, _hom_E) == [(m.content_key(),)]

    e = gs[0].e
    x = _copy(m)
    tau(x)
    minimal_addE_presentation(x, e)
    e_rigid(x, e)
    e_gorenstein_projective(x, e)
    _hom_E(gs[1], x)
    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is None
