"""The memo cache: module arguments are keyed by content, memo is the
only cache mechanism in the library, a cover domain shared by the
whole algebra keeps no entry per partner module, and the algebra's
bounded store answers repeated requests on fresh modules of equal
content."""

import gc
import pathlib
import random
import re
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import gptau
from gptau import memo as memo_module
from gptau.algebra import (
    cyclic_nakayama,
    example_loop_flag_algebra,
    linear_a_n,
    loop_algebra,
)
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
from gptau.gorenstein import (
    _CERTIFIED,
    _gorenstein_projective,
    gorenstein_algebra,
    gorenstein_projective,
)
from gptau.homalg import (
    _proj_dim,
    default_bound,
    ext_dim,
    is_tau_rigid,
    proj_dim,
    tau,
    transpose_Tr,
)
from gptau.linalg import Matrix
from gptau.memo import SIZE, Keyed, entries, memo
from gptau.module import (
    Module,
    ModuleError,
    _hom_matrices,
    _projective_sum,
    direct_sum,
    hom,
    hom_coords,
    hom_dim,
    is_isomorphic,
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


# -- the algebra's content-keyed store ---------------------------------------


def _rebased(m, rng):
    """m written in a random basis (the constructor re-bases it to
    idempotent-adapted coordinates, which may give other content)."""
    d = m.dim
    while True:
        U = Matrix(m.field, d, d, [[rng.randint(-2, 2) for _ in range(d)]
                                   for _ in range(d)])
        if U.is_invertible():
            break
    Uinv = U.inverse()
    return Module(m.algebra, [Uinv @ x @ U for x in m.actions])


def test_content_key_writes_integral_rationals_as_ints():
    """k[x]/x^2 with x acting by 2, held once as an int and once as the
    Fraction(2, 1) a rational matrix product can leave: one key."""
    a = loop_algebra(2)
    one, x = [[1, 0], [0, 1]], [[0, 0], [2, 0]]
    m = Module(a, [Matrix(QQ, 2, 2, one), Matrix(QQ, 2, 2, x)])
    twin = Module(a, [Matrix._adopt(QQ, 2, 2, [[Fraction(v) for v in row]
                                               for row in rows])
                      for rows in (one, x)])
    assert type(twin.actions[1].data[1][0]) is Fraction
    assert twin.content_key() == m.content_key()
    assert is_tau_rigid(twin) is is_tau_rigid(m)


def test_a_fresh_copy_is_a_counted_hit_and_other_content_misses():
    a = linear_a_n(3)
    m = direct_sum(a, simple_modules(a))[0]
    other = next(p for p in projective_modules(a)
                 if p.dim_vector() == m.dim_vector())
    assert other.content_key() != m.content_key()
    is_tau_rigid(m)
    before = dict(memo_module.counts)
    is_tau_rigid(_copy(m))
    assert memo_module.counts["hits"] == before["hits"] + 1
    assert memo_module.counts["misses"] == before["misses"]
    is_tau_rigid(other)
    assert memo_module.counts["misses"] > before["misses"]
    assert (m.content_key(),) in entries(a, is_tau_rigid)
    assert (other.content_key(),) in entries(a, is_tau_rigid)


class _Owner:
    def __init__(self):
        self._cache = {}


class _Content(Keyed):
    def __init__(self, key):
        self.key = key

    def content_key(self):
        return self.key


@memo
def _echo(owner, x):
    return x.key


def test_an_object_keeps_size_entries_least_recent_first_out():
    """SIZE + 1 contents keep SIZE entries and count one eviction: the
    least recently used, so a content read again outlives the next."""
    owner = _Owner()
    for k in range(SIZE):
        _echo(owner, _Content(k))
    _echo(owner, _Content(0))  # now the most recent
    before = memo_module.counts["evictions"]
    assert _echo(owner, _Content(SIZE)) == SIZE
    assert memo_module.counts["evictions"] == before + 1
    keys = [k[0] for k in entries(owner, _echo)]
    assert len(keys) == SIZE and 1 not in keys
    assert keys[-2:] == [0, SIZE]


REQUESTS = [
    ("is_tau_rigid", lambda m, n: is_tau_rigid(m)),
    ("gorenstein_projective", lambda m, n: gorenstein_projective(m)),
    ("proj_dim", lambda m, n: proj_dim(m)),
    ("ext_dim", lambda m, n: ext_dim(m, n, 1)),
    ("is_isomorphic", lambda m, n: is_isomorphic(m, n)),
    ("hom_dim", lambda m, n: hom_dim(m, n)),
]


@pytest.mark.parametrize("name,request_", REQUESTS,
                         ids=[r[0] for r in REQUESTS])
def test_the_store_keeps_no_argument_module_alive(name, request_):
    a = example_loop_flag_algebra()
    reps = enumerate_indecomposables(a, 4).representatives
    m = direct_sum(a, [r for r in reps if not is_projective(r)][:2])[0]
    x, y = _copy(m), _copy(reps[0])
    request_(x, y)
    refs = [weakref.ref(x), weakref.ref(y)]
    del x, y
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_a_stored_verdict_cannot_be_changed_by_a_caller():
    """Every caller asking again gets the one stored TriState, so none
    may change it for the next."""
    a = linear_a_n(3)
    s = simple_modules(a)[1]
    v = proj_dim(s)
    with pytest.raises(FrozenInstanceError):
        v.value = 0
    assert proj_dim(_copy(s)) is v and v.value == 1


def test_a_gp_answer_before_certification_is_not_served_after_it():
    """Over the self-injective cyclic Nakayama algebra a non-projective
    simple is Gorenstein projective by Ext on m and Tr m; once the
    algebra is certified 0-Gorenstein the fast path answers, and the
    answer stored before is served again only without the certificate."""
    a = cyclic_nakayama(2, 3)
    s = simple_modules(a)[0]
    before = gorenstein_projective(s)
    assert before.is_yes and "Tr m" in before.reason
    assert gorenstein_algebra(a).value == 0
    after = gorenstein_projective(_copy(s))
    assert after.is_yes and "0-Gorenstein" in after.reason
    assert gorenstein_projective(s) == after
    del a._cache[_CERTIFIED]
    assert gorenstein_projective(_copy(s)) == before


def _wrapped_answer(name, m, n):
    """The request computed afresh by the function memo wraps."""
    a = m.algebra
    g = gorenstein_algebra(a)
    fn, args = {
        "is_tau_rigid": (is_tau_rigid, (m,)),
        "gorenstein_projective": (_gorenstein_projective, (
            m, default_bound(a), g.value if g.is_yes else None)),
        "proj_dim": (_proj_dim, (m, default_bound(a))),
        "ext_dim": (ext_dim, (m, n, 1)),
        "is_isomorphic": (is_isomorphic, (m, n)),
        "hom_dim": (hom_dim, (m, n)),
    }[name]
    return fn.__wrapped__(*args)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_stored_answers_match_fresh_computations_in_new_bases(field):
    """Every request on a battery of modules, asked once to fill the
    store and again on equal-content copies (all hits), equals the
    wrapped function on copies written in new bases."""
    rng = random.Random(11)
    for a in (linear_a_n(3, field), cyclic_nakayama(2, 3, field),
              example_loop_flag_algebra(field)):
        gorenstein_algebra(a)
        reps = enumerate_indecomposables(a, 4).representatives
        mods = reps + [direct_sum(a, [x, y])[0]
                       for x, y in zip(reps, reps[1:4])]
        pairs = [(m, mods[(i * 5 + 1) % len(mods)])
                 for i, m in enumerate(mods)]
        for name, request_ in REQUESTS:
            for m, n in pairs:
                request_(m, n)
            hits = memo_module.counts["hits"]
            for m, n in pairs:
                got = request_(_copy(m), _copy(n))
                want = _wrapped_answer(name, _rebased(m, rng),
                                       _rebased(n, rng))
                assert got == want, (name, m.dim_vector(), n.dim_vector())
            assert memo_module.counts["hits"] >= hits + len(pairs)
