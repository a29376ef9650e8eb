"""Gorenstein projectivity/injectivity, Gorenstein algebras,
self-injectivity, tilting, the nine-condition equivalence report, and
the self-injectivity probe.

Oracles: hereditary algebras are CM-free (GP = projective); K[x]/(x^n)
is self-injective; the loop-flag algebra is 1-Gorenstein with
non-projective GP modules; all nine equivalent conditions must agree
whenever certified; a test-local copy of the double-dual route
(reflexivity by the evaluation map, Ext on M*) is the reference for
every GP verdict read off the transpose."""

import os
import warnings

import pytest
from conftest import (
    _battery_algebras,
    _classes_and_sums,
    _two_loops_radical_square_zero,
)

from gptau.algebra import (
    Quiver,
    Relation,
    bound_quiver_algebra,
    cyclic_nakayama,
    example_loop_flag_algebra,
    linear_a_n,
    t2,
)
from gptau.classify import enumerate_indecomposables
from gptau.field import GF, QQ
from gptau.fileio import parse_algebra_file
from gptau.gorenstein import (
    _CERTIFIED,
    co_regular,
    default_bound,
    evaluation_is_isomorphism,
    gorenstein_algebra,
    gorenstein_injective,
    gorenstein_projective,
    is_tau_inverse_rigid,
    self_injective,
    semi_gp,
    tachikawa_probe,
    theorem_report,
    tilting_modules,
    cotilting_modules,
)
from gptau.homalg import (
    ext_dim,
    ext_vanishes_all_positive,
    inj_dim,
    is_tau_rigid,
    proj_dim,
    star_module,
    syzygy,
    tau_inverse,
    transpose_Tr,
)
from gptau.module import (
    Module,
    decompose,
    direct_sum,
    dual_D,
    hom,
    injective_modules,
    is_faithful,
    is_isomorphic,
    is_projective,
    projective_modules,
    regular_module,
    simple_modules,
)
from gptau.tristate import NO, UNKNOWN, YES, all_of, no, unknown, yes


def test_self_injectivity_facts(a3, kx3, loop_flag, nakayama22):
    assert self_injective(kx3)
    assert self_injective(nakayama22)
    assert not self_injective(a3)
    assert not self_injective(loop_flag)


def test_gorenstein_algebra_verdicts(a3, kx3, loop_flag, nakayama22):
    g = gorenstein_algebra(a3)
    assert g.is_yes and g.value == 1
    assert gorenstein_algebra(kx3).value == 0
    glf = gorenstein_algebra(loop_flag)
    assert glf.is_yes and glf.value == 1
    assert glf.witness == (1, 1)  # left and right injective dimension
    assert gorenstein_algebra(nakayama22).value == 0


def test_gorenstein_unknown_is_recomputed_at_a_larger_bound():
    """An unknown at bound 0 is not cached: bound 10 certifies the
    1-Gorenstein A3, and that certified yes is then kept."""
    a = linear_a_n(3)
    low = gorenstein_algebra(a, 0)
    assert low.is_unknown and low.bound == 0
    high = gorenstein_algebra(a, 10)
    assert high.is_yes and high.bound == 10 and high.value == 1
    assert gorenstein_algebra(a, 0) is high


def test_projectives_are_gorenstein_projective(battery):
    for a in battery.values():
        for p in projective_modules(a):
            assert gorenstein_projective(p).is_yes


def test_hereditary_algebra_is_cm_free(a3):
    # over a hereditary algebra GP = projective; simples S_1, S_2 are not
    S = simple_modules(a3)
    assert gorenstein_projective(S[0]).is_no
    assert gorenstein_projective(S[1]).is_no
    assert gorenstein_projective(S[2]).is_yes  # = P_3


def test_self_injective_algebra_everything_is_gp(kx3):
    # over a self-injective algebra every module is Gorenstein projective
    S = simple_modules(kx3)[0]
    assert gorenstein_projective(S).is_yes
    assert gorenstein_injective(S).is_yes
    r = syzygy(S, 1)
    assert gorenstein_projective(r).is_yes


def test_loop_flag_has_nonprojective_gp(loop_flag):
    # Omega S_1 is a periodic non-projective Gorenstein projective
    o = syzygy(simple_modules(loop_flag)[0], 1)
    assert o.dim_vector() == (1, 1)
    assert gorenstein_projective(o).is_yes
    assert semi_gp(o).is_yes


def _double_dual_gp(m, bound):
    """G-dimension zero through M*: semi-GP, the evaluation M -> M** an
    isomorphism, and Ext^i(M*, algebra-op) = 0 for i >= 1."""
    if m.dim == 0 or is_projective(m):
        return YES
    sp = semi_gp(m, bound)
    if sp.is_no or not evaluation_is_isomorphism(m):
        return NO
    op = m.algebra.opposite()
    sps = ext_vanishes_all_positive(star_module(m), regular_module(op), bound)
    if sps.is_no:
        return NO
    return YES if sp.is_yes and sps.is_yes else UNKNOWN


def _fresh_gp_battery(f):
    kxy2 = (parse_algebra_file(os.path.join(
        os.path.dirname(__file__), "..", "fixtures", "kxy2.alg"))
        if f == QQ else _two_loops_radical_square_zero(f))
    return [(linear_a_n(3, f), 12), (example_loop_flag_algebra(f), 10),
            (cyclic_nakayama(2, 3, f), 12), (kxy2, 6),
            (t2(linear_a_n(2, f)), 12)]


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=str)
def test_gp_on_the_transpose_matches_the_double_dual(field):
    """Fresh algebras, so the certified-Gorenstein fast path never runs:
    every verdict comes from Ext on M and on Tr M at bound + 2."""
    for a, max_dim in _fresh_gp_battery(field):
        classes = enumerate_indecomposables(a, max_dim).representatives
        rest = [x for x in classes if not is_projective(x)]
        sums = [direct_sum(a, pair)[0] for pair in zip(rest, rest[1:3])]
        sums.append(direct_sum(a, [rest[0], projective_modules(a)[0]])[0])
        for bound in (1, 2, 4, None):
            for m in classes + sums:
                g = gorenstein_projective(m, bound)
                want = default_bound(a) if bound is None else bound
                assert (g.verdict, g.bound) == (_double_dual_gp(m, want),
                                                want)
        assert _CERTIFIED not in a._cache


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=str)
def test_gp_fast_path_matches_the_general_path(field):
    """Once gorenstein_algebra has certified the algebra n-Gorenstein,
    gorenstein_projective checks only Ext^1..n(M, algebra): a path chosen
    by call history.  On a primed copy it must give the verdict that an
    unprimed copy of the same algebra gives on the same modules."""
    primed = 0
    for (a, max_dim), (b, _) in zip(_fresh_gp_battery(field),
                                    _fresh_gp_battery(field)):
        primed += gorenstein_algebra(b).is_yes
        classes = enumerate_indecomposables(a, max_dim).representatives
        rest = [x for x in classes if not is_projective(x)]
        sums = [direct_sum(a, pair)[0] for pair in zip(rest, rest[1:3])]
        for m in classes + sums:
            twin = Module(b, m.actions, validate=False)
            assert (gorenstein_projective(twin).verdict
                    == gorenstein_projective(m).verdict), m.dim_vector()
        assert _CERTIFIED not in a._cache
    assert primed == 4  # every algebra but k[x, y]/(x, y)^2


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=str)
def test_transpose_ext_is_reflexivity_then_ext_of_the_dual(field):
    """Auslander-Bridger: Ext^1 and Ext^2 of Tr M into the algebra vanish
    iff M -> M** is an isomorphism, and Ext^{k+2}(Tr M, -) =
    Ext^k(M*, -) for k >= 1, the shift behind the bound + 2."""
    for a, max_dim in _fresh_gp_battery(field):
        opreg = regular_module(a.opposite())
        for m in enumerate_indecomposables(a, max_dim).representatives:
            tr, st = transpose_Tr(m), star_module(m)
            low = [ext_dim(tr, opreg, i) for i in (1, 2)]
            assert (low == [0, 0]) == evaluation_is_isomorphism(m)
            for k in (1, 2):
                assert ext_dim(tr, opreg, k + 2) == ext_dim(st, opreg, k)


def test_semi_gp_is_one_sided(a3):
    # S_3 = P_3 is projective, hence semi-GP; S_1 is not semi-GP
    S = simple_modules(a3)
    assert semi_gp(S[2]).is_yes
    assert semi_gp(S[0]).is_no


def test_gorenstein_injective_dual_to_gp(loop_flag):
    o = syzygy(simple_modules(loop_flag)[0], 1)
    # D of a GP module over the opposite is GI... transport via duality:
    d = dual_D(o)
    op = loop_flag.opposite()
    assert d.algebra is op
    assert gorenstein_injective(d).is_yes


def test_co_regular_is_injective_sum(a3):
    d = co_regular(a3)
    assert d.dim == a3.dim
    injs = injective_modules(a3)
    total = sum(i.dim for i in injs)
    assert total == d.dim


def _kronecker(f):
    return bound_quiver_algebra(
        Quiver((1, 2), (("a", 1, 2), ("b", 1, 2))), [], 2, f)


def _commutative_square(f):
    q = Quiver((1, 2, 3, 4),
               (("a", 1, 2), ("b", 2, 4), ("c", 1, 3), ("d", 3, 4)))
    return bound_quiver_algebra(
        q, [Relation(((1, ("b", "a")), (-1, ("d", "c"))))], 3, f)


def test_tilting_modules_hereditary_count(a3):
    # linear A3 has exactly 5 tilting modules (Catalan number C_3)
    assert len(cotilting_modules(a3)) == 5
    # tilting modules are read off the support tau-tilting pairs (M, 0)
    # with M faithful (Adachi-Iyama-Reiten Prop. 2.2); each one must be
    # basic with n summands, tau-rigid and of projective dimension <= 1.
    # The Kronecker algebra has a tilting summand of dimension 7, so
    # bound 4 misses four of its tilting modules.
    cases = [(a3, None, 5), (linear_a_n(4), None, 14),
             (_commutative_square(QQ), 8, 14)]
    cases += [(_kronecker(f), b, want) for f in (QQ, GF(2))
              for b, want in ((4, 2), (8, 6))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bound-limited enumerations
        for a, b, want in cases:
            tils = tilting_modules(a, b)
            assert len(tils) == want, (a.dim, b)
            for t in tils:
                assert is_faithful(t) and is_tau_rigid(t)
                assert [k for _, k in decompose(t)] == [1] * a.n_idempotents
                pd = proj_dim(t)
                assert pd.is_yes and pd.value <= 1


def test_self_injective_algebra_unique_tilting(kx3):
    tils = tilting_modules(kx3)
    assert len(tils) == 1
    assert is_isomorphic(tils[0], regular_module(kx3))


def test_nine_conditions_consistent_on_battery(battery):
    for name, a in battery.items():
        rep = theorem_report(a)
        assert rep["consistent"], name
        verdicts = {c.verdict for c in rep["conditions"]}
        if self_injective(a):
            assert verdicts == {"certified-yes"}, name
        else:
            assert "certified-yes" not in verdicts, name


def test_probe_consistent_on_battery(battery):
    for name, a in battery.items():
        probe = tachikawa_probe(a)
        assert probe["three_way_consistent"] is not False, name
        assert not probe["counterexample_candidate"], name


def _tau_inverse_rigid_by_hom(m):
    """Hom(tau^{-1} m, m) = 0, computed on tau^{-1} m itself."""
    t = tau_inverse(m)
    return m.dim == 0 or t.dim == 0 or not hom(t, m)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_tau_inverse_rigidity_by_duality_matches_hom(field):
    """is_tau_inverse_rigid reads Hom(D m, tau D m) = 0; it equals
    Hom(tau^{-1} m, m) = 0 on every class and seeded sum."""
    seen = set()
    for a, mods in _classes_and_sums(field):
        for m in mods:
            rigid = is_tau_inverse_rigid(m)
            assert rigid == _tau_inverse_rigid_by_hom(m), (a, m.dim_vector())
            seen.add(rigid)
    assert seen == {True, False}


def _injective_side_conditions(a, bound, til):
    """Conditions 6-9 of the nine-condition report written out on the
    injective side: Ext^i(D(algebra), m) = 0 through D, Hom(tau^{-1} m, m)
    = 0, and Gorenstein injectivity, for the algebra and the tilting
    modules til."""
    op = a.opposite()

    def semi_gi(m):
        return ext_vanishes_all_positive(dual_D(m), regular_module(op), bound)

    def gi(m):
        return gorenstein_projective(dual_D(m), bound)

    reg = regular_module(a)
    return [all_of([semi_gi(reg), _tau_inverse_rigid_by_hom(reg)]),
            all_of([semi_gi(t) for t in til]
                   + [_tau_inverse_rigid_by_hom(t) for t in til]),
            gi(reg),
            all_of([gi(t) for t in til])]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_nine_conditions_read_six_to_nine_over_the_opposite(field, tmp_path):
    """theorem_report takes conditions 6-9 as 2-5 over the opposite
    algebra; each of their TriStates (verdict, reason, bound, witness,
    value) equals the injective-side reading, on the battery, the
    fixture algebras, and two algebras whose conditions 2-5 differ from
    6-9 as TriStates (T2(A2), and A3 with rad^2 = 0)."""
    a3_rad2 = bound_quiver_algebra(
        Quiver((1, 2, 3), (("a", 1, 2), ("b", 2, 3))),
        [Relation(((1, ("b", "a")),))], 2, field)
    algebras = _battery_algebras(field) + [t2(linear_a_n(2, field)), a3_rad2]
    tag = "QQ" if field == QQ else "GF %d" % field.p
    for name in ("a3", "kx3", "kxy2", "loop_flag"):
        path = tmp_path / (name + ".alg")
        path.write_text(open(os.path.join(
            os.path.dirname(__file__), "..", "fixtures", name + ".alg"))
            .read().replace("field QQ", "field " + tag))
        algebras.append(parse_algebra_file(str(path)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k[x, y]/(x, y)^2 is bound-limited
        for a in algebras:
            rep = theorem_report(a)
            til = tilting_modules(a)
            assert rep["n_tilting_within_bound"] == len(til)
            assert rep["n_cotilting_within_bound"] == len(
                cotilting_modules(a))
            assert rep["conditions"][5:] == _injective_side_conditions(
                a, rep["bound"], til)


def _gorenstein_by_the_regular_module(a, bound):
    """gorenstein_algebra as it read the one-sided ids before: inj_dim of
    the whole regular module of A and of A^op."""
    left = inj_dim(regular_module(a), bound)
    right = inj_dim(regular_module(a.opposite()), bound)
    if left.is_no or right.is_no:
        return no("a one-sided injective dimension is infinite",
                  bound=bound, witness=(left.verdict, right.verdict))
    if left.is_unknown or right.is_unknown:
        return unknown("injective dimension exceeds bound", bound=bound)
    return yes("left id %d, right id %d" % (left.value, right.value),
               bound=bound, witness=(left.value, right.value),
               value=max(left.value, right.value))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_gorenstein_algebra_per_projective_matches_the_regular_module(
        field, tmp_path):
    """The ids read off the indecomposable projectives give the verdict,
    value, reason, witness and bound of the regular-module reading, on
    the battery, the kxy2, kx3 and loop_flag fixtures and their
    opposites, at the default bound and at a bound too small for some
    of them.  The cases hold an infinite id (k[x,y]/(x,y)^2), a
    self-injective algebra (cyclic Nakayama (2, 2)) and a 1-Gorenstein
    one (loop_flag)."""
    tag = "QQ" if field == QQ else "GF %d" % field.p
    bases = _battery_algebras(field)
    for name in ("kxy2", "kx3", "loop_flag"):
        path = tmp_path / (name + ".alg")
        path.write_text(open(os.path.join(
            os.path.dirname(__file__), "..", "fixtures", name + ".alg"))
            .read().replace("field QQ", "field " + tag))
        bases.append(parse_algebra_file(str(path)))
    seen = set()
    for b in bases:
        for a in (b, b.opposite()):
            for bound in (default_bound(a), 1):
                a._cache.pop(_CERTIFIED, None)
                got = gorenstein_algebra(a, bound)
                want = _gorenstein_by_the_regular_module(a, bound)
                assert (got.verdict, got.value, got.reason, got.witness,
                        got.bound) == (want.verdict, want.value,
                                       want.reason, want.witness,
                                       want.bound)
                seen.add((got.verdict, got.value))
    assert {(NO, None), (YES, 0), (YES, 1), (UNKNOWN, None)} <= seen
