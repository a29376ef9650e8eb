"""Gorenstein projectivity/injectivity, Gorenstein algebras,
self-injectivity, tilting, the nine-condition equivalence report, and
the self-injectivity probe.

Oracles: hereditary algebras are CM-free (GP = projective); K[x]/(x^n)
is self-injective; the loop-flag algebra is 1-Gorenstein with
non-projective GP modules; all nine equivalent conditions must agree
whenever certified."""

import pytest

from gptau.algebra import linear_a_n
from gptau.gorenstein import (
    co_regular,
    gorenstein_algebra,
    gorenstein_injective,
    gorenstein_projective,
    self_injective,
    semi_gp,
    tachikawa_probe,
    theorem_report,
    tilting_modules,
    cotilting_modules,
)
from gptau.homalg import syzygy
from gptau.module import (
    dual_D,
    injective_modules,
    is_isomorphic,
    projective_modules,
    regular_module,
    simple_modules,
)


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


def test_tilting_modules_hereditary_count(a3):
    # linear A3 has exactly 5 tilting modules (Catalan number C_3)
    tils = tilting_modules(a3)
    assert len(tils) == 5
    cots = cotilting_modules(a3)
    assert len(cots) == 5


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
