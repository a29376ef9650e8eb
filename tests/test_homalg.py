"""Presentations, syzygies, Ext, homological dimensions, transpose,
and the translate tau.

Oracles: hereditary algebras have global dimension 1; self-injective
algebras have tau = second syzygy up to projectives; syzygy periodicity
certifies infinite projective dimension on the loop-flag algebra."""

import pytest

from gptau.algebra import linear_a_n
from gptau.classify import _extension_middle_terms
from gptau.homalg import (
    ext_dim,
    global_dimension,
    inj_dim,
    is_tau_rigid,
    minimal_projective_presentation,
    minimal_projective_resolution,
    proj_dim,
    star_module,
    syzygy,
    tau,
    tau_inverse,
    transpose_Tr,
)
from gptau.memo import entries
from gptau.module import (
    direct_sum,
    injective_modules,
    is_isomorphic,
    is_projective,
    projective_modules,
    regular_module,
    simple_modules,
)


def test_minimal_presentation_is_exact_and_minimal(loop_flag):
    S = simple_modules(loop_flag)
    pres = minimal_projective_presentation(S[0])
    assert pres.f0.matrix.rank() == S[0].dim
    # minimality: P0 is the projective cover of a simple, so P0 = P_1
    assert is_isomorphic(pres.p0, projective_modules(loop_flag)[0])
    # exactness: im f1 = ker f0
    assert pres.f1.matrix.image_basis().cols == pres.p0.dim - S[0].dim


def test_syzygy_of_projective_is_zero(battery):
    for a in battery.values():
        for p in projective_modules(a):
            assert syzygy(p).dim == 0


def test_loop_flag_syzygies_are_periodic(loop_flag):
    S = simple_modules(loop_flag)
    o1 = syzygy(S[0], 1)
    o2 = syzygy(S[0], 2)
    assert is_isomorphic(o1, o2)
    assert o1.dim_vector() == (1, 1)


def test_proj_dim_hereditary(a3):
    for s in simple_modules(a3):
        pd = proj_dim(s)
        assert not pd.is_unknown
        assert pd.is_yes and pd.value in (0, 1)
    g = global_dimension(a3)
    assert g.is_yes and g.value == 1


def test_proj_dim_infinite_certified_by_periodicity(loop_flag):
    pd = proj_dim(simple_modules(loop_flag)[0])
    assert pd.is_no
    assert "Omega" in pd.reason


def test_ext_vanishes_on_projectives(a3):
    reg = regular_module(a3)
    for m in simple_modules(a3):
        for p in projective_modules(a3):
            assert ext_dim(p, m, 1) == 0
        assert ext_dim(m, reg, 2) == 0  # gl.dim 1


def test_ext_nonzero_between_neighbor_simples(a3):
    S = simple_modules(a3)
    # arrows 1 -> 2 -> 3 give Ext^1(S_1, S_2) = Ext^1(S_2, S_3) = k
    assert ext_dim(S[0], S[1], 1) == 1
    assert ext_dim(S[1], S[2], 1) == 1
    assert ext_dim(S[0], S[2], 1) == 0


def test_extension_middle_terms_resolve_the_module_once():
    S = simple_modules(linear_a_n(3))  # fresh, so that no cache is warm
    mids = _extension_middle_terms(S[0], S[1])
    assert [m.dim_vector() for m in mids] == [(1, 1, 0)]
    # ext_dim and the pushout read one memoised resolution of S_1
    assert entries(S[0], minimal_projective_resolution) == [(2,)]


def test_inj_dim_matches_duality(loop_flag):
    # 1-Gorenstein: the regular module has injective dimension 1
    d = inj_dim(regular_module(loop_flag))
    assert d.is_yes and d.value == 1


def test_star_of_projective_is_projective_over_opposite(a3):
    op = a3.opposite()
    for p in projective_modules(a3):
        st = star_module(p)
        assert st.algebra is op
        assert is_projective(st)


def test_transpose_kills_projectives(battery):
    for a in battery.values():
        for p in projective_modules(a):
            assert transpose_Tr(p).dim == 0


def test_tau_of_projective_is_zero(battery):
    for a in battery.values():
        for p in projective_modules(a):
            assert tau(p).dim == 0


def test_tau_inverse_of_injective_is_zero(a3, loop_flag):
    for a in (a3, loop_flag):
        for i in injective_modules(a):
            assert tau_inverse(i).dim == 0


def test_tau_and_tau_inverse_are_mutually_inverse(a3):
    S = simple_modules(a3)
    # S_1 and S_2 are non-projective; tau^{-1} tau recovers them
    for s in (S[0], S[1]):
        t = tau(s)
        assert t.dim > 0
        back = tau_inverse(t)
        assert is_isomorphic(back, s)


def test_tau_known_values_on_a3(a3):
    S = simple_modules(a3)
    I = injective_modules(a3)
    # AR quiver of linear A3: tau(S_1) = S_2, tau(S_2) = S_3,
    # tau(I_2) = P_2 (interval shift [1,2] -> [2,3])
    assert is_isomorphic(tau(S[0]), S[1])
    assert is_isomorphic(tau(S[1]), S[2])
    assert is_isomorphic(tau(I[1]), projective_modules(a3)[1])


def test_tau_rigidity_facts(a3, kx3):
    # over a hereditary algebra every simple is tau-rigid iff
    # Hom(S, tau S) = 0; on A3 all simples are tau-rigid
    for s in simple_modules(a3):
        assert is_tau_rigid(s)
    # over the local algebra K[x]/(x^3) only projectives are tau-rigid
    S = simple_modules(kx3)[0]
    assert not is_tau_rigid(S)
    assert is_tau_rigid(regular_module(kx3))


def test_tau_rigid_direct_sum_criterion(a3):
    S = simple_modules(a3)
    # S_1 + S_2 is not tau-rigid: Hom(S_1, tau S_1 = S_2) != 0
    m, _, _ = direct_sum(a3, [S[0], S[1]])
    assert not is_tau_rigid(m)
    m2, _, _ = direct_sum(a3, [S[0], S[2]])
    assert is_tau_rigid(m2)
