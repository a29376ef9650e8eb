"""Relative approximation theory for a fixed generator E: minimal
right add-E approximations, E-rigidity, the endomorphism algebra
Gamma = (End E)^op, and the class bijection induced by Hom(E, -).

Golden instance: over linear A3 take E = P1 + P2 + P3 + I2.  This E is
not tau-rigid but is rigid relative to itself; S1 is E-rigid with the
add-E presentation P2 -> I2 -> S1 -> 0; Gamma has dimension 9 and four
simples; the class bijection matches 4 = 4 within bound 12."""

import gc
import weakref

import pytest

from gptau.approx import (
    bijection_table,
    cached_gamma,
    e_gorenstein_projective,
    e_rigid,
    eg_classes,
    generator_data,
    hom_E,
    hom_map_surjective,
    in_add,
    minimal_addE_presentation,
    minimal_right_approx,
)
from gptau.algebra import linear_a_n
from gptau.homalg import ext_dim, is_tau_rigid
from gptau.linalg import Matrix
from gptau.memo import entries
from gptau.module import (
    Module,
    ModuleMap,
    direct_sum,
    injective_modules,
    is_isomorphic,
    projective_modules,
    regular_module,
    simple_modules,
    zero_module,
)


@pytest.fixture(scope="module")
def e1(a3):
    P = projective_modules(a3)
    I = injective_modules(a3)
    E, _, _ = direct_sum(a3, [P[0], P[1], P[2], I[1]])
    return generator_data(E)


def test_generator_detection(a3, e1):
    assert e1.is_generator
    S = simple_modules(a3)
    not_gen = generator_data(S[0])
    assert not not_gen.is_generator


def test_nonsplit_extension_behind_the_golden_example(a3):
    I = injective_modules(a3)
    P = projective_modules(a3)
    assert ext_dim(I[1], P[2], 1) == 1


def test_e1_not_tau_rigid_but_self_rigid(e1):
    assert not is_tau_rigid(e1.E)
    assert e_rigid(e1.E, e1)


def test_minimal_approximation_is_right_minimal(a3, e1):
    S = simple_modules(a3)
    f = minimal_right_approx(S[0], e1)
    assert f.matrix.rank() == S[0].dim  # surjective: E is a generator
    # the approximation source lies in add E
    assert in_add(f.source, e1)


def test_s1_add_e_presentation_shape(a3, e1):
    S = simple_modules(a3)
    assert e_rigid(S[0], e1)
    pres = minimal_addE_presentation(S[0], e1)
    assert pres.p1.dim_vector() == (0, 1, 1)
    assert pres.p0.dim_vector() == (1, 1, 0)
    assert pres.module.dim_vector() == (1, 0, 0)
    assert not in_add(S[0], e1)
    # disjoint summand supports between the two presentation terms
    assert not (set(pres.p0_idx) & set(pres.p1_idx))


def test_gamma_shape(e1):
    g = cached_gamma(e1)
    assert g.algebra.dim == 9
    assert g.algebra.n_idempotents == 4
    g.algebra.validate()


def test_hom_E_dimensions(a3, e1):
    g = cached_gamma(e1)
    S = simple_modules(a3)
    assert hom_E(S[0], g).dim == 2
    # Hom(E, E) is the regular Gamma-module
    he = hom_E(e1.E_basic, g)
    assert is_isomorphic(he, regular_module(g.algebra))


def test_regular_generator_reduces_to_usual_theory(a3):
    # E = algebra: add-E presentations are projective presentations and
    # E-rigid = tau-rigid
    e = generator_data(regular_module(a3))
    for s in simple_modules(a3):
        assert e_rigid(s, e) == is_tau_rigid(s)


def test_e_gp_detection(a3, e1):
    # members of add E are E-Gorenstein projective
    for p in projective_modules(a3):
        assert e_gorenstein_projective(p, e1).is_yes
    I = injective_modules(a3)
    assert e_gorenstein_projective(I[1], e1).is_yes
    # S_1 is not in add E; over the hereditary A3 with Gamma of finite
    # global dimension the E-GP classes reduce to add E
    s1 = simple_modules(a3)[0]
    res = e_gorenstein_projective(s1, e1)
    assert res.is_no


def test_class_bijection(e1, loop_flag):
    table = bijection_table(e1)
    assert table.n_lambda == table.n_gamma == 4
    assert table.complete
    # regular generator over the loop-flag algebra: the algebra is
    # CM-tau-tilting free, so the rigid GP classes are the projectives
    e = generator_data(regular_module(loop_flag))
    reg_table = bijection_table(e)
    assert reg_table.n_lambda == reg_table.n_gamma == 2


def test_eg_classes_of_regular_generator(loop_flag):
    e = generator_data(regular_module(loop_flag))
    members, any_unknown, _ = eg_classes(e)
    # rigid GP classes of the loop-flag algebra: P1 and P2 only
    # (Omega S1 is GP but not rigid)
    assert not any_unknown
    assert sorted(m.dim_vector() for m in members) == [(0, 1), (2, 2)]


def test_hom_map_surjective_not_fooled_by_a_reused_id():
    # f: S1 -> 0.  Hom(f, S2) is onto Hom(S1, S2) = 0, while Hom(f, S1)
    # misses Hom(S1, S1) = k.  Fresh copies are built and dropped so that
    # CPython hands a dead copy's id to a new module; an answer cached
    # under the id alone would then be returned for the wrong target.
    a = linear_a_n(3)
    S = simple_modules(a)
    f = ModuleMap(S[0], zero_module(a), Matrix(a.field, 0, 1))
    for _ in range(200):
        x = Module(a, [m.copy() for m in S[1].actions], validate=False)
        hom_map_surjective(f, x)
        del x
        y = Module(a, [m.copy() for m in S[0].actions], validate=False)
        assert hom_map_surjective(f, y) is False


def test_hom_map_surjective_keeps_no_target_alive():
    # the memo keys a target by its content, so a dropped target is freed
    # and copies with equal content share one entry on f.source
    a = linear_a_n(3)
    S = simple_modules(a)
    f = ModuleMap(S[0], zero_module(a), Matrix(a.field, 0, 1))
    x = Module(a, [m.copy() for m in S[1].actions], validate=False)
    hom_map_surjective(f, x)
    r = weakref.ref(x)
    del x
    gc.collect()
    assert r() is None
    held = len(entries(f.source))
    for _ in range(200):
        x = Module(a, [m.copy() for m in S[1].actions], validate=False)
        assert hom_map_surjective(f, x) is True
    assert len(entries(f.source)) == held
