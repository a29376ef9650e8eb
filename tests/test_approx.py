"""Relative approximation theory for a fixed generator E: minimal add-E
presentations lifted from projective presentations over
Gamma = (End E)^op, E-rigidity, and the class bijection induced by
Hom(E, -).  The greedy construction of minimal right add-E
approximations (delete summands of the evaluation map while every
Hom(E_i, -) stays onto) is kept here as the reference for the lift.

Golden instance: over linear A3 take E = P1 + P2 + P3 + I2.  This E is
not tau-rigid but is rigid relative to itself; S1 is E-rigid with the
add-E presentation P2 -> I2 -> S1 -> 0; Gamma has dimension 9 and four
simples; the class bijection matches 4 = 4 within bound 12."""

import gc
import weakref

import pytest

import gptau.approx
import gptau.classify
from conftest import _battery_algebras
from gptau.approx import (
    bijection_table,
    cached_gamma,
    e_gorenstein_projective,
    e_rigid,
    eg_classes,
    gamma,
    generator_data,
    hom_E,
    in_add,
    minimal_addE_presentation,
)
from gptau.algebra import AlgebraError, Quiver, bound_quiver_algebra, \
    linear_a_n, loop_algebra
from gptau.classify import CHECKS, Reach, cm_e_free, \
    enumerate_indecomposables, suite_bounds, tau_rigid_test
from gptau.field import GF, QQ
from gptau.gorenstein import gorenstein_projective
from gptau.homalg import ext_dim, global_dimension, is_tau_rigid
from gptau.linalg import Matrix
from gptau.memo import entries
from gptau.module import (
    Module,
    ModuleError,
    ModuleMap,
    direct_sum,
    dual_D,
    hom,
    hom_coords,
    injective_modules,
    is_isomorphic,
    module_from_dimvector,
    projective_modules,
    regular_module,
    simple_modules,
    zero_module,
)


@pytest.fixture(scope="module")
def e1(a3):
    return generator_data(_golden_e(a3))


def _golden_e(a):
    P = projective_modules(a)
    I = injective_modules(a)
    return direct_sum(a, [P[0], P[1], P[2], I[1]])[0]


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


def _right_minimal(f: ModuleMap) -> bool:
    """Is f right minimal, that is, is every g with f g = f invertible?
    Equivalently K = {g in End(source) : f g = 0} lies in the radical.
    K is a right ideal, and a right ideal lies in the radical iff it is
    nilpotent, iff K^d V = 0 for V the source, of dimension d."""
    src, fld = f.source, f.source.field
    ends = [h.matrix for h in hom(src, src)]
    if not ends:
        return True
    flat = [[x for row in (f.matrix @ g).data for x in row] for g in ends]
    sysm = Matrix.from_cols(fld, flat, nrows=f.matrix.rows * src.dim)
    ker = sysm.kernel_basis()
    ideal = []
    for j in range(ker.cols):
        g = Matrix(fld, src.dim, src.dim)
        for c, x in zip(ker.col(j), ends):
            g = g + x.scale(c)
        ideal.append(g)
    space = Matrix.identity(fld, src.dim)
    for _ in range(src.dim):
        cols = [(g @ space).col(j) for g in ideal for j in range(space.cols)]
        space = Matrix.from_cols(fld, cols, nrows=src.dim).image_basis()
    return space.cols == 0


def test_minimal_approximation_is_right_minimal(a3, e1):
    S = simple_modules(a3)
    f = minimal_addE_presentation(S[0], e1).f0
    assert f.matrix.rank() == S[0].dim  # surjective: E is a generator
    # the approximation source lies in add E
    assert in_add(f.source, e1)
    assert _right_minimal(f)
    # the evaluation map from one E_i per hom(E_i, S1) basis map is an
    # approximation too, but not a minimal one
    assert not _right_minimal(_greedy_assemble(S[0], e1, [
        (ci, h) for ci, b in enumerate(e1.basic) for h in hom(b, S[0])])[0])


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


# -- the greedy reference ------------------------------------------------------


def _greedy_assemble(x, e, picks):
    """(map from the sum of the picked E_i to x, picked classes) for a list
    of (class index, map E_i -> x) pairs."""
    if not picks:
        return ModuleMap(zero_module(x.algebra), x,
                         Matrix(x.field, x.dim, 0)), ()
    dom, _, projs = direct_sum(x.algebra, [e.basic[ci] for ci, _ in picks])
    total = Matrix(x.field, x.dim, dom.dim)
    for (_, h), pr in zip(picks, projs):
        total = total + h.matrix @ pr.matrix
    return ModuleMap(dom, x, total), tuple(ci for ci, _ in picks)


def _greedy_is_approximation(f, x, e):
    """Every map E_i -> x factors through f."""
    return all(
        hom_coords(b, x, [f.matrix @ g.matrix for g in hom(b, f.source)])
        .rank() == len(hom(b, x))
        for b in e.basic)


def _greedy_right_approx(x, e):
    """Minimal right add-E approximation of x: the evaluation map from one
    copy of E_i per basis map in hom(E_i, x), reduced by deleting, in
    fixed order, the first summand whose loss keeps the approximation
    property, until none can go."""
    if not e.is_generator:
        raise AlgebraError("E is not a generator")
    picks = [(ci, h) for ci, b in enumerate(e.basic) for h in hom(b, x)]
    changed = True
    while changed:
        changed = False
        for k in range(len(picks)):
            trial = picks[:k] + picks[k + 1:]
            if _greedy_is_approximation(_greedy_assemble(x, e, trial)[0], x, e):
                picks, changed = trial, True
                break
    return _greedy_assemble(x, e, picks)


def _greedy_shape(m, e):
    """(p0 and p1 dimension vectors, p0_idx, p1_idx, E-rigid) of the add-E
    presentation built from two greedy approximations; E-rigid is
    Hom(f1, m) onto."""
    f0, idx0 = _greedy_right_approx(m, e)
    ker, inc = f0.kernel()
    g, idx1 = _greedy_right_approx(ker, e)
    f1 = inc.matrix @ g.matrix
    img = hom_coords(g.source, m, [h.matrix @ f1 for h in hom(f0.source, m)])
    return (f0.source.dim_vector(), g.source.dim_vector(), idx0, idx1,
            img.rank() == img.rows)


def _generators(field):
    """(algebra, E) for E = A and E = A + D(A) over the battery algebras,
    and the golden E over linear A3."""
    out = []
    for a in _battery_algebras(field):
        reg = regular_module(a)
        out += [(a, reg), (a, direct_sum(
            a, [reg, dual_D(regular_module(a.opposite()))])[0])]
    a3 = linear_a_n(3, field)
    return out + [(a3, _golden_e(a3))]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_presentation_matches_the_greedy_reference(field):
    cases = 0
    for a, E in _generators(field):
        e = generator_data(E)
        mods = enumerate_indecomposables(a, 2 * a.dim).representatives
        for m in list(mods) + [zero_module(a)]:
            pres = minimal_addE_presentation(m, e)
            got = (pres.p0.dim_vector(), pres.p1.dim_vector(),
                   pres.p0_idx, pres.p1_idx, e_rigid(m, e))
            assert got == _greedy_shape(m, e), m.dim_vector()
            pres.f0.validate()
            pres.f1.validate()
            assert pres.f0.matrix.rank() == m.dim
            assert (pres.f0.matrix @ pres.f1.matrix).is_zero()
            assert pres.f1.matrix.rank() == pres.p0.dim - m.dim
            cases += 1
    assert cases >= 50


def test_non_generator_raises(a3):
    S = simple_modules(a3)
    e = generator_data(S[0])
    for call in (minimal_addE_presentation, e_rigid):
        with pytest.raises(AlgebraError, match="not a generator"):
            call(S[1], e)
    with pytest.raises(AlgebraError, match="not a generator"):
        _greedy_right_approx(S[1], e)


# -- Gamma over small primes ---------------------------------------------------


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=str)
def test_regular_generator_over_small_primes(field):
    """With E = A, Gamma = A^op^op = A: E-rigid is tau-rigid and E-GP is
    GP, also where p divides the dimension of a projective (the trace
    form of End(P_i) then takes the identity into its kernel)."""
    classes = 0
    for a in _battery_algebras(field) + [linear_a_n(2, field)]:
        e = generator_data(regular_module(a))
        for m in enumerate_indecomposables(a, 2 * a.dim).representatives:
            assert e_rigid(m, e) == tau_rigid_test(m)
            assert (e_gorenstein_projective(m, e).verdict
                    == gorenstein_projective(m).verdict)
            classes += 1
    assert classes > 20


def test_cm_e_free_over_gf2():
    v = cm_e_free(generator_data(regular_module(linear_a_n(2, GF(2)))))
    assert v.is_yes


def test_gamma_refuses_a_summand_with_a_larger_residue_field():
    """The Kronecker module over GF(2) with b the companion matrix of
    t^2 + t + 1 has End = GF(4): E decomposes with no warning, and
    gamma refuses it, since Gamma would not be split."""
    f = GF(2)
    a = bound_quiver_algebra(
        Quiver((1, 2), (("a", 1, 2), ("b", 1, 2))), [], 2, f)
    m = module_from_dimvector(a, [2, 2], {
        "a": Matrix.identity(f, 2), "b": Matrix(f, 2, 2, [[0, 1], [1, 1]])})
    e = generator_data(direct_sum(a, [regular_module(a), m])[0])
    assert e.is_generator
    with pytest.raises(AlgebraError, match="not the ground field"):
        gamma(e)


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


def test_bijection_on_the_auslander_generator_of_kx4():
    """E = the sum of the four indecomposables of K[x]/(x^4): Gamma is its
    Auslander algebra (dimension 30, gl.dim 2), so the Gamma side is its
    four projectives, complete with no enumeration of Gamma."""
    a = loop_algebra(4)
    reps = enumerate_indecomposables(a, 2 * a.dim).representatives
    assert len(reps) == 4
    e = generator_data(direct_sum(a, reps)[0])
    g = cached_gamma(e).algebra
    assert g.dim == 30
    gd = global_dimension(g)
    assert gd.is_yes and gd.value == 2
    table = bijection_table(e)
    assert table.n_lambda == table.n_gamma == len(table.rows) == 4
    assert table.complete and table.unmatched == []


def _dropping_last(real, reach):
    """A list function that leaves out the last class of the real list
    and reports the given reach for what is left."""
    def listed(*args):
        members, unknowns, _ = real(*args)
        return members[:-1], unknowns, reach
    return listed


@pytest.mark.parametrize("side", ["gamma", "base"])
def test_a_class_without_partner_is_unknown_past_a_bound(e1, monkeypatch,
                                                         side):
    """The golden table matches 4 = 4 classes.  When one side reports
    itself bound-limited the table is incomplete, all matched or not.
    With the last class of that side left out, its partner is unmatched:
    a violation when the short side reports itself complete, and an
    unknown table when it reports itself bound-limited, since the
    partner may lie past the bound."""
    if side == "gamma":
        owner, name = gptau.classify, "gorenstein_projective_tau_rigid_list"
    else:
        owner, name = gptau.approx, "eg_classes"
    real = getattr(owner, name)

    def bound_limited(*args):
        members, unknowns, _ = real(*args)
        return members, unknowns, Reach(False, 12,
                                        "enumeration bound-limited")

    # every class matched, but one side reaches only as far as its bound
    monkeypatch.setattr(owner, name, bound_limited)
    table = bijection_table(e1)
    assert len(table.rows) == 4 and table.unmatched == []
    assert not table.complete
    monkeypatch.setattr(owner, name, _dropping_last(
        real, Reach(False, 12, "enumeration bound-limited")))
    table = bijection_table(e1)
    assert not table.complete
    assert len(table.rows) == 3 and len(table.unmatched) == 1
    state, extra = CHECKS["bijection"](e1.E.algebra,
                                       *suite_bounds(e1.E.algebra), e1)
    assert state.is_unknown
    assert extra["counts"]["unmatched"] == 1
    monkeypatch.setattr(owner, name, _dropping_last(
        real, Reach(True, 12, "enumeration certified complete")))
    with pytest.raises(ModuleError, match="bijection violated"):
        bijection_table(e1)
    state, _ = CHECKS["bijection"](e1.E.algebra,
                                   *suite_bounds(e1.E.algebra), e1)
    assert state.is_no


def test_eg_classes_of_regular_generator(loop_flag):
    e = generator_data(regular_module(loop_flag))
    members, any_unknown, _ = eg_classes(e)
    # rigid GP classes of the loop-flag algebra: P1 and P2 only
    # (Omega S1 is GP but not rigid)
    assert not any_unknown
    assert sorted(m.dim_vector() for m in members) == [(0, 1), (2, 2)]


# -- the hom_coords memo -------------------------------------------------------


def _hom_onto(f: ModuleMap, x: Module) -> bool:
    """Is Hom(f, x): Hom(target, x) -> Hom(source, x) onto?  Read off
    hom_coords, whose memo on f.source keys x by its content."""
    img = hom_coords(f.source, x,
                     [g.matrix @ f.matrix for g in hom(f.target, x)])
    return img.rank() == img.rows


def test_hom_coords_not_fooled_by_a_reused_id():
    # f: S1 -> 0.  Hom(f, S2) is onto Hom(S1, S2) = 0, while Hom(f, S1)
    # misses Hom(S1, S1) = k.  Fresh copies are built and dropped so that
    # CPython hands a dead copy's id to a new module; an answer cached
    # under the id alone would then be returned for the wrong target.
    a = linear_a_n(3)
    S = simple_modules(a)
    f = ModuleMap(S[0], zero_module(a), Matrix(a.field, 0, 1))
    for _ in range(200):
        x = Module(a, [m.copy() for m in S[1].actions], validate=False)
        _hom_onto(f, x)
        del x
        y = Module(a, [m.copy() for m in S[0].actions], validate=False)
        assert _hom_onto(f, y) is False


def test_hom_coords_keeps_no_target_alive():
    # the memo keys a target by its content, so a dropped target is freed
    # and copies with equal content share one entry on f.source
    a = linear_a_n(3)
    S = simple_modules(a)
    f = ModuleMap(S[0], zero_module(a), Matrix(a.field, 0, 1))
    x = Module(a, [m.copy() for m in S[1].actions], validate=False)
    _hom_onto(f, x)
    r = weakref.ref(x)
    del x
    gc.collect()
    assert r() is None
    held = len(entries(f.source))
    for _ in range(200):
        x = Module(a, [m.copy() for m in S[1].actions], validate=False)
        assert _hom_onto(f, x) is True
    assert len(entries(f.source)) == held
