"""Module calculus: Hom spaces, decomposition, isomorphism testing,
simples/projectives/injectives, duality, triples.

Oracles: dimension formulas dim Hom(P_i, M) = dim e_i M for projectives,
hand-known dimension vectors, and structural identities."""

import random

import pytest

from gptau.algebra import (
    cyclic_nakayama,
    example_loop_flag_algebra,
    linear_a_n,
    loop_algebra,
    t2,
    trivial_algebra,
)
from gptau.field import GF
from gptau.module import (
    Module,
    ModuleError,
    decompose,
    direct_sum,
    dual_D,
    hom,
    hom_coords,
    hom_dim,
    injective_modules,
    is_indecomposable,
    is_isomorphic,
    is_projective,
    module_from_dimvector,
    module_from_triple,
    module_to_triple,
    projective_cover,
    projective_modules,
    radical_submodule,
    regular_module,
    simple_modules,
    strip_projectives,
    top_of,
    zero_module,
)
from gptau.linalg import Matrix


def test_projective_dim_vectors(a3):
    dvs = sorted(p.dim_vector() for p in projective_modules(a3))
    assert dvs == [(0, 0, 1), (0, 1, 1), (1, 1, 1)]


def test_injective_dim_vectors(a3):
    dvs = sorted(i.dim_vector() for i in injective_modules(a3))
    assert dvs == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]


def test_simples_are_one_dimensional(battery):
    for a in battery.values():
        for s in simple_modules(a):
            assert s.dim == 1
            assert is_indecomposable(s)[0]


def test_hom_from_projective_counts_block_dimension(a3):
    # dim Hom(P_i, M) equals the i-th entry of the dimension vector
    M = regular_module(a3)
    for i, p in enumerate(projective_modules(a3)):
        assert hom_dim(p, M) == M.dim_vector()[i]


def test_hom_between_distinct_simples_is_zero(a3):
    S = simple_modules(a3)
    assert hom_dim(S[0], S[1]) == 0
    assert hom_dim(S[0], S[0]) == 1


def test_regular_module_decomposes_into_projectives(loop_flag):
    parts = decompose(regular_module(loop_flag))
    assert sum(mult for _, mult in parts) == loop_flag.n_idempotents
    projs = projective_modules(loop_flag)
    for part, _ in parts:
        assert any(is_isomorphic(part, p) for p in projs)


def test_direct_sum_round_trip(a3):
    S = simple_modules(a3)
    m, incls, projs = direct_sum(a3, [S[0], S[2], S[0]])
    assert m.dim == 3
    parts = decompose(m)
    found = sorted(
        dv for part, mult in parts for dv in [part.dim_vector()] * mult
    )
    assert found == [(0, 0, 1), (1, 0, 0), (1, 0, 0)]
    for inc, prj in zip(incls, projs):
        comp = prj.compose(inc)
        assert comp.matrix == Matrix.identity(a3.field, comp.source.dim)


def test_isomorphism_respects_structure_not_just_dimensions(loop_flag):
    # two non-isomorphic modules with the same dimension vector:
    # alpha acting as zero vs. alpha acting nontrivially on (2,0)
    f = loop_flag.field
    z = Matrix(f, 2, 2)
    nz = Matrix(f, 2, 2)
    nz.data[0][1] = f.one()
    beta0 = Matrix(f, 0, 2)
    m1 = module_from_dimvector(loop_flag, [2, 0], {"alpha": z, "beta": beta0})
    m2 = module_from_dimvector(loop_flag, [2, 0], {"alpha": nz, "beta": beta0})
    assert m1.dim_vector() == m2.dim_vector()
    assert not is_isomorphic(m1, m2)
    assert is_isomorphic(m2, m2)


def test_radical_and_top(a3):
    P = projective_modules(a3)
    rad, _ = radical_submodule(P[0])
    assert rad.dim_vector() == (0, 1, 1)
    assert top_of(P[0])[0].dim_vector() == (1, 0, 0)


def test_projective_cover_is_minimal(loop_flag):
    S = simple_modules(loop_flag)
    P, f, idx = projective_cover(S[0])
    assert f.matrix.rank() == S[0].dim
    assert is_isomorphic(P, projective_modules(loop_flag)[0])
    assert tuple(idx) == (0,)


def test_duality_swaps_projective_and_injective(a3):
    op = a3.opposite()
    for p in projective_modules(a3):
        d = dual_D(p)
        assert d.algebra is op
        assert any(is_isomorphic(d, i) for i in injective_modules(op))


def test_double_dual_is_identity_on_dimension_vectors(loop_flag):
    for p in projective_modules(loop_flag):
        dd = dual_D(dual_D(p))
        assert is_isomorphic(dd, p)


def test_strip_projectives_removes_exactly_projective_summands(a3):
    S = simple_modules(a3)
    P = projective_modules(a3)
    m, _, _ = direct_sum(a3, [S[0], P[1]])
    stripped = strip_projectives(m)
    assert is_isomorphic(stripped, S[0])
    assert strip_projectives(P[0]).dim == 0


def test_zero_module_is_legal(a3):
    z = zero_module(a3)
    assert z.dim == 0
    assert hom_dim(z, regular_module(a3)) == 0


def test_unit_must_act_as_identity(a3):
    f = a3.field
    bad = [Matrix(f, 1, 1) for _ in range(a3.dim)]
    with pytest.raises(ModuleError):
        Module(a3, bad)


def test_triple_form_round_trip(loop_flag, t2_loop_flag):
    reg = regular_module(t2_loop_flag)
    x, y, phi = module_to_triple(reg)
    assert x.dim + y.dim == reg.dim
    back = module_from_triple(t2_loop_flag, x, y, phi)
    assert is_isomorphic(back, reg)


def test_t2_projectives_have_projective_triples(t2_loop_flag):
    for p in projective_modules(t2_loop_flag):
        x, y, phi = module_to_triple(p)
        # either (P, P, id) or (0, Q, 0) with Q projective
        if x.dim == 0:
            assert is_projective(y)
        else:
            assert phi.is_isomorphism()
            assert is_projective(y)


def test_is_projective(battery):
    for a in battery.values():
        assert is_projective(regular_module(a))
        S = simple_modules(a)
        for s in S:
            cover, _, _ = projective_cover(s)
            assert is_projective(s) == (cover.dim == s.dim)


def _flat(mat):
    return [x for row in mat.data for x in row]


@pytest.mark.parametrize("p", [None, 7])
def test_hom_coords_matches_per_vector_solve(battery, p):
    """hom_coords against the flattened-basis solve written out here:
    column j is the solution of (row-major Hom basis) x = (map j)."""
    if p is None:
        algebras = battery.values()
    else:
        fld = GF(p)
        algebras = [linear_a_n(3, fld), example_loop_flag_algebra(fld),
                    loop_algebra(3, fld), cyclic_nakayama(2, 2, fld),
                    trivial_algebra(fld)]
    rng = random.Random(20240915)
    rejected = 0
    for a in algebras:
        f = a.field
        mods = (projective_modules(a) + simple_modules(a)
                + [regular_module(a)])
        for m in mods:
            for n in mods:
                hs = hom(m, n)
                basis = Matrix.from_cols(f, [_flat(h.matrix) for h in hs],
                                         nrows=n.dim * m.dim)
                coeffs = [[rng.randint(-3, 3) for _ in hs] for _ in range(3)]
                mats = []
                for cs in coeffs:
                    mat = Matrix(f, n.dim, m.dim)
                    for c, h in zip(cs, hs):
                        mat = mat + h.matrix.scale(c)
                    mats.append(mat)
                x = hom_coords(m, n, mats)
                assert (x.rows, x.cols) == (len(hs), len(mats))
                for j, mat in enumerate(mats):
                    assert x.col(j) == basis.solve(_flat(mat))
                    assert x.col(j) == [f.of(c) for c in coeffs[j]]
                empty = hom_coords(m, n, [])
                assert (empty.rows, empty.cols) == (len(hs), 0)
                with pytest.raises(ModuleError):
                    hom_coords(m, n, [Matrix(f, n.dim + 1, m.dim)])
                # a matrix unit outside the Hom space is no module map
                for r in range(n.dim):
                    for c in range(m.dim):
                        unit = Matrix(f, n.dim, m.dim)
                        unit.data[r][c] = f.one()
                        if basis.solve(_flat(unit)) is None:
                            with pytest.raises(ModuleError):
                                hom_coords(m, n, [unit])
                            rejected += 1
    assert rejected
