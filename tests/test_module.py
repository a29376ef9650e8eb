"""Module calculus: Hom spaces, decomposition, isomorphism testing,
simples/projectives/injectives, duality, triples.

Oracles: dimension formulas dim Hom(P_i, M) = dim e_i M for projectives,
hand-known dimension vectors, and structural identities."""

import itertools
import operator
import random
import warnings
from collections import Counter
from functools import reduce

import pytest
from conftest import _classes_and_sums, _two_loops_radical_square_zero

from gptau.algebra import (
    Algebra,
    Quiver,
    Relation,
    bound_quiver_algebra,
    cyclic_nakayama,
    example_loop_flag_algebra,
    linear_a_n,
    loop_algebra,
    t2,
    tensor,
    trivial_algebra,
)
from gptau.classify import consistency_suites, enumerate_indecomposables
from gptau.field import GF, QQ
from gptau.module import (
    Module,
    ModuleError,
    _iso_indecomposable,
    _hom_matrices,
    _proj_embedding,
    _projective_sum,
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
    module_to_dimvector,
    module_from_triple,
    module_to_triple,
    projective_cover,
    projective_modules,
    quotient_module,
    rad_end,
    radical_submodule,
    regular_module,
    simple_modules,
    split_indecomposables,
    strip_projectives,
    top_of,
    zero_module,
)
from gptau.linalg import Matrix
from gptau.memo import entries


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


def _battery_over(battery, p):
    """The battery algebras over QQ (p None) or over GF(p)."""
    if p is None:
        return list(battery.values())
    fld = GF(p)
    return [linear_a_n(3, fld), example_loop_flag_algebra(fld),
            loop_algebra(3, fld), cyclic_nakayama(2, 2, fld),
            trivial_algebra(fld)]


def _random_basis_actions(m, rng):
    """The actions of m conjugated by a random invertible matrix."""
    f = m.field
    while True:
        P = Matrix(f, m.dim, m.dim, [[rng.randint(-2, 2) for _ in range(m.dim)]
                                     for _ in range(m.dim)])
        if P.is_invertible():
            break
    Pinv = P.inverse()
    return [Pinv @ act @ P for act in m.actions]


def _in_random_basis(m, rng):
    """m with its actions conjugated by a random invertible matrix."""
    return Module(m.algebra, _random_basis_actions(m, rng))


@pytest.mark.parametrize("p", [2, 3])
def test_split_survives_trace_form_blind_spot(p):
    """Over GF(p) with p <= dim the trace form alone can lose the
    idempotent of a summand whose dimension p divides (P1+S2 and P0+P1
    over GF(2), P0+S_j over GF(3) read 1 from it).  rad_end is exact:
    every P_i+P_j and P_i+S_j reads 2 when its summands are not
    isomorphic and 4 (End = M_2(k)) when they are, and splits into
    pieces of its summands' dimensions."""
    a = linear_a_n(3, GF(p))
    P, S = projective_modules(a), simple_modules(a)
    pairs = {"P%d+P%d" % (i, j): (P[i], P[j])
             for i in range(3) for j in range(i + 1, 3)}
    pairs.update({"P%d+S%d" % (i, j): (P[i], S[j])
                  for i in range(3) for j in range(3)})
    for name, (x, y) in pairs.items():
        m, _, _ = direct_sum(a, [x, y])
        assert rad_end(m)[1] == (4 if _iso_indecomposable(x, y) else 2), name
        pieces = split_indecomposables(m)
        assert sorted(q.dim for q in pieces) == sorted([x.dim, y.dim]), name


@pytest.mark.parametrize("p", [None, 7])
def test_decomposition_recovers_random_basis_sums(battery, p):
    """Sums of 1-3 indecomposables in a random basis split back into
    pieces of the summands' dimension vectors, each with End/rad of
    dimension 1, and decompose counts each summand's class."""
    rng = random.Random(20241018)
    for a in _battery_over(battery, p):
        reps = enumerate_indecomposables(a, 4).representatives
        for _ in range(6):
            idx = [rng.randrange(len(reps)) for _ in range(rng.randint(1, 3))]
            summands = [reps[i] for i in idx]
            m, _, _ = direct_sum(a, summands)
            m = _in_random_basis(m, rng)
            pieces = split_indecomposables(m)
            assert (Counter((q.dim, q.dim_vector()) for q in pieces)
                    == Counter((s.dim, s.dim_vector()) for s in summands))
            assert all(rad_end(q)[1] == 1 for q in pieces)
            got = Counter()
            for piece, k in decompose(m):
                (i,) = [i for i in set(idx) if is_isomorphic(piece, reps[i])]
                got[i] += k
            assert got == Counter(idx)


@pytest.mark.parametrize("p", [None, 7, 5, 3])
def test_rad_end_matches_trace_form_of_products(battery, p):
    """rad_end against the trace form built here from full products:
    over QQ, and over GF(p) on the modules of dimension < p, the kernel
    of (tr(e_i e_j)) gives the same vectors and dim End/rad."""
    compared = 0
    for a in _battery_over(battery, p):
        f = a.field
        for m in (projective_modules(a) + simple_modules(a)
                  + [regular_module(a)]):
            if p and m.dim >= p:
                continue
            ends = hom(m, m)
            k = len(ends)
            gram = Matrix(f, k, k)
            for i in range(k):
                for j in range(k):
                    prod = ends[i].matrix @ ends[j].matrix
                    t = f.zero()
                    for r in range(m.dim):
                        t = t + prod.data[r][r]
                    gram.data[i][j] = t
            ker = gram.kernel_basis()
            rad_coeffs, sdim = rad_end(m)
            assert rad_coeffs == [ker.col(j) for j in range(ker.cols)]
            assert sdim == k - ker.cols
            compared += 1
    assert compared >= 10


def _nilpotent(x):
    """x^(2^j) = 0 for the first 2^j >= dim: x is nilpotent."""
    n = 1
    while n < x.rows:
        x, n = x @ x, 2 * n
    return x.is_zero()


def _row_span(f, vecs, k):
    """The RREF of the length-k vectors stacked as rows: a canonical form
    of their span."""
    return Matrix(f, len(vecs), k, vecs).rref()[0]


def _small_prime_modules(p):
    """[(algebra, modules)] over GF(p) for the battery and the fresh-GP
    battery algebras: projectives, simples, injectives, the regular
    module, two seeded random-basis sums (_test_modules) and X + X for
    each of the first four of dimension <= 3."""
    f = GF(p)
    rng = random.Random(20241201 + p)
    algebras = [linear_a_n(3, f), example_loop_flag_algebra(f),
                loop_algebra(3, f), cyclic_nakayama(2, 2, f),
                trivial_algebra(f), cyclic_nakayama(2, 3, f),
                _two_loops_radical_square_zero(f), t2(linear_a_n(2, f))]
    out = []
    for a in algebras:
        mods = _test_modules(a, rng)
        mods += [direct_sum(a, [x, x])[0] for x in mods[:4] if x.dim <= 3]
        out.append((a, mods))
    return out


def _ideal_and_nilpotent(m, rad_mats, ends):
    """Is the span of rad_mats a two-sided ideal of End(m) (ends, its
    basis) with some power zero?"""
    f, d = m.field, m.dim
    if not rad_mats:
        return True
    stack = Matrix.from_cols(f, [_flat(x) for x in rad_mats], nrows=d * d)
    for r in rad_mats:
        for b in ends:
            for prod in (r @ b, b @ r):
                if stack.solve(_flat(prod)) is None:
                    return False
    power = rad_mats
    for _ in range(d):
        rows = [_flat(x @ r) for x in power for r in rad_mats]
        red, pivots = Matrix(f, len(rows), d * d, rows).rref()
        power = [Matrix(f, d, d, [red.data[i][r * d:(r + 1) * d]
                                  for r in range(d)])
                 for i in range(len(pivots))]
        if not power:
            return True
    return False


def _no_larger_nilpotent_ideal(m, rad_coeffs, ends):
    """Brute force over all of End(m): each nonzero class x modulo the
    radical found (a nilpotent ideal, so inside the true radical J) has
    some b with b x not nilpotent, so x lies outside
    J = {x : b x is nilpotent for every b}."""
    f = m.field
    k = len(ends)
    lifts, vecs = [], list(rad_coeffs)
    for i, e in enumerate(ends):
        v = [int(j == i) for j in range(k)]
        if Matrix(f, len(vecs) + 1, k, vecs + [v]).rank() > len(vecs):
            vecs.append(v)
            lifts.append(e)

    def elements():
        """All of End(m), the identity and the basis first, where a
        witness b is most often found."""
        yield Matrix.identity(f, m.dim)
        yield from ends
        for c in itertools.product(range(f.p), repeat=k):
            yield _combination(ends, c)

    for c in itertools.product(range(f.p), repeat=len(lifts)):
        if any(c):
            x = _combination(lifts, c)
            if all(_nilpotent(b @ x) for b in elements()):
                return False
    return True


@pytest.mark.parametrize("p", [2, 3])
def test_rad_end_is_the_largest_nilpotent_ideal(p):
    """Over GF(2) and GF(3), where the trace form alone can overshoot:
    the radical read is a nilpotent two-sided ideal of End(m), and where
    End(m) has at most 4096 elements no larger one exists."""
    maximal = 0
    for a, mods in _small_prime_modules(p):
        for m in mods:
            ends = [h.matrix for h in hom(m, m)]
            rad_coeffs, sdim = rad_end(m)
            assert sdim == len(ends) - len(rad_coeffs)
            rad_mats = [_combination(ends, c) for c in rad_coeffs]
            assert _ideal_and_nilpotent(m, rad_mats, ends), m
            if p ** len(ends) <= 4096:
                assert _no_larger_nilpotent_ideal(m, rad_coeffs, ends), m
                maximal += 1
    assert maximal >= 80


def _lambda_radical(b):
    """Reference rad End(b) for an indecomposable b with End/rad the
    ground field GF(p): h^q = lambda(h) . 1 for a power q >= dim b of p
    (Frobenius is additive on commuting terms and fixes lambda), and the
    radical is ker lambda."""
    f = b.field
    lam = []
    for h in hom(b, b):
        x, q = h.matrix, 1
        while q < b.dim:
            x, q = reduce(operator.matmul, [x] * f.p), q * f.p
        c = x.data[0][0]
        assert x == Matrix.identity(f, b.dim).scale(c)
        lam.append(c)
    ker = Matrix(f, 1, len(lam), [lam]).kernel_basis()
    return [ker.col(j) for j in range(ker.cols)]


@pytest.mark.parametrize("p", [2, 3])
def test_rad_end_is_the_kernel_of_lambda_on_indecomposables(p):
    """On the enumerated classes of the battery and the fresh-GP battery
    over GF(p), End/rad is the ground field and rad_end spans ker lambda,
    also where p divides the dimension."""
    divisible = 0
    for a, mods in _small_prime_modules(p):
        for m in enumerate_indecomposables(a, 6).representatives:
            k = len(hom(m, m))
            rad_coeffs, sdim = rad_end(m)
            assert sdim == 1
            assert (_row_span(m.field, rad_coeffs, k)
                    == _row_span(m.field, _lambda_radical(m), k))
            divisible += m.dim % p == 0
    assert divisible >= 10


def _table_a2(f):
    """Linear A2 given by structure constants in the basis (1, e, x), with
    e x = 0 and x e = x: the idempotents e and 1 - e are no basis vectors,
    so they act on the regular module by non-diagonal matrices."""
    z, e, x = [0, 0, 0], [0, 1, 0], [0, 0, 1]
    mult = [[[1, 0, 0], e, x],  # 1 * (1, e, x)
            [e, e, z],          # e * (1, e, x)
            [x, x, z]]          # x * (1, e, x)
    return Algebra(f, ["1", "e", "x"], mult, [1, 0, 0], [e, [1, -1, 0]],
                   [x], "table")


def _algebras_over(battery, p):
    """The battery algebras, T2(linear A2), the table-form A2 and
    k[x, y]/(x^2, y^2) (two radical generators on one vertex), over QQ
    (p None) or over GF(p)."""
    algebras = _battery_over(battery, p)
    f = algebras[0].field
    return algebras + [t2(linear_a_n(2, f)), _table_a2(f),
                       tensor(loop_algebra(2, f), loop_algebra(2, f))]


def _test_modules(a, rng):
    """Projectives, simples, injectives, the regular module and two
    seeded sums of two of them of dimension <= 3 in a random basis (the
    intertwiner systems of larger ones cost seconds over QQ)."""
    base = (projective_modules(a) + simple_modules(a) + injective_modules(a)
            + [regular_module(a)])
    small = [x for x in base if x.dim <= 3]
    sums = []
    for _ in range(2):
        summands = [rng.choice(small) for _ in range(2)]
        sums.append(_in_random_basis(direct_sum(a, summands)[0], rng))
    return base + sums


def _intertwiner_kernel(m, n):
    """Columns span {F : F rho_m(b) = rho_n(b) F for every basis element b},
    over all d_n x d_m matrices F flattened row-major."""
    f = m.field
    dm, dn = m.dim, n.dim
    rows = []
    for A, B in zip(m.actions, n.actions):
        for r in range(dn):
            for c in range(dm):
                row = [f.zero()] * (dn * dm)
                for k in range(dm):  # (F A)[r, c]
                    row[r * dm + k] = row[r * dm + k] + A.data[k][c]
                for k in range(dn):  # - (B F)[r, c]
                    row[k * dm + c] = row[k * dm + c] - B.data[r][k]
                rows.append(row)
    return Matrix(f, len(rows), dn * dm, rows).kernel_basis()


@pytest.mark.parametrize("p", [None, 7, 2])
def test_hom_spans_the_full_intertwiner_kernel(battery, p):
    """hom(m, n) against the intertwiner system over all matrices F and
    every algebra basis element: same dimension, same span."""
    rng = random.Random(20241101)
    for a in _algebras_over(battery, p):
        f = a.field
        mods = _test_modules(a, rng)
        for m in mods:
            for n in mods:
                ker = _intertwiner_kernel(m, n)
                hs = hom(m, n)
                assert len(hs) == ker.cols
                if hs:
                    span = Matrix.from_cols(f, [_flat(h.matrix) for h in hs],
                                            nrows=n.dim * m.dim)
                    assert span.rank() == len(hs)
                    assert ker.hstack(span).rank() == ker.cols


def _covered_injectively(m):
    return projective_cover(m)[1].matrix.kernel_basis().cols == 0


@pytest.mark.parametrize("p", [None, 7, 2])
def test_is_projective_and_injective_match_the_cover_kernel(battery, p):
    """is_projective(m) iff the projective cover of m has zero kernel, and
    the same holds for the dual of m (m is injective iff D m is
    projective); on the battery, the zero module and seeded sums with and
    without projective summands."""
    rng = random.Random(20241102)
    seen = set()
    for a in _algebras_over(battery, p):
        projs = projective_modules(a)
        rest = (simple_modules(a) + injective_modules(a)
                + [radical_submodule(q)[0] for q in projs])
        rest = [x for x in rest if x.dim and not _covered_injectively(x)]
        mods = [zero_module(a), regular_module(a)] + projs + rest
        for _ in range(3):
            with_p = [rng.choice(projs), rng.choice(projs + rest)]
            mods.append(_in_random_basis(direct_sum(a, with_p)[0], rng))
            if rest:
                without = [rng.choice(rest) for _ in range(2)]
                mods.append(_in_random_basis(direct_sum(a, without)[0], rng))
        for m in mods:
            verdict = is_projective(m)
            assert verdict == _covered_injectively(m)
            assert (is_projective(dual_D(m))
                    == _covered_injectively(dual_D(m)))
            seen.add(verdict)
    assert seen == {True, False}


def _reference_projective_cover(m):
    """(P, matrix of P -> m, idx) built from rad m and top m: each basis
    vector of the top quotient is lifted into its block of m by a solve,
    and P_i -> m sends the basis element v of P_i to v . lift."""
    a = m.algebra
    _, inc = radical_submodule(m)
    T, pi = quotient_module(m, inc.matrix)
    pieces, idx, cols = [], [], []
    for i, (toff, tdim) in enumerate(T.blocks):
        moff, mdim = m.blocks[i]
        pim = pi.matrix.select_cols(list(range(moff, moff + mdim)))
        emb = _proj_embedding(a, i)
        for r in range(tdim):
            x = pim.solve([int(k == toff + r) for k in range(T.dim)])
            x = [0] * moff + x + [0] * (m.dim - moff - mdim)
            cols += [m.action_of(emb.col(j)).mul_vec(x)
                     for j in range(emb.cols)]
            pieces.append(projective_modules(a)[i])
            idx.append(i)
    P = direct_sum(a, pieces)[0]
    return P, Matrix.from_cols(m.field, cols, nrows=m.dim) @ P.to_raw(), idx


@pytest.mark.parametrize("p", [None, 2, 3])
def test_projective_cover_matches_the_radical_quotient_route(p):
    """The cover read off the idempotent blocks equals, entry for entry,
    the one lifted from the top quotient m / rad m: same P, same map
    matrix, same summand indices; so the unit vectors completing rad m
    are the first ones, block by block."""
    for a, mods in _classes_and_sums(QQ if p is None else GF(p)):
        for m in mods:
            P, fmap, idx = projective_cover(m)
            ref_p, ref_mat, ref_idx = _reference_projective_cover(m)
            assert P.content_key() == ref_p.content_key()
            assert fmap.matrix == ref_mat
            assert list(idx) == ref_idx
            assert is_projective(m) == (ref_p.dim == m.dim)


def _span_rref(f, mats, cols):
    """The RREF of the flattened matrices stacked as rows: a canonical
    form of their span."""
    return Matrix(f, len(mats), cols, [_flat(x) for x in mats]).rref()[0]


@pytest.mark.parametrize("p", [None, 2, 3])
def test_hom_out_of_a_projective_sum_reads_the_generators(p):
    """On a _projective_sum P, the Hom basis read off the generator images
    has dim e_i n elements per summand and spans the same space as the
    kernel-route basis (_hom_matrices on a plain copy of P, so that the
    shared P keeps no entry).  hom_coords returns the coefficients of
    each combination of it, and raises ModuleError on a matrix of the
    wrong shape and on one outside Hom(P, n)."""
    rng = random.Random(20241121)
    rejected = 0
    for a, mods in _classes_and_sums(QQ if p is None else GF(p)):
        f = a.field
        k = a.n_idempotents
        tuples = [(i,) for i in range(k)]
        tuples.append(tuple(sorted(rng.choice(range(k)) for _ in range(3))))
        for idx in tuples:
            P = _projective_sum(a, idx)
            assert [i for i, _, _ in P.summands] == list(idx)
            plain = Module(a, P.actions, validate=False)
            for n in mods:
                hs = [h.matrix for h in hom(P, n)]
                assert len(hs) == sum(n.blocks[i][1] for i in idx)
                assert (_span_rref(f, hs, n.dim * P.dim)
                        == _span_rref(f, _hom_matrices(plain, n),
                                      n.dim * P.dim))
                coeffs = [[rng.randint(-3, 3) for _ in hs] for _ in range(2)]
                mats = [_combination(hs, cs) if hs else Matrix(f, n.dim, P.dim)
                        for cs in coeffs]
                x = hom_coords(P, n, mats)
                assert (x.rows, x.cols) == (len(hs), 2)
                for j, cs in enumerate(coeffs):
                    assert x.col(j) == [f.of(c) for c in cs]
                with pytest.raises(ModuleError):
                    hom_coords(P, n, [Matrix(f, n.dim, P.dim + 1)])
                unit = Matrix(f, n.dim, P.dim)
                unit.data[rng.randrange(n.dim)][rng.randrange(P.dim)] = 1
                if _span_rref(f, hs + [unit], n.dim * P.dim).rank() > len(hs):
                    with pytest.raises(ModuleError):
                        hom_coords(P, n, [unit])
                    rejected += 1
    assert rejected > 20


def _combination(actions, vec):
    f = actions[0].field
    out = Matrix(f, actions[0].rows, actions[0].cols)
    for c, act in zip(vec, actions):
        out = out + act.scale(c)
    return out


def _assert_adapted(m, raw):
    """m is Module(m.algebra, raw) re-based as written out here: U has
    the image bases of the idempotents as columns, the actions are
    U^-1 a U and from_raw_matrix() is U^-1."""
    images = [_combination(raw, e).image_basis() for e in m.algebra.idempotents]
    U = images[0]
    for img in images[1:]:
        U = U.hstack(img)
    Uinv = U.inverse()
    assert m.actions == [Uinv @ act @ U for act in raw]
    assert m.from_raw_matrix() == Uinv
    offsets = [0]
    for img in images:
        offsets.append(offsets[-1] + img.cols)
    assert m.blocks == [(offsets[i], img.cols) for i, img in enumerate(images)]


def _is_diagonal(mat):
    return all(not x for r, row in enumerate(mat.data)
               for c, x in enumerate(row) if r != c)


def _is_permutation(mat):
    return all(sum(1 for x in row if x) == 1 and 1 in row for row in mat.data)


def _block_diagonal(f, mats):
    total = sum(x.rows for x in mats)
    out = Matrix(f, total, total)
    off = 0
    for x in mats:
        for r in range(x.rows):
            out.data[off + r][off:off + x.cols] = x.data[r]
        off += x.rows
    return out


def _quiver_raw(a, dims, arrow_mats):
    """Action of each path basis element on the representation, vertex
    blocks in vertex order."""
    q = a.quiver_data["quiver"]
    f = a.field
    total = sum(dims)
    offs = [sum(dims[:i]) for i in range(len(dims))]

    def arrow(ai):
        name, s, t = q.arrows[ai]
        si, ti = q.vertex_index(s), q.vertex_index(t)
        out = Matrix(f, total, total)
        mat = arrow_mats[name]
        for r in range(dims[ti]):
            out.data[offs[ti] + r][offs[si]:offs[si] + dims[si]] = mat.data[r]
        return out

    raw = []
    for s, arrows in a.quiver_data["paths"]:
        act = Matrix(f, total, total)
        if not arrows:
            for r in range(offs[s], offs[s] + dims[s]):
                act.data[r][r] = f.one()
        else:
            act = arrow(arrows[0])
            for ai in arrows[1:]:
                act = act @ arrow(ai)
        raw.append(act)
    return raw


@pytest.mark.parametrize("p", [None, 7])
def test_rebasing_matches_the_conjugation_by_the_adapted_basis(battery, p):
    """direct_sum, module_from_dimvector and dual_D outputs (diagonal
    idempotents) and modules in a non-diagonal basis all carry the
    actions, blocks and from_raw_matrix() of the conjugation written out
    in _assert_adapted; where some idempotent acts non-diagonally, the
    from_raw_matrix() is no permutation."""
    rng = random.Random(20241103)
    permuted = general = 0
    for a in _algebras_over(battery, p):
        f = a.field
        pool = (projective_modules(a) + simple_modules(a)
                + injective_modules(a))
        for _ in range(4):
            parts = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
            m = direct_sum(a, parts)[0]
            _assert_adapted(m, [_block_diagonal(f, [x.actions[i] for x in parts])
                                for i in range(a.dim)])
            permuted += not m.from_raw_matrix() == Matrix.identity(f, m.dim)
            d = dual_D(m)
            _assert_adapted(d, [act.transpose() for act in m.actions])
            raw = _random_basis_actions(m, rng)
            conj = Module(a, raw)
            _assert_adapted(conj, raw)
            if not all(_is_diagonal(_combination(raw, e))
                       for e in a.idempotents):
                assert not _is_permutation(conj.from_raw_matrix())
                general += 1
        if a.quiver_data is not None:
            for x in pool:
                dims, mats = module_to_dimvector(x)
                m = module_from_dimvector(a, dims, mats)
                _assert_adapted(m, _quiver_raw(a, dims, mats))
    assert permuted and general
    table = _table_a2(f)
    raw = [table.left_mult_matrix(table._basis_vec(i)) for i in range(3)]
    _assert_adapted(regular_module(table), raw)
    assert not _is_permutation(regular_module(table).from_raw_matrix())


def _commutative_square(f):
    q = Quiver((1, 2, 3, 4),
               (("a", 1, 2), ("b", 2, 4), ("c", 1, 3), ("d", 3, 4)))
    return bound_quiver_algebra(
        q, [Relation(((1, ("b", "a")), (-1, ("d", "c"))))], 3, f)


def _two_loops_radical_square_zero(f):
    q = Quiver((1,), (("x", 1, 1), ("y", 1, 1)))
    return bound_quiver_algebra(
        q, [Relation(((1, (u, v)),)) for u in "xy" for v in "xy"], 2, f)


def _x2_minus_x3(f):
    q = Quiver((1,), (("x", 1, 1),))
    return bound_quiver_algebra(
        q, [Relation(((1, ("x", "x")), (-1, ("x", "x", "x"))))], 3, f)


@pytest.mark.parametrize("build", [
    lambda f: linear_a_n(3, f), example_loop_flag_algebra, _commutative_square,
    _two_loops_radical_square_zero, _x2_minus_x3,
], ids=["A3", "loop-flag", "square", "xy-rad2", "x2-x3"])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["QQ", "GF2", "GF3"])
def test_arrow_check_agrees_with_the_structure_constants(build, field):
    """module_from_dimvector (relations and length-B paths on the arrow
    matrices) accepts exactly the representations whose path actions
    pass Module.validate, on random 0/1 and small-integer matrices."""
    a = build(field)
    f = a.field
    q = a.quiver_data["quiver"]
    rng = random.Random(20261019)
    seen = Counter()
    for trial in range(80):
        dims = [rng.randint(0, 3) for _ in q.vertices]
        values = (0, 1) if trial % 2 else (0, 0, 1, -1, 2)
        mats = {}
        for name, s, t in q.arrows:
            rows, cols = dims[q.vertex_index(t)], dims[q.vertex_index(s)]
            mats[name] = Matrix(f, rows, cols, [
                [rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        oracle = Module(a, _quiver_raw(a, dims, mats), validate=False)
        try:
            oracle.validate()
            valid = True
        except ModuleError:
            valid = False
        try:
            m = module_from_dimvector(a, dims, mats)
        except ModuleError:
            m = None
        assert (m is not None) == valid, (dims, mats)
        if m is not None:
            assert m.actions == oracle.actions
        seen[valid] += 1
    assert seen[True] and (seen[False] or a.quiver_data["relations"] == [])


def test_arrow_check_names_what_fails(loop_flag):
    f = loop_flag.field
    alpha = Matrix(f, 2, 2, [[0, 1], [0, 1]])
    with pytest.raises(ModuleError, match=r"relation alpha\.alpha does not"):
        module_from_dimvector(loop_flag, [2, 0], {"alpha": alpha})
    a = _x2_minus_x3(QQ)
    with pytest.raises(ModuleError, match="path of length 3"):
        module_from_dimvector(a, [1], {"x": Matrix(QQ, 1, 1, [[1]])})
    module_from_dimvector(a, [2], {"x": Matrix(QQ, 2, 2, [[0, 0], [1, 0]])})
    with pytest.raises(ModuleError, match="unknown arrow"):
        module_from_dimvector(a, [1], {"y": Matrix(QQ, 1, 1, [[0]])})


def test_small_prime_radical_keeps_a_uniserial_module_whole():
    """rad P_0 = k[x]/(x^2) over k[x]/(x^3), k = GF(2), is uniserial and
    its trace form alone reads dim End/rad = 0.  The refined radical
    reads 1 (x spans it), which certifies the module indecomposable:
    it stays whole with no warning."""
    a = loop_algebra(3, GF(2))
    r, _ = radical_submodule(projective_modules(a)[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert rad_end(r)[1] == 1
        assert split_indecomposables(r) == [r]
    assert not caught


@pytest.mark.parametrize("p", [None, 7, 2])
def test_iso_rule_separates_the_enumerated_classes(battery, p):
    """Each class of the battery and of T2(linear A2) is isomorphic to its
    random-basis copy, both ways, and to no other class of its dimension
    vector, also where Hom between the two is nonzero; is_isomorphic
    agrees with the indecomposable rule."""
    rng = random.Random(20241104)
    algebras = _battery_over(battery, p)
    algebras.append(t2(linear_a_n(2, algebras[0].field)))
    rivals = 0
    for a in algebras:
        reps = enumerate_indecomposables(a, 4).representatives
        for i, m in enumerate(reps):
            copy = _in_random_basis(m, rng)
            assert _iso_indecomposable(m, copy) and _iso_indecomposable(copy, m)
            assert is_isomorphic(copy, m)
            for n in reps[:i] + reps[i + 1:]:
                if n.dim_vector() == m.dim_vector():
                    assert not _iso_indecomposable(copy, n)
                    assert not is_isomorphic(copy, n)
                    rivals += bool(hom(copy, n))
    assert rivals


def _kronecker(f):
    return bound_quiver_algebra(
        Quiver((1, 2), (("a", 1, 2), ("b", 1, 2))), [], 2, f)


def _kronecker_module(a, c):
    """Dimension vector (2, 2) with a = I and b = [[0, -c], [1, 0]]: End is
    the field extended by a root of t^2 + c, when that is irreducible."""
    f = a.field
    return module_from_dimvector(a, [2, 2], {
        "a": Matrix.identity(f, 2),
        "b": Matrix(f, 2, 2, [[0, -c], [1, 0]]),
    })


def test_iso_rule_over_a_division_endomorphism_algebra():
    """The Kronecker module with b^2 = -1 over QQ has End = QQ(i): b has
    the irreducible minimal polynomial t^2 + 1 of degree dim End/rad, so
    End/rad is certified a field and m is kept whole with no warning.  It
    is isomorphic to its random-basis copy and not to the module with
    b^2 = -2."""
    a = _kronecker(QQ)
    m = _kronecker_module(a, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert split_indecomposables(m) == [m]
    assert not caught
    assert rad_end(m) == ([], 2)
    copy = _in_random_basis(m, random.Random(20241105))
    other = _kronecker_module(a, 2)
    assert _iso_indecomposable(m, copy) and _iso_indecomposable(copy, m)
    assert is_isomorphic(copy, m)
    assert not _iso_indecomposable(m, other) and not is_isomorphic(m, other)


def test_kronecker_module_with_end_gf4_stays_whole():
    """Over GF(2), b the companion matrix of t^2 + t + 1 gives End = GF(4):
    rad_end reads ([], 2), no Fitting candidate splits, and b's minimal
    polynomial, irreducible of degree 2, certifies End/rad a field.  The
    module stays whole with no warning, while the one with b = diag(0, 1)
    splits in two."""
    a = _kronecker(GF(2))
    f = a.field
    m = module_from_dimvector(a, [2, 2], {
        "a": Matrix.identity(f, 2), "b": Matrix(f, 2, 2, [[0, 1], [1, 1]])})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert rad_end(m) == ([], 2)
        assert split_indecomposables(m) == [m]
    assert not caught
    other = module_from_dimvector(a, [2, 2], {
        "a": Matrix.identity(f, 2), "b": Matrix(f, 2, 2, [[0, 0], [0, 1]])})
    assert sorted(q.dim_vector() for q in split_indecomposables(other)) == [
        (1, 1), (1, 1)]


@pytest.mark.parametrize("p", [None, 7, 2])
def test_sums_with_rival_summands_are_told_apart(p):
    """Over cyclic Nakayama (2, 2) the projectives P_0 and P_1 share the
    dimension vector (1, 1) and Hom(P_0, P_1) is nonzero.  Sums that
    trade one for the other keep their dimension vector but change their
    summand multiset: no map between them is invertible, so the answer
    comes from matching the decompositions."""
    a = cyclic_nakayama(2, 2, QQ if p is None else GF(p))
    P, S = projective_modules(a), simple_modules(a)
    rng = random.Random(20241106)

    def disguised(parts):
        return _in_random_basis(direct_sum(a, parts)[0], rng)

    assert hom(P[0], P[1])
    for left, right in (([P[0], S[0]], [P[1], S[0]]),
                        ([P[0], P[0], S[1]], [P[0], P[1], S[1]])):
        x, y = disguised(left), disguised(right)
        assert x.dim_vector() == y.dim_vector()
        assert hom(x, y)
        assert not is_isomorphic(x, y) and not is_isomorphic(y, x)
        assert entries(x, decompose)
        assert sum(k for _, k in decompose(x)) == len(left)
        assert is_isomorphic(x, disguised(list(reversed(left))))


def test_isomorphic_sums_that_no_seeded_combination_finds():
    """Over GF(2), for m the sum of the six classes of linear A3, End/rad
    is GF(2)^6, and a map m -> m' is invertible only if its image there
    has no zero coordinate, about one combination in 64: the seeded
    combinations miss, and matching the decompositions says yes."""
    a = linear_a_n(3, GF(2))
    reps = enumerate_indecomposables(a, 6).representatives
    m = direct_sum(a, reps)[0]
    copy = _in_random_basis(m, random.Random(20241108))
    assert is_isomorphic(m, copy)
    assert entries(m, decompose)


def test_library_leaves_the_global_random_state_alone():
    """Every random choice goes through a seeded local random.Random: the
    global state is unchanged across enumeration, isomorphism tests,
    decomposition (with the sympy factoring behind the Kronecker module)
    and the consistency suites."""
    state = random.getstate()
    a = linear_a_n(2)  # a fresh algebra, so that nothing comes from a cache
    reps = enumerate_indecomposables(a, 4).representatives
    m = direct_sum(a, reps)[0]
    copy = _in_random_basis(m, random.Random(20241107))
    assert is_isomorphic(m, copy)
    assert len(decompose(copy)) == len(reps)
    decompose(_kronecker_module(_kronecker(QQ), 1))
    consistency_suites(a)
    assert random.getstate() == state
