"""Presentations, syzygies, Ext, homological dimensions, transpose,
and the translate tau.

Oracles: hereditary algebras have global dimension 1; self-injective
algebras have tau = second syzygy up to projectives; Tr of a minimal
presentation has no projective summand and Tr(X + P) = Tr X (ARS IV.1); a cycle of syzygy
summands certifies infinite projective dimension on the loop-flag
algebra and on k[x, y]/(x, y)^2, whose whole syzygies keep growing; a
test-local copy of the whole-syzygy periodicity loops is the reference
for every verdict it certifies; an almost split sequence is checked by
its dimensions, its failure to split and its lifting property against
the enumerated classes."""

import itertools
import random

import pytest
from conftest import (
    _battery_algebras,
    _classes_and_sums,
    _in_random_basis,
    _reference_quotient,
    _two_loops_radical_square_zero,
)

from gptau.algebra import (
    cyclic_nakayama,
    example_loop_flag_algebra,
    linear_a_n,
    loop_algebra,
    trivial_algebra,
)
from gptau.classify import enumerate_indecomposables
from gptau.field import GF, QQ
from gptau.gorenstein import gorenstein_algebra
import gptau.homalg
from gptau.homalg import (
    _cover_kernel,
    _f1_onto,
    almost_split_sequence,
    _map_to_algebra_matrix,
    _syzygy_layers,
    ext_dim,
    ext_vanishes_all_positive,
    global_dimension,
    inj_dim,
    is_tau_rigid,
    minimal_projective_presentation,
    minimal_projective_resolution,
    proj_dim,
    star_module,
    star_of_projective_map,
    syzygy,
    tau,
    tau_inverse,
    transpose_Tr,
)
from gptau.linalg import Matrix
from gptau.module import (
    Module,
    ModuleError,
    ModuleMap,
    _quotient,
    _proj_embedding,
    direct_sum,
    hom,
    hom_coords,
    injective_modules,
    is_isomorphic,
    is_projective,
    projective_modules,
    rad_end,
    regular_module,
    simple_modules,
    split_indecomposables,
)
from gptau.memo import entries
from gptau.tristate import no, unknown, yes


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


def _reference_ext_vanishes(m, n, bound):
    """Ext^i(m, n) = 0 for all i >= 1, decided by comparing each whole
    syzygy with the earlier ones."""
    if m.dim == 0 or n.dim == 0:
        return yes("zero module", bound=bound)
    cur, seen = m, []
    for i in range(1, bound + 1):
        d = ext_dim(cur, n, 1)
        if d:
            return no("Ext^%d" % i, bound=bound, witness=i, value=d)
        nxt = syzygy(cur)
        if nxt.dim == 0 or any(is_isomorphic(nxt, old) for old in seen):
            return yes("terminates or periodic", bound=bound)
        seen.append(nxt)
        cur = nxt
    return unknown("unresolved", bound=bound)


def _reference_proj_dim(m, bound):
    """pd, certified infinite when a whole syzygy repeats up to
    isomorphism."""
    if m.dim == 0 or is_projective(m):
        return yes("projective", bound=bound, value=0)
    cur, seen = m, [m]
    for k in range(1, bound + 1):
        cur = syzygy(cur)
        if cur.dim == 0:
            return yes("vanishes", bound=bound, value=k)
        if any(is_isomorphic(cur, old) for old in seen):
            return no("periodic", bound=bound)
        seen.append(cur)
    return unknown("exceeds bound", bound=bound)


def test_summand_graph_keeps_every_whole_syzygy_verdict():
    algebras = [linear_a_n(3), example_loop_flag_algebra(),
                example_loop_flag_algebra(GF(2)), loop_algebra(3),
                cyclic_nakayama(2, 2), cyclic_nakayama(2, 3)]
    gained = 0
    for a in algebras:
        mods = list(enumerate_indecomposables(a, a.dim).representatives)
        mods += [direct_sum(a, [x, y])[0] for x, y in zip(mods, mods[1:4])]
        reg = regular_module(a)
        for bound in (2, 4, 2 * a.dim + 2):
            for m in mods:
                for ref, new in (
                        (_reference_proj_dim(m, bound), proj_dim(m, bound)),
                        (_reference_ext_vanishes(m, reg, bound),
                         ext_vanishes_all_positive(m, reg, bound))):
                    if ref.is_unknown:
                        gained += not new.is_unknown
                        continue
                    assert new.verdict == ref.verdict
                    assert new.value == ref.value
                    if ref.is_no and ref.witness is not None:
                        assert new.witness == ref.witness
    # the graph also closes where no whole syzygy repeats
    assert gained > 0


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
def test_growing_syzygies_with_cycling_summands_are_certified(field):
    # Omega S = S + S: Omega^k S has dimension 2^k, so no whole syzygy
    # repeats, but its one summand class cycles
    a = _two_loops_radical_square_zero(field)
    s = simple_modules(a)[0]
    for bound in range(1, 6):
        pd = proj_dim(s, bound)
        assert pd.is_no and "Omega" in pd.reason
    assert proj_dim(s, 0).is_unknown  # no syzygy step taken
    # one syzygy step closes the graph; later layers are S^(2^k)
    layers = itertools.islice(_syzygy_layers(s, 1), 5)
    assert [layer for layer, _, _ in layers] == [{0: 2 ** k}
                                                 for k in range(5)]
    reg = regular_module(a)
    assert ext_vanishes_all_positive(s, reg, 0).is_unknown
    ext = ext_vanishes_all_positive(s, reg, 1)
    assert ext.is_no and (ext.witness, ext.value) == (1, 3)
    assert gorenstein_algebra(a, 2).is_no
    assert global_dimension(a, 2).is_no


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


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=str)
def test_transpose_and_translates_ignore_projective_summands(field, battery):
    """ARS IV.1: Tr of a minimal presentation has no projective summand
    and Tr(X + P) = Tr X, so tau(X + P) = tau X and
    tau^-1(X + I) = tau^-1 X with no decomposition of the input."""
    algebras = battery.values() if field == QQ else [
        linear_a_n(3, field), example_loop_flag_algebra(field),
        loop_algebra(3, field), cyclic_nakayama(2, 2, field),
        trivial_algebra(field)]
    for a in algebras:
        classes = enumerate_indecomposables(a, 2 * a.dim).representatives
        for x in classes:
            assert not any(is_projective(p)
                           for p in split_indecomposables(transpose_Tr(x)))
            tx, tix = tau(x), tau_inverse(x)
            for p in projective_modules(a):
                assert is_isomorphic(tau(direct_sum(a, [x, p])[0]), tx)
            for i in injective_modules(a):
                assert is_isomorphic(tau_inverse(direct_sum(a, [x, i])[0]),
                                     tix)


def _reference_algebra_matrix(f1, p1_idx, p0_idx):
    """Entry (r, c): the image in P_{p0_idx[r]} of the idempotent
    generator of P_{p1_idx[c]}, as an algebra element, or None when it is
    zero; the generator is placed and its image cut out at the summand
    offsets of the raw coordinates."""
    a = f1.source.algebra
    dims = [p.dim for p in projective_modules(a)]
    off1 = list(itertools.accumulate([dims[i] for i in p1_idx], initial=0))
    off0 = list(itertools.accumulate([dims[i] for i in p0_idx], initial=0))
    m_raw = f1.target.to_raw() @ f1.matrix @ f1.source.from_raw_matrix()
    out = []
    for r, i0 in enumerate(p0_idx):
        row = []
        for c, i1 in enumerate(p1_idx):
            vec = [0] * f1.source.dim
            vec[off1[c]:off1[c + 1]] = _proj_embedding(a, i1).solve(
                a.idempotents[i1])
            img = m_raw.mul_vec(vec)[off0[r]:off0[r + 1]]
            row.append(_proj_embedding(a, i0).mul_vec(img) if any(img)
                       else None)
        out.append(row)
    return out


def _reference_star(f1, p1_idx, p0_idx):
    """(Q0, Q1, matrix of Hom(f1, regular)) built one column at a time:
    the component of entry x is u -> x u, solved for each basis element u
    of e_{p0_idx[r]} Lambda and placed through the summand projection of
    Q0 and inclusion into Q1."""
    a = f1.source.algebra
    op = a.opposite()
    op_projs = projective_modules(op)
    q0, _, q0projs = direct_sum(op, [op_projs[i] for i in p0_idx])
    q1, q1incls, _ = direct_sum(op, [op_projs[i] for i in p1_idx])
    mat = Matrix(a.field, q1.dim, q0.dim)
    for r, row in enumerate(_reference_algebra_matrix(f1, p1_idx, p0_idx)):
        emb_s = _proj_embedding(op, p0_idx[r])
        for c, x in enumerate(row):
            if x is None:
                continue
            emb_t = _proj_embedding(op, p1_idx[c])
            comp = Matrix.from_cols(
                a.field, [emb_t.solve(a.product(x, emb_s.col(j)))
                          for j in range(emb_s.cols)], nrows=emb_t.cols)
            mat = mat + q1incls[c].matrix @ comp @ q0projs[r].matrix
    return q0, q1, mat


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_starred_map_from_generator_images_matches_columns(field):
    """Hom(f1, regular) built from the images of the generators of Q0
    equals, entry for entry, the one built column by column, and so does
    the matrix of algebra elements it is read from, on every minimal
    presentation with P1 nonzero."""
    seen = 0
    for a, mods in _classes_and_sums(field):
        for m in mods:
            pres = minimal_projective_presentation(m)
            if pres.p1.dim == 0:
                continue
            args = pres.f1, pres.p1_idx, pres.p0_idx
            assert _map_to_algebra_matrix(pres.f1) == \
                _reference_algebra_matrix(*args)
            g = star_of_projective_map(*args)
            q0, q1, mat = _reference_star(*args)
            assert g.source.content_key() == q0.content_key()
            assert g.target.content_key() == q1.content_key()
            assert g.matrix == mat
            seen += 1
    assert seen > 20


def _plain(p):
    """p as a module built by no _projective_sum, in the same coordinates,
    so that hom and hom_coords out of it take the kernel route."""
    return Module(p.algebra, p.actions, validate=False)


def _reference_ext_dim(m, n, i):
    """dim Ext^i(m, n) for i >= 1 from Hom bases: the kernel of
    Hom(d_{i+1}, n) modulo the image of Hom(d_i, n), each composite
    solved for in a Hom basis out of a plain copy of the cover domain."""
    res = minimal_projective_resolution(m, i + 1)
    if len(res) <= i:
        return 0
    p_i, d_i = res[i]
    homs_i = hom(_plain(p_i), n)
    if not homs_i:
        return 0
    img = hom_coords(_plain(p_i), n, [g.matrix @ d_i.matrix for g in
                                      hom(_plain(res[i - 1][0]), n)])
    ker_dim = len(homs_i)
    if len(res) > i + 1:
        p_next, d_next = res[i + 1]
        ker_dim -= hom_coords(_plain(p_next), n, [
            h.matrix @ d_next.matrix for h in homs_i]).rank()
    return ker_dim - img.rank()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_ext_from_the_generator_complex_matches_hom_bases(field):
    """ext_dim read off the complex of the e_i n equals the Hom-basis
    route for i = 1, 2, 3, from every class and random-basis sum to the
    simples, the regular module and the sums."""
    nonzero = 0
    for a, mods in _classes_and_sums(field):
        partners = simple_modules(a) + [regular_module(a)] + mods[-3:]
        for m in mods:
            for n in partners:
                for i in (1, 2, 3):
                    d = ext_dim(m, n, i)
                    assert d == _reference_ext_dim(m, n, i), (a, m, n, i)
                    nonzero += d > 0
    assert nonzero > 50


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_tau_rigidity_rule_matches_the_surjectivity_criterion(field):
    """is_tau_rigid (Hom(M, tau M) = 0) decides tau-rigidity in production
    with no cross-check, so it must equal Hom(f1, M) onto
    (Adachi-Iyama-Reiten Prop. 2.4) on every class and seeded
    random-basis sum."""
    seen = set()
    for a, mods in _classes_and_sums(field):
        for m in mods:
            rigid = is_tau_rigid(m)
            assert rigid == _f1_onto(m), (a, m.dim_vector())
            seen.add(rigid)
    assert seen == {True, False}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_almost_split_sequences_of_the_battery(field):
    """For every non-projective class M of the battery, of k[x]/x^4 (where
    Ext^1(M, tau M) has dimension 2 for M = k[x]/x^2, so that a cocycle
    outside the socle would be picked wrongly) and of their opposites,
    0 -> tau M -f-> E -g-> M -> 0 is exact with dim E = dim M + dim tau M,
    E is not M + tau M, and g is right almost split against the classes:
    every radical map X -> M from a class X is g u for some u: X -> E (a
    rank test on Hom(X, E) -> Hom(X, M)).  None of it reads the socle
    computation."""
    checked = 0
    for base in _battery_algebras(field) + [loop_algebra(4, field)]:
        for a in (base, base.opposite()):
            reps = enumerate_indecomposables(a, 2 * a.dim).representatives
            for m in reps:
                if is_projective(m):
                    with pytest.raises(ModuleError):
                        almost_split_sequence(m)
                    continue
                f, g = almost_split_sequence(m)
                e, n = g.source, tau(m)
                f.validate()
                g.validate()
                assert (f.source, f.target, g.target) == (n, e, m)
                assert e.dim == m.dim + n.dim
                assert f.matrix.rank() == n.dim and g.matrix.rank() == m.dim
                assert (g.matrix @ f.matrix).is_zero()
                assert not is_isomorphic(e, direct_sum(a, [m, n])[0])
                for x in reps:
                    rad_dim = len(hom(x, m)) - (rad_end(m)[1] if x is m else 0)
                    through = [g.matrix @ u.matrix for u in hom(x, e)]
                    got = (hom_coords(x, m, through).rank() if through else 0)
                    assert got == rad_dim, (m.dim_vector(), x.dim_vector())
                checked += 1
    assert checked >= 20


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_almost_split_sequence_matches_the_solve_and_inverse_routes(
        field, monkeypatch):
    """On every non-projective class of the battery and its opposites,
    and on a copy of it in a random basis: the middle term E and its
    quotient map equal the [B | I] and inverse route
    (conftest._reference_quotient) on the same relations, f is that
    quotient map on tau m, and g, read off the complement coordinates,
    equals the solve of proj^T g^T = (d0 pr)^T that it replaced."""
    calls = []

    def recording(s, basis):
        out = _quotient(s, basis)
        calls.append((s, basis, out))
        return out

    monkeypatch.setattr(gptau.homalg, "_quotient", recording)
    rng = random.Random(2029)
    checked = 0
    for a, mods in _classes_and_sums(field):
        for x in mods[:-3]:  # the classes; the last three are sums
            if is_projective(x):
                continue
            for m in (x, _in_random_basis(x, rng)):
                f, g = almost_split_sequence(m)
                s, rel, (e, proj, _) = calls[-1]
                ref_e, ref_proj = _reference_quotient(s, rel)
                assert (e.actions, e.blocks) == (ref_e.actions, ref_e.blocks)
                assert proj.matrix == ref_proj.matrix
                (p0, d0), = minimal_projective_resolution(m, 0)
                total, incls, projs = direct_sum(a, [tau(m), p0])
                assert total.content_key() == s.content_key()
                assert f.matrix == ref_proj.matrix @ incls[0].matrix
                assert g.matrix == ref_proj.matrix.transpose().solve_matrix(
                    (d0.matrix @ projs[1].matrix).transpose()).transpose()
                checked += 1
    assert checked >= 30


def _reference_resolution(m, length):
    """minimal_projective_resolution by the route that took the cover
    and its kernel (_cover_kernel) at every step, the last one too."""
    out, cur, inc = [], m, None
    for _ in range(length + 1):
        if cur.dim == 0:
            break
        p, f, _, ker, nxt = _cover_kernel(cur)
        if inc is not None:
            f = ModuleMap(p, inc.target, inc.matrix @ f.matrix)
        out.append((p, f))
        cur, inc = ker, nxt
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_resolution_builds_no_kernel_after_its_last_cover(field):
    """minimal_projective_resolution(m, length) equals the route that
    took the cover's kernel at every step, term for term (the same P_i,
    equal d_i), on every class and random-basis sum for lengths 0 to 3;
    and length 0 on a fresh copy of m leaves no _cover_kernel entry on
    it."""
    for a, mods in _classes_and_sums(field):
        for m in mods:
            fresh = Module(a, m.actions, validate=False)
            minimal_projective_resolution(fresh, 0)
            assert entries(fresh, _cover_kernel) == []
            for length in range(4):
                got = minimal_projective_resolution(m, length)
                want = _reference_resolution(m, length)
                assert len(got) == len(want)
                for (p, d), (q, e) in zip(got, want):
                    assert p is q and d.matrix == e.matrix
