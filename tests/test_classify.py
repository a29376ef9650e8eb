"""Bounded enumeration of indecomposables, tau-rigidity criteria,
support tau-tilting pairs, CM-freeness verdicts, and the cross-check
suites.

Oracles: representation-finite battery algebras with hand-countable
class lists (A3: 6 intervals; loop-flag: 7 classes; K[x]/(x^3): 3
uniserials), a corpus with closed-form class lists (linear A_n: the
n(n+1)/2 intervals; Nakayama algebras: their uniserials), the Kronecker
classes over GF(2) read off the preprojective, preinjective and tube
modules, the brute-force support-pair count for A3 (14), a 0/1 sweep
that feeds every pattern, kept here as the reference for the sweep
that skips disconnected and permuted patterns, a union-find and
matrix-permutation reference for the patterns it feeds and their order,
the sweep itself as a check that a complete enumeration leaves nothing
out, an Auslander-Reiten closure check kept here, independent of the
knitting that reached the classes, and the enumerate-and-filter GP
tau-rigid list as the reference for the global-dimension shortcut."""

import itertools
import os
import random

import pytest
from conftest import _battery_algebras, _two_loops_radical_square_zero

import gptau.classify
from gptau.classify import (
    SWEEP_BITS,
    SWEEP_CAP,
    CHECKS,
    _ClassSet,
    _sweep_quiver_modules,
    cm_e_free,
    cm_tau_tilting_free,
    consistency_suites,
    enumerate_indecomposables,
    gorenstein_projective_tau_rigid_list,
    id_shift_state,
    support_tau_tilting_pairs,
    suite_bounds,
    support_tau_tilting_quiver,
    tau_rigid_test,
)
from gptau.algebra import (
    Quiver,
    Relation,
    bound_quiver_algebra,
    cyclic_nakayama,
    example_loop_flag_algebra,
    linear_a_n,
    loop_algebra,
    t2,
)
from gptau.field import GF, QQ
from gptau.fileio import parse_algebra_file
from gptau.linalg import Matrix
from gptau.approx import cached_gamma, generator_data
from gptau.gorenstein import (
    gorenstein_algebra,
    gorenstein_projective,
    is_tau_inverse_rigid,
)
from gptau.homalg import (
    almost_split_sequence,
    global_dimension,
    is_tau_rigid,
    tau,
    tau_inverse,
)
from gptau.memo import entries
from gptau.tristate import agreement, all_of, no, unknown, yes
from gptau.module import (
    Module,
    ModuleError,
    _Representation,
    _iso_indecomposable,
    direct_sum,
    dual_D,
    injective_modules,
    is_indecomposable,
    is_isomorphic,
    is_projective,
    module_to_dimvector,
    projective_modules,
    radical_submodule,
    regular_module,
    simple_modules,
    split_indecomposables,
    top_of,
)


def test_enumeration_counts(a3, loop_flag, kx3):
    assert len(enumerate_indecomposables(a3, 4).representatives) == 6
    assert enumerate_indecomposables(a3, 4).complete
    cls = enumerate_indecomposables(loop_flag, 6)
    assert len(cls.representatives) == 7
    assert cls.complete
    assert len(enumerate_indecomposables(kx3, 4).representatives) == 3


def test_enumeration_returns_certified_indecomposables(a3):
    cls = enumerate_indecomposables(a3, 4)
    for m in cls.representatives:
        assert is_indecomposable(m)[0]
    # pairwise non-isomorphic
    reps = cls.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not is_isomorphic(reps[i], reps[j])


def test_loop_flag_has_two_distinct_classes_with_equal_dimensions(loop_flag):
    cls = enumerate_indecomposables(loop_flag, 6)
    keyed = {}
    for m in cls.representatives:
        keyed.setdefault((m.dim, m.dim_vector()), []).append(m)
    pairs = [v for v in keyed.values() if len(v) == 2]
    assert len(pairs) == 1  # two non-isomorphic modules share (3, (2, 1))
    m1, m2 = pairs[0]
    assert not is_isomorphic(m1, m2)


def test_tau_criteria_agree_on_random_sums(a3, loop_flag):
    rng = random.Random(11)
    for a in (a3, loop_flag):
        reps = enumerate_indecomposables(a, 2 * a.dim).representatives
        for m in reps:
            assert tau_rigid_test(m) == is_tau_rigid(m)
        for _ in range(10):
            parts = [rng.choice(reps) for _ in range(rng.randint(2, 3))]
            s, _, _ = direct_sum(a, parts)
            tau_rigid_test(s)  # raises CriteriaDisagreement on a bug


def test_tau_inverse_rigidity_on_injectives(a3):
    for i in injective_modules(a3):
        assert is_tau_inverse_rigid(i)


def test_support_pair_counts(a3, loop_flag, kx3):
    _, pairs = support_tau_tilting_pairs(a3)
    assert len(pairs) == 14
    _, lf_pairs = support_tau_tilting_pairs(loop_flag)
    assert len(lf_pairs) == 6
    _, kx_pairs = support_tau_tilting_pairs(kx3)
    assert len(kx_pairs) == 2  # local: (regular, 0) and (0, regular)


def test_support_pairs_satisfy_counting_constraint(loop_flag):
    rigid, pairs = support_tau_tilting_pairs(loop_flag)
    n = loop_flag.n_idempotents
    for p in pairs:
        assert len(p.m_summands) + len(p.p_summands) == n


def test_exchange_graph_edges(a3, loop_flag):
    _, pairs, edges = support_tau_tilting_quiver(a3)
    assert len(pairs) == 14 and len(edges) == 21
    # the full tilting pair (regular, 0) has exactly n neighbors
    _, lf_pairs, lf_edges = support_tau_tilting_quiver(loop_flag)
    assert len(lf_pairs) == 6 and len(lf_edges) == 6


def test_gp_tau_rigid_lists(a3, loop_flag):
    for a in (a3, loop_flag):
        members, unknowns, _ = gorenstein_projective_tau_rigid_list(a)
        assert not unknowns
        # both algebras are CM-tau-tilting free: only projectives qualify
        assert all(is_projective(m) for m in members)
        assert len(members) == a.n_idempotents


GLDIM1_REASON = "gl.dim 1 is finite: CM-free, so CM-tau-tilting free"


def test_cm_tau_tilting_free_verdicts(a3, loop_flag, kx3):
    # A3 is hereditary: a bound-free yes read off its global dimension
    state = cm_tau_tilting_free(a3)
    assert state.is_yes and state.reason == GLDIM1_REASON
    assert state.bound is None
    # loop-flag and K[x]/(x^3) have infinite global dimension
    for a in (loop_flag, kx3):
        state = cm_tau_tilting_free(a)
        assert state.is_yes
        assert state.reason.endswith("(enumeration certified complete)")
    # k[x,y]/(x,y)^2 has infinite global dimension and is bound-limited
    state = cm_tau_tilting_free(
        parse_algebra_file(os.path.join(FIXTURES, "kxy2.alg")), max_dim=6)
    assert state.is_yes
    assert state.reason.endswith("(enumeration bound-limited)")
    assert state.bound == 6


def test_cm_tau_tilting_free_on_kronecker_is_bound_free():
    """The Kronecker algebra is hereditary, so its verdict does not
    depend on the enumeration bound 4 that cuts its classes short."""
    a = _kronecker(QQ)
    assert not enumerate_indecomposables(a, 4).complete
    state = cm_tau_tilting_free(a, max_dim=4)
    assert state.is_yes and state.reason == GLDIM1_REASON
    assert state.bound is None


def test_cm_e_free_matches_regular_generator(a3, loop_flag, kx3):
    for a in (a3, loop_flag, kx3):
        e = generator_data(regular_module(a))
        lhs = cm_e_free(e)
        rhs = cm_tau_tilting_free(a)
        assert lhs.verdict == rhs.verdict
        assert lhs.reason.endswith("(enumeration certified complete)")


def test_consistency_suites_pass_on_loop_flag(loop_flag):
    report = consistency_suites(loop_flag)
    for name, state in report.items():
        assert not state.is_no, (name, state.reason)


def test_consistency_suites_pass_on_a3(a3):
    report = consistency_suites(a3)
    for name, state in report.items():
        assert not state.is_no, (name, state.reason)


def test_id_shift_state():
    # injective dimensions as proj_dim reports them: yes with the finite
    # value, no when certified infinite, unknown past the bound
    def fin(v):
        return yes("finite", value=v)

    inf, unres = no("infinite"), unknown("unresolved", bound=3)
    cases = [
        (fin(0), fin(1), "yes"),
        (fin(2), fin(3), "yes"),
        (inf, inf, "yes"),
        (fin(1), fin(1), "no"),
        (fin(1), fin(3), "no"),
        (inf, fin(1), "no"),
        (fin(0), inf, "no"),
        (unres, fin(1), "unknown"),
        (fin(0), unres, "unknown"),
        (unres, unres, "unknown"),
        (inf, unres, "unknown"),
        (unres, inf, "unknown"),
    ]
    for ida, idt, want in cases:
        state = id_shift_state(ida, idt, 5)
        assert getattr(state, "is_" + want), (ida, idt, state)
        assert state.bound == 5
    assert id_shift_state(fin(0), fin(1), 5).value == 1


def test_consistency_suites_enumerate_t2_once():
    a = linear_a_n(2)  # a fresh algebra, so that nothing comes from a cache
    consistency_suites(a)
    assert len(entries(t2(a), enumerate_indecomposables)) == 1


CERTIFIED_NOTE = ("closure fixed point reached; closed under "
                  "Auslander-Reiten neighbours, so complete; no sweep")
BOUND_NOTE = "bound exhausted: some constructed modules exceeded the bound"


def test_enumeration_note_says_whether_it_is_complete():
    # A2, a quiver algebra, and T2(A2), with no quiver presentation, knit
    # to a fixed point; the Kronecker algebra drops tau^- P1 of
    # dimension 5 at bound 4.
    for a in (t2(linear_a_n(2)), linear_a_n(2)):
        cls = enumerate_indecomposables(a, 4)
        assert cls.complete and cls.notes == CERTIFIED_NOTE
    cls = enumerate_indecomposables(_kronecker(QQ), 4)
    assert not cls.complete
    assert cls.notes == BOUND_NOTE


def test_all_of_and_agreement():
    y, n, u = yes("y"), no("n"), unknown("u", bound=3)
    # all_of: the first certified-no part (False counts), else the first
    # unknown part, else certified-yes with the given bound
    cases = [
        ([], "yes"),
        ([y, True], "yes"),
        ([y, u], "unknown"),
        ([True, u, y], "unknown"),
        ([u, n], "no"),
        ([y, False, u], "no"),
    ]
    for parts, want in cases:
        assert getattr(all_of(parts, bound=5), "is_" + want), (parts, want)
    assert all_of([y, u, n], bound=5) is n
    assert all_of([y, u], bound=5) is u
    assert all_of([y, True], bound=5).bound == 5
    # agreement: unknown if a side is, else whether the verdicts are equal
    cases = [
        (y, y, "yes"),
        (n, n, "yes"),
        (y, n, "no"),
        (n, y, "no"),
        (u, y, "unknown"),
        (n, u, "unknown"),
        (u, u, "unknown"),
    ]
    for a, b, want in cases:
        state = agreement(a, b, 5)
        assert getattr(state, "is_" + want), (a, b, state)
        assert state.bound == 5


def _kronecker(f):
    return bound_quiver_algebra(
        Quiver((1, 2), (("a", 1, 2), ("b", 1, 2))), [], 2, f)


def _commutative_square(f):
    q = Quiver((1, 2, 3, 4),
               (("a", 1, 2), ("b", 2, 4), ("c", 1, 3), ("d", 3, 4)))
    return bound_quiver_algebra(
        q, [Relation(((1, ("b", "a")), (-1, ("d", "c"))))], 3, f)


def _reference_sweep(a, cap):
    """Every 0/1 representation of total dimension <= cap with at most
    SWEEP_BITS entries that is a module: no pattern is skipped, and the
    actions of the basis paths are checked against the structure
    constants (Module.validate), not by module_from_dimvector's rule."""
    q = a.quiver_data["quiver"]
    ends = [(name, q.vertex_index(s), q.vertex_index(t))
            for name, s, t in q.arrows]
    for dims in itertools.product(range(cap + 1), repeat=len(q.vertices)):
        if not 0 < sum(dims) <= cap:
            continue
        entries = [(name, i, j) for name, s, t in ends
                   for i in range(dims[t]) for j in range(dims[s])]
        if len(entries) > SWEEP_BITS:
            continue
        for bits in itertools.product((0, 1), repeat=len(entries)):
            mats = {name: Matrix(a.field, dims[t], dims[s])
                    for name, s, t in ends}
            for (name, i, j), bit in zip(entries, bits):
                mats[name].data[i][j] = bit
            m = Module(a, _Representation(a, list(dims), mats).actions(),
                       validate=False)
            try:
                m.validate()
            except ModuleError:
                continue
            yield m


@pytest.mark.parametrize("build", [_kronecker, example_loop_flag_algebra,
                                   _two_loops_radical_square_zero,
                                   _commutative_square])
@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
def test_pruned_sweep_misses_no_class_of_the_full_sweep(build, field):
    """Parallel arrows, a loop, two loops and a non-monomial relation: the
    production sweep skips patterns, the reference feeds them all.  Every
    summand class the reference builds is a production class, and is
    already a summand class of the patterns the pruned sweep feeds."""
    a = build(field)
    reps = enumerate_indecomposables(a, SWEEP_CAP).representatives
    swept = [part for m in _sweep_quiver_modules(a, SWEEP_CAP)
             for part in split_indecomposables(m)]
    full = _ClassSet()
    for m in _reference_sweep(a, SWEEP_CAP):
        for part in split_indecomposables(m):
            full.add(part)
    for pool in (reps, swept):
        for part in full.all:
            assert any(r.dim_vector() == part.dim_vector()
                       and _iso_indecomposable(part, r) for r in pool)


def _x2_minus_x3(f):
    """One loop x with the non-homogeneous relation x^2 - x^3 at
    nilpotency bound 3: x^3 = x^4 = 0 forces x^2 = 0, so dim A = 2."""
    q = Quiver((1,), (("x", 1, 1),))
    return bound_quiver_algebra(
        q, [Relation(((1, ("x", "x")), (-1, ("x", "x", "x"))))], 3, f)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["QQ", "GF2", "GF3"])
def test_sweep_keeps_no_representation_that_only_satisfies_the_relations(
        field):
    """x -> [1] satisfies x^2 - x^3 = 0 but x^3 acts as 1, not 0: it is
    no module.  The classes are the simple and the projective k[x]/x^2."""
    a = _x2_minus_x3(field)
    assert a.dim == 2
    cls = enumerate_indecomposables(a, 4)
    assert len(cls.representatives) == 2
    assert sorted(m.dim for m in cls.representatives) == [1, 2]
    for m in cls.representatives:
        m.validate()
    for m in _sweep_quiver_modules(a, 4):
        m.validate()


def test_kronecker_classes_over_gf2_at_bound_8():
    """Over GF(2) every representation of total dimension <= SWEEP_CAP =
    4 is a 0/1 pattern, so the sweep meets every regular module of
    dimension vector (1, 1) or (2, 2), and knitting climbs their tubes.
    The classes are the 8 preprojective and preinjective classes of
    dimension <= 8 and every R_p[k] with deg p * k <= 4: the three
    points of degree 1 (k <= 4) and x^2 + x + 1 (k <= 2).  That is 22 of
    the 27 classes of dimension <= 8; the three quartic points and the
    two cubic ones are not reached."""
    cls = enumerate_indecomposables(_kronecker(GF(2)), 8)
    assert not cls.complete
    want = sorted([(n, n + 1) for n in range(4)]
                  + [(n + 1, n) for n in range(4)]
                  + [(k, k) for k, times in ((1, 3), (2, 4), (3, 3), (4, 4))
                     for _ in range(times)])
    assert sorted(m.dim_vector() for m in cls.representatives) == want


@pytest.mark.parametrize("field,count", [(QQ, 38), (GF(3), 28), (GF(7), 44)])
def test_kronecker_class_counts_at_bound_8(field, count):
    cls = enumerate_indecomposables(_kronecker(field), 8)
    assert len(cls.representatives) == count
    assert not cls.complete


def test_sweep_skips_disconnected_and_permuted_patterns():
    fed = [module_to_dimvector(m) for m in _sweep_quiver_modules(
        _kronecker(QQ), 4)]
    patterns = [(dims, mats["a"].data, mats["b"].data) for dims, mats in fed]
    J, anti, I = [[1, 1], [1, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]
    assert ([2, 2], J, anti) in patterns
    # swapping the two coordinates at vertex 2 maps (J, I) onto (J, anti)
    assert ([2, 2], J, I) not in patterns
    # the zero representation of dimension vector (1, 1) is S1 + S2
    assert ([1, 1], [[0]], [[0]]) not in patterns
    assert ([1, 1], [[1]], [[0]]) in patterns


def _orbit_minimum_sweep(a, cap):
    """The sweep's yields, computed on the arrow matrices themselves: a
    0/1 representation is kept when it is a module, its coordinates form
    one component under union-find, and its bit tuple is the least of
    those of the representations P_t M_a P_s^-1 over the permutation
    matrices P_v within each vertex.  The reference for the sweep's
    index arithmetic (entry maps of the permutations, link bitmasks)."""
    q = a.quiver_data["quiver"]
    ends = [(name, q.vertex_index(s), q.vertex_index(t))
            for name, s, t in q.arrows]
    for dims in itertools.product(range(cap + 1), repeat=len(q.vertices)):
        if not 0 < sum(dims) <= cap:
            continue
        nbits = sum(dims[s] * dims[t] for _, s, t in ends)
        if nbits > SWEEP_BITS:
            continue
        sigmas = list(itertools.product(
            *(itertools.permutations(range(d)) for d in dims)))
        for bits in itertools.product((0, 1), repeat=nbits):
            it = iter(bits)
            mats = [[[next(it) for _ in range(dims[s])]
                     for _ in range(dims[t])] for _, s, t in ends]
            parent = {(v, i): (v, i) for v, d in enumerate(dims)
                      for i in range(d)}

            def root(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for (_, s, t), m in zip(ends, mats):
                for i, row in enumerate(m):
                    for j, bit in enumerate(row):
                        if bit:
                            parent[root((t, i))] = root((s, j))
            if len({root(x) for x in parent}) != 1:
                continue
            if any(tuple(m[sigma[t][i]][sigma[s][j]]
                         for (_, s, t), m in zip(ends, mats)
                         for i in range(dims[t]) for j in range(dims[s]))
                   < bits for sigma in sigmas):
                continue
            rep = _Representation(a, list(dims), {
                name: Matrix(a.field, dims[t], dims[s], m)
                for (name, s, t), m in zip(ends, mats)})
            if rep.failure() is None:
                yield Module(a, rep.actions(), validate=False)


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
_BUILDERS = {b.__name__: b for b in (
    _kronecker, example_loop_flag_algebra, _two_loops_radical_square_zero,
    _commutative_square, _x2_minus_x3)}


@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)],
                         ids=["QQ", "GF2", "GF3"])
@pytest.mark.parametrize("name", list(_BUILDERS) + [
    "loop_flag.alg", "kxy2.alg", "kx3.alg", "a3.alg"])
def test_sweep_yields_the_orbit_minimum_sweep_in_order(name, field, cap,
                                                       tmp_path):
    """Parallel arrows, loops, a commutativity and a non-homogeneous
    relation, over three fields and two caps: the sweep feeds exactly
    the connected orbit-least modules, in the same order."""
    if name in _BUILDERS:
        a = _BUILDERS[name](field)
    else:
        a = _fixture_over(name, field, tmp_path)
    got = [m.content_key() for m in _sweep_quiver_modules(a, cap)]
    want = [m.content_key() for m in _orbit_minimum_sweep(a, cap)]
    assert got and got == want


def _one_loop(power, f=QQ):
    q = Quiver((1,), (("x", 1, 1),))
    return bound_quiver_algebra(q, [Relation(((1, ("x",) * power),))],
                                power + 1, f)


def test_sweep_keeps_the_jordan_blocks_the_relation_allows():
    """x^2 = 0 and x^3 = 0 differ only in the relation: the nilpotent
    Jordan block of size 3 is a module of the second alone, and neither
    sweep carries anything over to the next."""
    kx2, kx3 = _one_loop(2), _one_loop(3)
    want = {a: [m.content_key() for m in _orbit_minimum_sweep(a, 4)]
            for a in (kx2, kx3)}
    assert len(want[kx2]) < len(want[kx3])
    for a in (kx2, kx3, kx2):
        got = [m.content_key() for m in _sweep_quiver_modules(a, 4)]
        assert got == want[a]


def _fixture_over(name, field, tmp_path):
    """The fixture algebra `name`, rewritten to the field of the case."""
    with open(os.path.join(FIXTURES, name)) as fh:
        text = fh.read()
    path = tmp_path / ("%s-%s" % (field, name))
    path.write_text(text.replace("field QQ", "field " + (
        "QQ" if field.kind == "rationals" else "GF %d" % field.p)))
    return parse_algebra_file(str(path))


def _enumerate_splitting_everything(a, max_total_dim,
                                    split=split_indecomposables):
    """(representatives, complete, notes) of the knitting with every fed
    module split: no skip of content already fed, none of a module
    isomorphic to a known class, and each class feeds its top as well.
    The reference for the skips of enumerate_indecomposables."""
    classes = _ClassSet()
    dropped = False
    queue = []

    def feed(m):
        nonlocal dropped
        for part in split(m) if m.dim else ():
            if part.dim > max_total_dim:
                dropped = True
            elif classes.add(part):
                queue.append(part)

    def knit():
        while queue:
            m = queue.pop(0)
            t = tau(m)
            if t.dim:
                feed(t)
                feed(almost_split_sequence(m)[1].source)
            else:
                feed(radical_submodule(m)[0])
            t = tau_inverse(m)
            feed(t if t.dim else dual_D(radical_submodule(dual_D(m))[0]))
            feed(top_of(m)[0])

    for s in simple_modules(a) + projective_modules(a) + injective_modules(a):
        feed(s)
    knit()
    if dropped:
        for cand in _sweep_quiver_modules(a, min(max_total_dim, SWEEP_CAP)):
            feed(cand)
        knit()
    reps = sorted(classes.all, key=lambda m: (
        m.dim, m.dim_vector(),
        tuple(str(x) for act in m.actions for row in act.data for x in row)))
    return reps, not dropped, BOUND_NOTE if dropped else CERTIFIED_NOTE


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)],
                         ids=["QQ", "GF2", "GF3"])
def test_enumeration_skips_change_no_representative(field, tmp_path):
    """The battery, the kxy2, kx3 and loop_flag fixtures and their
    opposites at bound 2 dim A, and the Kronecker algebra at bound 8:
    the representatives (by content, in order), the completeness flag
    and the notes equal those of splitting every fed module.  kxy2 and
    Kronecker are bound-limited, so a drop the skips lost would show."""
    bases = _battery_algebras(field) + [
        _fixture_over(name, field, tmp_path)
        for name in ("kxy2.alg", "kx3.alg", "loop_flag.alg")]
    cases = [(a, 2 * a.dim) for b in bases for a in (b, b.opposite())]
    cases.append((_kronecker(field), 8))
    limited = 0
    for a, bound in cases:
        want, complete, notes = _enumerate_splitting_everything(a, bound)
        cls = enumerate_indecomposables(a, bound)
        assert ([m.content_key() for m in cls.representatives]
                == [m.content_key() for m in want])
        assert (cls.complete, cls.notes) == (complete, notes)
        limited += not complete
    assert limited >= 3


def test_enumeration_splits_fewer_modules_than_it_feeds(monkeypatch):
    """Counts, not time: on the Kronecker algebra at bound 8 the skips
    spare over a third of the splits that splitting every fed module
    makes (123 of 245 when this test was written)."""
    calls = []

    def counted(m):
        calls.append(m)
        return split_indecomposables(m)

    _enumerate_splitting_everything(_kronecker(QQ), 8, counted)
    everything = len(calls)
    del calls[:]
    monkeypatch.setattr(gptau.classify, "split_indecomposables", counted)
    enumerate_indecomposables(_kronecker(QQ), 8)
    assert 0 < len(calls) < everything * 2 / 3


def test_knitting_spares_the_tau_inverse_of_tau_images(monkeypatch):
    """Counts, not time: knitting takes tau^- of a class only when no
    class taken before has it as tau, so on the Kronecker algebra at
    bound 8 it calls tau_inverse fewer times than it knits classes (6
    calls for 38 classes when this test was written; loop-flag at bound
    10: 5 for 7)."""
    calls = []

    def counted(m):
        calls.append(m)
        return tau_inverse(m)

    monkeypatch.setattr(gptau.classify, "tau_inverse", counted)
    for a, bound in ((_kronecker(QQ), 8), (example_loop_flag_algebra(), 10)):
        del calls[:]
        knitted = len(enumerate_indecomposables(a, bound).representatives)
        assert 0 < len(calls) < knitted


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)],
                         ids=["QQ", "GF2", "GF3"])
def test_tau_inverse_undoes_tau_on_every_class(field):
    """The fact behind that skip (Auslander-Reiten-Smalo IV.1): on the
    closed-form corpus and the battery, tau^- tau X is isomorphic to X
    for every class X that is not projective, and tau X is nonzero."""
    algebras = [a for a, _ in _corpus(field)] + _battery_algebras(field)
    checked = 0
    for a in algebras:
        for x in enumerate_indecomposables(a, 2 * a.dim).representatives:
            if is_projective(x):
                continue
            t = tau(x)
            assert t.dim and _iso_indecomposable(tau_inverse(t), x)
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)],
                         ids=["QQ", "GF2", "GF3"])
def test_certified_enumerations_leave_the_sweep_nothing(field, tmp_path):
    """On the battery, the four fixtures and all their opposites at bound
    2 dim A, the sweep, run here, adds no class to a complete
    enumeration: every piece of every module it yields is isomorphic to
    a representative.  Opposites have no quiver, so their sweep is
    empty; the quiver algebras give it hundreds of modules."""
    bases = _battery_algebras(field) + [
        _fixture_over(name, field, tmp_path)
        for name in ("a3.alg", "kxy2.alg", "kx3.alg", "loop_flag.alg")]
    swept = complete = 0
    for a in (x for b in bases for x in (b, b.opposite())):
        cls = enumerate_indecomposables(a, 2 * a.dim)
        if not cls.complete:
            continue
        complete += 1
        held = _ClassSet()
        for m in cls.representatives:
            held.add(m)
        for m in _sweep_quiver_modules(a, min(2 * a.dim, SWEEP_CAP)):
            swept += 1
            assert all(held.known(part) is not None
                       for part in split_indecomposables(m))
    assert complete == 2 * len(bases) - 2  # all but kxy2 and its opposite
    assert swept > 100


def _counting_sweep(monkeypatch):
    entered = []
    real = _sweep_quiver_modules

    def counted(a, cap):
        entered.append(a)
        return real(a, cap)

    monkeypatch.setattr(gptau.classify, "_sweep_quiver_modules", counted)
    return entered


def test_certified_enumeration_never_enters_the_sweep(monkeypatch):
    entered = _counting_sweep(monkeypatch)
    for a in (linear_a_n(2), cyclic_nakayama(2, 2), example_loop_flag_algebra()):
        cls = enumerate_indecomposables(a, 2 * a.dim)
        assert cls.complete
    assert entered == []


def test_bound_limited_enumeration_enters_the_sweep(monkeypatch):
    entered = _counting_sweep(monkeypatch)
    a = _kronecker(QQ)
    cls = enumerate_indecomposables(a, 8)
    assert not cls.complete
    assert entered == [a]


def _ar_pieces(x):
    """The neighbours of the class x in the Auslander-Reiten quiver, with
    tau and tau^- (ARS V.5): tau x and the pieces of the middle term E_x
    of its almost split sequence, or of rad x when x is projective;
    tau^- x, or the pieces of x / soc x = D rad D x when x is injective.
    The arrows out of a non-injective x go to the pieces of E_{tau^- x},
    which are neighbours of the class tau^- x in turn."""
    t = tau(x)
    mods = ([t, almost_split_sequence(x)[1].source] if t.dim
            else [radical_submodule(x)[0]])
    t = tau_inverse(x)
    mods.append(t if t.dim else dual_D(radical_submodule(dual_D(x))[0]))
    return [p for m in mods for p in split_indecomposables(m)]


def _ar_closed(reps, pieces, skip=None) -> bool:
    """Do the classes reps, without skip, hold every AR neighbour of each
    of their classes (pieces[i] for reps[i])?  Then they are a union of
    components of the AR quiver, so all of ind A (Auslander)."""
    held = _ClassSet()
    for m in reps:
        if m is not skip:
            held.add(m)
    return all(held.known(p) is not None
               for m, ps in zip(reps, pieces) if m is not skip
               for p in ps)


def _assert_ar_certificate(a, bound):
    """A complete enumeration is closed under Auslander-Reiten
    neighbours, and with any one class left out it is not, since in the
    connected AR quiver of a connected algebra each class is a
    neighbour of another.  Returns the number of classes left out."""
    cls = enumerate_indecomposables(a, bound)
    assert cls.complete
    reps = cls.representatives
    pieces = [_ar_pieces(m) for m in reps]
    assert _ar_closed(reps, pieces)
    if len(reps) < 2:
        return 0
    for skip in reps:
        assert not _ar_closed(reps, pieces, skip)
    return len(reps)


def test_classify_deck_algebras_are_certified(tmp_path, monkeypatch):
    """Every family of the benchmark's classify deck, as the benchmark
    writes it (quiver text with seeded names; opposites with reversed
    arrows), enumerates complete at bound 2 dim A, and the AR closure
    check confirms it."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..",
                                             "perfbench"))
    from inputs import present
    from workloads import CLASSIFY_DECK

    for k, fam in enumerate(CLASSIFY_DECK):
        path = tmp_path / ("%d.alg" % k)
        path.write_text(present(fam, random.Random(k)).text)
        a = parse_algebra_file(str(path))
        _assert_ar_certificate(a, 2 * a.dim)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)],
                         ids=["QQ", "GF2", "GF3"])
def test_ar_closure_fails_without_any_one_class(field, tmp_path):
    """The battery, the four fixtures but kxy2, and their opposites."""
    bases = _battery_algebras(field) + [
        _fixture_over(name, field, tmp_path)
        for name in ("a3.alg", "kx3.alg", "loop_flag.alg")]
    removed = sum(_assert_ar_certificate(a, 2 * a.dim)
                  for b in bases for a in (b, b.opposite()))
    assert removed >= 60


def _interval_vectors(n):
    return [tuple(int(i <= v <= j) for v in range(n))
            for i in range(n) for j in range(i, n)]


def _uniserial_vectors(n, m):
    """Dimension vectors of the uniserials of the cyclic Nakayama algebra
    on n vertices with J^m = 0: from each vertex, a walk of each length
    1..m around the cycle.  The multiset is the same in either
    direction."""
    out = []
    for start in range(n):
        for length in range(1, m + 1):
            vec = [0] * n
            for step in range(length):
                vec[(start + step) % n] += 1
            out.append(tuple(vec))
    return out


def _corpus(field):
    """(algebra, closed-form dimension vectors of its classes)."""
    out = [(linear_a_n(n, field), _interval_vectors(n)) for n in range(1, 6)]
    out += [(cyclic_nakayama(n, m, field), _uniserial_vectors(n, m))
            for n in range(1, 4) for m in range(2, 4)]
    out += [(loop_algebra(m, field), [(d,) for d in range(1, m + 1)])
            for m in range(2, 6)]
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)],
                         ids=["QQ", "GF2", "GF3"])
def test_closed_form_corpus(field):
    """Linear A_n (n <= 5) has the n(n+1)/2 intervals; the cyclic
    Nakayama algebra (n, m) (n, m <= 3) its n m uniserials; K[x]/(x^m)
    its m Jordan blocks.  Each enumerates complete at bound 2 dim A,
    with the closed-form dimension vectors, and the AR closure check
    confirms it and its opposite."""
    for a, vectors in _corpus(field):
        cls = enumerate_indecomposables(a, 2 * a.dim)
        assert cls.complete
        assert (sorted(m.dim_vector() for m in cls.representatives)
                == sorted(vectors)), a
        for b in (a, a.opposite()):
            _assert_ar_certificate(b, 2 * b.dim)


def test_bijection_on_kxy2_with_a_simple_is_bound_limited():
    """k[x,y]/(x,y)^2 with E = A + S: Gamma has dimension 7 and is
    representation-infinite, so its enumeration at 2 dim Gamma = 14 is
    bound-limited, and the bijection check reads unknown instead of
    running on without end."""
    a = parse_algebra_file(os.path.join(FIXTURES, "kxy2.alg"))
    e = generator_data(direct_sum(a, [regular_module(a),
                                      simple_modules(a)[0]])[0])
    g = cached_gamma(e).algebra
    assert g.dim == 7
    assert not enumerate_indecomposables(g, 2 * g.dim).complete
    state, _ = CHECKS["bijection"](a, *suite_bounds(a), e)
    assert state.is_unknown


def test_bijection_reads_the_completeness_of_gamma():
    """K[x]/(x^4) with E = A + K[x]/(x^2): the base side is complete, but
    Gamma (dimension 10) has infinite global dimension and its
    enumeration at 2 dim Gamma is bound-limited, so the table, though it
    matches 2 = 2 classes, is not complete and the check reads unknown."""
    a = loop_algebra(4)
    x2 = [m for m in enumerate_indecomposables(a, 2 * a.dim).representatives
          if m.dim == 2]
    e = generator_data(direct_sum(a, [regular_module(a)] + x2)[0])
    g = cached_gamma(e).algebra
    assert g.dim == 10
    assert global_dimension(g).is_no
    state, extra = CHECKS["bijection"](a, *suite_bounds(a), e)
    assert state.is_unknown
    assert extra["counts"] == {"n_base": 2, "n_gamma": 2, "unmatched": 0,
                               "complete": False}


def _reference_gp_tau_rigid_list(a):
    """(GP tau-rigid classes, unresolved classes, complete) by filtering
    the enumeration at the default bounds: the path that a finite global
    dimension now skips, kept here as the reference for it."""
    bound, max_dim = suite_bounds(a)
    gorenstein_algebra(a, bound)
    cls = enumerate_indecomposables(a, max_dim)
    members, unknowns = [], []
    for m in cls.representatives:
        if is_tau_rigid(m):
            g = gorenstein_projective(m, bound)
            if g.is_yes:
                members.append(m)
            elif g.is_unknown:
                unknowns.append(m)
    return members, unknowns, cls.complete


def _relative_deck_gammas(field):
    """Gamma = End(E)^op for each family of the benchmark's relative deck,
    E the projectives plus one non-projective uniserial: the simple of
    A2, of K[x]/(x^2) and of Nakayama (2, 2), and over A3 the one of
    length 2."""
    out = []
    for a, length in ((linear_a_n(2, field), 1), (loop_algebra(2, field), 1),
                      (cyclic_nakayama(2, 2, field), 1),
                      (linear_a_n(3, field), 2)):
        extra = next(m for m in enumerate_indecomposables(a, 2 * a.dim)
                     .representatives
                     if m.dim == length and not is_projective(m))
        e = generator_data(direct_sum(a, [regular_module(a), extra])[0])
        out.append(cached_gamma(e).algebra)
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)],
                         ids=["QQ", "GF2", "GF3"])
def test_global_dimension_shortcut_matches_the_enumeration(field, tmp_path):
    """On every algebra of finite global dimension among the battery, the
    four fixtures, their opposites, T2(A2) and the Gamma of each relative
    deck family whose enumeration at 2 dim A is complete, the shortcut
    lists the classes of the reference, up to isomorphism, and
    cm_tau_tilting_free gives the reference's verdict."""
    bases = _battery_algebras(field) + [
        _fixture_over(name, field, tmp_path)
        for name in ("a3.alg", "kxy2.alg", "kx3.alg", "loop_flag.alg")]
    cases = [x for b in bases for x in (b, b.opposite())]
    cases += [t2(linear_a_n(2, field))] + _relative_deck_gammas(field)
    compared = 0
    for a in cases:
        if not global_dimension(a).is_yes:
            continue
        want, want_unknowns, complete = _reference_gp_tau_rigid_list(a)
        if not complete:
            continue
        got, unknowns, reach = gorenstein_projective_tau_rigid_list(a)
        assert (reach.complete, reach.bound, unknowns) == (True, None, [])
        assert want_unknowns == []
        assert len(got) == len(want)
        left = list(want)
        for m in got:
            j = next(j for j, w in enumerate(left)
                     if _iso_indecomposable(m, w))
            del left[j]
        ref = "yes" if all(is_projective(m) for m in want) else "no"
        assert getattr(cm_tau_tilting_free(a), "is_" + ref)
        compared += 1
    # A3 and the ground field with their opposites, the A3 fixture and
    # its opposite, T2(A2) and the four Gammas
    assert compared == 11
