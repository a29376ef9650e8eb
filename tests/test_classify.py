"""Bounded enumeration of indecomposables, tau-rigidity criteria,
support tau-tilting pairs, CM-freeness verdicts, and the cross-check
suites.

Oracles: representation-finite battery algebras with hand-countable
class lists (A3: 6 intervals; loop-flag: 7 classes; K[x]/(x^3): 3
uniserials), the brute-force support-pair count for A3 (14), and an
unpruned 0/1 sweep kept here as the reference for the pruned one."""

import itertools
import os
import random

import pytest
from conftest import _two_loops_radical_square_zero

import gptau.classify
from gptau.classify import (
    SWEEP_BITS,
    SWEEP_CAP,
    _ClassSet,
    _connected,
    _sweep_quiver_modules,
    cm_e_free,
    cm_tau_tilting_free,
    consistency_suites,
    enumerate_indecomposables,
    gorenstein_projective_tau_rigid_list,
    id_shift_state,
    support_tau_tilting_pairs,
    support_tau_tilting_quiver,
    tau_inverse_rigid_test,
    tau_rigid_test,
)
from gptau.algebra import (
    Quiver,
    Relation,
    bound_quiver_algebra,
    example_loop_flag_algebra,
    linear_a_n,
    t2,
)
from gptau.field import GF, QQ
from gptau.fileio import parse_algebra_file
from gptau.linalg import Matrix
from gptau.approx import generator_data
from gptau.homalg import is_tau_rigid
from gptau.memo import entries
from gptau.tristate import agreement, all_of, no, unknown, yes
from gptau.module import (
    Module,
    ModuleError,
    _Representation,
    _iso_indecomposable,
    direct_sum,
    is_indecomposable,
    is_isomorphic,
    is_projective,
    module_to_dimvector,
    regular_module,
    split_indecomposables,
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
    from gptau.module import injective_modules

    for i in injective_modules(a3):
        assert tau_inverse_rigid_test(i)


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


def test_cm_tau_tilting_free_verdicts(a3, loop_flag, kx3):
    assert cm_tau_tilting_free(a3).is_yes
    assert cm_tau_tilting_free(loop_flag).is_yes
    assert cm_tau_tilting_free(kx3).is_yes


def test_cm_e_free_matches_regular_generator(a3, loop_flag, kx3):
    for a in (a3, loop_flag, kx3):
        e = generator_data(regular_module(a))
        lhs = cm_e_free(e)
        rhs = cm_tau_tilting_free(a)
        assert lhs.verdict == rhs.verdict


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


def test_enumeration_note_says_whether_a_sweep_ran():
    # T2(A2) has no quiver presentation, so only the closure ran; a quiver
    # algebra keeps its sweep-cap note
    notes = enumerate_indecomposables(t2(linear_a_n(2)), 4).notes
    assert notes == "closure fixed point reached; no sweep (no quiver presentation)"
    notes = enumerate_indecomposables(linear_a_n(2), 4).notes
    assert notes == "closure fixed point reached; sweep cap 4"


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


@pytest.mark.parametrize("field,count", [(QQ, 24), (GF(2), 19), (GF(3), 22),
                                         (GF(7), 25)])
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


def _product_sweep(a, cap):
    """The sweep as it ran over the full product of 0/1 patterns: every
    pattern is built, its connectivity and canonicity are tested on the
    whole bit tuple, and the survivors are checked by failure().  The
    reference for the yields of the block-by-block sweep."""
    q = a.quiver_data["quiver"]
    arrows = q.arrows
    src = [q.vertex_index(x[1]) for x in arrows]
    tgt = [q.vertex_index(x[2]) for x in arrows]
    for dims in itertools.product(range(cap + 1), repeat=len(q.vertices)):
        total = sum(dims)
        if total == 0 or total > cap:
            continue
        shapes = [(dims[tgt[k]], dims[src[k]]) for k in range(len(arrows))]
        nbits = sum(r * c for r, c in shapes)
        if nbits > SWEEP_BITS:
            continue
        offs = [sum(dims[:v]) for v in range(len(dims))]
        entries = [(k, i, j) for k in range(len(src))
                   for i in range(dims[tgt[k]]) for j in range(dims[src[k]])]
        links = [(offs[tgt[k]] + i, offs[src[k]] + j) for k, i, j in entries]
        index = {e: n for n, e in enumerate(entries)}
        perms = {tuple(index[k, sigma[tgt[k]][i], sigma[src[k]][j]]
                       for k, i, j in entries)
                 for sigma in itertools.product(
                     *(itertools.permutations(range(d)) for d in dims))}
        perms.discard(tuple(range(len(entries))))
        for bits in itertools.product((0, 1), repeat=nbits):
            if not _connected(bits, links, total) or any(
                    bits > tuple(map(bits.__getitem__, p)) for p in perms):
                continue
            it = iter(bits)
            mats = {arrows[k][0]: Matrix(a.field, r, c, [
                [next(it) for _ in range(c)] for _ in range(r)])
                for k, (r, c) in enumerate(shapes)}
            rep = _Representation(a, list(dims), mats)
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
def test_block_sweep_yields_the_product_sweep_in_order(name, field, cap,
                                                       tmp_path):
    if name in _BUILDERS:
        a = _BUILDERS[name](field)
    else:  # a fixture, over the field of the case
        with open(os.path.join(FIXTURES, name)) as fh:
            text = fh.read()
        path = tmp_path / name
        path.write_text(text.replace("field QQ", "field " + (
            "QQ" if field.kind == "rationals" else "GF %d" % field.p)))
        a = parse_algebra_file(str(path))
    got = [m.content_key() for m in _sweep_quiver_modules(a, cap)]
    want = [m.content_key() for m in _product_sweep(a, cap)]
    assert got and got == want


def _one_loop(power, f=QQ):
    q = Quiver((1,), (("x", 1, 1),))
    return bound_quiver_algebra(q, [Relation(((1, ("x",) * power),))],
                                power + 1, f)


def test_sweep_block_answers_do_not_outlive_their_sweep():
    """x^2 = 0 and x^3 = 0 differ only in the relation: a block answer
    kept past one sweep, or not keyed by the algebra, would cut the
    Jordan block of size 3 from the second or keep it in the first."""
    kx2, kx3 = _one_loop(2), _one_loop(3)
    want = {a: [m.content_key() for m in _product_sweep(a, 4)]
            for a in (kx2, kx3)}
    assert len(want[kx2]) < len(want[kx3])
    for a in (kx2, kx3, kx2):
        got = [m.content_key() for m in _sweep_quiver_modules(a, 4)]
        assert got == want[a]


def test_sweep_builds_few_representations_on_loop_flag(monkeypatch):
    """Counts, not time: the sweep cuts non-canonical and loop-violating
    blocks before a pattern is built.  The full product built 753
    representations on loop_flag at cap 4 for 34 modules."""
    built = []

    class Counted(_Representation):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(gptau.classify, "_Representation", Counted)
    a = parse_algebra_file(os.path.join(FIXTURES, "loop_flag.alg"))
    yields = len(list(_sweep_quiver_modules(a, 4)))
    assert yields == 34
    assert len(built) <= 2 * yields

