"""Bounded enumeration of indecomposables, tau-rigidity testing with a
built-in cross-check, support tau-tilting pairs and their exchange
graph, the CM-freeness certificates, and the registry of theorem-suite
checks behind `gptau verify` and consistency_suites.

Enumeration is never claimed complete beyond its bound: the
BoundedClassification carries a completeness flag that is set only when
the closure process reaches a fixed point without dropping any module
for exceeding the bound.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import t2, tensor, trivial_algebra
from .approx import (
    bijection_table,
    e_rigid,
    eg_classes,
    in_add,
    minimal_addE_presentation,
)
from .gorenstein import (
    default_bound,
    gorenstein_algebra,
    gorenstein_projective,
    is_tau_inverse_rigid,
    tachikawa_probe,
    theorem_report,
)
from .linalg import Matrix
from .memo import memo
from .module import (
    Module,
    ModuleError,
    _Representation,
    _iso_indecomposable,
    direct_sum,
    dual_D,
    hom,
    hom_map_surjective,
    injective_modules,
    is_projective,
    module_to_triple,
    projective_modules,
    radical_submodule,
    regular_module,
    simple_modules,
    split_indecomposables,
    tensor_module,
    top_of,
)
from .homalg import (
    cosyzygy,
    ext_dim,
    inj_dim,
    minimal_projective_presentation,
    minimal_projective_resolution,
    syzygy,
    tau,
    tau_inverse,
    transpose_Tr,
)
from .tristate import TriState, agreement, no, unknown, yes

SWEEP_CAP = 4
SWEEP_BITS = 12  # max total 0/1 entries per candidate in the sweep
SUITE_SAMPLE = 20  # sampled modules per randomised suite
SUITE_SEED = 7  # seed of those samples


@dataclass
class BoundedClassification:
    algebra: object
    max_total_dim: int
    representatives: list
    complete: bool
    notes: str = ""


class CriteriaDisagreement(RuntimeError):
    """The two tau-rigidity criteria disagreed: an implementation bug."""


def _class_key(m: Module):
    return (m.dim, m.dim_vector())


class _ClassSet:
    """Isomorphism-class collector with cheap invariant prefilter.  Every
    candidate comes out of split_indecomposables, so the indecomposable
    rule decides."""

    def __init__(self):
        self.by_key = {}
        self.all = []

    def add(self, m: Module) -> bool:
        key = _class_key(m)
        bucket = self.by_key.setdefault(key, [])
        for other in bucket:
            if _iso_indecomposable(m, other):
                return False
        bucket.append(m)
        self.all.append(m)
        return True


def _sweep_quiver_modules(a, cap):
    """Exhaustive 0/1-matrix sweep over quiver representations with
    total dimension <= cap.  Independent of the closure constructions.

    A pattern is the bit tuple of the entries (arrow, row, col), arrow by
    arrow, rows then columns.  It sits on the coordinates: the basis
    vectors of the vertex spaces, where a set bit joins its arrow's
    target coordinate `row` to its source coordinate `col`.  Two kinds
    of pattern are skipped before any matrix is built or checked:
    - a disconnected coordinate graph: each component is a pattern of a
      smaller dimension vector (so swept earlier) with no more bits, and
      is a module when the pattern is, because paths act
      block-diagonally; the pattern is the direct sum of its components;
    - a pattern that some permutation of the coordinates within each
      vertex maps to a lexicographically smaller bit tuple: that one is
      an isomorphic representation swept earlier.
    By induction over the sweep order and Krull-Schmidt, every
    indecomposable summand of a skipped pattern is isomorphic to one
    already fed, so skipping changes no class and no representative.
    The patterns fed are checked as module_from_dimvector checks them,
    on their arrow matrices and relations first, but with no exception
    raised for the many that fail."""
    qd = a.quiver_data
    if qd is None:
        return
    q = qd["quiver"]
    nv = len(q.vertices)
    arrows = q.arrows
    src = [q.vertex_index(x[1]) for x in arrows]
    tgt = [q.vertex_index(x[2]) for x in arrows]
    f = a.field
    for dims in itertools.product(range(cap + 1), repeat=nv):
        total = sum(dims)
        if total == 0 or total > cap:
            continue
        shapes = [(dims[tgt[k]], dims[src[k]]) for k in range(len(arrows))]
        nbits = sum(r * c for r, c in shapes)
        if nbits > SWEEP_BITS:
            continue  # keep the sweep bounded
        links, perms = _pattern_symmetries(dims, src, tgt)
        for bits in itertools.product((0, 1), repeat=nbits):
            if not _connected(bits, links, total) or any(
                    bits > tuple(map(bits.__getitem__, p)) for p in perms):
                continue
            it = iter(bits)  # 0 and 1 are field elements of every field
            mats = {arrows[k][0]: Matrix._adopt(
                f, r, c, [[next(it) for _ in range(c)] for _ in range(r)])
                for k, (r, c) in enumerate(shapes)}
            rep = _Representation(a, list(dims), mats)
            if rep.failure() is None:
                yield Module(a, rep.actions(), validate=False)


def _pattern_symmetries(dims, src, tgt):
    """For the patterns of dimension vector dims: per bit, the pair of
    coordinates it joins, and the bit-index maps of the non-identity
    permutations of the coordinates within each vertex (p[i] is the bit
    that the permuted pattern reads at position i)."""
    offs = [sum(dims[:v]) for v in range(len(dims))]
    entries = [(k, i, j) for k in range(len(src))
               for i in range(dims[tgt[k]]) for j in range(dims[src[k]])]
    links = [(offs[tgt[k]] + i, offs[src[k]] + j) for k, i, j in entries]
    index = {e: n for n, e in enumerate(entries)}
    perms = set()
    for sigma in itertools.product(*(itertools.permutations(range(d))
                                     for d in dims)):
        perms.add(tuple(index[k, sigma[tgt[k]][i], sigma[src[k]][j]]
                        for k, i, j in entries))
    perms.discard(tuple(range(len(entries))))
    return links, list(perms)


def _connected(bits, links, total):
    """Is the coordinate graph of the pattern connected?  Reachable
    coordinates are an int bitmask grown to a fixed point."""
    adj = [1 << c for c in range(total)]
    for b, (x, y) in zip(bits, links):
        if b:
            adj[x] |= 1 << y
            adj[y] |= 1 << x
    seen, reach = 0, 1
    while reach != seen:
        seen = reach
        for c in range(total):
            if seen >> c & 1:
                reach |= adj[c]
    return reach == (1 << total) - 1


@memo
def enumerate_indecomposables(a, max_total_dim: int) -> BoundedClassification:
    """Indecomposable isomorphism classes of total dimension up to the
    bound: closure of the standard constructions (simples, projectives,
    injectives, radical layers, syzygies, tau-orbits, extensions) plus
    an exhaustive small-dimension sweep for quiver-presented algebras."""
    sweep_cap = min(max_total_dim, SWEEP_CAP)
    classes = _ClassSet()
    dropped = False

    def feed(m):
        nonlocal dropped
        if m is None or m.dim == 0:
            return []
        fresh = []
        for part in split_indecomposables(m):
            if part.dim > max_total_dim:
                dropped = True
                continue
            if classes.add(part):
                fresh.append(part)
        return fresh

    seeds = []
    seeds.extend(simple_modules(a))
    seeds.extend(projective_modules(a))
    seeds.extend(injective_modules(a))
    for p in projective_modules(a):
        for layer, quot in _radical_layers(p):
            seeds.append(layer)
            seeds.append(quot)
    queue = []
    for s in seeds:
        queue.extend(feed(s))

    while queue:
        m = queue.pop(0)
        images = [syzygy(m), cosyzygy(m), tau(m), tau_inverse(m),
                  radical_submodule(m)[0], top_of(m)[0]]
        for img in images:
            queue.extend(feed(img))
        # extension middle terms against the simples (both orders)
        for s in simple_modules(a):
            if m.dim + s.dim <= max_total_dim:
                for mid in _extension_middle_terms(m, s):
                    queue.extend(feed(mid))
                for mid in _extension_middle_terms(s, m):
                    queue.extend(feed(mid))

    for cand in _sweep_quiver_modules(a, sweep_cap):
        feed(cand)

    reps = sorted(
        classes.all,
        key=lambda m: (m.dim, m.dim_vector(),
                       tuple(str(x) for act in m.actions for row in act.data
                             for x in row)),
    )
    complete = not dropped
    if not complete:
        notes = "bound exhausted: some constructed modules exceeded the bound"
    elif a.quiver_data is None:  # _sweep_quiver_modules yielded nothing
        notes = "closure fixed point reached; no sweep (no quiver presentation)"
    else:
        notes = "closure fixed point reached; sweep cap %d" % sweep_cap
    return BoundedClassification(a, max_total_dim, reps, complete, notes)


def _radical_layers(p):
    """[(rad^k p, p/rad^k p)] for k = 1, 2, ... as submodule/quotient
    pairs of p, until the radical power vanishes."""
    from .module import quotient_module, submodule

    a = p.algebra
    f = p.field
    basis = Matrix.identity(f, p.dim)
    out = []
    for _ in range(a.dim):
        cols = Matrix(f, p.dim, 0)
        for r in a.radical:
            cols = cols.hstack(p.action_of(r) @ basis)
        basis = cols.image_basis()
        if basis.cols == 0:
            break
        layer, _ = submodule(p, basis)
        quot, _ = quotient_module(p, basis)
        out.append((layer, quot))
    return out


def _extension_middle_terms(m, n):
    """Middle terms of extensions 0 -> n -> X -> m -> 0, one per basis
    element of Ext^1(m, n), realised through pushouts along the
    presentation of m."""
    from .module import quotient_module

    a = m.algebra
    f = a.field
    if ext_dim(m, n, 1) == 0:
        return []
    res = minimal_projective_resolution(m, 2)
    if len(res) < 2:
        return []
    p0, d0 = res[0]
    p1, d1 = res[1]
    homs = hom(p1, n)
    out = []
    d2mat = res[2][1].matrix if len(res) > 2 else None
    for h in homs:
        if d2mat is not None and not (h.matrix @ d2mat).is_zero():
            continue  # not a cocycle
        # pushout of n <.h. p1 .d1.> p0: X = (n (+) p0) / {(h(x), -d1(x))}
        s, incls, _ = direct_sum(a, [n, p0])
        cols = []
        for j in range(p1.dim):
            v1 = h.matrix.col(j)
            v2 = d1.matrix.col(j)
            big = incls[0].matrix.mul_vec(v1)
            big2 = incls[1].matrix.mul_vec([-x for x in v2])
            cols.append([x + y for x, y in zip(big, big2)])
        sub = Matrix.from_cols(f, cols, nrows=s.dim)
        x, _ = quotient_module(s, sub.image_basis())
        if x.dim == m.dim + n.dim:
            out.append(x)
    return out


# -- tau-rigidity with cross-check ------------------------------------------


def tau_rigid_test(m: Module) -> bool:
    """Both criteria: Hom(m, tau m) = 0, and surjectivity of
    Hom(f1, m) on the minimal projective presentation.  They must agree
    or the disagreement trap fires."""
    if m.dim == 0:
        return True
    t = tau(m)
    crit_hom = t.dim == 0 or len(hom(m, t)) == 0
    pres = minimal_projective_presentation(m)
    crit_surj = hom_map_surjective(pres.f1, m)
    if crit_hom != crit_surj:
        raise CriteriaDisagreement(
            "tau-rigidity criteria disagree on a module with dimension "
            "vector %s: hom=%s, surjectivity=%s"
            % (m.dim_vector(), crit_hom, crit_surj)
        )
    return crit_hom


def tau_inverse_rigid_test(m: Module) -> bool:
    """Hom(tau^{-1} m, m) = 0, cross-checked through duality."""
    direct = is_tau_inverse_rigid(m)
    via_dual = tau_rigid_test(dual_D(m))
    if direct != via_dual:
        raise CriteriaDisagreement(
            "tau-inverse-rigidity criteria disagree on dimension vector %s"
            % (m.dim_vector(),)
        )
    return direct


# -- CM certificates ---------------------------------------------------------


def gorenstein_projective_tau_rigid_list(a, bound=None, max_dim=None):
    """(certified GP tau-rigid indecomposable classes, classes whose GP
    check is unresolved, classification used), the shape of
    approx.eg_classes."""
    bound, max_dim = suite_bounds(a, bound, max_dim)
    gorenstein_algebra(a, bound)  # cached: enables the GP fast path
    cls = enumerate_indecomposables(a, max_dim)
    members, unknowns = [], []
    for m in cls.representatives:
        if not tau_rigid_test(m):
            continue
        g = gorenstein_projective(m, bound)
        if g.is_yes:
            members.append(m)
        elif g.is_unknown:
            unknowns.append(m)
    return members, unknowns, cls


def cm_tau_tilting_free(a, bound=None, max_dim=None) -> TriState:
    """Are all certified-GP tau-rigid modules projective?"""
    members, unknowns, cls = gorenstein_projective_tau_rigid_list(
        a, bound, max_dim
    )
    for m in members:
        if not is_projective(m):
            return no("non-projective GP tau-rigid module found",
                      witness=m.dim_vector())
    if unknowns:
        return unknown("unresolved GP checks within bound",
                       bound=cls.max_total_dim)
    return yes(
        "all GP tau-rigid classes within bound are projective"
        + ("" if cls.complete else " (enumeration bound-limited)"),
        bound=cls.max_total_dim,
    )


def cm_e_free(e, bound=None, max_dim=None) -> TriState:
    """Is every member of the bounded E-GP E-rigid enumeration a
    summand of E?"""
    members, unknowns, cls = eg_classes(e, bound, max_dim)
    for m in members:
        if not in_add(m, e):
            return no("E-GP E-rigid module outside add E",
                      witness=m.dim_vector(), bound=cls.max_total_dim)
    if unknowns:
        return unknown("unresolved relative GP checks within bound",
                       bound=cls.max_total_dim)
    return yes(
        "every E-GP E-rigid class within bound lies in add E"
        + ("" if cls.complete else " (enumeration bound-limited)"),
        bound=cls.max_total_dim,
    )


# -- support tau-tilting pairs -----------------------------------------------


@dataclass
class SupportPair:
    m_summands: tuple  # indices into the tau-rigid class list
    p_summands: tuple  # idempotent indices of the projective part

    def label(self, names):
        ms = "+".join(names[i] for i in self.m_summands) or "0"
        ps = "+".join("P%d" % (i + 1) for i in self.p_summands) or "0"
        return "(%s | %s)" % (ms, ps)


def support_tau_tilting_pairs(a, max_dim=None):
    """(tau-rigid indecomposable classes, list of SupportPair).

    A pair is a basic tau-rigid module M plus a projective P with
    Hom(P, M) = 0 and |M| + |P| = number of simples."""
    max_dim = suite_bounds(a, max_dim=max_dim)[1]
    cls = enumerate_indecomposables(a, max_dim)
    rigid = [m for m in cls.representatives if tau_rigid_test(m)]
    taus = [tau(m) for m in rigid]
    k = len(rigid)
    n = a.n_idempotents
    projs = projective_modules(a)
    compat = [[True] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            ok = True
            if taus[j].dim and len(hom(rigid[i], taus[j])):
                ok = False
            if ok and taus[i].dim and len(hom(rigid[j], taus[i])):
                ok = False
            compat[i][j] = compat[j][i] = ok
    # hom(P_t, rigid_i) = 0 table
    pzero = [
        [len(hom(projs[t], rigid[i])) == 0 for i in range(k)]
        for t in range(n)
    ]
    pairs = []

    def extend(start, chosen):
        if len(chosen) > n:
            return
        allowed_p = [
            t for t in range(n) if all(pzero[t][i] for i in chosen)
        ]
        need = n - len(chosen)
        if need <= len(allowed_p):
            for psub in itertools.combinations(allowed_p, need):
                pairs.append(SupportPair(tuple(chosen), psub))
        for i in range(start, k):
            if all(compat[i][j] for j in chosen):
                extend(i + 1, chosen + [i])

    extend(0, [])
    # deterministic order
    pairs.sort(key=lambda p: (p.m_summands, p.p_summands))
    if not cls.complete:
        import warnings

        warnings.warn(
            "support tau-tilting enumeration may be incomplete: "
            "indecomposable bound %d exhausted" % max_dim
        )
    return rigid, pairs


def support_tau_tilting_quiver(a, max_dim=None):
    """(class list, pairs, edges): edges join pairs whose labeled
    summand multisets differ in exactly one element."""
    rigid, pairs = support_tau_tilting_pairs(a, max_dim)
    edges = []
    sets = [
        frozenset(
            [("M", i) for i in p.m_summands]
            + [("P", t) for t in p.p_summands]
        )
        for p in pairs
    ]
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if len(sets[i] ^ sets[j]) == 2:
                edges.append((i, j))
    return rigid, pairs, edges


def id_shift_state(ida: TriState, idt: TriState, bound) -> TriState:
    """Does id T2(A) = id A + 1 hold, given the two injective dimensions
    as proj_dim reports them (certified-no: certified infinite)?  Both
    infinite counts as the shift holding; exactly one infinite, or two
    finite values that disagree, as it failing."""
    if ida.is_no and idt.is_no:
        return yes("id t2 = id = infinity", bound=bound)
    if ida.is_unknown or idt.is_unknown:
        return unknown("an injective dimension is unresolved", bound=bound)
    if ida.is_no or idt.is_no:
        return no("exactly one injective dimension is infinite", bound=bound)
    if idt.value == ida.value + 1:
        return yes("id t2 = id + 1 = %d" % idt.value, bound=bound, value=idt.value)
    return no("id t2 = %d but id + 1 = %d" % (idt.value, ida.value + 1),
              bound=bound)


# -- the registry of theorem-suite checks ------------------------------------
#
# Every check of `gptau verify` and of consistency_suites is defined here
# once, as check(a, bound, max_dim, e) -> (TriState, extra report data),
# and a suite is a tuple of check names.  One bound rule holds for all:
# A is enumerated to max_dim and T2(A) to min(max_dim, dim A + 2);
# homological questions on A use `bound`, and id T2(A) uses
# default_bound(T2(A)).


def suite_bounds(a, bound=None, max_dim=None):
    """(bound, max_dim) with their defaults default_bound(a), 2 dim a:
    every default enumeration bound of the package is read here."""
    return (default_bound(a) if bound is None else bound,
            2 * a.dim if max_dim is None else max_dim)


def _t2_max_dim(a, max_dim):
    # keeps the enumeration of T2(loop-flag), dim 15, affordable
    return min(max_dim, a.dim + 2)


def _tau_criteria(a, bound, max_dim, e):
    """Both tau-rigidity criteria on every enumerated indecomposable and
    on sampled direct sums; certified-no on any disagreement."""
    reps = enumerate_indecomposables(a, max_dim).representatives
    rng = random.Random(SUITE_SEED)
    checked = 0
    try:
        for m in reps:
            tau_rigid_test(m)
            checked += 1
        for _ in range(SUITE_SAMPLE):
            parts = [rng.choice(reps) for _ in range(rng.randint(2, 3))]
            tau_rigid_test(direct_sum(a, parts)[0])
            checked += 1
    except CriteriaDisagreement as exc:
        return no("criteria disagree: %s" % exc), {}
    return yes("criteria agree on %d modules" % checked, bound=max_dim), {}


def _transpose_transport(a, bound, max_dim, e):
    """tau-rigidity of each non-projective indecomposable M agrees with
    that of its transpose Tr M over the opposite algebra."""
    checked = 0
    for m in enumerate_indecomposables(a, max_dim).representatives:
        if is_projective(m):
            continue
        mine = tau_rigid_test(m)
        trm = transpose_Tr(m)
        if mine != (tau_rigid_test(trm) if trm.dim else True):
            return no("transpose transport fails", witness=m.dim_vector(),
                      bound=max_dim), {}
        checked += 1
    return yes("transport holds on %d non-projectives" % checked,
               bound=max_dim), {}


def _opposite_transport(a, bound, max_dim, e):
    """CM-tau-tilting freeness of A agrees with that of its opposite."""
    return agreement(cm_tau_tilting_free(a, bound, max_dim),
                     cm_tau_tilting_free(a.opposite(), bound, max_dim),
                     bound), {}


def _triangular_gp_triples(a, bound, max_dim, e):
    """Over a Gorenstein A, a T2(A)-module (X, Y, phi) is GP exactly when
    X, Y and coker phi are GP and phi is injective."""
    if not gorenstein_algebra(a, bound).is_yes:
        return unknown("base algebra not certified Gorenstein", bound=bound), {}
    tmax = _t2_max_dim(a, max_dim)
    checked = 0
    for m in enumerate_indecomposables(t2(a), tmax).representatives:
        x, y, phi = module_to_triple(m)
        gp_m = gorenstein_projective(m, bound)
        if gp_m.is_unknown:
            continue
        parts = [gorenstein_projective(x, bound),
                 gorenstein_projective(y, bound),
                 gorenstein_projective(phi.cokernel()[0], bound)]
        if any(p.is_unknown for p in parts):
            continue
        rhs = all(p.is_yes for p in parts) and phi.matrix.rank() == x.dim
        checked += 1
        if gp_m.is_yes != rhs:
            return no("triple criterion mismatch", witness=m.dim_vector(),
                      bound=bound), {}
    return yes("criterion agrees on %d certified modules of T2(A) up to "
               "dimension %d" % (checked, tmax), bound=bound), {}


def _tensor_tau_rigid(a, bound, max_dim, e):
    """P (x) M stays tau-rigid over T2(k) (x) A for sampled projective
    T2(k)-modules P and tau-rigid A-modules M."""
    t2k = t2(trivial_algebra(a.field))
    big = tensor(t2k, a)
    rng = random.Random(SUITE_SEED)
    pa = projective_modules(t2k)
    rigid = [m for m in enumerate_indecomposables(a, max_dim).representatives
             if tau_rigid_test(m)]
    for _ in range(SUITE_SAMPLE):
        p = rng.choice(pa)
        m = rng.choice(rigid)
        if not tau_rigid_test(tensor_module(p, m, big)):
            return no("tensor broke tau-rigidity",
                      witness=(p.dim_vector(), m.dim_vector())), {}
    return yes("%d sampled pairs pass" % SUITE_SAMPLE), {}


def _triangular_transport(a, bound, max_dim, e):
    """CM-tau-tilting freeness of A agrees with that of T2(A); the
    verdict carries T2(A)'s enumeration bound."""
    tmax = _t2_max_dim(a, max_dim)
    return agreement(cm_tau_tilting_free(a, bound, max_dim),
                     cm_tau_tilting_free(t2(a), bound, tmax), tmax), {}


def _t2_id_shift(a, bound, max_dim, e):
    """id T2(A) = id A + 1 for the regular modules; the verdict carries
    the bound of id T2(A)."""
    t = t2(a)
    tbound = default_bound(t)
    return id_shift_state(inj_dim(regular_module(a), bound),
                          inj_dim(regular_module(t), tbound), tbound), {}


def _e_presentations(a, bound, max_dim, e):
    """Every E-rigid module within bound has an add-E presentation whose
    end terms share no E-summand class."""
    checked = 0
    for m in enumerate_indecomposables(a, max_dim).representatives:
        if not e_rigid(m, e):
            continue
        pres = minimal_addE_presentation(m, e)
        if set(pres.p0_idx) & set(pres.p1_idx):
            return no("presentation terms share a summand class",
                      witness=m.dim_vector(), bound=max_dim), {}
        checked += 1
    return yes("disjoint supports on %d E-rigid modules" % checked,
               bound=max_dim), {}


def _bijection(a, bound, max_dim, e):
    """The E-GP E-rigid classes match the GP tau-rigid Gamma-classes
    through Hom(E, -); reports the table."""
    try:
        table = bijection_table(e, bound, max_dim)
    except ModuleError as exc:
        return no(str(exc)), {}
    if table.complete:
        state = yes("matched %d = %d classes" % (table.n_lambda, table.n_gamma),
                    bound=table.bound)
    else:
        state = unknown("enumeration incomplete within bound (matched %d "
                        "classes so far)" % table.n_lambda, bound=table.bound)
    return state, {"table": table.dim_vector_rows()}


def _nine_conditions(a, bound, max_dim, e):
    """The nine self-injectivity conditions certify consistently;
    reports them."""
    rep = theorem_report(a, bound, max_dim)
    conds = rep["conditions"]
    if not rep["consistent"]:
        state = no("certified conditions contradict each other",
                   bound=rep["bound"])
    elif any(c.is_unknown for c in conds):
        state = unknown("some conditions unresolved", bound=rep["bound"])
    else:
        state = yes("all nine conditions certified-%s"
                    % ("yes" if conds[0].is_yes else "no"), bound=rep["bound"])
    return state, {"conditions": conds, "consistent": rep["consistent"]}


def _three_way(a, bound, max_dim, e):
    """1-Gorenstein, D(A) tau-rigid and A tau-inverse-rigid are
    equivalent; reports the probe."""
    probe = tachikawa_probe(a, bound)
    if probe["three_way_consistent"] is False:
        state = no("three-way equivalence violated", bound=probe["bound"])
    elif probe["dlam_semi_gp"].is_unknown:
        state = unknown("a piece is unresolved", bound=probe["bound"])
    else:
        state = yes("three-way equivalence holds", bound=probe["bound"])
    return state, {"probe": probe}


def _tachikawa(a, bound, max_dim, e):
    """No semi-GP D(A) without tau-rigidity (a counterexample candidate
    to the conjecture); reports the probe."""
    probe = tachikawa_probe(a, bound)
    if probe["counterexample_candidate"]:
        state = no("semi-Gorenstein-projective dual with non-tau-rigid "
                   "behavior found", bound=probe["bound"])
    elif probe["dlam_semi_gp"].is_unknown:
        state = unknown("semi-GP status of D(algebra) unresolved",
                        bound=probe["bound"])
    else:
        state = yes("no counterexample candidate", bound=probe["bound"])
    return state, {"probe": probe}


CHECKS = {
    "tau_criteria": _tau_criteria,
    "transpose_transport": _transpose_transport,
    "opposite_transport": _opposite_transport,
    "triangular_gp_triples": _triangular_gp_triples,
    "tensor_tau_rigid": _tensor_tau_rigid,
    "triangular_transport": _triangular_transport,
    "t2_id_shift": _t2_id_shift,
    "e_presentations": _e_presentations,
    "bijection": _bijection,
    "nine_conditions": _nine_conditions,
    "three_way": _three_way,
    "tachikawa": _tachikawa,
}
E_CHECKS = frozenset({"e_presentations", "bijection"})  # they take E

SUITES = {
    "prop-2.5": ("tau_criteria",),
    "prop-3.4": ("transpose_transport", "opposite_transport"),
    "prop-4.5": ("e_presentations",),
    "thm-3.10": ("triangular_transport", "t2_id_shift"),
    "thm-4.7": ("bijection",),
    "thm-5.2": ("nine_conditions",),
    "prop-5.1": ("three_way",),
    "tachikawa": ("tachikawa",),
}
CONSISTENCY_CHECKS = ("opposite_transport", "triangular_gp_triples",
                      "tensor_tau_rigid", "triangular_transport",
                      "t2_id_shift")


def run_checks(names, a, bound, max_dim, e=None):
    """Run the named registry checks on `a` (bounds as suite_bounds
    resolves them).  Returns ({check name: TriState}, extra report
    data)."""
    states, extra = {}, {}
    for name in names:
        states[name], more = CHECKS[name](a, bound, max_dim, e)
        extra.update(more)
    return states, extra


def consistency_suites(a, bound=None, max_dim=None):
    """Five consistency checks of an algebra against its opposite,
    triangular and tensor companions.  Returns a dict of TriStates."""
    return run_checks(CONSISTENCY_CHECKS, a,
                      *suite_bounds(a, bound, max_dim))[0]
