"""Bounded enumeration of indecomposables, support tau-tilting pairs and
their exchange graph, the CM-freeness certificates, and the registry of
theorem-suite checks behind `gptau verify` and consistency_suites.

Production code decides tau-rigidity by one rule, homalg.is_tau_rigid
(Hom(M, tau M) = 0).  tau_rigid_test also runs the surjectivity
criterion and traps a disagreement; only the prop-2.5 check
(_tau_criteria) calls it.

Enumeration knits the Auslander-Reiten quiver from the simples,
projectives and injectives, and is claimed complete only by proof.  The
BoundedClassification's complete flag says that knitting reached a
fixed point without dropping any module for exceeding the bound; then
the classes are closed under the neighbours of the Auslander-Reiten
quiver, so they hold every indecomposable (Auslander's theorem).  When
a module was dropped, the 0/1 sweep feeds the knitting too, and nothing
is claimed beyond the bound.

The lists that verdicts quantify over (the GP tau-rigid classes here,
the E-GP E-rigid classes of approx.eg_classes) carry a Reach: whether
the list is complete, the enumeration bound it was read from, and a
scope text.  An algebra of finite global dimension is CM-free (a GP
module of finite projective dimension is projective), so its GP
tau-rigid list is its indecomposable projectives, complete by proof
with no enumeration.
"""

from __future__ import annotations

import itertools
import random
import warnings
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
    injective_modules,
    is_projective,
    module_to_triple,
    projective_modules,
    radical_submodule,
    regular_module,
    simple_modules,
    split_indecomposables,
    tensor_module,
)
from .homalg import (
    _f1_onto,
    almost_split_sequence,
    global_dimension,
    inj_dim,
    is_tau_rigid,
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
class Reach:
    """How far a list of classes reaches: complete says it holds every
    class of its kind; bound is the enumeration bound it was read from,
    None when a proof gave it with no enumeration; scope says which, in
    the reasons of the verdicts over it."""
    complete: bool
    bound: int | None
    scope: str


@dataclass
class BoundedClassification:
    algebra: object
    max_total_dim: int
    representatives: list
    complete: bool  # nothing dropped, so proved to hold every indecomposable
    notes: str = ""

    def reach(self) -> Reach:
        """The reach of a list read off these classes."""
        return Reach(self.complete, self.max_total_dim,
                     "enumeration certified complete" if self.complete
                     else "enumeration bound-limited")


class CriteriaDisagreement(RuntimeError):
    """The two tau-rigidity criteria disagreed: an implementation bug."""


def _class_key(m: Module):
    return (m.dim, m.dim_vector())


class _ClassSet:
    """Isomorphism-class collector with cheap invariant prefilter.  Every
    candidate comes out of split_indecomposables, so the indecomposable
    rule decides.  known(m) returns the class m is isomorphic to, or
    None; place(m) returns (class, new): the class m is isomorphic to
    with new False, or m itself, held as a new class, with new True."""

    def __init__(self):
        self.by_key = {}
        self.all = []

    def known(self, m: Module):
        """The class already held that m is isomorphic to, or None.
        Exact for any m: an invertible map certifies m isomorphic to the
        class, and when m is, m is indecomposable like the class, so
        _iso_indecomposable's proof finds an invertible element of the
        hom basis."""
        for other in self.by_key.get(_class_key(m), ()):
            if _iso_indecomposable(m, other):
                return other
        return None

    def place(self, m: Module):
        bucket = self.by_key.setdefault(_class_key(m), [])
        for other in bucket:
            if _iso_indecomposable(m, other):
                return other, False
        bucket.append(m)
        self.all.append(m)
        return m, True

    def add(self, m: Module) -> bool:
        """Is m a new class (and now held)?"""
        return self.place(m)[1]


def _sweep_quiver_modules(a, cap):
    """Exhaustive 0/1-matrix sweep over quiver representations with
    total dimension <= cap.  Independent of the knitting.

    A pattern is the bit tuple of the entries (arrow, row, col), arrow by
    arrow, rows then columns, and the patterns of each dimension vector
    are visited in the lexicographic order of their bit tuples.  A
    pattern sits on the coordinates: the basis vectors of the vertex
    spaces, where a set bit joins its arrow's target coordinate `row` to
    its source coordinate `col`.  Two kinds of pattern are never fed:
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
    arrows = q.arrows
    src = [q.vertex_index(x[1]) for x in arrows]
    tgt = [q.vertex_index(x[2]) for x in arrows]
    f = a.field
    for dims in itertools.product(range(cap + 1), repeat=len(q.vertices)):
        total = sum(dims)
        if total == 0 or total > cap:
            continue
        shapes = [(dims[tgt[k]], dims[src[k]]) for k in range(len(arrows))]
        entries = [(k, i, j) for k, (r, c) in enumerate(shapes)
                   for i in range(r) for j in range(c)]
        if len(entries) > SWEEP_BITS:
            continue  # keep the sweep bounded
        offs = [sum(dims[:v]) for v in range(len(dims))]
        links = [(offs[tgt[k]] + i, offs[src[k]] + j) for k, i, j in entries]
        # each permutation as the entry of the pattern read at each entry
        index = {e: n for n, e in enumerate(entries)}
        perms = {tuple(index[k, sigma[tgt[k]][i], sigma[src[k]][j]]
                       for k, i, j in entries)
                 for sigma in itertools.product(
                     *(itertools.permutations(range(d)) for d in dims))}
        perms.discard(tuple(range(len(entries))))
        for bits in itertools.product((0, 1), repeat=len(entries)):
            if not _connected(bits, links, total) or any(
                    bits > tuple(map(bits.__getitem__, p)) for p in perms):
                continue
            # 0 and 1 are field elements of every field
            it = iter(bits)
            mats = {arrows[k][0]: Matrix._adopt(
                f, r, c, [[next(it) for _ in range(c)] for _ in range(r)])
                for k, (r, c) in enumerate(shapes)}
            rep = _Representation(a, list(dims), mats)
            if rep.failure() is None:
                yield Module(a, rep.actions(), validate=False)


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
    bound, knitted along the Auslander-Reiten quiver (Assem-Simson-
    Skowronski, Elements of the Representation Theory of Associative
    Algebras 1, IV).  The seeds are the simples, projectives and
    injectives.  Each class X taken from the queue feeds its neighbours:
    - X non-projective: tau X and the middle term E_X of its almost split
      sequence 0 -> tau X -> E_X -> X -> 0 (homalg.almost_split_sequence);
    - X projective: rad X;
    - X non-injective: tau^- X;
    - X injective: X / soc X = D rad D X.
    The arrows into X come from the pieces of E_X, or of rad X when X is
    projective; the arrows out of X go to the pieces of E_{tau^- X}, fed
    when tau^- X is taken, or of X / soc X when X is injective (the
    irreducible maps, ARS V.5).

    Completeness.  complete says that nothing was dropped for exceeding
    the bound, and then the classes are all of ind A.  At the fixed
    point every class was taken from the queue, and every piece of every
    module fed is a class, so every neighbour of every class in the
    Auslander-Reiten quiver is a class: the class set is a union of
    components of that quiver, each finite since the set is, and a
    finite component of the AR quiver of a connected algebra is the
    whole quiver (Auslander's theorem, Auslander-Reiten-Smalo,
    Representation Theory of Artin Algebras, VI.1).  The projectives are
    seeded, so the set meets every block of A; so it holds every
    indecomposable A-module.

    When something was dropped, nothing is claimed beyond the bound.
    The exhaustive 0/1 sweep (_sweep_quiver_modules) then feeds the
    quiver representations of small dimension, and its new classes are
    knitted like the others; an algebra with no quiver presentation
    gets no sweep.

    feed(m) splits m, queues the pieces of new classes and returns the
    class of each piece, None for a piece over the bound.  It skips the
    split, which would queue nothing, in two cases:
    - m has the content of a module fed before in this call (the dict
      fed from content to the classes of the pieces, which lives for
      this call only and is not a cache).  Equal content gives the same
      pieces, which that feed already added or matched to a class, and
      a piece over the bound was recorded in dropped then.
    - m is isomorphic to a class already held (_ClassSet.known).  A
      module isomorphic to an indecomposable class is that class: its
      one piece is matched and is within the bound.
    Knitting skips tau^- C, and its feed, for a class C that feeding
    tau X matched for a class X taken before: tau X is indecomposable,
    so it is the one piece C, and tau^- C = tau^- tau X = X since X is
    indecomposable and not projective (Auslander-Reiten-Smalo IV.1).
    That feed could only match the class X, which is held and within
    the bound: it would queue nothing and drop nothing.
    Knitting feeds no top m/rad m: over a basic split algebra a
    semisimple top is a sum of the one-dimensional simples S_i, which
    are seeded first, so every piece of it is a known class.  The
    classes, their first representatives and their order are those of
    splitting every module."""
    classes = _ClassSet()
    dropped = False
    fed = {}
    queue = []
    tau_images = set()  # the classes C = tau X of classes X taken

    def feed(m):
        nonlocal dropped
        if m.dim == 0:
            return []
        key = m.content_key()
        if key in fed:
            return fed[key]
        known = classes.known(m)
        if known is not None:
            fed[key] = [known]
            return fed[key]
        out = fed[key] = []
        for part in split_indecomposables(m):
            if part.dim > max_total_dim:
                dropped = True
                out.append(None)
                continue
            c, new = classes.place(part)
            if new:
                queue.append(part)
            out.append(c)
        return out

    def knit():
        while queue:
            x = queue.pop(0)
            t = tau(x)
            if t.dim:
                pieces = feed(t)
                if len(pieces) == 1 and pieces[0] is not None:
                    tau_images.add(pieces[0])
                feed(almost_split_sequence(x)[1].source)
            else:
                feed(radical_submodule(x)[0])
            if x in tau_images:
                continue  # tau^- x is the class whose tau matched x
            t = tau_inverse(x)
            if t.dim:
                feed(t)
            else:
                feed(dual_D(radical_submodule(dual_D(x))[0]))

    for s in simple_modules(a) + projective_modules(a) + injective_modules(a):
        feed(s)
    knit()
    if dropped:
        for cand in _sweep_quiver_modules(a, min(max_total_dim, SWEEP_CAP)):
            feed(cand)
        knit()

    reps = sorted(
        classes.all,
        key=lambda m: (m.dim, m.dim_vector(),
                       tuple(str(x) for act in m.actions for row in act.data
                             for x in row)),
    )
    if dropped:
        notes = "bound exhausted: some constructed modules exceeded the bound"
    else:
        notes = ("closure fixed point reached; closed under Auslander-Reiten "
                 "neighbours, so complete; no sweep")
    return BoundedClassification(a, max_total_dim, reps, not dropped, notes)


# -- tau-rigidity with cross-check ------------------------------------------


def tau_rigid_test(m: Module) -> bool:
    """Both criteria: Hom(m, tau m) = 0 (is_tau_rigid), and Hom(f1, m)
    onto on the minimal projective presentation (_f1_onto).  They must
    agree or the disagreement trap fires."""
    crit_hom = is_tau_rigid(m)
    crit_surj = _f1_onto(m)
    if crit_hom != crit_surj:
        raise CriteriaDisagreement(
            "tau-rigidity criteria disagree on a module with dimension "
            "vector %s: hom=%s, surjectivity=%s"
            % (m.dim_vector(), crit_hom, crit_surj)
        )
    return crit_hom


# -- CM certificates ---------------------------------------------------------


def gorenstein_projective_tau_rigid_list(a, bound=None, max_dim=None):
    """(certified GP tau-rigid indecomposable classes, classes whose GP
    check is unresolved, Reach of the list), the shape of
    approx.eg_classes.

    When global_dimension certifies gl.dim A finite within `bound`, A is
    CM-free: a GP module M has Ext^i(M, P) = 0 for i > 0 and every
    projective P, and with pd M finite the last map of a finite
    projective resolution splits, down to M projective.  So the list is
    the indecomposable projectives (tau-rigid and GP), complete with no
    enumeration bound.  Otherwise the classes of
    enumerate_indecomposables(a, max_dim) are filtered, and the list
    reaches as far as that enumeration."""
    bound, max_dim = suite_bounds(a, bound, max_dim)
    gd = global_dimension(a, bound)
    if gd.is_yes:
        return list(projective_modules(a)), [], Reach(
            True, None, "gl.dim %d is finite: CM-free" % gd.value)
    gorenstein_algebra(a, bound)  # cached: enables the GP fast path
    cls = enumerate_indecomposables(a, max_dim)
    members, unknowns = [], []
    for m in cls.representatives:
        if not is_tau_rigid(m):
            continue
        g = gorenstein_projective(m, bound)
        if g.is_yes:
            members.append(m)
        elif g.is_unknown:
            unknowns.append(m)
    return members, unknowns, cls.reach()


def cm_tau_tilting_free(a, bound=None, max_dim=None) -> TriState:
    """Are all certified-GP tau-rigid modules projective?  A yes of finite
    global dimension is bound-free (CM-free, so CM-tau-tilting free);
    one read off an enumeration names its scope."""
    members, unknowns, reach = gorenstein_projective_tau_rigid_list(
        a, bound, max_dim
    )
    for m in members:
        if not is_projective(m):
            return no("non-projective GP tau-rigid module found",
                      witness=m.dim_vector())
    if unknowns:
        return unknown("unresolved GP checks within bound",
                       bound=reach.bound)
    if reach.bound is None:
        return yes(reach.scope + ", so CM-tau-tilting free")
    return yes(
        "all GP tau-rigid classes within bound are projective (%s)"
        % reach.scope,
        bound=reach.bound,
    )


def cm_e_free(e, bound=None, max_dim=None) -> TriState:
    """Is every member of the bounded E-GP E-rigid enumeration a
    summand of E?"""
    members, unknowns, reach = eg_classes(e, bound, max_dim)
    for m in members:
        if not in_add(m, e):
            return no("E-GP E-rigid module outside add E",
                      witness=m.dim_vector(), bound=reach.bound)
    if unknowns:
        return unknown("unresolved relative GP checks within bound",
                       bound=reach.bound)
    return yes(
        "every E-GP E-rigid class within bound lies in add E (%s)"
        % reach.scope,
        bound=reach.bound,
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
    rigid = [m for m in cls.representatives if is_tau_rigid(m)]
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
    the default enumeration bound of every suite, check and CLI command.
    gorenstein.tilting_modules alone defaults to its own bound, dim a."""
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
        if is_tau_rigid(m) != is_tau_rigid(transpose_Tr(m)):
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
             if is_tau_rigid(m)]
    for _ in range(SUITE_SAMPLE):
        p = rng.choice(pa)
        m = rng.choice(rigid)
        if not is_tau_rigid(tensor_module(p, m, big)):
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
    through Hom(E, -); reports the table and its class counts."""
    try:
        table = bijection_table(e, bound, max_dim)
    except ModuleError as exc:
        return no(str(exc)), {}
    if table.complete:
        state = yes("matched %d = %d classes" % (table.n_lambda, table.n_gamma),
                    bound=table.bound)
    else:
        state = unknown("enumeration incomplete within bound (matched %d "
                        "classes so far, %d unmatched)"
                        % (len(table.rows), len(table.unmatched)),
                        bound=table.bound)
    return state, {"table": table.dim_vector_rows(),
                   "counts": {"n_base": table.n_lambda,
                              "n_gamma": table.n_gamma,
                              "unmatched": len(table.unmatched),
                              "complete": table.complete}}


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
