"""Bounded enumeration of indecomposables, tau-rigidity testing with a
built-in cross-check, support tau-tilting pairs and their exchange
graph, and the CM-freeness certificates.

Enumeration is never claimed complete beyond its bound: the
BoundedClassification carries a completeness flag that is set only when
the closure process reaches a fixed point without dropping any module
for exceeding the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .linalg import Matrix
from .module import (
    Module,
    ModuleError,
    _iso_indecomposable,
    direct_sum,
    hom,
    hom_map_surjective,
    injective_modules,
    is_projective,
    module_from_dimvector,
    projective_modules,
    radical_submodule,
    regular_module,
    simple_modules,
    split_indecomposables,
    top_of,
)
from .homalg import (
    cosyzygy,
    ext_dim,
    minimal_projective_presentation,
    minimal_projective_resolution,
    syzygy,
    tau,
    tau_inverse,
)
from .tristate import TriState, no, unknown, yes

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
    total dimension <= cap.  Independent of the closure constructions."""
    qd = a.quiver_data
    if qd is None:
        return
    q = qd["quiver"]
    nv = len(q.vertices)
    arrows = q.arrows
    src = [q.vertex_index(x[1]) for x in arrows]
    tgt = [q.vertex_index(x[2]) for x in arrows]
    rels = qd.get("relations") or []
    f = a.field
    for dims in itertools.product(range(cap + 1), repeat=nv):
        total = sum(dims)
        if total == 0 or total > cap:
            continue
        shapes = [(dims[tgt[k]], dims[src[k]]) for k in range(len(arrows))]
        sizes = [r * c for r, c in shapes]
        if sum(sizes) > SWEEP_BITS:
            continue  # keep the sweep bounded
        for bits in itertools.product((0, 1), repeat=sum(sizes)):
            mats = {}
            pos = 0
            for k, (r, c) in enumerate(shapes):
                m = Matrix(f, r, c)
                for i in range(r):
                    for j in range(c):
                        if bits[pos]:
                            m.data[i][j] = f.one()
                        pos += 1
                mats[arrows[k][0]] = m
            if not _relations_hold(q, rels, mats, dims, src, tgt, f):
                continue
            try:
                yield module_from_dimvector(a, list(dims), mats,
                                            validate=False)
            except ModuleError:
                continue


def _relations_hold(q, rels, mats, dims, src, tgt, f):
    for rel in rels:
        acc = None
        for coeff, names in rel.terms:
            prod = None
            for nm in reversed(names):
                m = mats[nm]
                prod = m if prod is None else m @ prod
            term = prod.scale(f.of(coeff))
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            return False
    return True


def enumerate_indecomposables(a, max_total_dim: int,
                              sweep_cap: int | None = None) -> BoundedClassification:
    """Indecomposable isomorphism classes of total dimension up to the
    bound: closure of the standard constructions (simples, projectives,
    injectives, radical layers, syzygies, tau-orbits, extensions) plus
    an exhaustive small-dimension sweep for quiver-presented algebras."""
    key = ("indec_classes", max_total_dim, sweep_cap)
    if key in a._cache:
        return a._cache[key]
    if sweep_cap is None:
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
        images = []
        for op in (syzygy, cosyzygy, tau, tau_inverse):
            try:
                images.append(op(m))
            except ModuleError:
                pass
        rad, _ = radical_submodule(m)
        images.append(rad)
        images.append(top_of(m)[0])
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
    notes = (
        "closure fixed point reached; sweep cap %d" % sweep_cap
        if complete
        else "bound exhausted: some constructed modules exceeded the bound"
    )
    result = BoundedClassification(a, max_total_dim, reps, complete, notes)
    a._cache[key] = result
    return result


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
    from .module import dual_D
    from .gorenstein import is_tau_inverse_rigid

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
    """(certified GP tau-rigid indecomposables, unknown-GP list,
    completeness TriState)."""
    from .gorenstein import default_bound, gorenstein_projective

    if bound is None:
        bound = default_bound(a)
    if max_dim is None:
        max_dim = 2 * a.dim
    from .gorenstein import gorenstein_algebra

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
    completeness = (
        yes("enumeration reached a fixed point", bound=max_dim)
        if cls.complete and not unknowns
        else unknown("bound exhausted or unresolved GP checks",
                     bound=max_dim)
    )
    return members, unknowns, completeness


def cm_tau_tilting_free(a, bound=None, max_dim=None) -> TriState:
    """Are all certified-GP tau-rigid modules projective?"""
    members, unknowns, completeness = gorenstein_projective_tau_rigid_list(
        a, bound, max_dim
    )
    for m in members:
        if not is_projective(m):
            return no("non-projective GP tau-rigid module found",
                      witness=m.dim_vector())
    if unknowns:
        return unknown("unresolved GP checks within bound",
                       bound=completeness.bound)
    return yes(
        "all GP tau-rigid classes within bound are projective"
        + ("" if completeness.is_yes else " (enumeration bound-limited)"),
        bound=completeness.bound,
    )


def cm_e_free(e, bound=None, max_dim=None) -> TriState:
    """Is every member of the bounded E-GP E-rigid enumeration a
    summand of E?"""
    from .approx import e_gorenstein_projective, e_rigid, in_add

    a = e.E.algebra
    from .gorenstein import default_bound

    if bound is None:
        bound = default_bound(a)
    if max_dim is None:
        max_dim = 2 * a.dim
    cls = enumerate_indecomposables(a, max_dim)
    any_unknown = False
    for m in cls.representatives:
        if not e_rigid(m, e):
            continue
        g = e_gorenstein_projective(m, e, bound)
        if g.is_yes and not in_add(m, e):
            return no("E-GP E-rigid module outside add E",
                      witness=m.dim_vector(), bound=max_dim)
        if g.is_unknown:
            any_unknown = True
    if any_unknown:
        return unknown("unresolved relative GP checks within bound",
                       bound=max_dim)
    return yes(
        "every E-GP E-rigid class within bound lies in add E"
        + ("" if cls.complete else " (enumeration bound-limited)"),
        bound=max_dim,
    )


def cm_e_finite(e, bound=None, max_dim=None) -> TriState:
    """Does the count of E-GP E-rigid classes stabilize within bound?"""
    from .approx import eg_classes

    members, any_unknown, cls = eg_classes(e, bound, max_dim)
    top_layer = [m for m in members if m.dim == cls.max_total_dim]
    if cls.complete and not top_layer and not any_unknown:
        return yes("count stabilized within bound: %d classes"
                   % len(members), bound=cls.max_total_dim,
                   value=len(members))
    return unknown("finiteness only observable within bound",
                   bound=cls.max_total_dim, value=len(members))


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
    if max_dim is None:
        max_dim = 2 * a.dim
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


# -- theorem suites for triangular and tensor constructions ------------------


def consistency_suites(a, bound=None, max_dim=None):
    """Five consistency suites over an algebra and its triangular and
    tensor companions.  Returns a dict of TriStates."""
    import random

    from .algebra import t2, tensor, trivial_algebra
    from .gorenstein import default_bound, gorenstein_algebra
    from .gorenstein import gorenstein_projective
    from .homalg import inj_dim
    from .module import tensor_module, module_to_triple

    if bound is None:
        bound = default_bound(a)
    if max_dim is None:
        max_dim = 2 * a.dim
    report = {}

    # (i) opposite transport of CM-tau-tilting freeness
    mine = cm_tau_tilting_free(a, bound, max_dim)
    theirs = cm_tau_tilting_free(a.opposite(), bound, max_dim)
    if mine.is_unknown or theirs.is_unknown:
        report["opposite_transport"] = unknown("a side is unresolved",
                                               bound=bound)
    elif mine.verdict == theirs.verdict:
        report["opposite_transport"] = yes("verdicts agree", bound=bound)
    else:
        report["opposite_transport"] = no("verdicts differ", bound=bound)

    # (ii) triangular GP triples (only meaningful when a is Gorenstein)
    g = gorenstein_algebra(a, bound)
    if g.is_yes:
        t = t2(a)
        tmax = min(max_dim, a.dim + 2)
        tcls = enumerate_indecomposables(t, tmax, sweep_cap=0)
        bad = None
        checked = 0
        for m in tcls.representatives:
            x, y, phi = module_to_triple(m)
            gp_m = gorenstein_projective(m, bound)
            if gp_m.is_unknown:
                continue
            cok = phi.cokernel()[0]
            parts = [
                gorenstein_projective(x, bound),
                gorenstein_projective(y, bound),
                gorenstein_projective(cok, bound),
            ]
            if any(p.is_unknown for p in parts):
                continue
            rhs = (
                all(p.is_yes for p in parts)
                and phi.matrix.rank() == x.dim
            )
            checked += 1
            if gp_m.is_yes != rhs:
                bad = m.dim_vector()
                break
        report["triangular_gp_triples"] = (
            no("triple criterion mismatch", witness=bad, bound=bound)
            if bad
            else yes("criterion agrees on %d certified modules" % checked,
                     bound=bound)
        )
    else:
        report["triangular_gp_triples"] = unknown(
            "base algebra not certified Gorenstein", bound=bound
        )

    # (iii) projective tensor tau-rigid stays tau-rigid
    t2k = t2(trivial_algebra(a.field))
    big = tensor(t2k, a)
    rng = random.Random(SUITE_SEED)
    pa = projective_modules(t2k)
    cls = enumerate_indecomposables(a, max_dim)
    rigid = [m for m in cls.representatives if tau_rigid_test(m)]
    bad = None
    n_checked = 0
    for _ in range(SUITE_SAMPLE):
        p = rng.choice(pa)
        m = rng.choice(rigid)
        tm = tensor_module(p, m, big)
        n_checked += 1
        if not tau_rigid_test(tm):
            bad = (p.dim_vector(), m.dim_vector())
            break
    report["tensor_tau_rigid"] = (
        no("tensor broke tau-rigidity", witness=bad)
        if bad
        else yes("%d sampled pairs pass" % n_checked)
    )

    # (iv) triangular transport of CM-tau-tilting freeness
    t = t2(a)
    tfree = cm_tau_tilting_free(t, bound, min(max_dim, a.dim + 2))
    if mine.is_unknown or tfree.is_unknown:
        report["triangular_transport"] = unknown("a side is unresolved",
                                                 bound=bound)
    elif mine.verdict == tfree.verdict:
        report["triangular_transport"] = yes("verdicts agree", bound=bound)
    else:
        report["triangular_transport"] = no("verdicts differ", bound=bound)

    # (v) injective dimension shift under t2
    ida = inj_dim(regular_module(a), bound)
    t = t2(a)
    idt = inj_dim(regular_module(t), 2 * t.dim + 2)
    report["t2_id_shift"] = id_shift_state(ida, idt, bound)
    return report


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
