"""Gorenstein projectivity and injectivity certificates.

Gorenstein projectivity is decided by the G-dimension-zero criterion
in the form of Auslander-Bridger (Stable Module Theory, Mem. AMS 94,
1969): M is Gorenstein projective iff Ext^i(M, algebra) and
Ext^i(Tr M, algebra-op) vanish for all positive i.  The exact sequence
0 -> Ext^1(Tr M, A) -> M -> M** -> Ext^2(Tr M, A) -> 0 makes degrees 1
and 2 of Tr M the reflexivity of M, and M* = Omega^2 Tr M up to a
projective makes degree k + 2 of Tr M degree k of M*; so Tr M is checked
at bound + 2.  The Ext conditions are bounded checks promoted to
certainty by the graph of syzygy summands (homalg).  star_module and
evaluation_is_isomorphism build M* and M -> M** directly, as an
independent check of that reading.

The injective side has no code of its own: M is Gorenstein injective
(tau-inverse-rigid) iff D M is Gorenstein projective (tau-rigid) over
the opposite algebra, since D tau^{-1} M = tau D M (Auslander-Reiten-
Smalo IV.1); so theorem_report's conditions 6-9 are 2-5 over A^op.
"""

from __future__ import annotations

from .linalg import Matrix
from .module import (
    Module,
    ModuleError,
    direct_sum,
    dual_D,
    hom,
    hom_coords,
    is_faithful,
    is_projective,
    projective_modules,
    regular_module,
)
from .homalg import (
    default_bound,
    ext_dim,
    ext_vanishes_all_positive,
    inj_dim,
    is_tau_rigid,
    star_module,
    transpose_Tr,
)
from .tristate import TriState, all_of, no, unknown, yes


def semi_gp(m: Module, bound: int | None = None) -> TriState:
    """Ext^i(m, algebra) = 0 for all i >= 1."""
    if bound is None:
        bound = default_bound(m.algebra)
    return ext_vanishes_all_positive(m, regular_module(m.algebra), bound)


def evaluation_is_isomorphism(m: Module) -> bool:
    """Is the evaluation map m -> m** an isomorphism?

    m* lives over the opposite algebra with raw coordinates indexed by
    the hom(m, regular) basis; m** comes back over the original algebra.
    The evaluation sends x to the map phi -> phi(x)."""
    if m.dim == 0:
        return True
    a = m.algebra
    op = a.opposite()
    f = m.field
    reg = regular_module(a)
    opreg = regular_module(op)
    hs = hom(m, reg)
    mstar = star_module(m)
    if mstar.dim != len(hs):
        raise ModuleError("star module dimension mismatch")
    gs = hom(mstar, opreg)
    if len(gs) != m.dim:
        return False
    reg_to_raw = reg.to_raw()
    opreg_from_raw = opreg.from_raw_matrix()
    mstar_to_raw = mstar.to_raw()
    evals = []
    for c in range(m.dim):
        # map m* -> opreg in raw coordinates: column j is phi_j(x_c)
        w_cols = [reg_to_raw.mul_vec(h.matrix.col(c)) for h in hs]
        w = Matrix.from_cols(f, w_cols, nrows=a.dim)
        evals.append(opreg_from_raw @ w @ mstar_to_raw)
    return hom_coords(mstar, opreg, evals).is_invertible()


def gorenstein_projective(m: Module, bound: int | None = None) -> TriState:
    """G-dimension-zero certificate (Auslander-Bridger): m is Gorenstein
    projective iff Ext^i(m, algebra) = 0 and Ext^i(Tr m, algebra-op) = 0
    for all i >= 1.  Ext^1 and Ext^2 of Tr m are the kernel and cokernel
    of m -> m**, and Ext^{k+2}(Tr m, -) = Ext^k(m*, -) since m* is
    Omega^2 Tr m up to a projective; so Tr m is checked at bound + 2,
    which reaches degree `bound` of m*.  The witness of a no found on
    Tr m is its Ext degree there."""
    if bound is None:
        bound = default_bound(m.algebra)
    if m.dim == 0 or is_projective(m):
        return yes("projective", bound=bound)
    # fast path over a certified Gorenstein algebra: finitely many Ext
    # vanishings suffice
    g = m.algebra._cache.get(_CERTIFIED)
    if g is not None and g.is_yes:
        n = g.value
        reg = regular_module(m.algebra)
        for i in range(1, max(n, 1) + 1):
            d = ext_dim(m, reg, i)
            if d:
                return no("Ext^%d(m, algebra) has dimension %d" % (i, d),
                          bound=bound, witness=i)
        return yes("Ext^1..%d vanish over a %d-Gorenstein algebra" % (n, n),
                   bound=bound)
    sp = semi_gp(m, bound)
    if sp.is_no:
        return no("not semi-Gorenstein projective: " + sp.reason,
                  bound=bound, witness=sp.witness)
    op = m.algebra.opposite()
    tr = ext_vanishes_all_positive(transpose_Tr(m), regular_module(op),
                                   bound + 2)
    if tr.is_no:
        k = tr.witness
        why = ("m is not reflexive" if k <= 2
               else "Ext^%d(m*, opposite algebra) is nonzero" % (k - 2))
        return no("%s: Ext^%d(Tr m, opposite algebra) has dimension %d"
                  % (why, k, tr.value), bound=bound, witness=k)
    if sp.is_yes and tr.is_yes:
        return yes("Ext vanishing certified on m and Tr m", bound=bound)
    return unknown("Ext vanishing unresolved within bound", bound=bound)


def gorenstein_injective(m: Module, bound: int | None = None) -> TriState:
    """m is Gorenstein injective iff D(m) is Gorenstein projective over
    the opposite algebra (of the same dimension, so the same default
    bound)."""
    return gorenstein_projective(dual_D(m), bound)


# memo keeps every result, and gorenstein_algebra keeps only certified
# ones, so this is the one cache written out by hand
_CERTIFIED = "gorenstein_algebra"


def gorenstein_algebra(a, bound: int | None = None) -> TriState:
    """Iwanaga-Gorenstein certificate.  value = max of the two one-sided
    injective dimensions; witness = (left id, right id).  Only certified
    verdicts are kept, since they hold at every bound; an unknown is
    recomputed at the bound asked for.

    Each one-sided id is the max of inj_dim(P_i) over the
    indecomposable projectives (_id_of_projectives), which spares
    splitting the regular module into the P_i it is known to be the sum
    of: the injective dimension of a finite sum is the max over its
    summands.  The verdict is that of inj_dim(regular_module(a), bound):
    every P_i reads yes within the bound iff their sum does, with the
    max as value.  A cycle of syzygy classes found within the bound from
    one P_i is a no that the sum, which walks more classes, may reach
    only past the bound; a no certifies an infinite id either way."""
    if _CERTIFIED in a._cache:
        return a._cache[_CERTIFIED]
    if bound is None:
        bound = default_bound(a)
    left = _id_of_projectives(a, bound)
    right = _id_of_projectives(a.opposite(), bound)
    if left.is_no or right.is_no:
        result = no("a one-sided injective dimension is infinite",
                    bound=bound, witness=(left.verdict, right.verdict))
    elif left.is_unknown or right.is_unknown:
        result = unknown("injective dimension exceeds bound", bound=bound)
    else:
        result = yes(
            "left id %d, right id %d" % (left.value, right.value),
            bound=bound, witness=(left.value, right.value),
            value=max(left.value, right.value),
        )
    if not result.is_unknown:
        a._cache[_CERTIFIED] = result
    return result


def _id_of_projectives(a, bound: int) -> TriState:
    """id of the regular module of a, as the max of inj_dim(P_i) over
    its indecomposable projectives (see gorenstein_algebra)."""
    best, unresolved = 0, False
    for p in projective_modules(a):
        v = inj_dim(p, bound)
        if v.is_no:
            return v
        if v.is_unknown:
            unresolved = True
        else:
            best = max(best, v.value)
    if unresolved:
        return unknown("injective dimension exceeds bound", bound=bound)
    return yes("max over the indecomposable projectives", bound=bound,
               value=best)


def self_injective(a) -> bool:
    """Is D(regular right module) projective as a left module?"""
    return is_projective(co_regular(a))


def co_regular(a) -> Module:
    """D(Lambda): the injective cogenerator as a left module."""
    return dual_D(regular_module(a.opposite()))


def is_tau_inverse_rigid(m: Module) -> bool:
    """Hom(tau^{-1} m, m) = 0, read as Hom(D m, tau D m) = 0: D is a
    duality and D tau^{-1} m = tau D m (ARS IV.1)."""
    return is_tau_rigid(dual_D(m))


# -- tilting and cotilting enumeration --------------------------------------


def tilting_modules(a, max_dim: int | None = None):
    """Basic tilting modules: the support tau-tilting pairs (M, 0) with
    M faithful, in the order of support_tau_tilting_pairs.  A faithful
    tau-tilting module is tilting, and every tilting module is a
    faithful tau-tilting module (Adachi-Iyama-Reiten, "tau-tilting
    theory", Compos. Math. 150, 2014, Prop. 2.2), so no projective
    dimension is computed.  Summands are enumerated up to dimension
    max_dim (default dim A), and the list is complete only within that
    bound: the Kronecker algebra (dimension 4) has a tilting summand of
    dimension 7."""
    from .classify import support_tau_tilting_pairs

    if max_dim is None:
        max_dim = a.dim
    rigid, pairs = support_tau_tilting_pairs(a, max_dim)
    out = []
    for p in pairs:
        if p.p_summands:  # e_P M = Hom(P, M) = 0: M is not faithful
            continue
        mods = [rigid[i] for i in p.m_summands]
        t = mods[0] if len(mods) == 1 else direct_sum(a, mods)[0]
        if is_faithful(t):
            out.append(t)
    return out


def cotilting_modules(a, max_dim: int | None = None):
    """Cotilting modules = D of tilting modules over the opposite."""
    return [dual_D(t) for t in tilting_modules(a.opposite(), max_dim)]


# -- the nine-condition equivalence report -----------------------------------


def theorem_report(a, bound: int | None = None, max_dim: int | None = None):
    """The nine-way self-injectivity equivalence, each condition as a
    TriState, plus a consistency verdict.  1: D(algebra) is projective.
    2-5 (`four`): D(algebra) and the cotilting modules are semi-GP and
    tau-rigid, then GP.  6-9: the algebra and the tilting modules are
    semi-GI and tau-inverse-rigid, then GI; D makes them 2-5 over A^op,
    as D(regular A) = co_regular(A^op) and D of the tilting A-modules
    are the cotilting A^op-modules.

    Returns {"conditions": [nine TriStates], "consistent": bool,
    "bound": int, and the two tilting counts}."""
    if bound is None:
        bound = default_bound(a)

    def four(b):
        dlam = co_regular(b)
        cot = cotilting_modules(b, max_dim)
        return cot, [
            all_of([semi_gp(dlam, bound), is_tau_rigid(dlam)]),
            all_of([semi_gp(c, bound) for c in cot]
                   + [is_tau_rigid(c) for c in cot]),
            gorenstein_projective(dlam, bound),
            all_of([gorenstein_projective(c, bound) for c in cot]),
        ]

    c1 = yes("D(algebra) is projective") if self_injective(a) else no(
        "D(algebra) is not projective"
    )
    cot, two_to_five = four(a)
    til, six_to_nine = four(a.opposite())
    conditions = [c1] + two_to_five + six_to_nine
    certified = [c.verdict for c in conditions if not c.is_unknown]
    consistent = len(set(certified)) <= 1
    return {
        "conditions": conditions,
        "consistent": consistent,
        "bound": bound,
        "n_tilting_within_bound": len(til),
        "n_cotilting_within_bound": len(cot),
    }


def tachikawa_probe(a, bound: int | None = None):
    """Probe for the self-injectivity conjecture: reports whether
    D(algebra) is semi-Gorenstein projective and tau-rigid, whether the
    algebra is tau-inverse-rigid and 1-Gorenstein, checks the three-way
    equivalence of those last conditions, and flags any semi-GP but
    non-tau-rigid instance (a counterexample candidate)."""
    if bound is None:
        bound = default_bound(a)
    dlam = co_regular(a)
    reg = regular_module(a)
    sgp = semi_gp(dlam, bound)
    dlam_tau_rigid = is_tau_rigid(dlam)
    lam_tau_inv_rigid = is_tau_inverse_rigid(reg)
    g = gorenstein_algebra(a, bound)
    one_gorenstein = (
        yes("id <= 1 both sides", value=g.value)
        if g.is_yes and g.value <= 1
        else (no("injective dimension exceeds 1") if not g.is_unknown
              else unknown("Gorenstein status unresolved", bound=bound))
    )
    # three-way equivalence: 1-Gorenstein <=> D(algebra) tau-rigid <=>
    # algebra tau-inverse-rigid
    votes = []
    if not one_gorenstein.is_unknown:
        votes.append(one_gorenstein.is_yes)
    votes.append(dlam_tau_rigid)
    votes.append(lam_tau_inv_rigid)
    consistent = len(set(votes)) == 1
    flag = sgp.is_yes and not dlam_tau_rigid
    return {
        "bound": bound,
        "dlam_semi_gp": sgp,
        "dlam_tau_rigid": dlam_tau_rigid,
        "lam_tau_inverse_rigid": lam_tau_inv_rigid,
        "one_gorenstein": one_gorenstein,
        "three_way_consistent": consistent,
        "counterexample_candidate": flag,
    }
