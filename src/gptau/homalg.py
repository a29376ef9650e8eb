"""Homological calculus built on minimal projective presentations.

Everything bounded (projective or injective dimension, vanishing of Ext
in all positive degrees) is reported as a TriState, read off one graph
of non-projective indecomposable syzygy summands; a cycle in it
certifies an infinite dimension, even while whole syzygies grow.

The answers of is_tau_rigid, proj_dim and ext_dim are kept on the
algebra by the content of their module arguments (memo.algebra_memo),
so a request repeated on a fresh module of equal content costs a
lookup; proj_dim resolves its default bound before the key is made.
"""

from __future__ import annotations

from .linalg import Matrix
from .memo import algebra_memo, memo
from .module import (
    Module,
    ModuleMap,
    ModuleError,
    _combine,
    _generator_map,
    _iso_indecomposable,
    _map_from_generators,
    _proj_embedding,
    _projective_sum,
    _quotient,
    direct_sum,
    dual_D,
    hom,
    hom_coords,
    is_projective,
    projective_cover,
    rad_end,
    regular_module,
    simple_modules,
    split_indecomposables,
    strip_projectives,
    zero_module,
)
from .tristate import TriState, no, unknown, yes


class Presentation:
    """Minimal projective presentation P1 --f1--> P0 --f0--> M -> 0."""

    def __init__(self, module, p0, f0, p1, f1, p0_idx, p1_idx):
        self.module = module
        self.p0 = p0
        self.f0 = f0  # ModuleMap P0 -> M, projective cover
        self.p1 = p1
        self.f1 = f1  # ModuleMap P1 -> P0, cover of ker f0
        self.p0_idx = tuple(p0_idx)  # idempotent index per P0 summand
        self.p1_idx = tuple(p1_idx)


@memo
def _cover_kernel(m: Module):
    """(P, f: P -> m, summand indices, ker f, inclusion ker f -> P): the
    projective cover and its kernel, built once per module and shared
    by presentations, syzygies and resolutions."""
    p, f, idx = projective_cover(m)
    ker, inc = f.kernel()
    return p, f, idx, ker, inc


@memo
def minimal_projective_presentation(m: Module) -> Presentation:
    p0, f0, idx0, ker, inc = _cover_kernel(m)
    p1, g, idx1 = projective_cover(ker)
    f1 = ModuleMap(p1, p0, inc.matrix @ g.matrix)
    return Presentation(m, p0, f0, p1, f1, idx0, idx1)


def syzygy(m: Module, k: int = 1):
    """Omega^k m.  Omega^0 strips projective summands; each step takes
    the kernel of the projective cover, stripped by the minimal-syzygy
    convention."""
    if k < 0:
        raise ValueError("syzygy degree must be nonnegative")
    cur = strip_projectives(m)
    for _ in range(k):
        if cur.dim == 0:
            return zero_module(m.algebra)
        cur = strip_projectives(_cover_kernel(cur)[3])
    return cur


@memo
def minimal_projective_resolution(m: Module, length: int):
    """[(P_i, d_i)] with d_0 : P_0 -> M and d_i : P_i -> P_{i-1},
    up to index `length` (or shorter if the resolution terminates).
    The last step takes only the projective cover: the kernel after
    P_length is never read.  The list is shared by every caller with
    equal arguments: read it, never change it."""
    out = []
    cur = m
    inc = None  # inclusion of the current module into the last P_i
    for i in range(length + 1):
        if cur.dim == 0:
            break
        p, f, _ = projective_cover(cur)
        if inc is not None:
            f = ModuleMap(p, inc.target, inc.matrix @ f.matrix)
        out.append((p, f))
        if i < length:
            cur, inc = _cover_kernel(cur)[3:]
    return out


@algebra_memo
def ext_dim(m: Module, n: Module, i: int) -> int:
    """dim Ext^i(m, n), computed from the minimal projective resolution
    of m: Ext^i = ker Hom(d_{i+1}, n) / im Hom(d_i, n).

    For i >= 1 it is read off the complex of the e_j n.  Hom(P_j, n) is
    the sum over the summands k of P_j of e_{idx_j[k]} n, the images of
    the generators (ARS I.4), and Hom(d_j, n) is the block matrix H_j of
    _hom_of_differential.  So dim Ext^i = sum_k dim e_{idx_i[k]} n
    - rank H_i - rank H_{i+1}, with no Hom basis solved for."""
    if i < 0:
        raise ValueError("Ext degree must be nonnegative")
    if m.dim == 0 or n.dim == 0:
        return 0
    if i == 0:
        return len(hom(m, n))
    res = minimal_projective_resolution(m, i + 1)
    if len(res) <= i:
        return 0
    dim_hom = sum(n.blocks[j][1] for j, _, _ in res[i][0].summands)
    if dim_hom == 0:
        return 0
    out = dim_hom - _hom_of_differential(res[i][1], n).rank()
    if len(res) > i + 1:
        out -= _hom_of_differential(res[i + 1][1], n).rank()
    return out


def _hom_of_differential(d: ModuleMap, n: Module) -> Matrix:
    """Hom(d, n): Hom(Q0, n) -> Hom(Q1, n) for d: Q1 -> Q0 between sums
    of projectives, in generator coordinates (the e_i n of each summand).
    g o d sends generator c of Q1 to the sum over r of x_rc . g(generator
    r), x = _map_to_algebra_matrix(d).  So block (c, r) is the action on
    n of x_rc, cut to the rows of block idx1[c] and the columns of block
    idx0[r]."""
    src, dst = d.source.summands, d.target.summands
    xs = _map_to_algebra_matrix(d)
    ncols = sum(n.blocks[i][1] for i, _, _ in dst)
    rows = []
    for c, (ic, _, _) in enumerate(src):
        ro, rd = n.blocks[ic]
        block = [[] for _ in range(rd)]
        for r, (ir, _, _) in enumerate(dst):
            co, cd = n.blocks[ir]
            if xs[r][c] is None:
                for row in block:
                    row += [0] * cd
            else:
                act = n.action_of(xs[r][c])
                for row, arow in zip(block, act.data[ro:ro + rd]):
                    row += arow[co:co + cd]
        rows += block
    return Matrix._adopt(n.field, len(rows), ncols, rows)


def _syzygy_layers(m: Module, bound: int):
    """Yield (layer k, classes, closed) for k = 0, 1, ...: the classes are
    the non-projective indecomposable syzygy summands met, up to
    _iso_indecomposable; layer k maps their indices to multiplicities in
    Omega^k m.  Omega is additive, so layer k + 1 sums the split of Omega X
    over the X in layer k.  closed: each class has its Omega, so no more
    syzygies are needed.  Stops at an empty layer, or open at layer `bound`."""
    reps, edges = [], {}

    def layer_of(mod):
        out = {}
        for x in split_indecomposables(mod):
            if not is_projective(x):
                c = next((c for c, r in enumerate(reps)
                          if _iso_indecomposable(x, r)), len(reps))
                if c == len(reps):
                    reps.append(x)
                out[c] = out.get(c, 0) + 1
        return out

    layer = layer_of(m)
    while True:
        yield layer, reps, len(edges) == len(reps)
        if not layer or (bound <= 0 and len(edges) < len(reps)):
            return
        bound -= 1
        nxt = {}
        for c, mult in layer.items():
            if c not in edges:
                edges[c] = layer_of(_cover_kernel(reps[c])[3])
            for d, mu in edges[c].items():
                nxt[d] = nxt.get(d, 0) + mult * mu
        layer = nxt


def ext_vanishes_all_positive(m: Module, n: Module, bound: int) -> TriState:
    """Does Ext^i(m, n) = 0 for all i >= 1?  Ext^{k+1}(m, n) is read off
    layer k < bound of _syzygy_layers: its first nonzero degree is the
    witness of a no.  Yes once the graph closes (an empty layer closes
    it): each class then sat in an earlier layer, whose Ext^1 was 0."""
    if n.dim == 0:
        return yes("zero module", bound=bound)
    for k, (layer, reps, closed) in enumerate(_syzygy_layers(m, bound)):
        if closed:
            return yes("Ext^1 vanishes on all %d syzygy summand classes"
                       % len(reps), bound=bound)
        if k == bound:
            break
        d = sum(mu * ext_dim(reps[c], n, 1) for c, mu in layer.items())
        if d:
            return no("Ext^%d has dimension %d" % (k + 1, d), bound=bound,
                      witness=k + 1, value=d)
    return unknown("Ext vanishing unresolved within bound", bound=bound)


def default_bound(algebra) -> int:
    """The default degree bound of the bounded homological checks."""
    return 2 * algebra.dim + 2


def proj_dim(m: Module, bound: int | None = None) -> TriState:
    """Projective dimension as a TriState: value = pd, the number of
    non-empty layers of _syzygy_layers.  No (infinite) when a non-empty
    layer k >= the number of classes: a walk of k Omega steps to it
    meets some class twice, so that class lies on a cycle."""
    if bound is None:
        bound = default_bound(m.algebra)
    return _proj_dim(m, bound)


@algebra_memo
def _proj_dim(m: Module, bound: int) -> TriState:
    for k, (layer, reps, _) in enumerate(_syzygy_layers(m, bound)):
        if not layer:
            return yes("Omega^%d vanishes" % k, bound=bound, value=k)
        if k >= len(reps):
            return no("infinite: Omega^%d cycles through %d summand class(es)"
                      % (k, len(reps)), bound=bound, witness=k)
    return unknown("projective dimension exceeds bound", bound=bound)


def inj_dim(m: Module, bound: int | None = None) -> TriState:
    """Injective dimension = projective dimension of D(m) over the
    opposite algebra."""
    return proj_dim(dual_D(m), bound=bound)


# -- transpose and the Auslander-Reiten translate ---------------------------


def star_module(m: Module) -> Module:
    """m* = Hom(m, regular), as a module over the opposite algebra.

    Coordinates: the hom basis returned by hom(m, regular); (phi.a)(x) =
    phi(x) a, realised through right multiplication."""
    a = m.algebra
    op = a.opposite()
    reg = regular_module(a)
    hs = hom(m, reg)
    if not hs:
        return zero_module(op)
    to_raw = reg.to_raw()
    from_raw = reg.from_raw_matrix()
    acts = []
    for i in range(a.dim):
        # phi -> (x -> phi(x) b_i): right multiplication after phi
        rm = from_raw @ a.right_mult_matrix(a._basis_vec(i)) @ to_raw
        acts.append(hom_coords(m, reg, [rm @ h.matrix for h in hs]))
    return Module(op, acts, validate=False)


def star_of_projective_map(f1: ModuleMap, p1_idx, p0_idx):
    """Hom(f1, regular) for a map between nonzero projectives, expressed
    through the natural identifications (Lambda e_i)* = e_i Lambda =
    Lambda^op e_i.

    Returns g: Q0 -> Q1 over the opposite algebra, where Q_j is the sum
    of opposite projectives matching the idempotent indices.  Entry
    (r, c) of _map_to_algebra_matrix is x in e_{p1_idx[c]} Lambda
    e_{p0_idx[r]}: the component P_{p1_idx[c]} -> P_{p0_idx[r]} is
    y -> y x, and Hom(-, regular) turns it into u -> x u from
    e_{p0_idx[r]} Lambda to e_{p1_idx[c]} Lambda.  So g sends the
    generator e_{p0_idx[r]} of summand r of Q0 to the sum over c of x in
    summand c of Q1."""
    op = f1.source.algebra.opposite()
    q1 = _projective_sum(op, tuple(p1_idx))
    gens = []
    for row in _map_to_algebra_matrix(f1):
        y = [0] * q1.dim
        for (i, cols, _), x in zip(q1.summands, row):
            if x is None:
                continue
            coords = _proj_embedding(op, i).solve(x)
            if coords is None:
                raise ModuleError("starred component escapes the target")
            for c, v in zip(cols, coords):
                y[c] = v
        gens.append(y)
    return _map_from_generators(q1, p0_idx, gens)


def _map_to_algebra_matrix(f1: ModuleMap):
    """Matrix of algebra elements for a map f1 between sums of projectives
    built by _projective_sum, with summand indices p1_idx (source) and
    p0_idx (target).

    Component (r, c): the image in P_{p0_idx[r]} of the idempotent
    generator of P_{p1_idx[c]}, as an algebra element (right
    multiplication by it realises the component), or None when it is
    zero.  The generators and the summand coordinates are read off
    f1.source.summands and f1.target.summands."""
    a = f1.source.algebra
    images = [f1.matrix.mul_vec(gen) for _, _, gen in f1.source.summands]
    out = []
    for i, cols, _ in f1.target.summands:
        emb = _proj_embedding(a, i)
        parts = [[img[c] for c in cols] for img in images]
        out.append([emb.mul_vec(x) if any(x) else None for x in parts])
    return out


@memo
def transpose_Tr(m: Module) -> Module:
    """Auslander-Bridger transpose: the cokernel of Hom(f1, regular) on
    the minimal presentation, a module over the opposite algebra.  It
    has no projective summand, and Tr(X + P) = Tr X for P projective
    (Auslander-Reiten-Smalo, Representation Theory of Artin Algebras,
    IV.1).  Built once per module and shared by tau, tau_inverse (on
    the memoised D m) and the Gorenstein projectivity test: read it,
    never change it."""
    pres = minimal_projective_presentation(m)
    if pres.p1.dim == 0:
        return zero_module(m.algebra.opposite())
    g = star_of_projective_map(pres.f1, pres.p1_idx, pres.p0_idx)
    return g.cokernel()[0]


def tau(m: Module) -> Module:
    """Auslander-Reiten translate D Tr m; projective summands of m
    vanish in Tr (ARS IV.1).  Tr m is memoised on m and D on Tr m, so
    every call on m returns the same module.  Unlike is_tau_rigid it is
    not kept on the algebra: its answer is a module, by far the largest
    answer of any request."""
    return dual_D(transpose_Tr(m))


def tau_inverse(m: Module) -> Module:
    """Tr D m; injective summands of m vanish, since D of an injective
    is projective over the opposite algebra (ARS IV.1)."""
    return transpose_Tr(dual_D(m))


def almost_split_sequence(m: Module):
    """(f: tau m -> E, g: E -> m), the almost split sequence
    0 -> tau m -> E -> m -> 0 of an indecomposable non-projective m.

    Ext^1(m, N), N = tau m, is read in generator coordinates on the
    minimal resolution P2 -d2-> P1 -d1-> P0 -d0-> m: a map P1 -> N is
    its generator images in the e_j N of the summands of P1, the
    cocycles are ker Hom(d2, N) and the coboundaries im Hom(d1, N)
    (_hom_of_differential).  The End(N)-socle of Ext^1(m, N) is simple,
    it equals the End(m)-socle, and any nonzero element of it is the
    class of the almost split sequence (Auslander-Reiten-Smalo,
    Representation Theory of Artin Algebras, V.2).  So xi is a cocycle
    outside the coboundaries that every psi in rad End(N) (rad_end,
    exact over every field) sends into the coboundaries.  psi commutes
    with the idempotents, so it acts on the images by its diagonal block
    on each e_j N.  E is the pushout (N + P0) / {(xi x, -d1 x)}, g is
    d0 on the P0 part, and f is the inclusion of N.  With proj: N + P0
    -> E the quotient map and pr the projection onto P0, g proj = d0 pr;
    proj sends the unit vector of each complement coordinate of the
    quotient (module._quotient) to the matching unit vector of E, so g
    is d0 pr restricted to those coordinates."""
    if is_projective(m):
        raise ModuleError("a projective module ends no almost split sequence")
    n = tau(m)
    res = minimal_projective_resolution(m, 2)
    (p0, d0), (p1, d1) = res[0], res[1]
    f = m.field
    h1 = _hom_of_differential(d1, n)
    cocycles = (_hom_of_differential(res[2][1], n).kernel_basis()
                if len(res) > 2 else Matrix.identity(f, h1.rows))
    # q x = 0 exactly when x is a coboundary: q spans the left kernel of h1
    q = h1.transpose().kernel_basis().transpose()
    blocks = [n.blocks[j] for j, _, _ in p1.summands]

    def on_images(psi):
        """psi acting on generator images: its block on each e_j N."""
        rows, at = [], 0
        for o, d in blocks:
            rows += [[0] * at + r[o:o + d] + [0] * (h1.rows - at - d)
                     for r in psi.data[o:o + d]]
            at += d
        return Matrix._adopt(f, h1.rows, h1.rows, rows)

    ends = [e.matrix for e in hom(n, n)]
    eqs = []
    for coeffs in rad_end(n)[0]:
        psi = _combine(f, n.dim, ends, coeffs)
        eqs += (q @ on_images(psi) @ cocycles).data
    socle = cocycles @ (
        Matrix._adopt(f, len(eqs), cocycles.cols, eqs).kernel_basis()
        if eqs else Matrix.identity(f, cocycles.cols))
    outside = q @ socle
    xi = next((socle.col(j) for j in range(socle.cols)
               if any(outside.col(j))), None)
    if xi is None:
        raise ModuleError("Ext^1(m, tau m) has no socle element")
    images, at = [], 0
    for o, d in blocks:
        images.append([0] * o + xi[at:at + d] + [0] * (n.dim - o - d))
        at += d
    h = _generator_map(p1, n, images)
    s, incls, projs = direct_sum(m.algebra, [n, p0])
    rel = incls[0].matrix @ h + incls[1].matrix @ -d1.matrix
    e, proj, comp = _quotient(s, rel)
    if e.dim != m.dim + n.dim:
        raise ModuleError("almost split middle term has dimension %d, not %d"
                          % (e.dim, m.dim + n.dim))
    g = (d0.matrix @ projs[1].matrix).select_cols(comp)
    return (ModuleMap(n, e, proj.matrix @ incls[0].matrix),
            ModuleMap(e, m, g))


@algebra_memo
def is_tau_rigid(m: Module) -> bool:
    """Hom(m, tau m) = 0: the package's one tau-rigidity rule, which
    gorenstein.is_tau_inverse_rigid also reads."""
    if m.dim == 0:
        return True
    t = tau(m)
    if t.dim == 0:
        return True
    return len(hom(m, t)) == 0


def _f1_onto(n: Module) -> bool:
    """Is Hom(f1, n) onto (full row rank of _hom_of_differential), for f1
    of the minimal projective presentation of n?  Equivalent to
    Hom(n, tau n) = 0 (Adachi-Iyama-Reiten, Compos. Math. 150, 2014,
    Prop. 2.4)."""
    h = _hom_of_differential(minimal_projective_presentation(n).f1, n)
    return h.rank() == h.rows


def global_dimension(algebra, bound=None) -> TriState:
    """Global dimension = max pd over the simples."""
    if bound is None:
        bound = default_bound(algebra)
    best = 0
    for s in simple_modules(algebra):
        r = proj_dim(s, bound)
        if r.is_no:
            return no("simple with infinite projective dimension",
                      bound=bound, witness=s.dim_vector())
        if r.is_unknown:
            return unknown("a simple exceeds the bound", bound=bound)
        best = max(best, r.value)
    return yes("max over simples", bound=bound, value=best)
