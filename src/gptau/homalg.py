"""Homological calculus built on minimal projective presentations.

Everything bounded (projective or injective dimension, vanishing of Ext
in all positive degrees) is reported as a TriState, read off one graph
of non-projective indecomposable syzygy summands; a cycle in it
certifies an infinite dimension, even while whole syzygies grow.
"""

from __future__ import annotations

from .linalg import Matrix
from .memo import memo
from .module import (
    Module,
    ModuleMap,
    ModuleError,
    _iso_indecomposable,
    _proj_embedding,
    direct_sum,
    dual_D,
    hom,
    hom_coords,
    is_projective,
    projective_cover,
    projective_modules,
    regular_module,
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
    if m.dim == 0:
        z = zero_module(m.algebra)
        return Presentation(
            m, z, ModuleMap(z, m, Matrix(m.field, 0, 0)),
            z, ModuleMap(z, z, Matrix(m.field, 0, 0)), [], []
        )
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


def cosyzygy(m: Module, k: int = 1):
    """Omega^{-k} m: cokernels of injective envelopes, via duality."""
    return dual_D(syzygy(dual_D(m), k))


@memo
def minimal_projective_resolution(m: Module, length: int):
    """[(P_i, d_i)] with d_0 : P_0 -> M and d_i : P_i -> P_{i-1},
    up to index `length` (or shorter if the resolution terminates).
    The list is shared by every caller with equal arguments: read it,
    never change it."""
    out = []
    cur = m
    inc = None  # inclusion of the current module into the last P_i
    for i in range(length + 1):
        if cur.dim == 0:
            break
        p, f, _, ker, nxt = _cover_kernel(cur)
        if inc is not None:
            f = ModuleMap(p, inc.target, inc.matrix @ f.matrix)
        out.append((p, f))
        cur, inc = ker, nxt
    return out


def ext_dim(m: Module, n: Module, i: int) -> int:
    """dim Ext^i(m, n), computed from the minimal projective resolution
    of m: Ext^i = ker Hom(d_{i+1}) / im Hom(d_i)."""
    if i < 0:
        raise ValueError("Ext degree must be nonnegative")
    if m.dim == 0 or n.dim == 0:
        return 0
    if i == 0:
        return len(hom(m, n))
    res = minimal_projective_resolution(m, i + 1)
    if len(res) <= i:
        return 0
    p_i, d_i = res[i]  # d_i: P_i -> P_{i-1}
    homs_i = hom(p_i, n)
    if not homs_i:
        return 0
    # Hom(d_i): Hom(P_{i-1}, N) -> Hom(P_i, N), g -> g o d_i
    img = hom_coords(p_i, n, [g.matrix @ d_i.matrix
                              for g in hom(res[i - 1][0], n)])
    ker_dim = len(homs_i)
    if len(res) > i + 1:
        # kernel of Hom(d_{i+1}): h -> h o d_{i+1}
        p_next, d_next = res[i + 1]
        ker_dim -= hom_coords(p_next, n, [h.matrix @ d_next.matrix
                                          for h in homs_i]).rank()
    return ker_dim - img.rank()


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


def proj_dim(m: Module, bound: int | None = None) -> TriState:
    """Projective dimension as a TriState: value = pd, the number of
    non-empty layers of _syzygy_layers.  No (infinite) when a non-empty
    layer k >= the number of classes: a walk of k Omega steps to it
    meets some class twice, so that class lies on a cycle."""
    if bound is None:
        bound = 2 * m.algebra.dim + 2
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
    through the natural identifications (Lambda e_i)* = e_i Lambda.

    Returns g: Q0 -> Q1 over the opposite algebra, where Q_j is the sum
    of opposite projectives matching the idempotent indices."""
    a = f1.source.algebra
    op = a.opposite()
    op_projs = projective_modules(op)
    f = a.field

    def build(idx):
        s, incls, projs = direct_sum(op, [op_projs[i] for i in idx])
        return s, (incls, projs)

    q0, q0maps = build(p0_idx)
    q1, q1maps = build(p1_idx)
    # (Lambda e_i)* = e_i Lambda = Lambda^op e_i as left op-modules;
    # Hom(f1, -) acts by precomposition, i.e. right multiplication by
    # the matrix of f1 over the algebra.  Extract that matrix blockwise.
    lam0 = _map_to_algebra_matrix(f1, p1_idx, p0_idx)
    # entry (r, c) of lam0 is x in e_{idx1[c]} Lambda e_{idx0[r]}:
    # the component P_{idx1[c]} -> P_{idx0[r]} is y -> y.x.  The starred
    # map has (c, r) component e_{idx0[r]} Lambda -> e_{idx1[c]} Lambda,
    # u -> x.u (a left op-module map).
    mat = Matrix(f, q1.dim, q0.dim)
    q0incls, q0projs = q0maps
    q1incls, q1projs = q1maps
    for r in range(len(p0_idx)):
        for c in range(len(p1_idx)):
            elem = lam0[r][c]
            if elem is None:
                continue
            # component: e_{idx0[r]} Lambda -> e_{idx1[c]} Lambda,
            # x -> elem . x in the opposite algebra
            src_p = op_projs[p0_idx[r]]
            tgt_p = op_projs[p1_idx[c]]
            emb_s = _proj_embedding(op, p0_idx[r])
            emb_t = _proj_embedding(op, p1_idx[c])
            cols = []
            for j in range(src_p.dim):
                u = emb_s.col(j)
                prod = a.product(elem, u)
                sol = emb_t.solve(prod)
                if sol is None:
                    raise ModuleError("starred component escapes the target")
                cols.append(sol)
            comp = Matrix.from_cols(f, cols, nrows=tgt_p.dim)
            block = q1incls[c].matrix @ comp @ q0projs[r].matrix
            mat = mat + block
    return ModuleMap(q0, q1, mat)


def _map_to_algebra_matrix(f1: ModuleMap, p1_idx, p0_idx):
    """Matrix of algebra elements for a map between sums of projectives.

    Component (r, c): the image in P_{p0_idx[r]} of the idempotent
    generator of P_{p1_idx[c]}, as an algebra element (right
    multiplication by it realises the component)."""
    a = f1.source.algebra
    f = a.field
    p1 = f1.source
    p0 = f1.target
    projs = projective_modules(a)
    # summand inclusions/projections were built by direct_sum in
    # projective_cover; rebuild coordinates from the block layout
    out = []
    off0 = _summand_offsets(projs, p0_idx)
    off1 = _summand_offsets(projs, p1_idx)
    raw1 = p1.to_raw()
    raw0 = p0.from_raw_matrix()
    m_raw = p0.to_raw() @ f1.matrix @ p1.from_raw_matrix()
    for r in range(len(p0_idx)):
        row = []
        for c in range(len(p1_idx)):
            # generator of summand c: the idempotent e inside P_{idx}
            i1 = p1_idx[c]
            emb1 = _proj_embedding(a, i1)
            gen_local = emb1.solve(a.idempotents[i1])
            if gen_local is None:
                raise ModuleError("idempotent missing from its projective")
            src = projs[i1]
            vec = [f.zero()] * p1.dim
            for k in range(src.dim):
                vec[off1[c] + k] = gen_local[k]
            img = m_raw.mul_vec(vec)
            # restrict to summand r and express as an algebra element
            i0 = p0_idx[r]
            tgt = projs[i0]
            local = img[off0[r]: off0[r] + tgt.dim]
            if all(not x for x in local):
                row.append(None)
                continue
            emb0 = _proj_embedding(a, i0)
            elem = emb0.mul_vec(local)
            row.append(elem)
        out.append(row)
    return out


def _summand_offsets(projs, idx):
    offs = []
    off = 0
    for i in idx:
        offs.append(off)
        off += projs[i].dim
    return offs


def transpose_Tr(m: Module) -> Module:
    """Auslander-Bridger transpose: the cokernel of Hom(f1, regular) on
    the minimal presentation, a module over the opposite algebra.  It
    has no projective summand, and Tr(X + P) = Tr X for P projective
    (Auslander-Reiten-Smalo, Representation Theory of Artin Algebras,
    IV.1)."""
    pres = minimal_projective_presentation(m)
    if pres.p1.dim == 0:
        return zero_module(m.algebra.opposite())
    g = star_of_projective_map(pres.f1, pres.p1_idx, pres.p0_idx)
    return g.cokernel()[0]


def tau(m: Module) -> Module:
    """Auslander-Reiten translate D Tr m; projective summands of m
    vanish in Tr (ARS IV.1)."""
    return dual_D(transpose_Tr(m))


def tau_inverse(m: Module) -> Module:
    """Tr D m; injective summands of m vanish, since D of an injective
    is projective over the opposite algebra (ARS IV.1)."""
    return transpose_Tr(dual_D(m))


def is_tau_rigid(m: Module) -> bool:
    """Hom(m, tau m) = 0."""
    if m.dim == 0:
        return True
    t = tau(m)
    if t.dim == 0:
        return True
    return len(hom(m, t)) == 0


def global_dimension(algebra, bound=None) -> TriState:
    """Global dimension = max pd over the simples."""
    from .module import simple_modules

    if bound is None:
        bound = 2 * algebra.dim + 2
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
