"""Homological calculus built on minimal projective presentations.

Everything bounded (projective or injective dimension, vanishing of Ext
in all positive degrees) is reported as a TriState.  Infinite dimensions
are certified through syzygy periodicity: once a syzygy repeats up to
isomorphism the resolution cycles forever.
"""

from __future__ import annotations

from .linalg import Matrix
from .memo import memo
from .module import (
    Module,
    ModuleMap,
    ModuleError,
    direct_sum,
    dual_D,
    hom,
    hom_coords,
    is_isomorphic,
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
def minimal_projective_presentation(m: Module) -> Presentation:
    a = m.algebra
    p0, f0, idx0 = projective_cover(m)
    if m.dim == 0:
        z = zero_module(a)
        return Presentation(
            m, z, ModuleMap(z, m, Matrix(m.field, 0, 0)),
            z, ModuleMap(z, z, Matrix(m.field, 0, 0)), [], []
        )
    ker, inc = f0.kernel()
    p1, g, idx1 = projective_cover(ker)
    f1 = ModuleMap(p1, p0, inc.matrix @ g.matrix)
    return Presentation(m, p0, f0, p1, f1, idx0, idx1)


def syzygy(m: Module, k: int = 1, strip=True):
    """Omega^k m.  Omega^0 strips projective summands; each step takes
    the kernel of the projective cover (stripped by the minimal-syzygy
    convention unless strip=False)."""
    if k < 0:
        raise ValueError("syzygy degree must be nonnegative")
    cur = strip_projectives(m) if strip else m
    for _ in range(k):
        if cur.dim == 0:
            return zero_module(m.algebra)
        _, f0, _ = projective_cover(cur)
        ker, _ = f0.kernel()
        cur = strip_projectives(ker) if strip else ker
    return cur


def cosyzygy(m: Module, k: int = 1, strip=True):
    """Omega^{-k} m: cokernels of injective envelopes, via duality."""
    op_syz = syzygy(dual_D(m), k, strip=strip)
    return dual_D(op_syz)


def minimal_projective_resolution(m: Module, length: int):
    """[(P_i, d_i)] with d_0 : P_0 -> M and d_i : P_i -> P_{i-1},
    up to index `length` (or shorter if the resolution terminates)."""
    out = []
    cur = m
    prev_cover = None
    for i in range(length + 1):
        if cur.dim == 0:
            break
        p, f, _ = projective_cover(cur)
        if prev_cover is None:
            out.append((p, f))
        else:
            ker, inc = prev_cover
            out.append((p, ModuleMap(p, inc.target, inc.matrix @ f.matrix)))
        ker, inc = f.kernel()
        prev_cover = (ker, ModuleMap(ker, p, inc.matrix))
        cur = ker
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


def ext_vanishes_all_positive(m: Module, n: Module, bound: int) -> TriState:
    """Does Ext^i(m, n) = 0 for all i >= 1?  Certified-yes when the
    resolution of m terminates or its syzygies become periodic within
    the bound; certified-no with the first nonzero degree as witness."""
    if m.dim == 0 or n.dim == 0:
        return yes("zero module", bound=bound)
    cur = m
    seen = []
    for i in range(1, bound + 1):
        d = ext_dim(cur, n, 1)
        if d:
            return no(
                "Ext^%d has dimension %d" % (i, d), bound=bound, witness=i,
                value=d,
            )
        nxt = syzygy(cur)
        if nxt.dim == 0:
            return yes("resolution terminates at step %d" % i, bound=bound)
        for j, old in enumerate(seen):
            if is_isomorphic(nxt, old):
                return yes(
                    "syzygies periodic (Omega^%d matches Omega^%d)"
                    % (i, j), bound=bound,
                )
        seen.append(nxt)
        cur = nxt
    return unknown("Ext vanishing unresolved within bound", bound=bound)


def proj_dim(m: Module, bound: int | None = None) -> TriState:
    """Projective dimension as a TriState: value = pd when finite;
    certified-no means certified infinite (syzygy periodicity)."""
    if bound is None:
        bound = 2 * m.algebra.dim + 2
    if m.dim == 0:
        return yes("zero module", bound=bound, value=0)
    if is_projective(m):
        return yes("projective", bound=bound, value=0)
    cur = m
    seen = [m]
    for k in range(1, bound + 1):
        cur = syzygy(cur)
        if cur.dim == 0:
            return yes("syzygy vanishes", bound=bound, value=k)
        for j, old in enumerate(seen):
            if is_isomorphic(cur, old):
                return no(
                    "infinite: Omega^%d isomorphic to Omega^%d" % (k, j),
                    bound=bound, witness=(j, k),
                )
        seen.append(cur)
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
    """Hom(f1, regular) for a map between projectives, expressed through
    the natural identifications (Lambda e_i)* = e_i Lambda.

    Returns (Q0, Q1, g: Q0 -> Q1) over the opposite algebra, where Q_j
    is the sum of opposite projectives matching the idempotent indices."""
    a = f1.source.algebra
    op = a.opposite()
    op_projs = projective_modules(op)
    f = a.field

    def build(idx):
        if not idx:
            return zero_module(op), []
        mods = [op_projs[i] for i in idx]
        s, incls, projs = direct_sum(op, mods)
        return s, (incls, projs)

    q0, q0maps = build(list(p0_idx))
    q1, q1maps = build(list(p1_idx))
    if q0.dim == 0 or q1.dim == 0:
        return q0, q1, ModuleMap(q0, q1, Matrix(f, q1.dim, q0.dim))
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
            emb_s = _op_proj_embedding(op, p0_idx[r])
            emb_t = _op_proj_embedding(op, p1_idx[c])
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
    return q0, q1, ModuleMap(q0, q1, mat)


def _map_to_algebra_matrix(f1: ModuleMap, p1_idx, p0_idx):
    """Matrix of algebra elements for a map between sums of projectives.

    Component (r, c): the image in P_{p0_idx[r]} of the idempotent
    generator of P_{p1_idx[c]}, as an algebra element (right
    multiplication by it realises the component)."""
    a = f1.source.algebra
    f = a.field
    from .module import _proj_embedding

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


def _op_proj_embedding(op, i):
    from .module import _proj_embedding

    return _proj_embedding(op, i)


def transpose_Tr(m: Module) -> Module:
    """Auslander-Bridger transpose: coker of Hom(f1, regular), with
    projective summands stripped (the stable representative)."""
    a = m.algebra
    op = a.opposite()
    pres = minimal_projective_presentation(m)
    if pres.p1.dim == 0:
        return zero_module(op)
    q0, q1, g = star_of_projective_map(pres.f1, pres.p1_idx, pres.p0_idx)
    cok, _ = g.cokernel()
    return strip_projectives(cok)


def tau(m: Module) -> Module:
    """Auslander-Reiten translate: D Tr of the projective-free part."""
    mp = strip_projectives(m)
    if mp.dim == 0:
        return zero_module(m.algebra)
    tr = transpose_Tr(mp)
    out = dual_D(tr)
    if out.algebra is not m.algebra:
        raise ModuleError("opposite-of-opposite did not return to the algebra")
    return out


def tau_inverse(m: Module) -> Module:
    """Tr D of the injective-free part."""
    from .module import is_injective

    parts = [p for p in split_indecomposables(m) if not is_injective(p)]
    if not parts:
        return zero_module(m.algebra)
    mi = parts[0] if len(parts) == 1 else direct_sum(m.algebra, parts)[0]
    d = dual_D(mi)  # module over the opposite algebra
    return transpose_Tr(d)  # transpose returns to the original algebra


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
