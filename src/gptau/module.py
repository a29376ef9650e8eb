"""Finite-dimensional left modules: Hom spaces, decomposition,
isomorphism testing, simples/projectives/injectives, duality, and the
triple form of modules over T2(A).

A Module is valid when its actions satisfy the structure constants
(Module.validate).  A quiver representation is checked on its arrows
instead: it is a module iff every relation and every path of length
nilpotency_bound act as zero (module_from_dimvector), which is the same
condition and costs no d x d product per pair of basis elements.

A Module stores one action matrix per algebra basis element, in a basis
adapted to the idempotent grading (coordinates grouped block by block,
with each idempotent acting as the coordinate projector of its block).
When every idempotent already acts as a diagonal 0/1 matrix (direct
sums, quiver representations, duals), that basis is a reordering of the
given coordinates.  Hom computations then only constrain the diagonal
blocks against the radical generators, which keeps the linear systems
small.  Every coordinate solve against a Hom basis goes through
hom_coords.  The algebras are basic (dim A/rad is the number of
idempotents), so the top of a module counts its projective cover's
summands and is_projective is a dimension count.  The top is read off
the idempotent blocks, one row reduction per block (_top_generators).
A sum of projectives P = sum of the P_i = A e_i is built once per
algebra and summand tuple (_projective_sum) and carries the coordinates
of its generators e_i (Module.summands).  Since Hom(A e_i, N) = e_i N,
a map out of P is given by the images of the generators
(_map_from_generators), and hom and hom_coords out of P read those
images instead of solving a linear system.

Two indecomposables are isomorphic iff they have the same dimension
vector and some element of the hom basis between them is invertible
(_iso_indecomposable proves this from Fitting's lemma).  is_isomorphic
decides arbitrary modules: an invertible basis element or one of three
seeded combinations certifies yes, and otherwise it matches the
Krull-Schmidt decompositions with the indecomposable rule.

Decomposition reads rad End(M) first (rad_end, exact over every field),
then takes deterministic Fitting and primary splits, in one order on
every field (_split_once).

Modules and maps are immutable.  Expensive results are memoised with
memo.memo on the object they are computed from; a module argument is
keyed by its content (Module.content_key), so hom(m, n) answers a fresh
copy of n from m's entry and the cache never holds n itself.  Hom out of
a _projective_sum is not memoised: that P lives as long as its algebra,
and one entry per partner n would pile up on it.
"""

from __future__ import annotations

import random
import warnings

from .algebra import Algebra
from .field import QQ
from .linalg import Matrix
from .memo import Keyed, memo

# the seed of the combinations that is_isomorphic draws; every result is
# reproducible run to run
DEFAULT_SEED = 20240915


class ModuleError(ValueError):
    pass


class Module(Keyed):
    # a sum of projectives built by _projective_sum: per summand k, the
    # tuple (i, the coordinates carrying its P_i in order, the coordinate
    # vector of its generator e_i); None for every other module
    summands = None

    def __init__(self, algebra: Algebra, actions, validate=True):
        """actions: one (d x d) Matrix per algebra basis element, in any
        basis; the constructor re-bases to idempotent-adapted coordinates."""
        self.algebra = algebra
        self._cache = {}
        self.dim = actions[0].rows if actions else 0
        if len(actions) != algebra.dim:
            raise ModuleError("need one action matrix per algebra basis element")
        f = algebra.field
        d = self.dim
        if d == 0:
            self.actions = [Matrix(f, 0, 0) for _ in range(algebra.dim)]
            self.blocks = [(0, 0)] * algebra.n_idempotents
            self._from_raw = None
            return
        # unit must act as identity
        unit_act = _combine(f, d, actions, algebra.unit)
        if unit_act != Matrix.identity(f, d):
            raise ModuleError("unit does not act as the identity")
        # adapted basis: group coordinates by idempotent blocks
        idem_acts = [_combine(f, d, actions, e) for e in algebra.idempotents]
        diagonal = _diagonal_blocks(idem_acts, d)
        if diagonal is not None:
            # each idempotent is a diagonal 0/1 matrix, so the adapted
            # basis is a reordering of the coordinates: U is a permutation
            perm, blocks = diagonal
            if perm == list(range(d)):
                self.actions = actions
                self._from_raw = None
            else:
                self.actions = [_permuted(f, a, perm) for a in actions]
                self._from_raw = Matrix(f, d, d)
                one = f.one()
                for i, p in enumerate(perm):
                    self._from_raw.data[i][p] = one
        else:
            cols = []
            blocks = []
            off = 0
            for pe in idem_acts:
                img = pe.image_basis()
                blocks.append((off, img.cols))
                off += img.cols
                for j in range(img.cols):
                    cols.append(img.col(j))
            if off != d:
                raise ModuleError("idempotent images do not decompose the module")
            U = Matrix.from_cols(f, cols, nrows=d)
            Uinv = U.inverse()
            if Uinv is None:
                raise ModuleError("idempotent images do not decompose the module")
            self.actions = [Uinv @ a @ U for a in actions]
            self._from_raw = Uinv
        self.blocks = blocks
        if validate:
            self.validate()

    # -- basics ----------------------------------------------------------

    @property
    def field(self):
        return self.algebra.field

    def dim_vector(self):
        return tuple(b[1] for b in self.blocks)

    @memo
    def to_raw(self):
        if self._from_raw is None:
            return Matrix.identity(self.field, self.dim)
        return self._from_raw.inverse()

    def from_raw_matrix(self):
        if self._from_raw is None:
            return Matrix.identity(self.field, self.dim)
        return self._from_raw

    def action_of(self, vec) -> Matrix:
        """Action matrix of an arbitrary algebra element."""
        return _combine(self.field, self.dim, self.actions, vec)

    @memo
    def generator_actions(self):
        return [self.action_of(g) for g in self.algebra.generators()]

    @memo
    def content_key(self):
        """(algebra, exact content), the key of this module as a memo
        argument.  The blocks fix the idempotents' actions (the block
        projectors), and with the other generators' actions they fix
        the module and all of hom.  A str, so its hash is computed once
        per module."""
        k0 = self.algebra.n_idempotents
        ents = [x for g in self.generator_actions()[k0:]
                for row in g.data for x in row]
        return self.algebra, repr((self.blocks, ents))

    def validate(self):
        a = self.algebra
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = self.actions[i] @ self.actions[j]
                rhs = self.action_of(a.mult[i][j])
                if lhs != rhs:
                    raise ModuleError(
                        "action violates structure constants on basis pair "
                        "(%s, %s)" % (a.basis_labels[i], a.basis_labels[j])
                    )

    def __repr__(self):
        return "Module(dim=%d, dv=%s over %r)" % (
            self.dim,
            self.dim_vector(),
            self.algebra,
        )


def _combine(f, d, actions, vec):
    """sum_k vec[k] * actions[k], accumulated in place over nonzero terms.
    Over GF(p) it is reduced once at the end, unless it is one action
    taken once (a structure constant that is a basis element)."""
    out = [[0] * d for _ in range(d)]
    terms = 0
    for c, m in zip(vec, actions):
        if not c:
            continue
        c = f.of(c)
        unit = c == 1
        terms += 1 if unit else 2  # a scaled term can leave [0, p)
        for orow, mrow in zip(out, m.data):
            for j, a in enumerate(mrow):
                if a:
                    t = a if unit else c * a
                    orow[j] = orow[j] + t if orow[j] else t
    p = f.p
    if p and terms > 1:
        out = [[x % p for x in row] for row in out]
    return Matrix._adopt(f, d, d, out)


def _diagonal_blocks(idem_acts, d):
    """(perm, blocks) when every idempotent acts as a diagonal 0/1 matrix
    and their supports partition the coordinates: perm lists the
    coordinates block by block, each block in increasing order, which is
    the basis image_basis would pick.  None otherwise."""
    perm = []
    blocks = []
    for pe in idem_acts:
        start = len(perm)
        for r, row in enumerate(pe.data):
            for c, x in enumerate(row):
                if x and (c != r or x != 1):
                    return None
            if row[r]:
                perm.append(r)
        blocks.append((start, len(perm) - start))
    if sorted(perm) != list(range(d)):
        return None
    return perm, blocks


def _place(big: Matrix, sub: Matrix, r0, c0):
    """big, with sub written into it (in place) at row r0, column c0."""
    for r, row in enumerate(sub.data):
        big.data[r0 + r][c0:c0 + sub.cols] = row
    return big


def _permuted(f, a: Matrix, perm):
    """P^-1 a P for the permutation matrix P with columns e_perm[i]."""
    rows = [[row[p] for p in perm] for row in (a.data[q] for q in perm)]
    return Matrix._adopt(f, a.rows, a.cols, rows)


class ModuleMap:
    """Intertwiner between modules over the same algebra."""

    def __init__(self, source: Module, target: Module, matrix: Matrix,
                 validate=False):
        if source.algebra is not target.algebra:
            raise ModuleError("source and target live over different algebras")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ModuleError("map matrix has the wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate:
            self.validate()

    def validate(self):
        for ga, gb in zip(
            self.source.generator_actions(), self.target.generator_actions()
        ):
            if self.matrix @ ga != gb @ self.matrix:
                raise ModuleError("map does not intertwine the actions")

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self o other."""
        if other.target is not self.source:
            raise ModuleError("composition target/source mismatch")
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    def is_isomorphism(self):
        return self.matrix.is_invertible()

    def kernel(self):
        return submodule(self.source, self.matrix.kernel_basis())

    def image(self):
        return submodule(self.target, self.matrix.image_basis())

    def cokernel(self):
        return quotient_module(self.target, self.matrix.image_basis())

    def is_zero(self):
        return self.matrix.is_zero()

    def __repr__(self):
        return "ModuleMap(%d -> %d)" % (self.source.dim, self.target.dim)


# -- constructions ------------------------------------------------------


def zero_module(algebra: Algebra) -> Module:
    return Module(algebra, [Matrix(algebra.field, 0, 0)] * algebra.dim,
                  validate=False)


@memo
def regular_module(algebra: Algebra) -> Module:
    """The algebra as a left module over itself."""
    acts = [
        algebra.left_mult_matrix(algebra._basis_vec(i))
        for i in range(algebra.dim)
    ]
    return Module(algebra, acts, validate=False)


def direct_sum(algebra: Algebra, mods):
    """Direct sum with inclusion and projection maps."""
    f = algebra.field
    total = sum(m.dim for m in mods)
    acts = []
    for i in range(algebra.dim):
        big = Matrix(f, total, total)
        off = 0
        for m in mods:
            _place(big, m.actions[i], off, off)
            off += m.dim
        acts.append(big)
    M = Module(algebra, acts, validate=False)
    fr = M.from_raw_matrix()
    to = M.to_raw()
    incls, projs = [], []
    off = 0
    for m in mods:
        inc = Matrix(f, total, m.dim)
        for r in range(m.dim):
            inc.data[off + r][r] = f.one()
        incls.append(ModuleMap(m, M, fr @ inc))
        prj = Matrix(f, m.dim, total)
        for r in range(m.dim):
            prj.data[r][off + r] = f.one()
        projs.append(ModuleMap(M, m, prj @ to))
        off += m.dim
    return M, incls, projs


def submodule(m: Module, basis: Matrix):
    """(S, inclusion) for an invariant subspace given by basis columns."""
    basis = basis.image_basis()
    if basis.cols == 0:
        S = zero_module(m.algebra)
        return S, ModuleMap(S, m, Matrix(m.field, m.dim, 0))
    acts = []
    for a in m.actions:
        x = basis.solve_matrix(a @ basis)
        if x is None:
            raise ModuleError("subspace is not invariant under the action")
        acts.append(x)
    S = Module(m.algebra, acts, validate=False)
    return S, ModuleMap(S, m, basis @ S.to_raw())


def quotient_module(m: Module, basis: Matrix):
    """(Q, projection) for the quotient by an invariant subspace."""
    f = m.field
    basis = basis.image_basis()
    k = basis.cols
    if k == m.dim:
        Q = zero_module(m.algebra)
        return Q, ModuleMap(m, Q, Matrix(f, 0, m.dim))
    full = basis.hstack(Matrix.identity(f, m.dim))
    _, pivots = full.rref()
    comp_cols = [p - k for p in pivots if p >= k]
    C = Matrix.from_cols(f, [[f.one() if i == c else f.zero()
                              for i in range(m.dim)] for c in comp_cols],
                         nrows=m.dim)
    BC = basis.hstack(C)
    BCinv = BC.inverse()
    proj_raw = Matrix.from_rows(f, BCinv.data[k:]) if m.dim - k else Matrix(
        f, 0, m.dim
    )
    acts = [proj_raw @ a @ C for a in m.actions]
    Q = Module(m.algebra, acts, validate=False)
    return Q, ModuleMap(m, Q, Q.from_raw_matrix() @ proj_raw)


# -- quiver-presented conversion -----------------------------------------


@memo
def _quiver_layout(algebra: Algebra):
    """(arrow names, (source, target) vertex indices per arrow, the
    arrows into each vertex, each relation as [(coefficient, path)]) of
    a quiver-presented algebra."""
    qd = algebra.quiver_data
    q = qd["quiver"]
    names = [a[0] for a in q.arrows]
    ends = [(q.vertex_index(s), q.vertex_index(t)) for _, s, t in q.arrows]
    into = [[k for k, (_, t) in enumerate(ends) if t == v]
            for v in range(len(q.vertices))]
    index = {name: k for k, name in enumerate(names)}
    rels = [[(algebra.field.of(c), tuple(index[nm] for nm in p))
             for c, p in rel.terms] for rel in qd["relations"]]
    return names, ends, into, rels


class _Representation:
    """Arrow matrices over a quiver-presented algebra, with the matrix of
    each path built once (a path is a tuple of arrow indices, rightmost
    first, as in quiver_data["paths"])."""

    def __init__(self, algebra: Algebra, dims, arrow_mats):
        if algebra.quiver_data is None:
            raise ModuleError("algebra has no quiver presentation")
        names, self.ends, self.into, self.rels = _quiver_layout(algebra)
        if len(dims) != len(self.into):
            raise ModuleError("dimension vector length mismatch")
        for name in arrow_mats:
            if name not in names:
                raise ModuleError("unknown arrow %r" % (name,))
        self.algebra = algebra
        self.dims = dims
        self.mats = []
        for name, (s, t) in zip(names, self.ends):
            mat = arrow_mats.get(name)
            if mat is None:
                mat = Matrix(algebra.field, dims[t], dims[s])
            elif mat.rows != dims[t] or mat.cols != dims[s]:
                raise ModuleError("arrow %s matrix must be %d x %d"
                                  % (name, dims[t], dims[s]))
            self.mats.append(mat)
        self._paths = {}

    def path(self, arrows):
        """The matrix of a path of length >= 1."""
        if len(arrows) == 1:
            return self.mats[arrows[0]]
        m = self._paths.get(arrows)
        if m is None:
            m = self._paths[arrows] = (self.mats[arrows[0]]
                                       @ self.path(arrows[1:]))
        return m

    def failure(self):
        """None when every relation and every path of length
        B = nilpotency_bound act as zero (module_from_dimvector says why
        that decides validity), else the first failed relation, or B.
        Relations are evaluated path by path.  The paths of length B can
        be exponentially many, so they are checked through spans:
        S_k(s, t) is the span of the actions of the paths of length k
        from s to t, and S_{k+1}(s, t) is spanned by a.X for the arrows
        a: u -> t and X in a spanning list of S_k(s, u).  A list longer
        than dim Hom(V_s, V_t) = d_s d_t is cut to a basis, so no list
        grows past (number of arrows) * d_s * d; zero products are
        dropped, and once every S_k(s, -) is zero so are the later ones."""
        qd = self.algebra.quiver_data
        f = self.algebra.field
        for rel, terms in zip(qd["relations"], self.rels):
            acc = None
            for c, arrows in terms:
                term = self.path(arrows)
                if c != 1:
                    term = term.scale(c)
                acc = term if acc is None else acc + term
            if not acc.is_zero():
                return rel
        B = qd["nilpotency_bound"]
        dims = self.dims
        for s in range(len(dims)):
            # S_1(s, t): the nonzero arrows s -> t
            span = {}
            for k, (u, t) in enumerate(self.ends):
                if u == s and not self.mats[k].is_zero():
                    span.setdefault(t, []).append(self.mats[k])
            for _ in range(B - 1):  # S_2, ..., S_B
                if not span:
                    break
                nxt = {}
                for t, arrows in enumerate(self.into):
                    gens = [g for k in arrows
                            for x in span.get(self.ends[k][0], ())
                            for g in (self.mats[k] @ x,) if not g.is_zero()]
                    if gens:
                        nxt[t] = _span_basis(f, gens, dims[s] * dims[t])
                span = nxt
            if span:
                return B

    def actions(self):
        """The action matrix of each basis path of the algebra, with no
        validity check."""
        f = self.algebra.field
        dims = self.dims
        total = sum(dims)
        offs = [sum(dims[:v]) for v in range(len(dims))]
        acts = []
        for s, arrows in self.algebra.quiver_data["paths"]:
            big = Matrix(f, total, total)
            if not arrows:
                one = f.one()
                for r in range(offs[s], offs[s] + dims[s]):
                    big.data[r][r] = one
            else:
                _place(big, self.path(arrows),
                       offs[self.ends[arrows[0]][1]], offs[s])
            acts.append(big)
        return acts


def _span_basis(f, mats, dim):
    """mats, or a basis of their span chosen among them when there are
    more than dim (the dimension of the space they live in)."""
    if len(mats) <= dim:
        return mats
    cols = Matrix._adopt(f, dim, len(mats), [list(r) for r in zip(
        *[[x for row in m.data for x in row] for m in mats])])
    return [mats[j] for j in cols.rref()[1]]


def module_from_dimvector(algebra: Algebra, dims, arrow_mats):
    """Module over a quiver-presented algebra from per-vertex dimensions
    and per-arrow matrices (matrix for a: i->j has shape d_j x d_i;
    omitted arrows act as 0).

    Validity is decided on the arrow matrices, before any d x d action
    is built.  A representation of Q is a module over kQ/J exactly when
    the ideal J acts as zero (Assem-Simson-Skowronski, Elements of the
    Representation Theory of Associative Algebras 1, Ch. III), and it
    does when its generators do.
    bound_quiver_algebra rejects an algebra in which a path of length
    B = nilpotency_bound survives, so the ideal it divides by is
    J = I + kQ_{>=B}, generated by the relations and the paths of length
    B (a longer path has a length-B factor).  So the arrow matrices
    define a module iff (1) every relation evaluates to 0 and (2) every
    path of length B acts as 0; _Representation.failure tests both, and
    the ModuleError names the failed relation or the path length.  The
    vertices and arrows are basis elements of the algebra (relations
    have length >= 2), so the actions of the basis paths built here
    then satisfy the structure constants: Module.validate accepts them,
    and rejects them when (1) or (2) fails."""
    rep = _Representation(algebra, dims, arrow_mats)
    bad = rep.failure()
    if bad is not None:
        raise ModuleError(
            "a path of length %d (the nilpotency bound) acts as nonzero"
            % bad if isinstance(bad, int) else
            "relation %s does not act as zero" % bad.text(algebra.field))
    return Module(algebra, rep.actions(), validate=False)


def module_to_dimvector(m: Module):
    """(dims, arrow matrices) for a module over a quiver-presented algebra."""
    qd = m.algebra.quiver_data
    if qd is None:
        raise ModuleError("algebra has no quiver presentation")
    q = qd["quiver"]
    dims = list(m.dim_vector())
    out = {}
    for name, bi in qd["arrow_basis_index"].items():
        a = m.actions[bi]
        si = q.vertex_index(q.arrows[q.arrow_index(name)][1])
        ti = q.vertex_index(q.arrows[q.arrow_index(name)][2])
        so, sd = m.blocks[si]
        to, td = m.blocks[ti]
        sub = Matrix(m.field, td, sd)
        for r in range(td):
            for c in range(sd):
                sub.data[r][c] = a.data[to + r][so + c]
        out[name] = sub
    return dims, out


# -- Hom spaces ----------------------------------------------------------


def hom(m: Module, n: Module):
    """Basis of Hom(m, n) as a list of ModuleMaps from m to n.

    Out of a sum of projectives built by _projective_sum it is read off
    the generators, since Hom(A e_i, n) = e_i n: one map per summand k
    and per coordinate c of block idx[k] of n, sending generator k to
    the unit vector e_c and the other generators to 0.  That basis is
    not memoised: P is shared by the whole algebra and would collect an
    entry per partner n.  Any other m takes one memoised kernel solve
    (_hom_matrices)."""
    if m.summands is None:
        return [ModuleMap(m, n, x) for x in _hom_matrices(m, n)]
    if m.algebra is not n.algebra:
        raise ModuleError("hom requires modules over the same algebra")
    out = []
    for k, (i, _, _) in enumerate(m.summands):
        off, d = n.blocks[i]
        for c in range(off, off + d):
            images = [[0] * n.dim for _ in m.summands]
            images[k][c] = 1
            out.append(ModuleMap(m, n, _generator_map(m, n, images)))
    return out


@memo
def _hom_matrices(m: Module, n: Module):
    """The matrices of a Hom(m, n) basis, from one kernel solve; memoised
    by the content of n, so a copy of n with equal content shares them."""
    if m.algebra is not n.algebra:
        raise ModuleError("hom requires modules over the same algebra")
    if m.dim == 0 or n.dim == 0:
        return []
    f = m.field
    mb = m.blocks
    nb = n.blocks
    # unknowns: diagonal blocks F_i : e_i m -> e_i n, row-major, at offsets[i]
    offsets = []
    u = 0
    for (_, md), (_, nd) in zip(mb, nb):
        offsets.append(u)
        u += md * nd
    if u == 0:
        return []
    # idempotent block of each coordinate
    mblock = [i for i, (_, d) in enumerate(mb) for _ in range(d)]
    nblock = [i for i, (_, d) in enumerate(nb) for _ in range(d)]
    # Per generator, one equation (F gm - gn F)[r, c] = 0 per pair (r, c)
    # that a nonzero entry reaches.  The idempotent generators come first
    # and act as coordinate projectors, so their equations vanish.
    zero = f.zero()
    p = f.p
    rows = []
    k0 = m.algebra.n_idempotents
    for gm, gn in zip(m.generator_actions()[k0:], n.generator_actions()[k0:]):
        eqs = {}
        # + F[r, k] gm[k, c] for r in block i of n, k in block i of m
        for k, grow in enumerate(gm.data):
            i = mblock[k]
            (mo, md), (no, nd) = mb[i], nb[i]
            base = offsets[i] + k - mo
            for c, v in enumerate(grow):
                if v:
                    for r in range(nd):
                        row = eqs.get((no + r, c))
                        if row is None:
                            row = eqs[(no + r, c)] = [zero] * u
                        idx = base + r * md
                        row[idx] = row[idx] + v if row[idx] else v
        # - gn[r, k] F[k, c] for k in block j of n, c in block j of m
        for r, grow in enumerate(gn.data):
            for k, v in enumerate(grow):
                if v:
                    j = nblock[k]
                    (mo, md), (no, nd) = mb[j], nb[j]
                    base = offsets[j] + (k - no) * md
                    for c in range(md):
                        row = eqs.get((r, mo + c))
                        if row is None:
                            row = eqs[(r, mo + c)] = [zero] * u
                        x = row[base + c]
                        row[base + c] = x - v if x else -v
        for row in eqs.values():
            if p:
                row = [x % p for x in row]
            if any(row):
                rows.append(row)
    # rows are reduced field elements; the RREF of their span is canonical,
    # so neither their order nor the rows that cancelled to 0 matter
    ker = Matrix._adopt(f, len(rows), u, rows).kernel_basis()
    out = []
    for j in range(ker.cols):
        x = ker.col(j)
        mat = Matrix(f, n.dim, m.dim)
        for i, ((mo, md), (no, nd)) in enumerate(zip(mb, nb)):
            for r in range(nd):
                mat.data[no + r][mo:mo + md] = x[offsets[i] + r * md:
                                                 offsets[i] + (r + 1) * md]
        out.append(mat)
    return out


def hom_dim(m: Module, n: Module) -> int:
    return len(hom(m, n))


def _flat(mat: Matrix):
    return [x for row in mat.data for x in row]


def hom_coords(m: Module, n: Module, mats) -> Matrix:
    """Coordinates of the m -> n matrices mats in the hom(m, n) basis,
    one column per map.  Out of a sum of projectives built by
    _projective_sum they are the block-idx[k] entries of the image of
    generator k, and the map rebuilt from them must be the matrix;
    otherwise one solve against the stacked basis.  Raises ModuleError
    when a matrix is not in Hom(m, n)."""
    if any(a.rows != n.dim or a.cols != m.dim for a in mats):
        raise ModuleError("map matrix has the wrong shape")
    if m.summands is None:
        stack = _hom_stack(m, n)
        x = stack.solve_matrix(Matrix.from_cols(
            m.field, [_flat(a) for a in mats], nrows=stack.rows))
        if x is None:
            raise ModuleError("matrix is not in Hom of the given modules")
        return x
    if m.algebra is not n.algebra:
        raise ModuleError("hom requires modules over the same algebra")
    cols = []
    for a in mats:
        images, coords = [], []
        for i, _, gen in m.summands:
            off, d = n.blocks[i]
            y = a.mul_vec(gen)
            coords += y[off:off + d]
            images.append([0] * off + y[off:off + d] + [0] * (n.dim - off - d))
        if _generator_map(m, n, images) != a:
            raise ModuleError("matrix is not in Hom of the given modules")
        cols.append(coords)
    return Matrix.from_cols(m.field, cols, nrows=sum(
        n.blocks[i][1] for i, _, _ in m.summands))


@memo
def _hom_stack(m: Module, n: Module) -> Matrix:
    """The hom(m, n) basis matrices, flattened, as the columns of one
    matrix (which keeps its RREF for the next solve)."""
    return Matrix.from_cols(m.field, [_flat(x) for x in _hom_matrices(m, n)],
                            nrows=n.dim * m.dim)


@memo
def rad_end(m: Module):
    """(radical coefficient vectors over the End basis, dim End/rad),
    exact over every field.

    I_0 is the kernel of the trace form (a, b) -> tr(ab) of the action
    on m.  Over the rationals, and over GF(p) with p > dim m, it is the
    radical.  For p <= dim m it can be larger (a summand whose dimension
    p divides loses its idempotent), and _small_prime_radical cuts it
    down to the radical."""
    ends = hom(m, m)
    k = len(ends)
    f = m.field
    # tr(AB) = sum of A[r][c] * B[c][r], over the nonzero entries of A
    nonzero = [
        [(r, c, x) for r, row in enumerate(e.matrix.data)
         for c, x in enumerate(row) if x]
        for e in ends
    ]
    gram = Matrix(f, k, k)
    for i in range(k):
        for j in range(i, k):
            b = ends[j].matrix.data
            t = f.zero()
            for r, c, x in nonzero[i]:
                y = b[c][r]
                if y:
                    t = t + x * y
            t = f.of(t)
            gram.data[i][j] = t
            gram.data[j][i] = t
    ker = gram.kernel_basis()
    rad = [ker.col(j) for j in range(ker.cols)]
    if f.p and rad and f.p <= m.dim:
        rad = _small_prime_radical(m, [e.matrix for e in ends], rad)
    return rad, k - len(rad)


def _small_prime_radical(m: Module, mats, rad):
    """rad End(m) over GF(p), p <= dim m, from I_0 = rad, the trace-form
    kernel, as coefficient vectors over the End basis mats.

    Cohen-Ivanyos-Wales ("Finding the radical of an algebra of linear
    transformations", J. Pure Appl. Algebra 117-118, 1997): for each
    q = p^i <= dim m, I_i is the set of a in I_{i-1} with
    tr(X^q)/q = 0 mod p for X the integer lift of ab, for every End basis
    element b.  That map is linear on I_{i-1}, q divides the trace there,
    and the last I_i is the radical.  Every endomorphism commutes with
    the idempotents, which project onto the blocks, so ab and X^q are
    block diagonal, and X^q is taken block by block where a and b are
    both nonzero."""
    f = m.field
    p = q = f.p

    def diagonal(x):
        out = {}
        for i, (o, d) in enumerate(m.blocks):
            blk = [r[o:o + d] for r in x.data[o:o + d]]
            if any(map(any, blk)):
                out[i] = Matrix._adopt(f, d, d, blk)
        return out

    ends_diag = [diagonal(x) for x in mats]
    while rad and q <= m.dim:
        # row s: tr(X^q)/q mod p for X the lift of a_s b, b in the End basis
        rows = []
        for a in rad:
            a_diag = diagonal(_combine(f, m.dim, mats, a))
            row = []
            for b_diag in ends_diag:
                t = 0
                for i, y in b_diag.items():
                    if i in a_diag:
                        xy = (a_diag[i] @ y).data
                        if any(map(any, xy)):
                            t += _power_trace(xy, q)
                if t % q:
                    raise ModuleError("lifted trace %d is not divisible by %d"
                                      % (t, q))
                row.append(t // q % p)
            rows.append(row)
        # I_i: the combinations sum c_s a_s that every b sends to 0
        cut = Matrix._adopt(f, len(mats), len(rad),
                            [list(col) for col in zip(*rows)]).kernel_basis()
        coords = list(zip(*rad))
        rad = [[sum(c * x for c, x in zip(col, xs)) % p for xs in coords]
               for col in map(cut.col, range(cut.cols))]
        q *= p
    return rad


def _power_trace(data, q):
    """tr(X^q), q >= 2, for the integer matrix X with rows data: X^h for
    h = q // 2 by square-and-multiply, then the trace of X^h X^(q - h)
    summed entry by entry without forming that last product."""
    x = y = Matrix._adopt(QQ, len(data), len(data), data)
    for bit in bin(q // 2)[3:]:
        y = y @ y
        if bit == "1":
            y = y @ x
    z = (y @ x if q % 2 else y).data
    return sum(a * z[c][r] for r, row in enumerate(y.data)
               for c, a in enumerate(row) if a)


# -- decomposition --------------------------------------------------------


def _fitting_split(m: Module, s: Matrix):
    """Try to split m along the Fitting decomposition of the
    endomorphism s.  Returns (kernel basis, image basis) or None."""
    p = s
    n = 1
    while n < m.dim:
        p = p @ p
        n *= 2
    ker = p.kernel_basis()
    if 0 < ker.cols < m.dim:
        return ker, p.image_basis()
    return None


def _min_poly(mat: Matrix):
    """Minimal polynomial coefficients (monic, low degree first)."""
    f = mat.field
    d = mat.rows
    powers = [Matrix.identity(f, d)]
    while True:
        stack = Matrix.from_cols(f, [_flat(p) for p in powers], nrows=d * d)
        nxt = powers[-1] @ mat
        sol = stack.solve(_flat(nxt))
        if sol is not None:
            return [f.of(-c) for c in sol] + [f.one()]
        powers.append(nxt)


def _min_poly_split_candidate(m: Module, s: Matrix, sdim: int):
    """A Fitting split along one primary component of s when its minimal
    polynomial has two distinct irreducible factors.  True when it is a
    power f^e of one irreducible f of degree sdim = dim End/rad: then the
    class of s in End/rad has minimal polynomial f^e' with e' deg f <= sdim,
    so e' = 1 and k[s] = k[t]/(f) is a field filling End/rad, End(m) is
    local and m is indecomposable.  None otherwise."""
    import sympy

    f = m.field
    coeffs = _min_poly(s)
    t = sympy.Symbol("t")
    if f.kind == "rationals":
        poly = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
            t,
        )
        factors = sympy.factor_list(poly)[1]
    else:
        # sorted by hand: sympy.factor_list's own sort compares modular
        # integers, which sympy deprecates
        poly = sympy.Poly(list(reversed(coeffs)), t, modulus=f.p)
        factors = sorted(poly.factor_list()[1], key=lambda fm: (
            fm[0].degree(), fm[1], [int(c) for c in fm[0].all_coeffs()]))
    if len(factors) < 2:
        return factors[0][0].degree() == sdim or None
    fac, mult = factors[0]
    fac_coeffs = [f.of(str(c)) for c in reversed(fac.all_coeffs())]
    g1 = Matrix(f, m.dim, m.dim)  # fac(s)
    p = Matrix.identity(f, m.dim)
    for c in fac_coeffs:
        if c:
            g1 = g1 + p.scale(c)
        p = p @ s
    g = g1
    for _ in range(mult - 1):
        g = g @ g1
    return _fitting_split(m, g)


def _split_candidates(ends):
    """Endomorphisms to try a Fitting split on, built one at a time: the
    End basis, then its pairwise sums."""
    for e in ends:
        yield e.matrix
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            yield ends[i].matrix + ends[j].matrix


def _split_once(m: Module):
    """One nontrivial direct-sum split of m, or None when m is found
    indecomposable; the same order on every field.

    rad_end is exact, so dim End/rad = 1 certifies m indecomposable
    before any candidate is built.  Otherwise the Fitting splits of the
    End basis and its pairwise sums come first, then the primary splits
    of lifts of an End/rad basis and of sums of two of them
    (_min_poly_split_candidate).  A lift whose minimal polynomial is a
    power of one irreducible of degree dim End/rad certifies that
    End/rad is a field, so m is indecomposable.  Only when none of these
    decides does None come with a warning."""
    ends = hom(m, m)
    if len(ends) <= 1:
        return None
    rad_coeffs, sdim = rad_end(m)
    if sdim == 1:
        return None
    idm = Matrix.identity(m.field, m.dim)
    for s in _split_candidates(ends):
        if s.is_zero() or (s - idm.scale(s.data[0][0])).is_zero():
            continue
        split = _fitting_split(m, s)
        if split:
            return split
    # lift a basis of End/rad: the End basis elements whose unit vectors
    # are pivots of [rad | I], and look at the minimal polynomials
    k, r = len(ends), len(rad_coeffs)
    _, pivots = Matrix.from_cols(m.field, rad_coeffs + [
        [int(i == j) for i in range(k)] for j in range(k)], nrows=k).rref()
    lifts = [ends[j - r].matrix for j in pivots if j >= r]
    pool = list(lifts)
    for i in range(len(lifts)):
        for j in range(i + 1, len(lifts)):
            for c in (1, 2, 3):
                pool.append(lifts[i] + lifts[j].scale(c))
    for s in pool:
        split = _min_poly_split_candidate(m, s, sdim)
        if split is True:
            return None
        if split:
            return split
    warnings.warn(
        "End/rad has dimension %d > 1 with no splitting found over %r; "
        "treating the module as indecomposable (it may split over a "
        "field extension)" % (sdim, m.field)
    )
    return None


def split_indecomposables(m: Module):
    """List of indecomposable summand modules (with repetitions)."""
    if m.dim == 0:
        return []
    split = _split_once(m)
    if split is None:
        return [m]
    out = []
    for basis in split:
        s, _ = submodule(m, basis)
        out.extend(split_indecomposables(s))
    return out


@memo
def decompose(m: Module):
    """Krull-Schmidt decomposition: list of (indecomposable, multiplicity)."""
    pieces = split_indecomposables(m)
    groups = []
    for p in pieces:
        for g in groups:
            if _iso_indecomposable(g[0], p):
                g[1] += 1
                break
        else:
            groups.append([p, 1])
    return [(g[0], g[1]) for g in groups]


def is_indecomposable(m: Module):
    """(bool, dim End/rad), with dim End/rad exact over every field
    (rad_end) and the bool from split_indecomposables."""
    if m.dim == 0:
        return False, 0
    parts = split_indecomposables(m)
    _, sdim = rad_end(m)
    return len(parts) == 1, sdim


def _iso_indecomposable(m: Module, n: Module) -> bool:
    """Isomorphism test for indecomposables: equal dimension vectors and
    an invertible element in the hom(m, n) basis.  Certified both ways.

    If phi: m -> n is an isomorphism, Hom(m, n) = phi End(m).  End(m) is
    local (Fitting's lemma), so the maps m -> n that are no isomorphism
    form phi rad End(m), a proper subspace; a basis of Hom(m, n) cannot
    lie inside it, so one of its elements is invertible.  The argument
    holds whether End/rad is the ground field or a larger division
    algebra."""
    if m.dim_vector() != n.dim_vector():
        return False
    if m is n:
        return True
    return any(h.matrix.is_invertible() for h in hom(m, n))


def is_isomorphic(m: Module, n: Module) -> bool:
    """Exact isomorphism test for arbitrary modules.

    An invertible map m -> n certifies yes: first the hom(m, n) basis
    elements, then 3 seeded combinations of them, a shortcut that
    spares most isomorphic sums their decomposition (nearly every hit
    comes at the first or second draw).  Failing that, the
    Krull-Schmidt decompositions are matched summand by summand with
    _iso_indecomposable, which certifies yes and no."""
    if m.algebra is not n.algebra:
        raise ModuleError("modules live over different algebras")
    if m is n:
        return True
    if m.dim_vector() != n.dim_vector():
        return False
    if m.dim == 0:
        return True
    mats = [h.matrix for h in hom(m, n)]
    if not mats:  # isomorphic nonzero modules have a nonzero Hom
        return False
    if any(mat.is_invertible() for mat in mats):
        return True
    rng = random.Random(DEFAULT_SEED)
    for _ in range(3):
        coeffs = [rng.randint(-4, 4) for _ in mats]
        if _combine(m.field, m.dim, mats, coeffs).is_invertible():
            return True
    dm = decompose(m)
    dn = decompose(n)
    if len(dm) != len(dn):
        return False
    used = [False] * len(dn)
    for p, mult in dm:
        for j, (q, mult2) in enumerate(dn):
            if not used[j] and mult == mult2 and _iso_indecomposable(p, q):
                used[j] = True
                break
        else:
            return False
    return True


# -- simples, projectives, injectives -------------------------------------


@memo
def projective_modules(algebra: Algebra):
    """Indecomposable projectives P_i = (algebra) e_i, in idempotent order."""
    reg = regular_module(algebra)
    out = []
    for e in algebra.idempotents:
        basis = algebra.right_mult_matrix(e).image_basis()
        basis = reg.from_raw_matrix() @ basis
        p, _ = submodule(reg, basis)
        out.append(p)
    return out


def radical_submodule(m: Module):
    """(rad m, inclusion): the subspace J.m."""
    f = m.field
    cols = Matrix(f, m.dim, 0)
    for r in m.algebra.radical:
        cols = cols.hstack(m.action_of(r))
    return submodule(m, cols.image_basis())


def top_of(m: Module):
    """(top = m/rad m, projection)."""
    rad, inc = radical_submodule(m)
    return quotient_module(m, inc.matrix)


@memo
def simple_modules(algebra: Algebra):
    return [top_of(p)[0] for p in projective_modules(algebra)]


@memo
def dual_D(m: Module) -> Module:
    """K-dual, a module over the opposite algebra (actions transposed)."""
    op = m.algebra.opposite()
    return Module(op, [a.transpose() for a in m.actions], validate=False)


@memo
def injective_modules(algebra: Algebra):
    """I_i = D((e_i) algebra), computed through the opposite algebra."""
    return [dual_D(p) for p in projective_modules(algebra.opposite())]


@memo
def _top_generators(m: Module):
    """[(i, c)]: the coordinates c of m whose unit vectors complete rad m
    to m, each with its block i, in coordinate order.

    rad m = J m is spanned by the columns of the radical basis' actions,
    and it is the sum of its blocks e_i rad m, since each e_i acts as the
    projector onto block i.  So one RREF of [block-i rows of those
    actions | I] per block picks the unit vectors of the block that lie
    outside e_i rad m plus the earlier ones: the pivots past the first
    part.  Their classes form a basis of e_i top m."""
    rad_acts = [m.action_of(r) for r in m.algebra.radical]
    k = m.dim * len(rad_acts)
    out = []
    for i, (off, d) in enumerate(m.blocks):
        rows = [[x for a in rad_acts for x in a.data[off + r]]
                + [int(c == r) for c in range(d)] for r in range(d)]
        _, pivots = Matrix._adopt(m.field, d, k + d, rows).rref()
        out.extend((i, off + p - k) for p in pivots if p >= k)
    return out


@memo
def _projective_sum(algebra: Algebra, idx) -> Module:
    """The sum P of the P_i = A e_i for i in the tuple idx, built once per
    algebra and idx and shared by every cover with these summands.
    P.summands gives per summand k (idx[k], the coordinates of P that
    carry P_{idx[k]}, the coordinates of its generator e_{idx[k]}).  The
    P_i are in adapted coordinates, so their sum is re-based by a
    permutation and each inclusion is a set of unit columns."""
    projs = projective_modules(algebra)
    P, incls, _ = direct_sum(algebra, [projs[i] for i in idx])
    summands = []
    for i, inc in zip(idx, incls):
        cols = [next(r for r in range(P.dim) if inc.matrix.data[r][j])
                for j in range(inc.matrix.cols)]
        gen = _proj_embedding(algebra, i).solve(algebra.idempotents[i])
        if gen is None:
            raise ModuleError("idempotent missing from its projective")
        summands.append((i, cols, inc.matrix.mul_vec(gen)))
    P.summands = tuple(summands)
    return P


def _generator_map(p: Module, n: Module, images) -> Matrix:
    """The matrix of the map from p, built by _projective_sum, to n that
    sends the generator of summand k to images[k], a vector of e_i n
    (Hom(A e_i, n) = e_i n, Auslander-Reiten-Smalo, Representation
    Theory of Artin Algebras, I.4): the basis element v of P_i, an
    algebra element, goes to v . images[k]."""
    mat = Matrix(n.field, n.dim, p.dim)
    for (i, cols, _), x in zip(p.summands, images):
        if any(x):
            # column b: b . x for the algebra basis b; then v . x on P_i,
            # written into the columns of P that carry P_i
            acts_x = Matrix.from_cols(n.field,
                                      [act.mul_vec(x) for act in n.actions],
                                      nrows=n.dim)
            for row, vrow in zip(mat.data,
                                 (acts_x @ _proj_embedding(n.algebra, i)).data):
                for c, v in zip(cols, vrow):
                    row[c] = v
    return mat


def _map_from_generators(n: Module, idx, gens):
    """The map from the sum of the P_i (i in idx) to n that sends the
    idempotent generator of summand k to gens[k], a vector of e_i n."""
    P = _projective_sum(n.algebra, tuple(idx))
    return ModuleMap(P, n, _generator_map(P, n, gens))


@memo
def projective_cover(m: Module):
    """(P, f: P -> m, summand idempotent indices).

    P has one summand P_i per top generator (i, c) of m, and f sends its
    generator to the unit vector e_c; f is surjective with superfluous
    kernel.  Memoised on m: read the result, never change it."""
    if m.dim == 0:
        P = _projective_sum(m.algebra, ())
        return P, ModuleMap(P, m, Matrix(m.field, 0, 0)), []
    tops = _top_generators(m)
    if not tops:
        raise ModuleError("nonzero module with zero top")
    idx = [i for i, _ in tops]
    fmap = _map_from_generators(
        m, idx, [[int(k == c) for k in range(m.dim)] for _, c in tops])
    if fmap.matrix.rank() != m.dim:
        raise ModuleError("projective cover is not surjective")
    return fmap.source, fmap, idx


@memo
def _proj_embedding(algebra: Algebra, i: int) -> Matrix:
    """Columns: the algebra elements forming the basis of P_i, matching
    the internal coordinates of projective_modules(algebra)[i]."""
    reg = regular_module(algebra)
    basis = algebra.right_mult_matrix(algebra.idempotents[i]).image_basis()
    p = projective_modules(algebra)[i]
    # submodule() was built from from_raw @ basis; its inclusion into
    # the regular module in raw coordinates recovers algebra elements
    adapted = reg.from_raw_matrix() @ basis
    inc = adapted @ p.to_raw()
    return reg.to_raw() @ inc


def is_projective(m: Module) -> bool:
    """m is projective iff its projective cover, one P_i per top
    generator, has the dimension of m.

    The algebra is basic: dim A/rad is the number of idempotents, so each
    simple S_i is one-dimensional (Algebra.validate raises AlgebraError
    on any other quotient dimension).  The cover maps onto m, so it is
    an isomorphism iff the dimensions agree."""
    projs = projective_modules(m.algebra)
    return sum(projs[i].dim for i, _ in _top_generators(m)) == m.dim


def strip_projectives(m: Module) -> Module:
    """Direct sum of the non-projective indecomposable summands."""
    if m.dim == 0:
        return m
    parts = [p for p in split_indecomposables(m) if not is_projective(p)]
    if not parts:
        return zero_module(m.algebra)
    if len(parts) == 1:
        return parts[0]
    return direct_sum(m.algebra, parts)[0]


# -- tensor modules --------------------------------------------------------


def tensor_module(m: Module, n: Module, tensor_algebra: Algebra) -> Module:
    """m (x) n over the tensor product algebra (Kronecker actions)."""
    if m.field != n.field:
        raise ModuleError("tensor factors must share a field")
    acts = []
    for i in range(m.algebra.dim):
        for j in range(n.algebra.dim):
            acts.append(m.actions[i].kron(n.actions[j]))
    if len(acts) != tensor_algebra.dim:
        raise ModuleError("algebra is not the tensor product of the factors")
    return Module(tensor_algebra, acts, validate=False)


# -- T2(A) module triples ---------------------------------------------------


def module_to_triple(m: Module):
    """Module over T2(A) -> (X, Y, phi: X -> Y), X and Y over A."""
    a = getattr(m.algebra, "t2_base", None)
    if a is None:
        raise ModuleError("algebra has no triangular provenance")
    f = m.field
    na = a.n_idempotents
    # X: blocks for the A-part idempotents, Y: for the B-part
    x_cols, y_cols = [], []
    for i, (off, d) in enumerate(m.blocks):
        cols = [
            [f.one() if r == off + k else f.zero() for r in range(m.dim)]
            for k in range(d)
        ]
        (x_cols if i < na else y_cols).extend(cols)
    Bx = Matrix.from_cols(f, x_cols, nrows=m.dim)
    By = Matrix.from_cols(f, y_cols, nrows=m.dim)
    # restrict the A-part and B-part actions
    x_acts, y_acts = [], []
    for i in range(a.dim):
        ax = Bx.solve_matrix(m.actions[i] @ Bx)  # action of (a_i, 0, 0)
        if ax is None:
            raise ModuleError("A-part of the module is not invariant")
        x_acts.append(ax)
        yb = By.solve_matrix(m.actions[2 * a.dim + i] @ By)
        if yb is None:
            raise ModuleError("B-part of the module is not invariant")
        y_acts.append(yb)
    X = Module(a, x_acts, validate=False)
    Y = Module(a, y_acts, validate=False)
    # phi = action of (0, 1_A, 0) restricted X -> Y
    unit_m = [f.zero()] * m.algebra.dim
    for i, c in enumerate(a.unit):
        unit_m[a.dim + i] = c
    phimat = m.action_of(unit_m) @ Bx
    phi_in_y = By.solve_matrix(phimat)
    if phi_in_y is None:
        raise ModuleError("middle action does not land in the B-part")
    phi = ModuleMap(X, Y, Y.from_raw_matrix() @ phi_in_y @ X.to_raw())
    return X, Y, phi


def module_from_triple(t2_algebra: Algebra, x: Module, y: Module,
                       phi: ModuleMap) -> Module:
    """(X, Y, phi: X -> Y) -> module over t2 of the common base algebra."""
    a = getattr(t2_algebra, "t2_base", None)
    if a is None:
        raise ModuleError("algebra has no triangular provenance")
    if x.algebra is not a or y.algebra is not a:
        raise ModuleError("triple parts must live over the base algebra")
    if phi.source is not x or phi.target is not y:
        raise ModuleError("phi must map X to Y")
    f = t2_algebra.field
    dx = x.dim
    total = dx + y.dim
    acts = []
    for i in range(a.dim):  # (a_i, 0, 0): (x, y) -> (a_i x, 0)
        acts.append(_place(Matrix(f, total, total), x.actions[i], 0, 0))
    for i in range(a.dim):  # (0, m_i, 0): (x, y) -> (0, phi(m_i x))
        acts.append(_place(Matrix(f, total, total), phi.matrix @ x.actions[i],
                           dx, 0))
    for i in range(a.dim):  # (0, 0, b_i): (x, y) -> (0, b_i y)
        acts.append(_place(Matrix(f, total, total), y.actions[i], dx, dx))
    return Module(t2_algebra, acts, validate=False)


def is_faithful(m: Module) -> bool:
    """No nonzero algebra element annihilates the module."""
    rep = Matrix.from_cols(m.field, [_flat(x) for x in m.actions],
                           nrows=m.dim * m.dim)
    return rep.kernel_basis().cols == 0
