"""Finite-dimensional basic algebras given by structure constants.

An Algebra carries its multiplication table, a complete set of primitive
orthogonal idempotents, and a radical basis.  Constructors: bound quiver
presentations, opposite, tensor product, the lower triangular matrix
algebra T2(A), plus named builders for the standard test battery.

Path composition is right-to-left (function order): the product ``b*a``
of arrows a: 1->2 and b: 2->3 is the path "first a, then b", written
``b.a`` in files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldSpec, QQ
from .linalg import Matrix
from .memo import memo


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Quiver:
    """Vertices and labeled arrows.  Loops and parallel arrows allowed."""

    vertices: tuple
    arrows: tuple  # of (name, source, target)

    def __post_init__(self):
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("arrow names must be unique")
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise AlgebraError("vertex labels must be unique")
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise AlgebraError("arrow %s has undeclared endpoint" % name)

    def vertex_index(self, v):
        return self.vertices.index(v)

    def arrow_index(self, name):
        for i, a in enumerate(self.arrows):
            if a[0] == name:
                return i
        raise AlgebraError("unknown arrow %r" % name)


@dataclass(frozen=True)
class Relation:
    """Linear combination of parallel paths, each of length >= 2.

    Each term is (coefficient, path) with the path a tuple of arrow
    names composed right-to-left.
    """

    terms: tuple  # of (coeff, tuple_of_arrow_names)

    def text(self, field: FieldSpec) -> str:
        """The relation in the `.alg` syntax, coefficients in the field:
        `b.a + -1*d.c`."""
        parts = []
        for coeff, names in self.terms:
            c = field.of(coeff)
            p = ".".join(names)
            parts.append(p if c == field.one() else "%s*%s" % (c, p))
        return " + ".join(parts)


class Algebra:
    """Basic finite-dimensional algebra with explicit idempotents.

    mult[i][j] is the coefficient vector of basis_i * basis_j.
    """

    def __init__(
        self,
        field: FieldSpec,
        basis_labels,
        mult,
        unit,
        idempotents,
        radical,
        provenance,
        validate=True,
    ):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.mult = [
            [[field.of(x) for x in vec] for vec in row] for row in mult
        ]
        self.unit = [field.of(x) for x in unit]
        self.idempotents = [[field.of(x) for x in e] for e in idempotents]
        self.radical = [[field.of(x) for x in r] for r in radical]
        self.provenance = provenance
        self.quiver_data = None  # set by bound_quiver_algebra
        # a two-way link (the opposite of the opposite is this object),
        # not a cache: memo could not point the opposite back here
        self._op = None
        self._cache = {}
        if validate:
            self.validate()

    # -- element arithmetic -------------------------------------------

    def zero_vec(self):
        return [self.field.zero()] * self.dim

    def product(self, x, y):
        out = self.zero_vec()
        for i, xi in enumerate(x):
            if not xi:
                continue
            mi = self.mult[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, m in enumerate(mi[j]):
                    if m:
                        out[k] += c * m
        p = self.field.p
        return [v % p for v in out] if p else out

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y on the basis."""
        cols = [self.product(x, self._basis_vec(j)) for j in range(self.dim)]
        return Matrix.from_cols(self.field, cols, nrows=self.dim)

    def right_mult_matrix(self, x):
        """Matrix of y -> y*x on the basis."""
        cols = [self.product(self._basis_vec(j), x) for j in range(self.dim)]
        return Matrix.from_cols(self.field, cols, nrows=self.dim)

    def _basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.field.one()
        return v

    @property
    def n_idempotents(self):
        return len(self.idempotents)

    # -- validation ----------------------------------------------------

    def validate(self):
        f = self.field
        # associativity on all basis triples
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mult[i][j]
                for k in range(self.dim):
                    lhs = self.product(ij, self._basis_vec(k))
                    rhs = self.product(self._basis_vec(i), self.mult[j][k])
                    if lhs != rhs:
                        raise AlgebraError(
                            "associativity fails on basis triple (%d,%d,%d)"
                            % (i, j, k)
                        )
        # unit
        for i in range(self.dim):
            b = self._basis_vec(i)
            if self.product(self.unit, b) != b or self.product(b, self.unit) != b:
                raise AlgebraError("unit axiom fails on basis element %d" % i)
        # idempotents: orthogonal, sum to 1
        s = self.zero_vec()
        for a, e in enumerate(self.idempotents):
            s = [f.of(x + y) for x, y in zip(s, e)]
            for b, e2 in enumerate(self.idempotents):
                p = self.product(e, e2)
                want = e if a == b else self.zero_vec()
                if p != want:
                    raise AlgebraError("idempotents %d,%d not orthogonal" % (a, b))
        if s != self.unit:
            raise AlgebraError("idempotents do not sum to the unit")
        # radical: spans a nilpotent ideal not meeting the idempotents
        J = Matrix.from_cols(f, self.radical, nrows=self.dim)
        if J.cols != J.rank():
            raise AlgebraError("radical basis is linearly dependent")
        for e in self.idempotents:
            if J.solve(e) is not None:
                raise AlgebraError("an idempotent lies in the radical")
        power = self.radical
        for _ in range(self.dim + 1):
            if not power:
                break
            nxt = []
            for x in power:
                for r in self.radical:
                    nxt.append(self.product(x, r))
            power_m = Matrix.from_cols(f, nxt, nrows=self.dim).image_basis()
            power = [power_m.col(j) for j in range(power_m.cols)]
        if power:
            raise AlgebraError("radical basis does not span a nilpotent ideal")
        # two-sided ideal check
        for r in self.radical:
            for i in range(self.dim):
                b = self._basis_vec(i)
                for prod in (self.product(b, r), self.product(r, b)):
                    if J.solve(prod) is None:
                        raise AlgebraError("radical is not a two-sided ideal")
        if self.dim - len(self.radical) < self.n_idempotents:
            raise AlgebraError("semisimple quotient smaller than idempotent count")
        if self.dim - len(self.radical) > self.n_idempotents:
            # projective covers and is_projective take every simple to be
            # one-dimensional: the algebra must be basic and split
            raise AlgebraError(
                "algebra/radical has dimension %d > %d idempotents; "
                "the algebra is not basic and split over this field"
                % (self.dim - len(self.radical), self.n_idempotents)
            )

    # -- derived data ---------------------------------------------------

    @memo
    def generators(self):
        """The idempotents plus radical basis vectors that complete rad^2
        to rad: a set that generates the algebra.

        validate makes dim A/rad the number of idempotents.  Their classes
        in A/rad are nonzero orthogonal idempotents, hence independent, so
        A = span(e_i) + rad.  The radical vectors chosen span a V with
        rad = V + rad^2, so rad^2 = V^2 + rad^3 and rad = V + V^2 + rad^3,
        and so on up to rad = V + V^2 + ... + V^(N-1) where rad^N = 0: the
        products of the generators span A."""
        f = self.field
        gens = list(self.idempotents)
        acc = Matrix.from_cols(f, [self.product(x, y) for x in self.radical
                                   for y in self.radical],
                               nrows=self.dim).image_basis()
        for r in self.radical:
            if acc.solve(r) is None:
                gens.append(r)
                acc = acc.hstack(Matrix.from_cols(f, [r], nrows=self.dim))
        return gens

    def opposite(self):
        """Opposite algebra; an involution (op of op is this object)."""
        if self._op is not None:
            return self._op
        mult = [
            [self.mult[j][i] for j in range(self.dim)] for i in range(self.dim)
        ]
        op = Algebra(
            self.field,
            self.basis_labels,
            mult,
            self.unit,
            self.idempotents,
            self.radical,
            "opposite",
            validate=False,
        )
        op._op = self
        self._op = op
        return op

    def __repr__(self):
        return "Algebra(dim=%d, %s, %r)" % (self.dim, self.provenance, self.field)


# -- bound quiver presentation ---------------------------------------------


def _enumerate_paths(q: Quiver, max_len: int):
    """Paths of length <= max_len as (source_index, arrows_tuple), arrows
    in right-to-left order.  Returned sorted by (length, source, arrows)."""
    nv = len(q.vertices)
    src = [q.vertex_index(a[1]) for a in q.arrows]
    tgt = [q.vertex_index(a[2]) for a in q.arrows]
    paths = [(v, ()) for v in range(nv)]
    layer = paths[:]
    for _ in range(max_len):
        nxt = []
        for s, arrows in layer:
            end = tgt[arrows[0]] if arrows else s
            for ai in range(len(q.arrows)):
                if src[ai] == end:
                    nxt.append((s, (ai,) + arrows))
        paths.extend(nxt)
        layer = nxt
        if not layer:
            break
    paths.sort(key=lambda p: (len(p[1]), p[0], p[1]))
    return paths, src, tgt


def _path_label(q: Quiver, path):
    s, arrows = path
    if not arrows:
        return "e_%s" % (q.vertices[s],)
    return ".".join(q.arrows[a][0] for a in arrows)


def bound_quiver_algebra(
    q: Quiver, rels, nilpotency_bound: int, field: FieldSpec = QQ
) -> Algebra:
    """Path algebra of q modulo the relations, computed degreewise with
    truncation at the given nilpotency bound.

    Errors if a normal-form path of length exactly nilpotency_bound
    survives the relation ideal: then the ideal is not admissible within
    the bound and the caller must raise the bound or fix the relations.
    """
    if nilpotency_bound < 2:
        raise AlgebraError("nilpotency_bound must be >= 2")
    B = nilpotency_bound
    paths, src, tgt = _enumerate_paths(q, B)
    index = {p: i for i, p in enumerate(paths)}
    n = len(paths)
    f = field

    def path_target(p):
        s, arrows = p
        return tgt[arrows[0]] if arrows else s

    def rel_vector(rel: Relation):
        v = [f.zero()] * n
        sig = None
        for coeff, names in rel.terms:
            coeff = f.of(coeff)
            if not coeff:
                raise AlgebraError("relation term with zero coefficient")
            if len(names) < 2:
                raise AlgebraError(
                    "non-admissible relation: path %r has length < 2" % (names,)
                )
            arrows = tuple(q.arrow_index(nm) for nm in names)
            for k in range(len(arrows) - 1):
                if src[arrows[k]] != tgt[arrows[k + 1]]:
                    raise AlgebraError("relation path %r is not composable" % (names,))
            p = (src[arrows[-1]], arrows)
            this_sig = (p[0], path_target(p))
            if sig is None:
                sig = this_sig
            elif sig != this_sig:
                raise AlgebraError("relation terms are not parallel paths")
            if len(arrows) > B:
                continue  # already zero at this bound
            v[index[p]] = f.of(v[index[p]] + coeff)
        return v

    # two-sided ideal closure under arrow multiplication, products of
    # length > B dropped
    ideal = [rel_vector(r) for r in rels]
    queue = list(ideal)
    span = Matrix.from_cols(f, ideal, nrows=n).image_basis() if ideal else Matrix(
        f, n, 0
    )
    while queue:
        v = queue.pop()
        for ai in range(len(q.arrows)):
            left = [f.zero()] * n
            right = [f.zero()] * n
            for pi, c in enumerate(v):
                if not c:
                    continue
                s, arrows = paths[pi]
                if len(arrows) + 1 <= B:
                    end = tgt[arrows[0]] if arrows else s
                    if src[ai] == end:
                        np = (s, (ai,) + arrows)
                        left[index[np]] = left[index[np]] + c
                    if tgt[ai] == s:
                        np = (src[ai], arrows + (ai,))
                        right[index[np]] = right[index[np]] + c
            for w in (left, right):
                if any(w) and span.solve(w) is None:
                    span = span.hstack(Matrix.from_cols(f, [w], nrows=n))
                    span = span.image_basis()
                    queue.append(w)

    # normal-form basis = non-pivot paths of the ideal row space
    rowspace = Matrix.from_rows(
        f, [[span.data[i][j] for i in range(n)] for j in range(span.cols)]
    ) if span.cols else Matrix(f, 0, n)
    R, pivots = rowspace.rref()
    pivset = set(pivots)
    basis_paths = [i for i in range(n) if i not in pivset]
    for i in basis_paths:
        if len(paths[i][1]) >= B:
            raise AlgebraError(
                "path %r of length %d survives the relation ideal at the "
                "nilpotency bound %d; raise the bound or fix the relations"
                % (_path_label(q, paths[i]), len(paths[i][1]), B)
            )
    reindex = {pi: k for k, pi in enumerate(basis_paths)}

    def reduce_path_vec(v):
        """Reduce a path-space vector to normal-form coordinates."""
        v = v[:]
        for r, pc in enumerate(pivots):
            c = v[pc]
            if c:
                for j in range(n):
                    if R.data[r][j]:
                        v[j] = f.of(v[j] - c * R.data[r][j])
        return [v[pi] for pi in basis_paths]

    dim = len(basis_paths)
    mult = []
    for i in basis_paths:
        si, ai = paths[i]
        row = []
        ti = path_target(paths[i])
        for j in basis_paths:
            sj, aj = paths[j]
            tj = path_target(paths[j])
            # product path_i * path_j = path_i o path_j (first j, then i)
            if si != tj or len(ai) + len(aj) > B:
                row.append([f.zero()] * dim)
                continue
            concat = (sj, ai + aj)
            v = [f.zero()] * n
            v[index[concat]] = f.one()
            row.append(reduce_path_vec(v))
        mult.append(row)

    nv = len(q.vertices)
    unit = [f.zero()] * dim
    idem = []
    for v in range(nv):
        pi = index[(v, ())]
        k = reindex[pi]
        e = [f.zero()] * dim
        e[k] = f.one()
        idem.append(e)
        unit[k] = f.one()
    radical = []
    for k, pi in enumerate(basis_paths):
        if paths[pi][1]:
            r = [f.zero()] * dim
            r[k] = f.one()
            radical.append(r)

    labels = [_path_label(q, paths[pi]) for pi in basis_paths]
    alg = Algebra(f, labels, mult, unit, idem, radical, "quiver-presented")
    alg.quiver_data = {
        "quiver": q,
        "relations": list(rels),
        "nilpotency_bound": B,
        "paths": [paths[pi] for pi in basis_paths],
        "arrow_basis_index": {
            q.arrows[ai][0]: reindex[index[(src[ai], (ai,))]]
            for ai in range(len(q.arrows))
            if index[(src[ai], (ai,))] in reindex
        },
    }
    return alg


# -- tensor and T2 constructions --------------------------------------------


def tensor(a: Algebra, b: Algebra) -> Algebra:
    """Tensor product algebra; basis = pairs (a_i, b_j), row-major."""
    if a.field != b.field:
        raise AlgebraError("tensor factors must share a field")
    f = a.field
    da, db = a.dim, b.dim
    dim = da * db

    def pair(i, j):
        return i * db + j

    def kron_vec(u, v):
        out = [f.zero()] * dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if vj:
                    out[pair(i, j)] = f.of(ui * vj)
        return out

    mult = [[None] * dim for _ in range(dim)]
    for i1 in range(da):
        for j1 in range(db):
            for i2 in range(da):
                for j2 in range(db):
                    mult[pair(i1, j1)][pair(i2, j2)] = kron_vec(
                        a.mult[i1][i2], b.mult[j1][j2]
                    )
    unit = kron_vec(a.unit, b.unit)
    idem = [kron_vec(e, e2) for e in a.idempotents for e2 in b.idempotents]
    radical_vecs = []
    for r in a.radical:
        for j in range(db):
            radical_vecs.append(kron_vec(r, b._basis_vec(j)))
    for i in range(da):
        for r in b.radical:
            radical_vecs.append(kron_vec(a._basis_vec(i), r))
    rad_m = Matrix.from_cols(f, radical_vecs, nrows=dim).image_basis() if (
        radical_vecs
    ) else Matrix(f, dim, 0)
    radical = [rad_m.col(j) for j in range(rad_m.cols)]
    labels = [
        "%s(x)%s" % (la, lb) for la in a.basis_labels for lb in b.basis_labels
    ]
    alg = Algebra(f, labels, mult, unit, idem, radical, "tensor")
    # primitivity of the paired idempotents, via the module machinery
    from .module import projective_modules, is_indecomposable

    for k, p in enumerate(projective_modules(alg)):
        ok, enddim = is_indecomposable(p)
        if not ok:
            raise AlgebraError(
                "tensor idempotent %d is not primitive over this field" % k
            )
    return alg


@memo
def t2(a: Algebra) -> Algebra:
    """T_2(a) = [[A, 0], [A, A]]: lower triangular 2x2 matrices over a,
    with basis (r, m, s) blocks of a's basis each and product
    (r, m, s)(r', m', s') = (rr', m r' + s m', s s').  Built once per
    algebra."""
    f = a.field
    d = a.dim
    zero = [f.zero()] * d

    def emb(block, v):  # block 0, 1, 2 = r, m, s
        return zero * block + list(v) + zero * (2 - block)

    mult = [[zero * 3 for _ in range(3 * d)] for _ in range(3 * d)]
    for i in range(d):
        for j in range(d):
            v = a.mult[i][j]
            mult[i][j] = emb(0, v)  # r r'
            mult[d + i][j] = emb(1, v)  # m r'
            mult[2 * d + i][d + j] = emb(1, v)  # s m'
            mult[2 * d + i][2 * d + j] = emb(2, v)  # s s'
    unit = emb(0, a.unit)
    unit[2 * d:] = a.unit
    idem = [emb(b, e) for b in (0, 2) for e in a.idempotents]
    radical = (
        [emb(0, r) for r in a.radical]
        + [emb(1, a._basis_vec(i)) for i in range(d)]
        + [emb(2, r) for r in a.radical]
    )
    labels = (
        ["A:%s" % l for l in a.basis_labels]
        + ["M:%d" % i for i in range(d)]
        + ["B:%s" % l for l in a.basis_labels]
    )
    alg = Algebra(f, labels, mult, unit, idem, radical, "triangular")
    alg.t2_base = a
    return alg


# -- battery builders --------------------------------------------------------


def linear_a_n(n: int, field: FieldSpec = QQ) -> Algebra:
    """Path algebra of the linear quiver 1 -> 2 -> ... -> n."""
    if n < 1:
        raise AlgebraError("n must be >= 1")
    q = Quiver(
        tuple(range(1, n + 1)),
        tuple(("a%d" % i, i, i + 1) for i in range(1, n)),
    )
    return bound_quiver_algebra(q, [], n + 1, field)


def loop_algebra(n: int, field: FieldSpec = QQ) -> Algebra:
    """K[x]/(x^n) as the one-loop quiver algebra with the relation x^n."""
    if n < 2:
        raise AlgebraError("n must be >= 2")
    q = Quiver((1,), (("x", 1, 1),))
    rel = Relation(((1, ("x",) * n),))
    return bound_quiver_algebra(q, [rel], n, field)


def cyclic_nakayama(n: int, m: int, field: FieldSpec = QQ) -> Algebra:
    """Cyclic Nakayama algebra on n vertices with J^m = 0."""
    if n < 1 or m < 2:
        raise AlgebraError("need n >= 1 and m >= 2")
    if n == 1:
        return loop_algebra(m, field)
    q = Quiver(
        tuple(range(1, n + 1)),
        tuple(("a%d" % i, i, i % n + 1) for i in range(1, n + 1)),
    )
    rels = []
    for start in range(1, n + 1):
        names = []
        v = start
        for _ in range(m):
            names.append("a%d" % v)
            v = v % n + 1
        rels.append(Relation(((1, tuple(reversed(names))),)))
    return bound_quiver_algebra(q, rels, m, field)


def example_loop_flag_algebra(field: FieldSpec = QQ) -> Algebra:
    """Two vertices, a loop alpha at 1 with alpha^2 = 0, and beta: 1 -> 2.
    Dimension 5; 1-Gorenstein of infinite global dimension."""
    q = Quiver((1, 2), (("alpha", 1, 1), ("beta", 1, 2)))
    rel = Relation(((1, ("alpha", "alpha")),))
    return bound_quiver_algebra(q, [rel], 3, field)


def trivial_algebra(field: FieldSpec = QQ) -> Algebra:
    """The ground field as an algebra."""
    return linear_a_n(1, field)
