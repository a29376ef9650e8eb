"""Text file formats for algebras and modules, DOT export, JSON reports.

One human-editable key-value format.  Lines are `keyword args...`;
blank lines and `#` comments are ignored.  Rationals are written as
"p/q" (or plain integers); matrices are written row by row with rows
separated by `;`.  Path composition in relation lines is right-to-left:
`b.a` means "first a, then b".

Algebra files (`.alg`) come in two kinds::

    kind quiver
    field QQ            # or: field GF 5
    vertices 1 2 3
    arrow a 1 2         # name source target
    arrow b 2 3
    relation b.a        # terms:  [coeff*]path  joined by +
    nilpotency 4        # optional; default 2*len(vertices)+2

    kind table
    field QQ
    basis e1 e2 x
    unit 1 1 0
    idempotent 1 0 0
    idempotent 0 1 0
    radical 0 0 1
    mult 0 0 : 1 0 0    # basis_i * basis_j coefficient vector
    ...                 # omitted products are zero

Module files (`.mod`), interpreted over a given algebra::

    kind quiver-module
    dims 1 1 0
    arrow a : 1         # matrix rows separated by ;  (omitted arrows act as 0)

    kind module
    dim 2
    action e1 : 1 0 ; 0 0     # one matrix per algebra basis label
    ...

A line of the other kind (`dim` or `action` in a quiver-module file,
`dims` or `arrow` in a module file) is a FormatError at its line.  A
quiver-module is checked on its arrow matrices: every relation of the
algebra and every path of length `nilpotency` must act as zero
(module.module_from_dimvector); the error names the failed relation.
A module file is checked against the structure constants:
basis_i basis_j must act as the product of the two actions
(Module.validate).

Sizes are refused before anything of that size is allocated, each with
a FormatError at the line that sets it: a `dims` line totalling more
than MAX_MODULE_DIM (the actions are square in the total), a `basis`
line longer than MAX_TABLE_BASIS (the table holds basis^3 entries), and
a quiver with more than MAX_PATHS paths up to the nilpotency bound
(every path is a coordinate of the presentation), counted layer by
layer without listing them and reported at the `nilpotency` line, or
at the `vertices` line when the bound is the default.
"""

from __future__ import annotations

import json

from .algebra import (
    Algebra,
    AlgebraError,
    Quiver,
    Relation,
    bound_quiver_algebra,
)
from .field import QQ, GF, FieldSpec
from .linalg import Matrix
from .module import Module, ModuleError, module_from_dimvector, module_to_dimvector
from .tristate import TriState

MAX_MODULE_DIM = 256  # total of a quiver-module dims line
MAX_TABLE_BASIS = 128  # basis elements of a table algebra
MAX_PATHS = 2000  # paths of a quiver up to its nilpotency bound


class FormatError(ValueError):
    def __init__(self, path, lineno, msg):
        super().__init__("%s:%s: %s" % (path, lineno, msg))
        self.path = path
        self.lineno = lineno


def _read_lines(path):
    """Yield (lineno, keyword, rest-of-line) for meaningful lines."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            yield lineno, parts[0], parts[1] if len(parts) > 1 else ""


def _parse_field(path, lineno, rest):
    toks = rest.split()
    if toks and toks[0] == "QQ":
        return QQ
    if len(toks) == 2 and toks[0] == "GF":
        try:
            return GF(int(toks[1]))
        except ValueError as exc:
            raise FormatError(path, lineno, str(exc))
    raise FormatError(path, lineno, "field must be 'QQ' or 'GF <prime>', got %r" % rest)


def _scalars(f: FieldSpec, toks, path, lineno):
    out = []
    for t in toks:
        try:
            out.append(f.of(t))
        except (ValueError, ZeroDivisionError, TypeError):
            raise FormatError(path, lineno, "bad scalar %r" % t)
    return out


def _naturals(rest, path, lineno, one=False):
    """The nonnegative integers on a line (exactly one of them when one
    is set), or a FormatError at lineno."""
    what = "one nonnegative integer" if one else "nonnegative integers"
    try:
        vals = [int(t) for t in rest.split()]
    except ValueError:
        vals = None
    if vals is None or any(v < 0 for v in vals) or (one and len(vals) != 1):
        raise FormatError(path, lineno, "expected %s, got %r" % (what, rest))
    return vals


def _parse_matrix(f: FieldSpec, rest, path, lineno):
    """Rows separated by ';', entries whitespace-separated."""
    rows = [r.split() for r in rest.split(";")]
    rows = [r for r in rows if r] or [[]]
    ncols = len(rows[0])
    data = []
    for r in rows:
        if len(r) != ncols:
            raise FormatError(path, lineno, "ragged matrix rows")
        data.append(_scalars(f, r, path, lineno))
    return Matrix._adopt(f, len(data), ncols, data)


def _format_scalar(x):
    return str(x)


def _format_matrix(m: Matrix):
    return " ; ".join(
        " ".join(_format_scalar(x) for x in row) for row in m.data
    )


# -- relations -------------------------------------------------------------


def _parse_relation(rest, path, lineno):
    terms = []
    for term in rest.split("+"):
        term = term.strip()
        if not term:
            raise FormatError(path, lineno, "empty relation term")
        if "*" in term:
            coeff, p = term.split("*", 1)
            coeff = coeff.strip()
        elif term.startswith("-"):
            coeff, p = "-1", term[1:]
        else:
            coeff, p = "1", term
        names = tuple(n.strip() for n in p.strip().split("."))
        if any(not n for n in names):
            raise FormatError(path, lineno, "malformed path in %r" % term)
        terms.append((coeff, names))
    return Relation(tuple(terms))


# -- algebra files -----------------------------------------------------------


def _path_count_over(nv, arrows, max_len, cap):
    """Do the paths of length <= max_len (the nv trivial ones included)
    number more than cap?  Counted by length, as the number of paths
    ending at each vertex, so no path is built; a count past cap stops
    it, and with no cycle the layers die out within nv steps."""
    ends = [1] * nv
    total = nv
    for _ in range(max_len):
        nxt = [0] * nv
        for s, t in arrows:
            nxt[t] += ends[s]
        ends = nxt
        total += sum(ends)
        if total > cap or not any(ends):
            break
    return total > cap


def parse_algebra_file(path) -> Algebra:
    kind = None
    field = QQ
    vertices = []
    arrows = []
    relations = []
    nilpotency = nilpotency_at = None
    basis = []
    unit = None
    idempotents = []
    radical = []
    mult_rows = {}
    for lineno, kw, rest in _read_lines(path):
        if kw == "kind":
            if rest not in ("quiver", "table"):
                raise FormatError(path, lineno, "kind must be 'quiver' or 'table'")
            kind = rest
        elif kw == "field":
            field = _parse_field(path, lineno, rest)
        elif kw == "vertices":
            vertices, vertices_at = rest.split(), lineno
        elif kw == "arrow":
            toks = rest.split()
            if len(toks) != 3:
                raise FormatError(path, lineno, "arrow needs: name source target")
            arrows.append((toks[0], toks[1], toks[2]))
        elif kw == "relation":
            relations.append((_parse_relation(rest, path, lineno), lineno))
        elif kw == "nilpotency":
            nilpotency = _naturals(rest, path, lineno, one=True)[0]
            nilpotency_at = lineno
        elif kw == "basis":
            basis = rest.split()
            if len(basis) > MAX_TABLE_BASIS:
                raise FormatError(path, lineno, "basis has %d elements, over "
                                  "the cap %d" % (len(basis), MAX_TABLE_BASIS))
        elif kw == "unit":
            unit = rest.split()
        elif kw == "idempotent":
            idempotents.append(rest.split())
        elif kw == "radical":
            radical.append(rest.split())
        elif kw == "mult":
            head, _, coeffs = rest.partition(":")
            ij = head.split()
            if len(ij) != 2:
                raise FormatError(path, lineno, "mult needs: i j : coefficients")
            mult_rows[(ij[0], ij[1])] = (coeffs.split(), lineno)
        else:
            raise FormatError(path, lineno, "unknown keyword %r" % kw)

    if kind == "quiver":
        if not vertices:
            raise FormatError(path, 0, "quiver algebra needs a vertices line")
        try:
            q = Quiver(tuple(vertices), tuple(arrows))
        except AlgebraError as exc:
            raise FormatError(path, 0, str(exc))
        if nilpotency is None:
            nilpotency, nilpotency_at = 2 * len(vertices) + 2, vertices_at
        if _path_count_over(len(vertices), [
                (q.vertex_index(s), q.vertex_index(t)) for _, s, t in arrows],
                nilpotency, MAX_PATHS):
            raise FormatError(path, nilpotency_at, "more than %d paths up to "
                              "the nilpotency bound %d" % (MAX_PATHS, nilpotency))
        rels = []
        for rel, lineno in relations:
            try:
                terms = tuple((field.of(c), p) for c, p in rel.terms)
            except (ValueError, ZeroDivisionError):
                raise FormatError(path, lineno, "bad relation coefficient")
            rels.append(Relation(terms))
        try:
            return bound_quiver_algebra(q, rels, nilpotency, field)
        except AlgebraError as exc:
            at = relations[0][1] if relations else 0
            raise FormatError(path, at, str(exc))
    if kind == "table":
        if not basis or unit is None or not idempotents:
            raise FormatError(
                path, 0, "table algebra needs basis, unit, and idempotent lines"
            )
        n = len(basis)
        index = {lbl: i for i, lbl in enumerate(basis)}

        def vec(toks, lineno):
            if len(toks) != n:
                raise FormatError(path, lineno, "expected %d coefficients" % n)
            return _scalars(field, toks, path, lineno)

        def basis_index(tok, lineno):
            if tok in index:
                return index[tok]
            try:
                i = int(tok)
            except ValueError:
                raise FormatError(path, lineno, "unknown basis label %r" % tok)
            if not 0 <= i < n:
                raise FormatError(path, lineno, "basis index %d out of range" % i)
            return i

        mult = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
        for (si, sj), (coeffs, lineno) in mult_rows.items():
            mult[basis_index(si, lineno)][basis_index(sj, lineno)] = vec(
                coeffs, lineno
            )
        try:
            return Algebra(
                field,
                basis,
                mult,
                vec(unit, 0),
                [vec(e, 0) for e in idempotents],
                [vec(r, 0) for r in radical],
                provenance="file:%s" % path,
            )
        except AlgebraError as exc:
            raise FormatError(path, 0, str(exc))
    raise FormatError(path, 0, "missing 'kind quiver' or 'kind table' line")


def write_algebra_file(a: Algebra, path):
    lines = []
    f = a.field
    lines.append("field %s" % ("QQ" if f.kind == "rationals" else "GF %d" % f.p))
    qd = a.quiver_data
    if qd is not None:
        q = qd["quiver"]
        lines.insert(0, "kind quiver")
        lines.append("vertices %s" % " ".join(str(v) for v in q.vertices))
        for name, s, t in q.arrows:
            lines.append("arrow %s %s %s" % (name, s, t))
        for rel in qd["relations"]:
            lines.append("relation %s" % rel.text(f))
        lines.append("nilpotency %d" % qd["nilpotency_bound"])
    else:
        lines.insert(0, "kind table")
        labels = [str(l) for l in a.basis_labels]
        if len(set(labels)) != len(labels) or any(" " in l for l in labels):
            labels = ["b%d" % i for i in range(a.dim)]
        lines.append("basis %s" % " ".join(labels))
        lines.append("unit %s" % " ".join(_format_scalar(x) for x in a.unit))
        for e in a.idempotents:
            lines.append("idempotent %s" % " ".join(_format_scalar(x) for x in e))
        for r in a.radical:
            lines.append("radical %s" % " ".join(_format_scalar(x) for x in r))
        for i in range(a.dim):
            for j in range(a.dim):
                row = a.mult[i][j]
                if any(row):
                    lines.append(
                        "mult %d %d : %s"
                        % (i, j, " ".join(_format_scalar(x) for x in row))
                    )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- module files ------------------------------------------------------------


def parse_module_file(path, algebra: Algebra) -> Module:
    kind = None
    dims = dims_at = None
    dim = None
    first = {}  # keyword -> line of its first use
    arrow_mats = []  # (name, lineno, matrix) in line order
    action_mats = []  # (label, lineno, matrix) in line order
    f = algebra.field
    for lineno, kw, rest in _read_lines(path):
        if kw == "kind":
            if rest not in ("quiver-module", "module"):
                raise FormatError(
                    path, lineno, "kind must be 'quiver-module' or 'module'"
                )
            kind = rest
        elif kw == "dims":
            dims, dims_at = _naturals(rest, path, lineno), lineno
            if sum(dims) > MAX_MODULE_DIM:
                raise FormatError(path, lineno, "dims total %d, over the cap %d"
                                  % (sum(dims), MAX_MODULE_DIM))
        elif kw == "dim":
            dim = _naturals(rest, path, lineno, one=True)[0]
        elif kw in ("arrow", "action"):
            name, _, body = rest.partition(":")
            (arrow_mats if kw == "arrow" else action_mats).append(
                (name.strip(), lineno, _parse_matrix(f, body, path, lineno)))
        else:
            raise FormatError(path, lineno, "unknown keyword %r" % kw)
        first.setdefault(kw, lineno)

    # a line of the other module kind would otherwise be ignored
    other = {"quiver-module": ("dim", "action"), "module": ("dims", "arrow")}
    stray = [(first[kw], kw) for kw in other.get(kind, ()) if kw in first]
    if stray:
        lineno, kw = min(stray)
        raise FormatError(path, lineno, "%r lines do not belong in a "
                          "'kind %s' file" % (kw, kind))
    if kind == "quiver-module":
        if algebra.quiver_data is None:
            raise FormatError(path, 0, "algebra has no quiver presentation")
        if dims is None:
            raise FormatError(path, 0, "quiver-module needs a dims line")
        q = algebra.quiver_data["quiver"]
        if len(dims) != len(q.vertices):
            raise FormatError(path, dims_at, "dims needs %d entries, got %d"
                              % (len(q.vertices), len(dims)))
        ends = {name: (q.vertex_index(s), q.vertex_index(t))
                for name, s, t in q.arrows}
        mats = {}
        for name, lineno, mat in arrow_mats:
            if name not in ends:
                raise FormatError(path, lineno, "unknown arrow %r" % name)
            if name in mats:
                raise FormatError(path, lineno, "repeated arrow %r" % name)
            s, t = ends[name]
            if (mat.rows, mat.cols) != (dims[t], dims[s]):
                raise FormatError(path, lineno, "arrow %s matrix must be %d x %d"
                                  % (name, dims[t], dims[s]))
            mats[name] = mat
        try:
            return module_from_dimvector(algebra, dims, mats)
        except (ModuleError, AlgebraError) as exc:
            raise FormatError(path, 0, str(exc))
    if kind == "module":
        if dim is None:
            raise FormatError(path, 0, "module needs a dim line")
        if dim == 0:
            return Module(algebra, [Matrix(f, 0, 0)] * algebra.dim)
        labels = [str(l) for l in algebra.basis_labels]
        index = {lbl: i for i, lbl in enumerate(labels)}
        acts = [None] * algebra.dim
        for label, lineno, mat in action_mats:
            if label in index:
                i = index[label]
            else:
                try:
                    i = int(label)
                except ValueError:
                    raise FormatError(path, lineno, "unknown basis label %r" % label)
                if not 0 <= i < algebra.dim:
                    raise FormatError(path, lineno, "basis index out of range")
            if acts[i] is not None:
                raise FormatError(path, lineno, "repeated action for basis element %r"
                                  % labels[i])
            if mat.rows != dim or mat.cols != dim:
                raise FormatError(path, lineno, "action matrix must be %d x %d" % (dim, dim))
            acts[i] = mat
        for i, mat in enumerate(acts):
            if mat is None:
                raise FormatError(
                    path, 0, "missing action for basis element %r" % labels[i]
                )
        try:
            return Module(algebra, acts)
        except (ModuleError, AlgebraError) as exc:
            raise FormatError(path, 0, str(exc))
    raise FormatError(path, 0, "missing 'kind quiver-module' or 'kind module' line")


def write_module_file(m: Module, path):
    lines = []
    if m.algebra.quiver_data is not None and m.dim > 0:
        dims, arrow_mats = module_to_dimvector(m)
        lines.append("kind quiver-module")
        lines.append("dims %s" % " ".join(str(d) for d in dims))
        q = m.algebra.quiver_data["quiver"]
        for name, _, _ in q.arrows:
            mat = arrow_mats[name]
            if mat.rows and mat.cols and any(any(r) for r in mat.data):
                lines.append("arrow %s : %s" % (name, _format_matrix(mat)))
    else:
        lines.append("kind module")
        lines.append("dim %d" % m.dim)
        for i, mat in enumerate(m.actions):
            lines.append("action %d : %s" % (i, _format_matrix(mat)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- DOT export ---------------------------------------------------------------


def _dot_quote(s):
    return '"%s"' % s.replace('"', '\\"')


def support_quiver_dot(labels, edges):
    """Undirected DOT graph: one node per support pair label, one edge per
    single-summand exchange.  Node and edge order is the stable order of
    the inputs."""
    lines = ["graph support_tau_tilting {"]
    for i, lbl in enumerate(labels):
        lines.append("  n%d [label=%s];" % (i, _dot_quote(lbl)))
    for i, j in edges:
        lines.append("  n%d -- n%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- JSON reports --------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, TriState):
        return x.as_dict()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (int, float, str, bool)) or x is None:
        return x
    return str(x)


def report_json(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path):
    with open(path, "w") as fh:
        fh.write(report_json(report))
