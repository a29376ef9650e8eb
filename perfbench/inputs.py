"""Seeded inputs for the gptau benchmark, in the library's `.alg`/`.mod`
text format, together with the facts their construction fixes.

Nothing here imports gptau: the algebras are written from their quiver
presentations, the modules are direct sums of indecomposables known in
closed form (interval modules over linear A_n, uniserials over cyclic
Nakayama algebras and K[x]/(x^n)),
and every module is disguised by a seeded invertible change of basis
computed with plain `int`/`fractions.Fraction` arithmetic.

Canonical coordinates.  A `Family` numbers its vertices 0..n-1 with
arrows c -> c+1 (mod n for the cyclic kind).  The uniserial U(top, length)
has basis x_0..x_{l-1}, x_k at vertex top+k, and the arrow leaving vertex
top+k sends x_k to x_{k+1}.  The text shows seeded vertex and arrow names
in a seeded listing order, so equal mathematics arrives in varying form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

GF_PRIME = 10007


@dataclass(frozen=True)
class Family:
    """kind: "linear" (A_n), "cyclic" (Nakayama; n = 1 is K[x]/(x^m)) or
    "loopflag" (n = 2).  n is the number of vertices; `opposite` reverses
    every arrow."""

    kind: str
    n: int
    m: int = 0
    opposite: bool = False

    @property
    def label(self):
        base = {
            "linear": "A%d" % self.n,
            "cyclic": ("kx%d" % self.m if self.n == 1
                       else "nak%d_%d" % (self.n, self.m)),
            "loopflag": "loopflag",
        }[self.kind]
        return base + ("op" if self.opposite else "")

    def arrows(self):
        """Canonical arrows (source, target)."""
        if self.kind == "linear":
            return [(c, c + 1) for c in range(self.n - 1)]
        if self.kind == "cyclic":
            return [(c, (c + 1) % self.n) for c in range(self.n)]
        return [(0, 0), (0, 1)]  # loop alpha, flag beta

    def relations(self):
        """Zero relations as arrow-index paths, first arrow first."""
        if self.kind == "cyclic":
            return [[(s + k) % self.n for k in range(self.m)]
                    for s in range(self.n)]
        if self.kind == "loopflag":
            return [[0, 0]]
        return []

    def nilpotency(self):
        return {"linear": self.n + 1, "cyclic": self.m, "loopflag": 3}[self.kind]

    def uniserials(self):
        """Every indecomposable as (top, length), for linear and cyclic."""
        if self.kind == "linear":
            return [(i, l) for i in range(self.n) for l in range(1, self.n - i + 1)]
        return [(i, l) for i in range(self.n) for l in range(1, self.m + 1)]


# -- presentation: names, order, text -----------------------------------------


@dataclass
class Presentation:
    """A family in one seeded disguise."""

    family: Family
    field_line: str
    vertex_names: list  # canonical vertex -> name
    vertex_order: list  # canonical vertices in listing order
    arrow_names: list  # canonical arrow -> name
    arrow_order: list
    text: str = ""

    @property
    def p(self):
        return GF_PRIME if self.field_line != "QQ" else None

    def listing_dims(self, canon_dims):
        return tuple(canon_dims[c] for c in self.vertex_order)


def present(family: Family, rng: random.Random, prime: bool = False):
    nv = family.n
    arrows = family.arrows()
    vnames = ["v%d" % k for k in rng.sample(range(10, 100), nv)]
    anames = ["r%d" % k for k in rng.sample(range(10, 100), len(arrows))]
    vorder = list(range(nv))
    aorder = list(range(len(arrows)))
    rng.shuffle(vorder)
    rng.shuffle(aorder)
    pres = Presentation(family, "GF %d" % GF_PRIME if prime else "QQ",
                        vnames, vorder, anames, aorder)
    lines = ["# %s" % family.label, "kind quiver", "field %s" % pres.field_line,
             "vertices %s" % " ".join(vnames[c] for c in vorder)]
    for k in aorder:
        s, t = arrows[k]
        if family.opposite:
            s, t = t, s
        lines.append("arrow %s %s %s" % (anames[k], vnames[s], vnames[t]))
    for path in family.relations():
        # text paths compose right to left; the opposite reverses order
        seq = path if family.opposite else list(reversed(path))
        lines.append("relation %s" % ".".join(anames[k] for k in seq))
    lines.append("nilpotency %d" % family.nilpotency())
    pres.text = "\n".join(lines) + "\n"
    return pres


# -- modules -----------------------------------------------------------------


def uniserial_rep(family: Family, top, length):
    """(canonical dims, {arrow index: [(row, col)] unit entries}) with the
    basis of each vertex ordered by k."""
    nv = family.n
    dims = [0] * nv
    where = []  # x_k -> (vertex, position at vertex)
    for k in range(length):
        v = (top + k) % nv if family.kind == "cyclic" else top + k
        where.append((v, dims[v]))
        dims[v] += 1
    entries = {}
    for k in range(length - 1):
        (v, pv), (w, pw) = where[k], where[k + 1]
        arrow = v  # the arrow leaving canonical vertex v has index v
        entries.setdefault(arrow, []).append((pw, pv))
    return dims, entries


def direct_sum_rep(family: Family, specs):
    """Block-diagonal sum of the summands' canonical representations."""
    dims = [0] * family.n
    arrows = family.arrows()
    entries = {k: [] for k in range(len(arrows))}
    for spec in specs:
        sd, se = uniserial_rep(family, *spec)
        for k, pts in se.items():
            s, t = arrows[k]
            entries[k].extend((r + dims[t], c + dims[s]) for r, c in pts)
        dims = [a + b for a, b in zip(dims, sd)]
    return dims, entries


def _random_invertible(d, rng):
    """Seeded d x d integer matrix of determinant +-1 (a permuted product
    of unit lower and unit upper triangular factors, entries in [-2, 2]),
    returned with its inverse, which is again integral."""
    lower = [[Fraction(1 if i == j else rng.randint(-2, 2) if j < i else 0)
              for j in range(d)] for i in range(d)]
    upper = [[Fraction(1 if i == j else rng.randint(-2, 2) if j > i else 0)
              for j in range(d)] for i in range(d)]
    g = _matmul(lower, upper)
    rng.shuffle(g)
    return g, _inverse(g)


def _inverse(g):
    d = len(g)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(g)]
    for c in range(d):
        piv = next(r for r in range(c, d) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[d:] for row in aug]


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def _scalar_text(x, p):
    return str(x if p is None else int(x) % p)


def module_text(pres: Presentation, specs, rng: random.Random):
    """`.mod` text for the direct sum of `specs` under a seeded change of
    basis at every vertex: arrow s -> t becomes g_t M g_s^-1."""
    fam = pres.family
    if fam.opposite:
        raise ValueError("modules are generated over canonical families only")
    dims, entries = direct_sum_rep(fam, specs)
    p = pres.p
    bases = [_random_invertible(d, rng) for d in dims]
    lines = ["kind quiver-module",
             "dims %s" % " ".join(str(d) for d in pres.listing_dims(dims))]
    arrows = fam.arrows()
    for k in pres.arrow_order:
        s, t = arrows[k]
        if not dims[s] or not dims[t] or not entries[k]:
            continue
        mat = [[Fraction(0)] * dims[s] for _ in range(dims[t])]
        for r, c in entries[k]:
            mat[r][c] = Fraction(1)
        mat = _matmul(_matmul(bases[t][0], mat), bases[s][1])
        body = " ; ".join(" ".join(_scalar_text(x, p) for x in row) for row in mat)
        lines.append("arrow %s : %s" % (pres.arrow_names[k], body))
    return "\n".join(lines) + "\n", pres.listing_dims(dims)


# -- input statistics ----------------------------------------------------------


@dataclass
class InputStats:
    """Share of requests repeating earlier content, and module dimensions."""

    seen: set = field(default_factory=set)
    requests: int = 0
    repeats: int = 0
    dim_hist: dict = field(default_factory=dict)

    def record(self, content_key, module_dims):
        self.requests += 1
        if content_key in self.seen:
            self.repeats += 1
        self.seen.add(content_key)
        for d in module_dims:
            self.dim_hist[d] = self.dim_hist.get(d, 0) + 1

    def summary(self):
        share = self.repeats / self.requests if self.requests else 0.0
        hist = " ".join("%d:%d" % kv for kv in sorted(self.dim_hist.items()))
        return "repeat_share %.4f of %d requests; module dims %s" % (
            share, self.requests, hist or "-")
