"""Relative approximation theory for a fixed generator E.

Everything is read off Gamma = (End E)^op.  For a generator E the functor
Hom(E, -) sends add E onto the projective Gamma-modules and is fully
faithful on it, with Hom(E_j, E_i) = e_j Gamma e_i for the basic
summands E_i (Auslander-Reiten-Smalo, Representation Theory of Artin
Algebras, II.2; Kong-Zhang, "From CM-finite to CM-free", J. Pure Appl.
Algebra 220, 2016).  So the minimal add-E presentation of M is the lift
of the minimal projective presentation of Hom(E, M), and M is E-rigid
exactly when Hom(E, M) passes the surjectivity criterion of
tau-rigidity over Gamma.  On top of that: the functor Hom(E, -),
relative Gorenstein projectivity, and the bijection table pairing
indecomposable E-GP E-rigid modules with GP tau-rigid Gamma-modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra, AlgebraError
from .linalg import Matrix
from .memo import memo
from .module import (
    Module,
    ModuleError,
    ModuleMap,
    _iso_indecomposable,
    decompose,
    direct_sum,
    hom,
    hom_coords,
    is_isomorphic,
    projective_modules,
    rad_end,
    zero_module,
)
from .gorenstein import default_bound, gorenstein_projective
from .homalg import Presentation, minimal_projective_presentation, \
    _f1_onto, _map_to_algebra_matrix
from .tristate import TriState, no, unknown, yes


@dataclass
class GeneratorData:
    E: Module
    is_generator: bool
    summands: list  # (indecomposable, multiplicity)
    basic: list  # one representative per class, deterministic order
    E_basic: Module
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def class_of(self, m: Module):
        """Index of the basic summand isomorphic to m, or None.  m must be
        indecomposable (in_add passes summands from decompose)."""
        for i, b in enumerate(self.basic):
            if _iso_indecomposable(m, b):
                return i
        return None


def generator_data(e_module: Module) -> GeneratorData:
    """Decompose E, check the generator property (every indecomposable
    projective is a summand), and build the basic form."""
    dec = decompose(e_module)
    basic = [m for m, _ in dec]
    basic.sort(key=lambda m: (m.dim, m.dim_vector()))
    projs = projective_modules(e_module.algebra)
    is_gen = all(
        any(_iso_indecomposable(p, b) for b in basic) for p in projs
    )
    if len(basic) == 1:
        e_basic = basic[0]
    else:
        e_basic = direct_sum(e_module.algebra, basic)[0]
    return GeneratorData(e_module, is_gen, dec, basic, e_basic)


def in_add(x: Module, e: GeneratorData) -> bool:
    """Is every indecomposable summand of x isomorphic to some E_i?"""
    if x.dim == 0:
        return True
    for part, _ in decompose(x):
        if e.class_of(part) is None:
            return False
    return True


# -- Gamma = (End E)^op ------------------------------------------------------


@dataclass
class GammaData:
    algebra: Algebra  # its idempotent i is the identity of the basic E_i
    e: GeneratorData
    hom_bases: dict  # (i, j) -> list of ModuleMaps E_i -> E_j
    offsets: dict  # (i, j) -> first Gamma basis index of that block
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)


def gamma(e: GeneratorData) -> GammaData:
    """Gamma = (End E)^op on the basic form of E: basis = union of the
    hom(E_i, E_j) bases, product = reversed composition, idempotents =
    the identity maps of the E_i.  Its block (i, j) is Hom(E_i, E_j) =
    e_i Gamma e_j, so by Yoneda Gamma e_j = Hom(E, E_j): the projective
    Gamma-modules are Hom(E, -) of add E, which is what lets an add-E
    presentation be lifted from a projective one over Gamma.  The
    radical is the off-diagonal blocks plus each rad End(E_i) (rad_end);
    an E_i whose End/rad is larger than the ground field makes Gamma
    non-split: AlgebraError."""
    if not e.is_generator:
        raise AlgebraError("E is not a generator")
    basic = e.basic
    n = len(basic)
    f = basic[0].field
    hom_bases = {}
    offsets = {}
    dim = 0
    for i in range(n):
        for j in range(n):
            hb = hom(basic[i], basic[j])
            hom_bases[(i, j)] = hb
            offsets[(i, j)] = dim
            dim += len(hb)

    zero_vec = [f.zero()] * dim

    def embed(coords, i, j):
        """Gamma vector with the given coordinates in the (i, j) block."""
        vec = zero_vec[:]
        off = offsets[(i, j)]
        vec[off:off + len(coords)] = coords
        return vec

    mult = [[zero_vec[:] for _ in range(dim)] for _ in range(dim)]
    for (i1, j1), hb1 in hom_bases.items():
        for k1, h1 in enumerate(hb1):
            row = mult[offsets[(i1, j1)] + k1]
            for j2 in range(n):
                # Gamma product: h1 * h2 = h2 o h1 (opposite composition)
                x = hom_coords(basic[i1], basic[j2],
                               [h2.matrix @ h1.matrix
                                for h2 in hom_bases[(j1, j2)]])
                for k2 in range(x.cols):
                    row[offsets[(j1, j2)] + k2] = embed(x.col(k2), i1, j2)
    idem = []
    unit = zero_vec[:]
    for i in range(n):
        ident = Matrix.identity(f, basic[i].dim)
        vec = embed(hom_coords(basic[i], basic[i], [ident]).col(0), i, i)
        unit = [u + c for u, c in zip(unit, vec)]
        idem.append(vec)
    radical = []
    for (i, j), hb in hom_bases.items():
        if i == j:
            coeffs, sdim = rad_end(basic[i])
            if sdim != 1:
                raise AlgebraError(
                    "End/rad of a summand of E with dimension vector %s is "
                    "not the ground field" % (basic[i].dim_vector(),))
        else:
            coeffs = Matrix.identity(f, len(hb)).data
        radical += [embed(c, i, j) for c in coeffs]
    labels = [
        "h(%d->%d)#%d" % (i + 1, j + 1, k)
        for i in range(n)
        for j in range(n)
        for k in range(len(hom_bases[(i, j)]))
    ]
    alg = Algebra(f, labels, mult, unit, idem, radical, "endomorphism")
    return GammaData(alg, e, hom_bases, offsets)


@memo
def cached_gamma(e: GeneratorData) -> GammaData:
    return gamma(e)


def hom_E(m: Module, g: GammaData) -> Module:
    """Hom(E, m) as a left Gamma-module: underlying space is the union
    of the hom(E_i, m) bases, so block i is e_i Hom(E, m) = hom(E_i, m);
    the action of a map gamma: E_i -> E_j sends f in hom(E_j, m) to
    f o gamma in hom(E_i, m)."""
    basic = g.e.basic
    blocks = [hom(b, m) for b in basic]
    offs = [0]
    for hb in blocks:
        offs.append(offs[-1] + len(hb))
    total = offs[-1]
    if total == 0:
        return zero_module(g.algebra)
    acts = []
    for (i, j), hb in g.hom_bases.items():
        for gmap in hb:
            # column c: f_c o gamma (E_i -> m) in the hom(E_i, m) basis
            x = hom_coords(basic[i], m,
                           [f_c.matrix @ gmap.matrix for f_c in blocks[j]])
            big = Matrix(m.field, total, total)
            for r, row in enumerate(x.data):
                big.data[offs[i] + r][offs[j]:offs[j + 1]] = row
            acts.append(big)
    return Module(g.algebra, acts, validate=False)


@memo
def _hom_E(g: GammaData, m: Module) -> Module:
    """hom_E(m, g), kept on g by module content: the Gamma-module
    depends on m only through hom(E_i, m), which the content of m fixes.
    Every relative call on m shares it, and with it its memoised
    presentation and transpose; read it, never change it.  g holds at
    most memo.SIZE of them, least recently used first out, and none
    holds m."""
    return hom_E(m, g)


# -- add-E presentations and E-rigidity ---------------------------------------


def _combination(maps, coords) -> Matrix:
    """The matrix of sum_k coords[k] . maps[k], for a nonempty list of
    ModuleMaps with a common source and target."""
    out = maps[0].matrix.scale(coords[0])
    for h, c in zip(maps[1:], coords[1:]):
        if c:
            out = out + h.matrix.scale(c)
    return out


def _lift_presentation(g: GammaData, m: Module, n: Module) -> Presentation:
    """The minimal projective presentation of n = Hom(E, m) over Gamma,
    lifted to add E.  Summand r of P0 over e_i becomes E_i, and its
    generator, a vector of e_i n = hom(E_i, m), becomes the map
    E_i -> m with those coordinates.  Entry (r, c) of f1 is a Gamma
    element of e_j Gamma e_i = Hom(E_j, E_i) (j the idempotent of
    summand c of P1) and becomes that map.  Raises ModuleError when an
    entry leaves its Yoneda block, or the lift is not onto m or not
    exact."""
    pres = minimal_projective_presentation(n)
    a = m.algebra
    basic = g.e.basic
    e0, incls0, projs0 = direct_sum(a, [basic[i] for i in pres.p0_idx])
    e1, _, projs1 = direct_sum(a, [basic[i] for i in pres.p1_idx])
    f0 = Matrix(m.field, m.dim, e0.dim)
    for (i, _, gen), pr in zip(pres.p0.summands, projs0):
        off, d = n.blocks[i]
        coords = pres.f0.matrix.mul_vec(gen)[off:off + d]
        f0 = f0 + _combination(hom(basic[i], m), coords) @ pr.matrix
    f1 = Matrix(m.field, e0.dim, e1.dim)
    for r, row in enumerate(_map_to_algebra_matrix(pres.f1)):
        for c, elem in enumerate(row):
            if elem is None:
                continue
            block = (pres.p1_idx[c], pres.p0_idx[r])
            off, hb = g.offsets[block], g.hom_bases[block]
            if any(elem[:off]) or any(elem[off + len(hb):]):
                raise ModuleError("Gamma element leaves its Yoneda block")
            comp = _combination(hb, elem[off:off + len(hb)])
            f1 = f1 + incls0[r].matrix @ comp @ projs1[c].matrix
    if f0.rank() != m.dim:
        raise ModuleError("lifted add-E cover is not onto the module")
    if not (f0 @ f1).is_zero() or f1.rank() != e0.dim - m.dim:
        raise ModuleError("add-E presentation is not exact")
    return Presentation(m, e0, ModuleMap(e0, m, f0), e1,
                        ModuleMap(e1, e0, f1), pres.p0_idx, pres.p1_idx)


def minimal_addE_presentation(m: Module, e: GeneratorData) -> Presentation:
    """E1 --f1--> E0 --f0--> m -> 0 with f0 and E1 -> ker f0 minimal right
    add-E approximations; p0_idx and p1_idx name the basic summands E_i.

    Hom(E, -) is an equivalence from add E onto the projective
    Gamma-modules (gamma), and it is left exact, so it sends this
    presentation to the minimal projective presentation of Hom(E, m):
    the presentation is that one, lifted (_lift_presentation, which
    checks that the lift is onto and exact).  Raises AlgebraError when E
    is not a generator."""
    g = cached_gamma(e)
    return _lift_presentation(g, m, _hom_E(g, m))


def e_rigid(m: Module, e: GeneratorData) -> bool:
    """Is Hom(f1, m) onto, for f1 of the minimal add-E presentation?  By
    Yoneda, Hom(E_i, m) = e_i Hom(E, m) and Hom(f1, m) is Hom(f1', Hom(E,
    m)) for the Gamma presentation f1' that f1 lifts: the surjectivity
    criterion of tau-rigidity (homalg._f1_onto) for Hom(E, m) over
    Gamma."""
    if m.dim == 0:
        return True
    return _f1_onto(_hom_E(cached_gamma(e), m))


# -- relative Gorenstein projectivity ----------------------------------------


def e_gorenstein_projective(m: Module, e: GeneratorData,
                            bound: int | None = None) -> TriState:
    """Relative Gorenstein projectivity through the Hom(E, -) reduction:
    transport m to Gamma, test plain Gorenstein projectivity there, and
    on success lift the Gamma presentation back and compare cokernels."""
    a = m.algebra
    if bound is None:
        bound = default_bound(a)
    if m.dim == 0 or in_add(m, e):
        return yes("module lies in add E", bound=bound)
    g = cached_gamma(e)
    n = _hom_E(g, m)
    verdict = gorenstein_projective(n, bound)
    if verdict.is_no:
        return no("Hom(E, m) is not Gorenstein projective over Gamma: "
                  + verdict.reason, bound=bound, witness=verdict.witness)
    if verdict.is_unknown:
        return unknown("Gamma-side check unresolved", bound=bound)
    cok, _ = _lift_presentation(g, m, n).f1.cokernel()
    if is_isomorphic(cok, m):
        return yes("Gamma-side certificate with matching lifted cokernel",
                   bound=bound)
    return no("lifted presentation cokernel differs from the module",
              bound=bound, witness=cok.dim_vector())


# -- the bijection table ------------------------------------------------------


@dataclass
class BijectionTable:
    rows: list  # (Lambda-side module, Gamma-side module)
    n_lambda: int
    n_gamma: int
    bound: int
    complete: bool
    unmatched: list  # Gamma-side modules whose partner may lie past a bound

    def dim_vector_rows(self):
        return [{"base_dim_vector": list(m.dim_vector()),
                 "gamma_dim_vector": list(n.dim_vector())}
                for m, n in self.rows]


def eg_classes(e: GeneratorData, bound=None, max_dim=None):
    """(indecomposable E-GP E-rigid classes, E-rigid classes whose
    relative GP check is unresolved, classify.Reach of the list),
    the shape of classify.gorenstein_projective_tau_rigid_list."""
    from .classify import enumerate_indecomposables, suite_bounds

    bound, max_dim = suite_bounds(e.E.algebra, bound, max_dim)
    cls = enumerate_indecomposables(e.E.algebra, max_dim)
    members, unknowns = [], []
    for m in cls.representatives:
        if not e_rigid(m, e):
            continue
        v = e_gorenstein_projective(m, e, bound)
        if v.is_yes:
            members.append(m)
        elif v.is_unknown:
            unknowns.append(m)
    return members, unknowns, cls.reach()


def bijection_table(e: GeneratorData, bound=None,
                    max_dim=None) -> BijectionTable:
    """Pair the indecomposable E-GP E-rigid modules with the
    indecomposable GP tau-rigid Gamma-modules through Hom(E, -).

    A side is whole when its list is complete (by knitting, or on Gamma
    by a finite global dimension) and no check on it is unresolved, and
    the table is complete when both sides are.  A class with no partner
    is a hard error when the other side is whole.  Otherwise its partner
    may lie past that side's bound or among its unresolved classes, so
    it is kept, as a Gamma-module, in unmatched."""
    from .classify import gorenstein_projective_tau_rigid_list, suite_bounds

    bound, max_dim = suite_bounds(e.E.algebra, bound, max_dim)
    g = cached_gamma(e)
    left, left_unknowns, left_reach = eg_classes(e, bound, max_dim)
    gamma_max = max(max_dim, suite_bounds(g.algebra)[1])
    right, right_unknowns, right_reach = \
        gorenstein_projective_tau_rigid_list(g.algebra, bound, gamma_max)
    left_whole = left_reach.complete and not left_unknowns
    right_whole = right_reach.complete and not right_unknowns
    rows, unmatched = [], []
    used = [False] * len(right)
    for m in left:
        # End n = End m is local: Hom(E, -) is fully faithful (E generates)
        n = _hom_E(g, m)
        matched = next((j for j, r in enumerate(right)
                        if not used[j] and _iso_indecomposable(n, r)), None)
        if matched is not None:
            used[matched] = True
            rows.append((m, right[matched]))
        elif right_whole:
            raise ModuleError(
                "bijection violated: transported module with dimension "
                "vector %s has no Gamma-side partner" % (n.dim_vector(),)
            )
        else:
            unmatched.append(n)
    rest = [r for r, u in zip(right, used) if not u]
    if rest and left_whole:
        raise ModuleError(
            "bijection violated: unmatched Gamma-side classes %s"
            % [r.dim_vector() for r in rest]
        )
    return BijectionTable(rows, len(left), len(right), max_dim,
                          left_whole and right_whole, unmatched + rest)
