"""Relative approximation theory for a fixed generator E: minimal right
add-E approximations and presentations, E-rigidity, the endomorphism
algebra Gamma = (End E)^op with its transport dictionaries, the functor
Hom(E, -), relative Gorenstein projectivity, and the bijection table
pairing indecomposable E-GP E-rigid modules with GP tau-rigid
Gamma-modules.
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
    hom_dim,
    hom_map_surjective,
    is_isomorphic,
    is_right_minimal,
    projective_modules,
    rad_end,
    zero_module,
)
from .homalg import Presentation, minimal_projective_presentation, \
    _map_to_algebra_matrix
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


def _assemble_approx(x: Module, e: GeneratorData, picks):
    """Map from the direct sum of the picked (class index, hom map)
    pairs to x.  Returns the ModuleMap with summand metadata."""
    a = x.algebra
    f = x.field
    if not picks:
        z = zero_module(a)
        mm = ModuleMap(z, x, Matrix(f, x.dim, 0))
        mm.summand_classes = ()
        return mm
    mods = [e.basic[ci] for ci, _ in picks]
    dom, incls, projs = direct_sum(a, mods) if len(mods) > 1 else (
        mods[0], None, None
    )
    if len(mods) == 1:
        mm = ModuleMap(mods[0], x, picks[0][1].matrix)
        mm.summand_classes = (picks[0][0],)
        return mm
    total = Matrix(f, x.dim, dom.dim)
    for (ci, h), pr in zip(picks, projs):
        total = total + h.matrix @ pr.matrix
    mm = ModuleMap(dom, x, total)
    mm.summand_classes = tuple(ci for ci, _ in picks)
    return mm


def minimal_right_approx(x: Module, e: GeneratorData) -> ModuleMap:
    """Minimal right add-E approximation of x: the evaluation map from
    one copy of E_i per basis element of hom(E_i, x), greedily reduced
    by deleting summands that are not needed for every hom(E_j, -) to
    stay surjective.  The result is certified right-minimal."""
    if not e.is_generator:
        raise AlgebraError("E is not a generator")
    if x.dim == 0:
        return _assemble_approx(x, e, [])
    picks = []
    for ci, b in enumerate(e.basic):
        for h in hom(b, x):
            picks.append((ci, h))
    # greedy deletion in fixed summand order
    changed = True
    while changed:
        changed = False
        for k in range(len(picks)):
            trial = picks[:k] + picks[k + 1:]
            cand = _assemble_approx(x, e, trial)
            if _is_approximation(cand, x, e):
                picks = trial
                changed = True
                break
    out = _assemble_approx(x, e, picks)
    if not _is_approximation(out, x, e):
        raise ModuleError("approximation property lost during reduction")
    if not is_right_minimal(out):
        raise ModuleError("greedy reduction did not reach right minimality")
    return out


def _is_approximation(f: ModuleMap, x: Module, e: GeneratorData) -> bool:
    """Every map E_j -> x factors through f, for every basic summand."""
    return all(
        hom_coords(b, x, [f.matrix @ g.matrix for g in hom(b, f.source)])
        .rank() == hom_dim(b, x)
        for b in e.basic
    )


def minimal_addE_presentation(m: Module, e: GeneratorData) -> Presentation:
    """E1 -> E0 -> m -> 0 with both maps minimal right add-E
    approximations; exactness validated."""
    f0 = minimal_right_approx(m, e)
    if f0.matrix.rank() != m.dim:
        raise ModuleError("approximation is not surjective; E is no generator")
    ker, inc = f0.kernel()
    g = minimal_right_approx(ker, e)
    f1 = ModuleMap(g.source, f0.source, inc.matrix @ g.matrix)
    # exactness: im f1 = ker f0
    if f1.matrix.image_basis().cols != ker.dim:
        raise ModuleError("add-E presentation is not exact")
    pres = Presentation(m, f0.source, f0, f1.source, f1,
                        f0.summand_classes, g.summand_classes)
    return pres


def e_rigid(m: Module, e: GeneratorData) -> bool:
    """Surjectivity of Hom(f1, m) on the minimal add-E presentation."""
    if m.dim == 0:
        return True
    pres = minimal_addE_presentation(m, e)
    if pres.p1.dim == 0:
        return True
    return hom_map_surjective(pres.f1, m)


# -- Gamma = (End E)^op ------------------------------------------------------


@dataclass
class GammaData:
    algebra: Algebra
    e: GeneratorData
    hom_bases: dict  # (i, j) -> list of ModuleMaps E_i -> E_j
    offsets: dict  # (i, j) -> first Gamma basis index of that block
    idem_of_class: list  # class index -> Gamma idempotent index


def gamma(e: GeneratorData) -> GammaData:
    """Gamma built on the basic form of E: basis = union of the
    hom(E_i, E_j) bases, product = reversed composition, idempotents =
    the identity maps of the E_i."""
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
    idem_of_class = []
    unit = zero_vec[:]
    for i in range(n):
        ident = Matrix.identity(f, basic[i].dim)
        vec = embed(hom_coords(basic[i], basic[i], [ident]).col(0), i, i)
        unit = [u + c for u, c in zip(unit, vec)]
        idem.append(vec)
        idem_of_class.append(i)
    radical = []
    for i in range(n):
        for j in range(n):
            off = offsets[(i, j)]
            if i != j:
                for k in range(len(hom_bases[(i, j)])):
                    v = zero_vec[:]
                    v[off + k] = f.one()
                    radical.append(v)
            else:
                rad_coeffs, _ = rad_end(basic[i])
                for rc in rad_coeffs:
                    v = zero_vec[:]
                    for k, c in enumerate(rc):
                        v[off + k] = c
                    radical.append(v)
    labels = [
        "h(%d->%d)#%d" % (i + 1, j + 1, k)
        for i in range(n)
        for j in range(n)
        for k in range(len(hom_bases[(i, j)]))
    ]
    alg = Algebra(f, labels, mult, unit, idem, radical, "endomorphism")
    return GammaData(alg, e, hom_bases, offsets, idem_of_class)


def hom_E(m: Module, g: GammaData) -> Module:
    """Hom(E, m) as a left Gamma-module: underlying space is the union
    of the hom(E_i, m) bases; the action of a map gamma: E_i -> E_j
    sends f in hom(E_j, m) to f o gamma in hom(E_i, m)."""
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


# -- relative Gorenstein projectivity ----------------------------------------


def _lift_presentation(g: GammaData, pres: Presentation):
    """Lift a minimal projective presentation over Gamma back to an
    add-E map over the base algebra, using the block identification
    e_j Gamma e_i = hom(E_j, E_i)."""
    e = g.e
    a = e.E.algebra
    fld = a.field
    lam = _map_to_algebra_matrix(pres.f1, pres.p1_idx, pres.p0_idx)
    mods0 = [e.basic[g.idem_of_class[i]] for i in pres.p0_idx]
    mods1 = [e.basic[g.idem_of_class[i]] for i in pres.p1_idx]
    if not mods1:
        z = zero_module(a)
        if len(mods0) == 1:
            e0 = mods0[0]
        else:
            e0 = direct_sum(a, mods0)[0]
        return e0, z, ModuleMap(z, e0, Matrix(fld, e0.dim, 0)), \
            tuple(pres.p0_idx), ()
    e0, incls0, projs0 = (
        direct_sum(a, mods0) if len(mods0) > 1
        else (mods0[0], None, None)
    )
    e1, incls1, projs1 = (
        direct_sum(a, mods1) if len(mods1) > 1
        else (mods1[0], None, None)
    )
    mat = Matrix(fld, e0.dim, e1.dim)
    for r in range(len(pres.p0_idx)):
        for c in range(len(pres.p1_idx)):
            elem = lam[r][c]
            if elem is None:
                continue
            # decode the Gamma element into a base-algebra map
            # E_{p1_idx[c]} -> E_{p0_idx[r]}
            jcls = g.idem_of_class[pres.p1_idx[c]]
            icls = g.idem_of_class[pres.p0_idx[r]]
            hb = g.hom_bases[(jcls, icls)]
            off = g.offsets[(jcls, icls)]
            comp = Matrix(fld, e.basic[icls].dim, e.basic[jcls].dim)
            for k, h in enumerate(hb):
                cv = elem[off + k]
                if cv:
                    comp = comp + h.matrix.scale(cv)
            # other blocks of elem must vanish
            for (bi, bj), boff in g.offsets.items():
                if (bi, bj) == (jcls, icls):
                    continue
                for k in range(len(g.hom_bases[(bi, bj)])):
                    if elem[boff + k]:
                        raise ModuleError(
                            "Gamma element leaves its Yoneda block"
                        )
            if len(mods0) > 1:
                left = incls0[r].matrix
            else:
                left = Matrix.identity(fld, e0.dim)
            if len(mods1) > 1:
                right = projs1[c].matrix
            else:
                right = Matrix.identity(fld, e1.dim)
            mat = mat + left @ comp @ right
    return e0, e1, ModuleMap(e1, e0, mat), tuple(pres.p0_idx), \
        tuple(pres.p1_idx)


def e_gorenstein_projective(m: Module, e: GeneratorData,
                            bound: int | None = None) -> TriState:
    """Relative Gorenstein projectivity through the Hom(E, -) reduction:
    transport m to Gamma, test plain Gorenstein projectivity there, and
    on success lift the Gamma presentation back and compare cokernels."""
    from .gorenstein import default_bound, gorenstein_projective

    a = m.algebra
    if bound is None:
        bound = default_bound(a)
    if m.dim == 0 or in_add(m, e):
        return yes("module lies in add E", bound=bound)
    g = cached_gamma(e)
    n = hom_E(m, g)
    verdict = gorenstein_projective(n, bound)
    if verdict.is_no:
        return no("Hom(E, m) is not Gorenstein projective over Gamma: "
                  + verdict.reason, bound=bound, witness=verdict.witness)
    if verdict.is_unknown:
        return unknown("Gamma-side check unresolved", bound=bound)
    pres = minimal_projective_presentation(n)
    e0, e1, f1, _, _ = _lift_presentation(g, pres)
    cok, _ = f1.cokernel()
    if is_isomorphic(cok, m):
        return yes("Gamma-side certificate with matching lifted cokernel",
                   bound=bound)
    return no("lifted presentation cokernel differs from the module",
              bound=bound, witness=cok.dim_vector())


@memo
def cached_gamma(e: GeneratorData) -> GammaData:
    return gamma(e)


# -- the bijection table ------------------------------------------------------


@dataclass
class BijectionTable:
    rows: list  # (Lambda-side module, Gamma-side module)
    n_lambda: int
    n_gamma: int
    bound: int
    complete: bool

    def dim_vector_rows(self):
        return [{"base_dim_vector": list(m.dim_vector()),
                 "gamma_dim_vector": list(n.dim_vector())}
                for m, n in self.rows]


def eg_classes(e: GeneratorData, bound=None, max_dim=None):
    """(indecomposable E-GP E-rigid classes, E-rigid classes whose
    relative GP check is unresolved, classification used)."""
    from .classify import enumerate_indecomposables
    from .gorenstein import default_bound

    a = e.E.algebra
    if bound is None:
        bound = default_bound(a)
    if max_dim is None:
        max_dim = 2 * a.dim
    cls = enumerate_indecomposables(a, max_dim)
    members, unknowns = [], []
    for m in cls.representatives:
        if not e_rigid(m, e):
            continue
        v = e_gorenstein_projective(m, e, bound)
        if v.is_yes:
            members.append(m)
        elif v.is_unknown:
            unknowns.append(m)
    return members, unknowns, cls


def bijection_table(e: GeneratorData, bound=None,
                    max_dim=None) -> BijectionTable:
    """Pair the indecomposable E-GP E-rigid modules with the
    indecomposable GP tau-rigid Gamma-modules through Hom(E, -).  An
    unmatched class on either side is a hard error."""
    from .classify import gorenstein_projective_tau_rigid_list
    from .gorenstein import default_bound

    a = e.E.algebra
    if bound is None:
        bound = default_bound(a)
    if max_dim is None:
        max_dim = 2 * a.dim
    g = cached_gamma(e)
    left, left_unknowns, cls = eg_classes(e, bound, max_dim)
    gamma_max = max(max_dim, 2 * g.algebra.dim)
    right, right_unknowns, _ = gorenstein_projective_tau_rigid_list(
        g.algebra, bound, gamma_max
    )
    rows = []
    used = [False] * len(right)
    for m in left:
        # End n = End m is local: Hom(E, -) is fully faithful (E generates)
        n = hom_E(m, g)
        matched = None
        for j, r in enumerate(right):
            if not used[j] and _iso_indecomposable(n, r):
                matched = j
                break
        if matched is None:
            raise ModuleError(
                "bijection violated: transported module with dimension "
                "vector %s has no Gamma-side partner" % (n.dim_vector(),)
            )
        used[matched] = True
        rows.append((m, right[matched]))
    if not all(used):
        missing = [right[j].dim_vector() for j in range(len(right))
                   if not used[j]]
        raise ModuleError(
            "bijection violated: unmatched Gamma-side classes %s" % missing
        )
    complete = cls.complete and not left_unknowns and not right_unknowns
    return BijectionTable(rows, len(left), len(right), max_dim, complete)
