"""The four benchmark workloads: seeded operations against the public
gptau API, each paired with its reference check.

Every workload is a closed loop with one client: the next operation is
sent when the previous one has returned.  Operations come in rounds of
fixed composition (the seed orders a round and fills in its content), so
runs on different seeds do the same mix of work.  Library functions are
looked up on the `gptau` package at call time, which is what lets the
traced run see them.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

from inputs import Family, InputStats, module_text, present
from reference import Uniserials, classify_expectation


@dataclass
class Outcome:
    ok: bool
    bounded: int = 0  # bounded (three-valued) verdicts returned
    unknown: int = 0  # of which came back unknown
    detail: str = ""


@dataclass
class Op:
    label: str
    run: object  # (gptau package) -> result
    check: object  # result -> Outcome


def _tri(t, expect_yes):
    """Outcome of a bounded verdict against a known truth."""
    if t.is_unknown:
        return Outcome(True, 1, 1)
    return Outcome(t.is_yes == expect_yes, 1, 0, "verdict %s" % t.verdict)


def _expect(got, want):
    return Outcome(got == want, detail="got %r, want %r" % (got, want))


class Workload:
    name = ""
    tail_percentile = 90  # fixed per workload so runs stay comparable

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.stats = InputStats()

    def rng(self, *parts):
        return random.Random("/".join(str(p) for p in (self.seed, self.name) + parts))

    def write(self, text: str, suffix: str) -> str:
        digest = hashlib.sha1(text.encode()).hexdigest()[:16]
        path = os.path.join(self.workdir, digest + suffix)
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(text)
        return path

    def setup(self, g):
        """Set-up done before measuring: parse long-lived inputs, warm caches."""

    def round(self, r: int):
        raise NotImplementedError


# -- classify ------------------------------------------------------------------

CLASSIFY_DECK = [
    Family("linear", 2), Family("linear", 2, opposite=True),
    Family("cyclic", 1, 2), Family("cyclic", 1, 3),
    Family("cyclic", 2, 2), Family("cyclic", 2, 2, opposite=True),
    Family("loopflag", 2), Family("loopflag", 2, opposite=True),
]


class Classify(Workload):
    """Fresh algebra per job: enumeration, support tau-tilting pairs, CM check."""

    name = "classify"
    tail_percentile = 100  # a round has too few jobs for a tail with 10 beyond

    def round(self, r):
        rng = self.rng("round", r)
        deck = list(CLASSIFY_DECK)
        rng.shuffle(deck)
        ops = []
        for fam in deck:
            path = self.write(present(fam, rng).text, ".alg")
            self.stats.record((fam, path), [])
            ops.append(Op(fam.label, _classify_run(path),
                          _classify_check(classify_expectation(fam))))
        return ops


def _classify_run(path):
    def run(g):
        a = g.fileio.parse_algebra_file(path)
        cls = g.enumerate_indecomposables(a, 2 * a.dim)
        _, pairs, _ = g.support_tau_tilting_quiver(a)
        cm = g.cm_tau_tilting_free(a)
        return len(cls.representatives), cls.complete, len(pairs), cm
    return run


def _classify_check(want):
    indecs, pairs, cm_free = want

    def check(res):
        n, complete, npairs, cm = res
        out = _tri(cm, cm_free)
        if (n, complete, npairs) != (indecs, True, pairs):
            out.ok = False
            out.detail = "got %d classes (complete %s), %d pairs; want %d, %d" % (
                n, complete, npairs, indecs, pairs)
        return out
    return check


# -- queries -------------------------------------------------------------------

QUERY_FAMILIES = [Family("linear", 4), Family("cyclic", 2, 3), Family("cyclic", 1, 3)]
QUERY_KINDS = ["tau_rigid", "gp", "pd", "ext1", "ext2", "iso", "hom", "tau"]
TWO_MODULE_KINDS = {"ext1", "ext2", "iso", "hom"}
# Requests per (algebra, kind) in every round: two hot contents, each
# asked in HOT_ROUNDS consecutive rounds, and two fresh ones, written in a
# new basis each round.  Each slot has its own fixed module shape, so
# every round does the same mathematics whatever the seed.  A hot content
# lives a few rounds rather than the whole run so that a run averages over
# several bases: how hard a decomposition is depends on the basis, and
# one basis kept for the whole run would make the seed move the figures.
SLOTS = ("hot", "hot", "fresh", "fresh")
HOT_ROUNDS = 2
# Hom systems grow with the square of the dimension at one vertex, so
# each algebra caps the total dimension of a request's modules.
DIM_CAP = {"A4": 10, "nak2_3": 8, "kx3": 6}


@dataclass
class _Algebra:
    fam: Family
    pres: object
    ref: Uniserials
    path: str
    obj: object = None  # parsed in set-up, reused by every request


def _shapes(fam, kind):
    """Fixed module shapes for the slots of one (algebra, kind): each a
    list of summand lists (two modules for two-module kinds); half of the
    isomorphism queries compare a module with itself in another basis."""
    rng = random.Random("shapes/%s/%s" % (fam.label, kind))
    ref = Uniserials(fam)
    cap = DIM_CAP[fam.label]
    out = []
    for _ in SLOTS:
        mods = []
        for _ in range(2 if kind in TWO_MODULE_KINDS else 1):
            while True:
                spec = sorted(rng.choice(fam.uniserials())
                              for _ in range(rng.randint(1, 3)))
                if sum(sum(ref.dims(u)) for u in spec) <= cap:
                    break
            mods.append(spec)
        if kind == "iso" and len(out) % 2 == 0:
            mods[1] = list(mods[0])
        out.append(mods)
    return out


class Queries(Workload):
    """Short requests against long-lived algebras built in set-up."""

    name = "queries"
    prime = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.algebras = []
        for fam in QUERY_FAMILIES:
            pres = present(fam, self.rng("algebra", fam.label), prime=self.prime)
            self.algebras.append(_Algebra(fam, pres, Uniserials(fam),
                                          self.write(pres.text, ".alg")))
        self.shapes = {(alg.fam, kind): _shapes(alg.fam, kind)
                       for alg in self.algebras for kind in QUERY_KINDS}
        # set-up warms each algebra with every query kind on its first simple
        self.warm = [self._files(alg, [[(0, 1)]] * 2, self.rng("warm", alg.fam.label))
                     for alg in self.algebras]

    def _files(self, alg, specs, rng):
        files = []
        for s in specs:
            text, dims = module_text(alg.pres, s, rng)
            files.append((self.write(text, ".mod"), sum(dims)))
        return files

    def setup(self, g):
        for alg, files in zip(self.algebras, self.warm):
            a = alg.obj = g.fileio.parse_algebra_file(alg.path)
            g.regular_module(a)
            g.projective_modules(a)
            g.injective_modules(a)
            g.simple_modules(a)
            g.gorenstein_algebra(a)
            for kind in QUERY_KINDS:
                _query_run(alg, kind, [p for p, _ in files])(g)

    def round(self, r):
        rng = self.rng("round", r)
        reqs = [(alg, kind, slot) for alg in self.algebras for kind in QUERY_KINDS
                for slot in range(len(SLOTS))]
        rng.shuffle(reqs)
        ops = []
        for alg, kind, slot in reqs:
            specs = self.shapes[(alg.fam, kind)][slot]
            hot = SLOTS[slot] == "hot"
            files = self._files(alg, specs, self.rng(
                "content", alg.fam.label, kind, slot,
                "epoch %d" % (r // HOT_ROUNDS) if hot else "round %d" % r))
            self.stats.record(tuple(p for p, _ in files), [d for _, d in files])
            ops.append(Op("%s/%s" % (alg.fam.label, kind),
                          _query_run(alg, kind, [p for p, _ in files]),
                          _query_check(alg, kind, specs)))
        return ops


class QueriesGF(Queries):
    """The same requests over GF(10007)."""

    name = "queries-gf"
    prime = True


def _query_run(alg, kind, paths):
    def run(g):
        ms = [g.fileio.parse_module_file(p, alg.obj) for p in paths]
        m = ms[0]
        if kind == "tau_rigid":
            return g.is_tau_rigid(m)
        if kind == "gp":
            return g.gorenstein_projective(m)
        if kind == "pd":
            return g.proj_dim(m)
        if kind in ("ext1", "ext2"):
            return g.ext_dim(m, ms[1], int(kind[-1]))
        if kind == "iso":
            return g.is_isomorphic(m, ms[1])
        if kind == "hom":
            return g.hom_dim(m, ms[1])
        t = g.tau(m)
        return t.dim, tuple(t.dim_vector())
    return run


def _query_check(alg, kind, specs):
    ref = alg.ref
    xs = specs[0]

    def check(res):
        if kind == "tau_rigid":
            return _expect(res, ref.tau_rigid(xs))
        if kind == "gp":
            return _tri(res, ref.gorenstein_projective(xs))
        if kind == "pd":
            want = ref.proj_dim(xs)
            if res.is_unknown:
                return Outcome(True, 1, 1)
            got = res.value if res.is_yes else None
            return Outcome(got == want, 1, 0, "pd %r, want %r" % (got, want))
        if kind in ("ext1", "ext2"):
            return _expect(res, ref.ext(xs, specs[1], int(kind[-1])))
        if kind == "iso":
            return _expect(res, ref.isomorphic(xs, specs[1]))
        if kind == "hom":
            return _expect(res, ref.hom_sum(xs, specs[1]))
        dims = ref.tau_dims(xs)
        return _expect(res, (sum(dims), alg.pres.listing_dims(dims)))
    return check


# -- relative ------------------------------------------------------------------

# (family, extra non-projective summands of E).  Every round asks each
# entry once, so runs on different seeds do the same mathematics: the seed
# disguises the inputs and, on the cyclic families, rotates the extra
# summands around the quiver, which maps one choice onto another.  Jobs
# cost 0.5-4 s each, dominated by the two classifications behind
# bijection_table; Gamma has 1.5-2.5 times the algebra's dimension.
RELATIVE_DECK = [
    (Family("linear", 2), [(0, 1)]),
    (Family("cyclic", 1, 2), [(0, 1)]),
    (Family("cyclic", 2, 2), [(0, 1)]),
    (Family("linear", 3), [(0, 2)]),
]


class Relative(Workload):
    """Generator E = all projectives + seeded extra indecomposables:
    Gamma, add-E presentations, E-rigidity, E-GP and the class bijection."""

    name = "relative"
    tail_percentile = 100  # a round has too few jobs for a tail with 10 beyond

    def round(self, r):
        rng = self.rng("round", r)
        deck = list(RELATIVE_DECK)
        rng.shuffle(deck)
        ops = []
        for fam, extras in deck:
            ref = Uniserials(fam)
            pres = present(fam, rng)
            indecs = fam.uniserials()
            turn = rng.randrange(fam.n) if fam.kind == "cyclic" else 0
            e_specs = sorted([u for u in indecs if ref.is_projective(u)]
                             + [((i + turn) % fam.n, l) for i, l in extras])
            e_text, e_dims = module_text(pres, e_specs, rng)
            m_files = [module_text(pres, [u], rng) for u in indecs]
            alg_path = self.write(pres.text, ".alg")
            e_path = self.write(e_text, ".mod")
            m_paths = [self.write(t, ".mod") for t, _ in m_files]
            self.stats.record((fam, tuple(e_specs), alg_path),
                              [sum(e_dims)] + [sum(d) for _, d in m_files])
            ops.append(Op(fam.label, _relative_run(alg_path, e_path, m_paths),
                          _relative_check(ref, e_specs, indecs)))
        return ops


def _relative_run(alg_path, e_path, m_paths):
    def run(g):
        a = g.fileio.parse_algebra_file(alg_path)
        e = g.generator_data(g.fileio.parse_module_file(e_path, a))
        gam = g.approx.cached_gamma(e)
        per_module = []
        for p in m_paths:
            m = g.fileio.parse_module_file(p, a)
            pres = g.minimal_addE_presentation(m, e)
            per_module.append((m.dim, pres.p0.dim, pres.p1.dim,
                               g.e_rigid(m, e), g.e_gorenstein_projective(m, e)))
        table = g.bijection_table(e)
        return (e.is_generator, len(e.basic), gam.algebra.dim, per_module,
                table.n_lambda, table.n_gamma, len(table.rows))
    return run


def _relative_check(ref, e_specs, indecs):
    basic = sorted(set(e_specs))
    gamma_dim = sum(ref.hom(x, y) for x in basic for y in basic)

    def check(res):
        is_gen, n_basic, gdim, per_module, n_lam, n_gam, n_rows = res
        out = Outcome(True)
        if (is_gen, n_basic, gdim) != (True, len(basic), gamma_dim):
            return Outcome(False, detail="generator %s, %d summands, Gamma dim %d;"
                           " want %d summands, Gamma dim %d" % (
                               is_gen, n_basic, gdim, len(basic), gamma_dim))
        for u, (dim, p0, p1, rigid, egp) in zip(indecs, per_module):
            out.bounded += 1
            out.unknown += egp.is_unknown
            if u in basic and not (p0 == dim and p1 == 0 and rigid and egp.is_yes):
                out.ok = False
                out.detail = "summand %r of E: p0 %d, p1 %d, rigid %s, %s" % (
                    u, p0, p1, rigid, egp.verdict)
        if not (n_lam == n_gam == n_rows and n_lam >= len(basic)):
            out.ok = False
            out.detail = "bijection %d / %d / %d rows" % (n_lam, n_gam, n_rows)
        return out
    return check


WORKLOADS = {w.name: w for w in (Classify, Queries, Relative, QueriesGF)}
