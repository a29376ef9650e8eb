"""Acceptance criteria.  Each test prints exactly one PASS/FAIL line,
naming the rational backend the budget was measured under.

Every criterion is exact (no numeric tolerances: all arithmetic is over
the rationals) and carries a pinned wall-clock budget, checked at the
end of the criterion body."""

import random
import time

from gptau.algebra import (
    cyclic_nakayama,
    linear_a_n,
    loop_algebra,
    t2,
    tensor,
    trivial_algebra,
)
from gptau.approx import (
    bijection_table,
    e_rigid,
    generator_data,
    in_add,
    minimal_addE_presentation,
)
from gptau.classify import (
    cm_tau_tilting_free,
    enumerate_indecomposables,
    support_tau_tilting_quiver,
    tau_rigid_test,
)
from gptau.field import RATIONAL_BACKEND
from gptau.gorenstein import (
    evaluation_is_isomorphism,
    gorenstein_algebra,
    gorenstein_projective,
    theorem_report,
)
from gptau.homalg import (
    ext_dim,
    inj_dim,
    is_tau_rigid,
    proj_dim,
    star_module,
    transpose_Tr,
)
from gptau.module import (
    direct_sum,
    injective_modules,
    is_isomorphic,
    is_projective,
    module_to_triple,
    projective_modules,
    regular_module,
    simple_modules,
    tensor_module,
)


class Criterion:
    """Prints one PASS/FAIL line per criterion and enforces the budget."""

    def __init__(self, number, title, budget_seconds):
        self.number = number
        self.title = title
        self.budget = budget_seconds
        self.t0 = time.time()

    def finish(self, ok, detail=""):
        elapsed = time.time() - self.t0
        line = "ACCEPTANCE %2d [%s]: %s (%.1fs / budget %ds, %s)%s" % (
            self.number,
            self.title,
            "PASS" if ok else "FAIL",
            elapsed,
            self.budget,
            RATIONAL_BACKEND,
            " — " + detail if detail else "",
        )
        print(line)
        assert ok, line
        assert elapsed < self.budget, "budget exceeded: " + line


def battery():
    return [
        linear_a_n(3),
        loop_algebra(3),
        cyclic_nakayama(2, 2),
        loop_flag_algebra(),
        trivial_algebra(),
    ]


def loop_flag_algebra():
    from gptau.algebra import example_loop_flag_algebra

    return example_loop_flag_algebra()


def test_criterion_01_loop_flag_golden():
    c = Criterion(1, "loop-flag golden facts", 10)
    a = loop_flag_algebra()
    g = gorenstein_algebra(a)
    ok = g.is_yes and g.value == 1 and g.witness == (1, 1)
    pd = proj_dim(simple_modules(a)[0])
    ok = ok and pd.is_no and "Omega" in pd.reason  # infinite via periodicity
    _, pairs, _ = support_tau_tilting_quiver(a)
    ok = ok and len(pairs) == 6
    cm = cm_tau_tilting_free(a, max_dim=10)
    ok = ok and cm.is_yes
    c.finish(ok, "1-Gorenstein; pd S1 infinite; 6 pairs; CM-tau-tilting free")


def test_criterion_02_generator_golden():
    c = Criterion(2, "A3 generator golden facts", 5)
    a = linear_a_n(3)
    P = projective_modules(a)
    I = injective_modules(a)
    S = simple_modules(a)
    ok = ext_dim(I[1], P[2], 1) == 1  # the non-split extension
    E1, _, _ = direct_sum(a, [P[0], P[1], P[2], I[1]])
    e = generator_data(E1)
    ok = ok and not is_tau_rigid(E1) and e_rigid(E1, e)
    ok = ok and e_rigid(S[0], e) and not in_add(S[0], e)
    pres = minimal_addE_presentation(S[0], e)
    ok = (
        ok
        and pres.p1.dim_vector() == (0, 1, 1)
        and pres.p0.dim_vector() == (1, 1, 0)
        and pres.module.dim_vector() == (1, 0, 0)
    )
    c.finish(ok, "relative rigidity and presentation shapes all exact")


def test_criterion_03_class_bijections():
    c = Criterion(3, "generator/endomorphism class bijections", 30)
    a = linear_a_n(3)
    P = projective_modules(a)
    I = injective_modules(a)
    E1, _, _ = direct_sum(a, [P[0], P[1], P[2], I[1]])
    t1 = bijection_table(generator_data(E1), max_dim=8)
    ok = t1.n_lambda == t1.n_gamma and t1.complete
    lf = loop_flag_algebra()
    t2_ = bijection_table(generator_data(regular_module(lf)), max_dim=8)
    ok = ok and t2_.n_lambda == t2_.n_gamma and t2_.complete
    c.finish(ok, "matched %d and %d classes" % (t1.n_lambda, t2_.n_lambda))


def test_criterion_04_nine_condition_equivalence():
    c = Criterion(4, "nine-condition self-injectivity suite", 60)
    ok = True
    details = []
    for n in (2, 3, 4):
        rep = theorem_report(loop_algebra(n))
        if not (
            rep["consistent"]
            and all(s.is_yes for s in rep["conditions"])
        ):
            ok = False
            details.append("K[x]/(x^%d) not all-yes" % n)
    a3 = linear_a_n(3)
    negatives = [a3, a3.opposite(), loop_flag_algebra(), cyclic_nakayama(2, 2)]
    names = ["A3", "op(A3)", "loop-flag", "cyclic-nakayama-J2"]
    for name, a in zip(names, negatives):
        rep = theorem_report(a)
        if not rep["consistent"]:
            ok = False
            details.append("%s inconsistent" % name)
        if any(s.is_yes for s in rep["conditions"]):
            ok = False
            details.append("%s has a certified-yes condition" % name)
    c.finish(ok, "; ".join(details) or "all verdicts as required")


def test_criterion_05_tau_criteria_never_disagree():
    c = Criterion(5, "both tau-rigidity criteria on 200+ modules", 120)
    rng = random.Random(2024)
    checked = 0
    for a in battery():
        reps = enumerate_indecomposables(a, a.dim + 2).representatives
        for m in reps:
            tau_rigid_test(m)  # raises CriteriaDisagreement on mismatch
            checked += 1
        pool = list(reps)
        for _ in range(40):
            parts = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
            s, _, _ = direct_sum(a, parts)
            tau_rigid_test(s)
            checked += 1
    c.finish(checked >= 200, "%d modules, zero disagreements" % checked)


def test_criterion_06_transport_to_opposite():
    c = Criterion(6, "transpose/star transport on the battery", 120)
    ok = True
    details = []
    checked = 0
    for a in battery():
        assert a.dim <= 6
        gorenstein_algebra(a)
        gorenstein_algebra(a.opposite())
        for m in enumerate_indecomposables(a, a.dim).representatives:
            if is_projective(m):
                continue
            mine = tau_rigid_test(m)
            trm = transpose_Tr(m)
            theirs = tau_rigid_test(trm) if trm.dim else True
            if mine != theirs:
                ok = False
                details.append("tau transport %s" % (m.dim_vector(),))
            g1 = gorenstein_projective(m)
            st = star_module(m)
            g2 = gorenstein_projective(st)
            # transport of GP status: certified-GP modules star to
            # certified-GP modules and are reflexive; certified non-GP
            # reflexive modules never star to certified-GP ones
            if g1.is_yes:
                if not (g2.is_yes and is_isomorphic(star_module(st), m)):
                    ok = False
                    details.append("GP fwd %s" % (m.dim_vector(),))
                checked += 1
            elif g1.is_no and evaluation_is_isomorphism(m):
                if g2.is_yes:
                    ok = False
                    details.append("GP rev %s" % (m.dim_vector(),))
                checked += 1
    c.finish(ok, "; ".join(details) or "%d certified transports" % checked)


def test_criterion_07_triangular_transfer():
    c = Criterion(7, "T2 of the loop-flag algebra", 120)
    a = loop_flag_algebra()
    tt = t2(a)
    g = gorenstein_algebra(tt)
    ok = g.is_yes and g.value == 2
    idr = inj_dim(regular_module(tt))
    ok = ok and idr.is_yes and idr.value == 2
    cm = cm_tau_tilting_free(tt, max_dim=8)
    ok = ok and cm.is_yes
    # indecomposable projectives carry exactly the two triple shapes
    for p in projective_modules(tt):
        x, y, phi = module_to_triple(p)
        if x.dim == 0:
            ok = ok and is_projective(y)
        else:
            ok = ok and phi.is_isomorphism() and is_projective(y)
    c.finish(ok, "certified (2,2)-Gorenstein, CM-tau-tilting free within bound")


def test_criterion_08_tensor_closure():
    c = Criterion(8, "tensor closure of GP and tau-rigid", 120)
    rng = random.Random(3)
    ok = True
    sampled = 0
    combos = [
        (linear_a_n(3), loop_algebra(3)),
        (t2(trivial_algebra()), loop_flag_algebra()),
    ]
    for a, b in combos:
        ab = tensor(a, b)
        gorenstein_algebra(ab)
        acls = enumerate_indecomposables(a, a.dim).representatives
        bcls = enumerate_indecomposables(b, min(b.dim, 6)).representatives
        agp = [m for m in acls if gorenstein_projective(m).is_yes]
        bgp = [m for m in bcls if gorenstein_projective(m).is_yes]
        brig = [m for m in bcls if tau_rigid_test(m)]
        for _ in range(5):
            m, n = rng.choice(agp), rng.choice(bgp)
            if not gorenstein_projective(tensor_module(m, n, ab)).is_yes:
                ok = False
            sampled += 1
        for _ in range(5):
            p, n = rng.choice(projective_modules(a)), rng.choice(brig)
            if not tau_rigid_test(tensor_module(p, n, ab)):
                ok = False
            sampled += 1
    c.finish(ok and sampled == 20, "%d sampled pairs closed" % sampled)


def test_criterion_09_hereditary_cm_freeness():
    c = Criterion(9, "hereditary A3 exact counts", 120)
    a = linear_a_n(3)
    cls = enumerate_indecomposables(a, 3)
    ok = len(cls.representatives) == 6
    gorenstein_algebra(a)
    gps = [
        m
        for m in cls.representatives
        if gorenstein_projective(m).is_yes
    ]
    projs = projective_modules(a)
    ok = ok and len(gps) == 3
    ok = ok and all(any(is_isomorphic(g, p) for p in projs) for g in gps)
    _, pairs, _ = support_tau_tilting_quiver(a)
    ok = ok and len(pairs) == 14
    c.finish(ok, "6 classes; GP = 3 projectives; 14 support pairs")


def test_criterion_10_disjoint_presentation_supports():
    c = Criterion(10, "relative presentations have disjoint supports", 120)
    ok = True
    details = []
    checked = 0
    gens = []
    for a in battery():
        gens.append((a, generator_data(regular_module(a))))
    a3 = linear_a_n(3)
    P = projective_modules(a3)
    I = injective_modules(a3)
    E1, _, _ = direct_sum(a3, [P[0], P[1], P[2], I[1]])
    gens.append((a3, generator_data(E1)))
    for a, e in gens:
        for m in enumerate_indecomposables(a, a.dim).representatives:
            if not e_rigid(m, e):
                continue
            pres = minimal_addE_presentation(m, e)
            if set(pres.p0_idx) & set(pres.p1_idx):
                ok = False
                details.append(str(m.dim_vector()))
            checked += 1
    c.finish(ok, "; ".join(details) or "%d E-rigid presentations" % checked)
