"""Command-line interface.

Every command emits a structured JSON report (stdout by default,
`--report FILE` to write it to disk) and exits with:

* 0 — all computed verdicts certified and no failures,
* 1 — at least one certified failure,
* 2 — no certified failure but some verdict remained unknown.
"""

from __future__ import annotations

import random
import sys

import click

from . import classify as _classify
from . import gorenstein as _gor
from .algebra import AlgebraError, t2 as _t2, tensor as _tensor
from .approx import (
    bijection_table,
    e_gorenstein_projective,
    e_rigid,
    generator_data,
    minimal_addE_presentation,
)
from .fileio import (
    FormatError,
    parse_algebra_file,
    parse_module_file,
    report_json,
    support_quiver_dot,
    write_algebra_file,
    write_report,
)
from .gorenstein import (
    gorenstein_algebra,
    gorenstein_injective,
    gorenstein_projective,
    self_injective,
    semi_gp,
    tachikawa_probe,
    theorem_report,
)
from .homalg import global_dimension, inj_dim, transpose_Tr
from .module import (
    ModuleError,
    direct_sum,
    is_projective,
    regular_module,
)
from .tristate import TriState, no, unknown, yes


def _exit_code(states):
    """0 all certified yes/pass, 1 any certified-no, 2 unknown-only."""
    states = [s for s in states if isinstance(s, TriState)]
    if any(s.is_no for s in states):
        return 1
    if any(s.is_unknown for s in states):
        return 2
    return 0


def _emit(report, report_path, code):
    text = report_json(report)
    if report_path:
        write_report(report, report_path)
        click.echo("report written to %s" % report_path)
    else:
        click.echo(text, nl=False)
    sys.exit(code)


def _load_algebra(path):
    try:
        return parse_algebra_file(path)
    except (FormatError, AlgebraError) as exc:
        raise click.ClickException(str(exc))


def _load_module(path, algebra):
    try:
        return parse_module_file(path, algebra)
    except (FormatError, ModuleError) as exc:
        raise click.ClickException(str(exc))


@click.group()
@click.option("--seed", type=int, default=None, help="decomposition seed policy")
@click.pass_context
def main(ctx, seed):
    """Exact workbench for Gorenstein projective and tau-rigid modules."""
    ctx.ensure_object(dict)
    ctx.obj["seed"] = seed
    if seed is not None:
        random.seed(seed)


# -- algebra ------------------------------------------------------------------


@main.group()
def algebra():
    """Algebra-level checks."""


@algebra.command("check")
@click.argument("alg", type=click.Path(exists=True))
@click.option("--bound", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def algebra_check(alg, bound, report_path):
    """Dimension, Gorenstein status, global dimension, self-injectivity."""
    a = _load_algebra(alg)
    g = gorenstein_algebra(a, bound)
    gd = global_dimension(a, bound)
    report = {
        "algebra": alg,
        "dim": a.dim,
        "n_simples": a.n_idempotents,
        "gorenstein": g,
        "global_dimension": gd,
        "self_injective": self_injective(a),
    }
    _emit(report, report_path, 2 if (g.is_unknown or gd.is_unknown) else 0)


# -- module -------------------------------------------------------------------

_PROPS = ("tau-rigid", "tau-inv-rigid", "gp", "semi-gp", "gi", "e-rigid", "e-gp")


@main.group()
def module():
    """Module-level checks."""


@module.command("check")
@click.argument("alg", type=click.Path(exists=True))
@click.argument("mod", type=click.Path(exists=True))
@click.option("--props", default="tau-rigid", help="comma list: %s" % ",".join(_PROPS))
@click.option("--generator", "gen_path", type=click.Path(exists=True), default=None)
@click.option("--bound", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def module_check(alg, mod, props, gen_path, bound, report_path):
    """Verify the requested properties of a module."""
    a = _load_algebra(alg)
    m = _load_module(mod, a)
    want = [p.strip() for p in props.split(",") if p.strip()]
    bad = [p for p in want if p not in _PROPS]
    if bad:
        raise click.ClickException("unknown properties: %s" % ", ".join(bad))
    e = None
    if any(p.startswith("e-") for p in want):
        if gen_path is None:
            raise click.ClickException(
                "--generator FILE is required for e-rigid / e-gp"
            )
        e = generator_data(_load_module(gen_path, a))
    out = {}
    for p in want:
        if p == "tau-rigid":
            out[p] = yes("hom(M, tau M) = 0") if _classify.tau_rigid_test(m) else no(
                "hom(M, tau M) != 0"
            )
        elif p == "tau-inv-rigid":
            out[p] = (
                yes("hom(tau^{-1} M, M) = 0")
                if _classify.tau_inverse_rigid_test(m)
                else no("hom(tau^{-1} M, M) != 0")
            )
        elif p == "gp":
            out[p] = gorenstein_projective(m, bound)
        elif p == "semi-gp":
            out[p] = semi_gp(m, bound)
        elif p == "gi":
            out[p] = gorenstein_injective(m, bound)
        elif p == "e-rigid":
            out[p] = yes("hom(f1, M) surjective") if e_rigid(m, e) else no(
                "hom(f1, M) not surjective"
            )
        elif p == "e-gp":
            out[p] = e_gorenstein_projective(m, e, bound)
    report = {
        "algebra": alg,
        "module": mod,
        "dim": m.dim,
        "dim_vector": list(m.dim_vector()),
        "properties": out,
    }
    code = 2 if any(s.is_unknown for s in out.values()) else 0
    _emit(report, report_path, code)


# -- enumerate ----------------------------------------------------------------


@main.group()
def enumerate():
    """Bounded enumeration of indecomposables and support pairs."""


@enumerate.command("indec")
@click.argument("alg", type=click.Path(exists=True))
@click.option("--max-dim", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def enumerate_indec(alg, max_dim, report_path):
    """Indecomposable modules up to the dimension bound."""
    a = _load_algebra(alg)
    if max_dim is None:
        max_dim = 2 * a.dim
    cls = _classify.enumerate_indecomposables(a, max_dim)
    report = {
        "algebra": alg,
        "max_dim": max_dim,
        "n_classes": len(cls.representatives),
        "complete_within_bound": cls.complete,
        "classes": [
            {"dim": m.dim, "dim_vector": list(m.dim_vector())}
            for m in cls.representatives
        ],
        "notes": cls.notes,
    }
    _emit(report, report_path, 0 if cls.complete else 2)


@enumerate.command("stau-tilt")
@click.argument("alg", type=click.Path(exists=True))
@click.option("--max-dim", type=int, default=None)
@click.option("--dot", "dot_path", type=click.Path(), default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def enumerate_stau(alg, max_dim, dot_path, report_path):
    """Support tau-tilting pairs and their exchange graph."""
    a = _load_algebra(alg)
    rigid, pairs, edges = _classify.support_tau_tilting_quiver(a, max_dim)
    names = ["M(%s)" % ",".join(str(d) for d in m.dim_vector()) for m in rigid]
    labels = [p.label(names) for p in pairs]
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(support_quiver_dot(labels, edges))
        click.echo("DOT written to %s" % dot_path)
    report = {
        "algebra": alg,
        "n_tau_rigid_classes": len(rigid),
        "n_pairs": len(pairs),
        "pairs": labels,
        "edges": [list(e) for e in edges],
    }
    _emit(report, report_path, 0)


# -- construct ----------------------------------------------------------------


@main.command("construct")
@click.argument("what", type=click.Choice(["op", "t2", "tensor"]))
@click.argument("algs", nargs=-1, type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
def construct(what, algs, output):
    """Write the opposite, T2, or tensor algebra to a file."""
    need = 2 if what == "tensor" else 1
    if len(algs) != need:
        raise click.ClickException("construct %s takes %d algebra file(s)" % (what, need))
    a = _load_algebra(algs[0])
    if what == "op":
        out = a.opposite()
    elif what == "t2":
        out = _t2(a)
    else:
        out = _tensor(a, _load_algebra(algs[1]))
    write_algebra_file(out, output)
    click.echo("%s algebra (dim %d) written to %s" % (what, out.dim, output))


# -- gamma --------------------------------------------------------------------


@main.command("gamma")
@click.argument("alg", type=click.Path(exists=True))
@click.option("--generator", "gen_path", required=True, type=click.Path(exists=True))
@click.option("--bound", type=int, default=None)
@click.option("--max-dim", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def gamma_cmd(alg, gen_path, bound, max_dim, report_path):
    """Endomorphism algebra of the generator, plus the bijection table."""
    a = _load_algebra(alg)
    e = generator_data(_load_module(gen_path, a))
    from .approx import cached_gamma

    g = cached_gamma(e)
    try:
        table = bijection_table(e, bound, max_dim)
        matched = yes(
            "all %d classes matched" % table.n_lambda, bound=table.bound
        )
        rows = [
            {
                "base_dim_vector": list(m.dim_vector()),
                "gamma_dim_vector": list(n.dim_vector()),
            }
            for m, n in table.rows
        ]
        counts = {"n_base": table.n_lambda, "n_gamma": table.n_gamma,
                  "complete": table.complete}
    except ModuleError as exc:
        matched = no(str(exc))
        rows, counts = [], {}
    report = {
        "algebra": alg,
        "generator": gen_path,
        "gamma_dim": g.algebra.dim,
        "gamma_n_simples": g.algebra.n_idempotents,
        "bijection": matched,
        "rows": rows,
        "counts": counts,
    }
    _emit(report, report_path, _exit_code([matched]))


# -- verify -------------------------------------------------------------------

_SUITES = (
    "prop-2.5",
    "prop-3.4",
    "prop-4.5",
    "thm-3.10",
    "thm-4.7",
    "thm-5.2",
    "prop-5.1",
    "tachikawa",
)


def _suite_tau_criteria(a, max_dim, sample=20, seed=7):
    """Both tau-rigidity criteria on every enumerated indecomposable and
    on sampled direct sums; certified-no on any disagreement."""
    cls = _classify.enumerate_indecomposables(a, max_dim)
    reps = cls.representatives
    rng = random.Random(seed)
    pool = list(reps)
    checked = 0
    try:
        for m in reps:
            _classify.tau_rigid_test(m)
            checked += 1
        for _ in range(sample):
            k = rng.randint(2, 3)
            parts = [rng.choice(pool) for _ in range(k)]
            s, _, _ = direct_sum(a, parts)
            _classify.tau_rigid_test(s)
            checked += 1
    except _classify.CriteriaDisagreement as exc:
        return no("criteria disagree: %s" % exc)
    return yes("criteria agree on %d modules" % checked, bound=max_dim)


def _suite_opposite_transport(a, bound, max_dim):
    """tau-rigidity transports along the transpose to the opposite
    algebra, and CM-tau-tilting freeness agrees with the opposite."""
    cls = _classify.enumerate_indecomposables(a, max_dim)
    checked = 0
    for m in cls.representatives:
        if is_projective(m):
            continue
        mine = _classify.tau_rigid_test(m)
        trm = transpose_Tr(m)
        theirs = _classify.tau_rigid_test(trm) if trm.dim else True
        if mine != theirs:
            return no(
                "transpose transport fails", witness=m.dim_vector(), bound=max_dim
            )
        checked += 1
    mine = _classify.cm_tau_tilting_free(a, bound, max_dim)
    theirs = _classify.cm_tau_tilting_free(a.opposite(), bound, max_dim)
    if mine.is_unknown or theirs.is_unknown:
        return unknown("a CM-freeness side is unresolved", bound=bound)
    if mine.verdict != theirs.verdict:
        return no("CM-freeness differs from the opposite", bound=bound)
    return yes(
        "transport holds on %d non-projectives; CM verdicts agree" % checked,
        bound=bound,
    )


def _suite_e_presentations(a, e, max_dim):
    """Every E-rigid module within bound has an add-E presentation whose
    end terms share no E-summand class."""
    cls = _classify.enumerate_indecomposables(a, max_dim)
    checked = 0
    for m in cls.representatives:
        if not e_rigid(m, e):
            continue
        pres = minimal_addE_presentation(m, e)
        if set(pres.p0_idx) & set(pres.p1_idx):
            return no(
                "presentation terms share a summand class",
                witness=m.dim_vector(),
                bound=max_dim,
            )
        checked += 1
    return yes("disjoint supports on %d E-rigid modules" % checked, bound=max_dim)


def _suite_t2_transfer(a, bound, max_dim):
    """CM-tau-tilting freeness transfers to T2, and the regular injective
    dimension grows by exactly one."""
    states = {}
    t = _t2(a)
    mine = _classify.cm_tau_tilting_free(a, bound, max_dim)
    theirs = _classify.cm_tau_tilting_free(t, bound, max_dim)
    if mine.is_unknown or theirs.is_unknown:
        states["cm_transfer"] = unknown("a side is unresolved", bound=bound)
    elif mine.verdict == theirs.verdict:
        states["cm_transfer"] = yes("verdicts agree", bound=bound)
    else:
        states["cm_transfer"] = no("verdicts differ", bound=bound)
    ida = inj_dim(regular_module(a), bound)
    idt = inj_dim(regular_module(t), bound)
    states["id_shift"] = _classify.id_shift_state(ida, idt, bound)
    return states


def _suite_bijection(a, e, bound, max_dim):
    try:
        table = bijection_table(e, bound, max_dim)
    except ModuleError as exc:
        return no(str(exc)), None
    state = yes(
        "matched %d = %d classes" % (table.n_lambda, table.n_gamma),
        bound=table.bound,
    )
    if not table.complete:
        state = unknown(
            "enumeration incomplete within bound (matched %d classes so far)"
            % table.n_lambda,
            bound=table.bound,
        )
    return state, table


def _suite_nine_conditions(a, bound, max_dim):
    rep = theorem_report(a, bound, max_dim)
    conds = rep["conditions"]
    if not rep["consistent"]:
        overall = no("certified conditions contradict each other",
                     bound=rep["bound"])
    elif any(c.is_unknown for c in conds):
        overall = unknown("some conditions unresolved", bound=rep["bound"])
    else:
        overall = yes(
            "all nine conditions certified-%s"
            % ("yes" if conds[0].is_yes else "no"),
            bound=rep["bound"],
        )
    return overall, rep


def _suite_three_way(a, bound):
    probe = tachikawa_probe(a, bound)
    pieces = [probe["dlam_semi_gp"], probe["dlam_tau_rigid"],
              probe["lam_tau_inverse_rigid"]]
    if probe["three_way_consistent"] is False:
        overall = no("three-way equivalence violated", bound=probe["bound"])
    elif any(p.is_unknown for p in pieces if isinstance(p, TriState)):
        overall = unknown("a piece is unresolved", bound=probe["bound"])
    else:
        overall = yes("three-way equivalence holds", bound=probe["bound"])
    return overall, probe


def _suite_tachikawa(a, bound):
    probe = tachikawa_probe(a, bound)
    if probe["counterexample_candidate"]:
        overall = no(
            "semi-Gorenstein-projective dual with non-tau-rigid behavior found",
            bound=probe["bound"],
        )
    else:
        sgp = probe["dlam_semi_gp"]
        if isinstance(sgp, TriState) and sgp.is_unknown:
            overall = unknown("semi-GP status of D(algebra) unresolved",
                              bound=probe["bound"])
        else:
            overall = yes("no counterexample candidate", bound=probe["bound"])
    return overall, probe


@main.command("verify")
@click.argument("suite", type=click.Choice(_SUITES))
@click.argument("alg", type=click.Path(exists=True))
@click.option("--generator", "gen_path", type=click.Path(exists=True), default=None)
@click.option("--bound", type=int, default=None)
@click.option("--max-dim", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def verify(suite, alg, gen_path, bound, max_dim, report_path):
    """Run one consistency/theorem suite on an algebra."""
    a = _load_algebra(alg)
    if bound is None:
        bound = _gor.default_bound(a)
    if max_dim is None:
        max_dim = 2 * a.dim
    report = {"suite": suite, "algebra": alg, "bound": bound, "max_dim": max_dim}
    extra_states = []

    if suite in ("prop-4.5", "thm-4.7"):
        if gen_path is None:
            raise click.ClickException("--generator FILE is required for %s" % suite)
        e = generator_data(_load_module(gen_path, a))
        report["generator"] = gen_path

    if suite == "prop-2.5":
        overall = _suite_tau_criteria(a, max_dim)
    elif suite == "prop-3.4":
        overall = _suite_opposite_transport(a, bound, max_dim)
    elif suite == "prop-4.5":
        overall = _suite_e_presentations(a, e, max_dim)
    elif suite == "thm-3.10":
        states = _suite_t2_transfer(a, bound, max_dim)
        report.update(states)
        extra_states = list(states.values())
        if any(s.is_no for s in extra_states):
            overall = no("a sub-check failed", bound=bound)
        elif any(s.is_unknown for s in extra_states):
            overall = unknown("a sub-check is unresolved", bound=bound)
        else:
            overall = yes("transfer and dimension shift verified", bound=bound)
    elif suite == "thm-4.7":
        overall, table = _suite_bijection(a, e, bound, max_dim)
        if table is not None:
            report["table"] = [
                {
                    "base_dim_vector": list(m.dim_vector()),
                    "gamma_dim_vector": list(n.dim_vector()),
                }
                for m, n in table.rows
            ]
    elif suite == "thm-5.2":
        overall, rep = _suite_nine_conditions(a, bound, max_dim)
        report["conditions"] = rep["conditions"]
        report["consistent"] = rep["consistent"]
    elif suite == "prop-5.1":
        overall, probe = _suite_three_way(a, bound)
        report["probe"] = probe
    else:  # tachikawa
        overall, probe = _suite_tachikawa(a, bound)
        report["probe"] = probe

    report["overall"] = overall
    _emit(report, report_path, _exit_code([overall]))


if __name__ == "__main__":
    main()
