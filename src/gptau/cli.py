"""Command-line interface.

Every command emits a structured JSON report (stdout by default,
`--report FILE` to write it to disk) and exits with:

* 0 — all computed verdicts certified and no failures,
* 1 — at least one certified failure,
* 2 — no certified failure but some verdict remained unknown.

Every report carries a `stats` object: the hits, misses and evictions
of the memo's content-keyed entries during the command.
"""

from __future__ import annotations

import sys

import click

from . import classify as _classify, memo
from .algebra import AlgebraError, t2 as _t2, tensor as _tensor
from .approx import (
    cached_gamma,
    e_gorenstein_projective,
    e_rigid,
    generator_data,
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
    is_tau_inverse_rigid,
    self_injective,
    semi_gp,
)
from .homalg import global_dimension, is_tau_rigid
from .module import ModuleError
from .tristate import TriState, all_of, no, yes


def _exit_code(states):
    """0 all certified yes/pass, 1 any certified-no, 2 unknown-only."""
    states = [s for s in states if isinstance(s, TriState)]
    if any(s.is_no for s in states):
        return 1
    if any(s.is_unknown for s in states):
        return 2
    return 0


def _emit(report, report_path, code):
    report["stats"] = {"memo": dict(memo.counts)}
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


def _load_generator(path, algebra):
    """The generator data of a module file, with the Gamma = End(E)^op
    that every E-command builds.  approx.gamma refuses an E that is not
    a generator or whose Gamma is not split: a one-line error here."""
    e = generator_data(_load_module(path, algebra))
    try:
        cached_gamma(e)
    except AlgebraError as exc:
        raise click.ClickException("%s: %s" % (path, exc))
    return e


@click.group()
def main():
    """Exact workbench for Gorenstein projective and tau-rigid modules."""
    memo.reset_counts()


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
        e = _load_generator(gen_path, a)
    out = {}
    for p in want:
        if p == "tau-rigid":
            out[p] = (yes("hom(M, tau M) = 0") if is_tau_rigid(m)
                      else no("hom(M, tau M) != 0"))
        elif p == "tau-inv-rigid":
            out[p] = (yes("hom(tau^{-1} M, M) = 0") if is_tau_inverse_rigid(m)
                      else no("hom(tau^{-1} M, M) != 0"))
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
    max_dim = _classify.suite_bounds(a, max_dim=max_dim)[1]
    cls = _classify.enumerate_indecomposables(a, max_dim)
    report = {
        "algebra": alg,
        "max_dim": max_dim,
        "n_classes": len(cls.representatives),
        "complete_within_bound": cls.complete,
        "certified": cls.complete,
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
    max_dim = _classify.suite_bounds(a, max_dim=max_dim)[1]
    rigid, pairs, edges = _classify.support_tau_tilting_quiver(a, max_dim)
    complete = _classify.enumerate_indecomposables(a, max_dim).complete
    names = ["M(%s)" % ",".join(str(d) for d in m.dim_vector()) for m in rigid]
    labels = [p.label(names) for p in pairs]
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(support_quiver_dot(labels, edges))
        click.echo("DOT written to %s" % dot_path)
    report = {
        "algebra": alg,
        "max_dim": max_dim,
        "complete": complete,
        "n_tau_rigid_classes": len(rigid),
        "n_pairs": len(pairs),
        "pairs": labels,
        "edges": [list(e) for e in edges],
    }
    _emit(report, report_path, 0 if complete else 2)


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
    e = _load_generator(gen_path, a)
    g = cached_gamma(e)
    matched, extra = _classify.CHECKS["bijection"](
        a, *_classify.suite_bounds(a, bound, max_dim), e)
    report = {
        "algebra": alg,
        "generator": gen_path,
        "gamma_dim": g.algebra.dim,
        "gamma_n_simples": g.algebra.n_idempotents,
        "bijection": matched,
        "rows": extra.get("table", []),
        "counts": extra.get("counts", {}),
    }
    _emit(report, report_path, _exit_code([matched]))


# -- verify -------------------------------------------------------------------


@main.command("verify")
@click.argument("suite", type=click.Choice(list(_classify.SUITES)))
@click.argument("alg", type=click.Path(exists=True))
@click.option("--generator", "gen_path", type=click.Path(exists=True), default=None)
@click.option("--bound", type=int, default=None)
@click.option("--max-dim", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def verify(suite, alg, gen_path, bound, max_dim, report_path):
    """Run one theorem suite of the check registry on an algebra."""
    a = _load_algebra(alg)
    bound, max_dim = _classify.suite_bounds(a, bound, max_dim)
    report = {"suite": suite, "algebra": alg, "bound": bound, "max_dim": max_dim}
    checks = _classify.SUITES[suite]
    e = None
    if _classify.E_CHECKS.intersection(checks):
        if gen_path is None:
            raise click.ClickException("--generator FILE is required for %s" % suite)
        e = _load_generator(gen_path, a)
        report["generator"] = gen_path
    states, extra = _classify.run_checks(checks, a, bound, max_dim, e)
    report.update(states)
    report.update(extra)
    report["overall"] = all_of(states.values(), bound=bound)
    _emit(report, report_path, _exit_code([report["overall"]]))


if __name__ == "__main__":
    main()
