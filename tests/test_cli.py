"""CLI surface: commands, report emission, DOT output, exit codes."""

import json
import os

import pytest
from click.testing import CliRunner

from gptau.algebra import t2
from gptau.classify import SUITES, consistency_suites
from gptau.cli import main, verify
from gptau.field import GF
from gptau.fileio import parse_algebra_file

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_algebra_check(runner):
    r = run(runner, "algebra", "check", fx("a3.alg"))
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["dim"] == 6
    assert rep["gorenstein"]["verdict"] == "certified-yes"
    assert rep["self_injective"] is False


def test_algebra_check_self_injective(runner):
    r = run(runner, "algebra", "check", fx("kx3.alg"))
    rep = json.loads(r.output)
    assert rep["self_injective"] is True
    assert rep["global_dimension"]["verdict"] == "certified-no"


def test_module_check_props(runner):
    r = run(
        runner,
        "module",
        "check",
        fx("a3.alg"),
        fx("i2.mod"),
        "--props",
        "tau-rigid,gp,semi-gp,e-rigid",
        "--generator",
        fx("e1.mod"),
    )
    assert r.exit_code == 0
    rep = json.loads(r.output)
    props = {k: v["verdict"] for k, v in rep["properties"].items()}
    assert props["tau-rigid"] == "certified-yes"
    assert props["gp"] == "certified-no"
    assert props["e-rigid"] == "certified-yes"


def test_module_check_missing_generator_errors(runner):
    r = run(runner, "module", "check", fx("a3.alg"), fx("i2.mod"),
            "--props", "e-gp")
    assert r.exit_code != 0
    assert "generator" in r.output


def test_enumerate_indec(runner):
    r = run(runner, "enumerate", "indec", fx("a3.alg"), "--max-dim", "4")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["n_classes"] == 6
    assert rep["complete_within_bound"] is True


def test_enumerate_stau_tilt_dot(runner, tmp_path):
    dot = tmp_path / "g.dot"
    rep_file = tmp_path / "r.json"
    r = run(
        runner,
        "enumerate",
        "stau-tilt",
        fx("loop_flag.alg"),
        "--dot",
        str(dot),
        "--report",
        str(rep_file),
    )
    assert r.exit_code == 0
    rep = json.loads(rep_file.read_text())
    assert rep["n_pairs"] == 6
    text = dot.read_text()
    assert text.count("label=") == 6


def test_construct_op_t2_tensor(runner, tmp_path):
    out = tmp_path / "x.alg"
    r = run(runner, "construct", "op", fx("a3.alg"), "-o", str(out))
    assert r.exit_code == 0 and "dim 6" in r.output
    r = run(runner, "construct", "t2", fx("kx3.alg"), "-o", str(out))
    assert r.exit_code == 0 and "dim 9" in r.output
    r = run(runner, "construct", "tensor", fx("kx3.alg"), fx("kx3.alg"),
            "-o", str(out))
    assert r.exit_code == 0 and "dim 9" in r.output


def test_construct_t2_over_gf_reads_back(runner, tmp_path):
    src = tmp_path / "kx3gf.alg"
    src.write_text(open(fx("kx3.alg")).read().replace("field QQ", "field GF 7"))
    out = tmp_path / "t2.alg"
    r = run(runner, "construct", "t2", str(src), "-o", str(out))
    assert r.exit_code == 0 and "dim 9" in r.output
    b = parse_algebra_file(str(out))
    assert b.field == GF(7) and b.mult == t2(parse_algebra_file(str(src))).mult


def test_gamma_command(runner):
    r = run(runner, "gamma", fx("a3.alg"), "--generator", fx("e1.mod"))
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["gamma_dim"] == 9
    assert rep["bijection"]["verdict"] == "certified-yes"


def test_verify_nine_conditions_self_injective(runner):
    r = run(runner, "verify", "thm-5.2", fx("kx3.alg"))
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert all(c["verdict"] == "certified-yes" for c in rep["conditions"])


def test_verify_bijection_suite(runner):
    r = run(runner, "verify", "thm-4.7", fx("a3.alg"),
            "--generator", fx("e1.mod"))
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["overall"]["verdict"] == "certified-yes"
    assert len(rep["table"]) == 4


def test_verify_tau_criteria_suite(runner):
    r = run(runner, "verify", "prop-2.5", fx("a3.alg"))
    assert r.exit_code == 0


def test_verify_suites_are_the_registry_suites():
    suite = next(p for p in verify.params if p.name == "suite")
    assert list(suite.type.choices) == list(SUITES)


@pytest.mark.parametrize("alg", ["a3.alg", "kx3.alg"])
def test_verify_and_consistency_suites_share_checks(runner, alg):
    """A check reached through `verify` and through consistency_suites
    gives the same verdict under the same bound."""
    cons = consistency_suites(parse_algebra_file(fx(alg)))
    shared = {"prop-3.4": ["opposite_transport"],
              "thm-3.10": ["triangular_transport", "t2_id_shift"]}
    for suite, names in shared.items():
        rep = json.loads(run(runner, "verify", suite, fx(alg)).output)
        for name in names:
            assert name in rep, (suite, name)
            assert (rep[name]["verdict"], rep[name]["bound"]) == (
                cons[name].verdict, cons[name].bound), (suite, name)


def test_verify_unknown_suite_rejected(runner):
    r = run(runner, "verify", "nonsense", fx("a3.alg"))
    assert r.exit_code != 0


def test_missing_file_rejected(runner):
    r = run(runner, "algebra", "check", "no_such_file.alg")
    assert r.exit_code != 0


def test_malformed_algebra_positional_error(runner, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("kind quiver\nfield QQ\nvertices 1\narrow x 1 1\nrelation x\n")
    r = run(runner, "algebra", "check", str(bad))
    assert r.exit_code != 0
    assert ":5:" in r.output


def test_seed_option_is_gone(runner):
    """Every random choice in the library is seeded by a fixed constant,
    so there is no seed to set."""
    r = run(runner, "--seed", "3", "algebra", "check", fx("a3.alg"))
    assert r.exit_code == 2
    assert "No such option" in r.output and "--seed" in r.output
