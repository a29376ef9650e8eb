"""CLI surface: commands, report emission, DOT output, exit codes."""

import json
import os

import pytest
from click.testing import CliRunner

from gptau.cli import main

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
