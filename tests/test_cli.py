"""CLI surface: commands, report emission, DOT output, exit codes."""

import json
import os

import pytest
from click.testing import CliRunner

from gptau.algebra import t2
from gptau.classify import SUITES, consistency_suites
from gptau.cli import main, verify
from gptau.field import GF
from gptau.fileio import (
    parse_algebra_file,
    parse_module_file,
    write_module_file,
)
from gptau.module import direct_sum, regular_module, simple_modules

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


def test_algebra_check_certifies_growing_syzygies(runner):
    # Omega S = S + S over k[x, y]/(x, y)^2: the whole syzygies grow,
    # their summands cycle, so both dimensions are certified infinite
    r = run(runner, "algebra", "check", fx("kxy2.alg"), "--bound", "4")
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["gorenstein"]["verdict"] == "certified-no"
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
    assert rep["certified"] is True


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
    assert rep["complete"] is True and rep["max_dim"] == 10
    text = dot.read_text()
    assert text.count("label=") == 6


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_enumerate_stau_tilt_bound_limited_exits_2(runner):
    """k[x,y]/(x,y)^2 is representation-infinite: its enumeration to
    2 dim A = 6 is bound-limited, so the pairs are not certified."""
    r = run(runner, "enumerate", "stau-tilt", fx("kxy2.alg"))
    assert r.exit_code == 2
    rep = json.loads(r.output)
    assert rep["complete"] is False and rep["max_dim"] == 6


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


def _write_module(m, tmp_path, name):
    path = tmp_path / name
    write_module_file(m, str(path))
    return str(path)


@pytest.mark.parametrize("cmd", [["gamma"], ["verify", "thm-4.7"]])
def test_bijection_on_kxy2_with_a_simple_is_unknown(runner, tmp_path, cmd):
    """E = A + S over k[x,y]/(x,y)^2: Gamma (dim 7) is
    representation-infinite, so both commands read the bound-limited
    table as unknown."""
    a = parse_algebra_file(fx("kxy2.alg"))
    gen = _write_module(direct_sum(a, [regular_module(a),
                                       simple_modules(a)[0]])[0],
                        tmp_path, "a_plus_s.mod")
    r = run(runner, *cmd, fx("kxy2.alg"), "--generator", gen)
    assert r.exit_code == 2
    rep = json.loads(r.output)
    assert rep["bijection"]["verdict"] == "unknown"
    assert rep["counts"]["complete"] is False
    assert rep["counts"]["n_base"] >= 1 and rep["counts"]["n_gamma"] >= 1


@pytest.mark.parametrize("cmd", [
    ["module", "check", fx("a3.alg"), fx("i2.mod"), "--props", "e-rigid"],
    ["gamma", fx("a3.alg")],
    ["verify", "thm-4.7", fx("a3.alg")],
])
def test_non_generator_is_rejected_in_one_line(runner, tmp_path, cmd):
    s1 = _write_module(simple_modules(parse_algebra_file(fx("a3.alg")))[0],
                       tmp_path, "s1.mod")
    r = run(runner, *cmd, "--generator", s1)
    assert r.exit_code == 1
    assert r.output.strip().count("\n") == 0
    assert "is not a generator" in r.output


def test_generator_with_a_non_split_gamma_is_rejected_in_one_line(
        runner, tmp_path):
    """Over QQ the Kronecker module with a = 1 and b a quarter turn has
    End = QQ(i), so Gamma of A + it is not split."""
    alg = tmp_path / "kronecker.alg"
    alg.write_text("kind quiver\nfield QQ\nvertices 1 2\narrow a 1 2\n"
                   "arrow b 1 2\nnilpotency 2\n")
    turn = tmp_path / "turn.mod"
    turn.write_text("kind quiver-module\ndims 2 2\narrow a : 1 0 ; 0 1\n"
                    "arrow b : 0 -1 ; 1 0\n")
    a = parse_algebra_file(str(alg))
    gen = _write_module(direct_sum(a, [regular_module(a),
                                       parse_module_file(str(turn), a)])[0],
                        tmp_path, "gen.mod")
    r = run(runner, "gamma", str(alg), "--generator", gen)
    assert r.exit_code == 1
    assert r.output.strip().count("\n") == 0
    assert "is not the ground field" in r.output


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
