"""File formats: algebra/module parsing, export round-trips,
positional errors, DOT export, and report determinism."""

import os

import pytest

from gptau.fileio import (
    FormatError,
    parse_algebra_file,
    parse_module_file,
    report_json,
    support_quiver_dot,
    write_algebra_file,
    write_module_file,
)
from gptau.algebra import Quiver, Relation, bound_quiver_algebra, linear_a_n, t2
from gptau.field import GF
from gptau.module import (
    direct_sum,
    injective_modules,
    is_isomorphic,
    projective_modules,
    radical_submodule,
    regular_module,
)
from gptau.tristate import yes

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def test_fixture_dimensions():
    assert parse_algebra_file(fx("a3.alg")).dim == 6
    assert parse_algebra_file(fx("loop_flag.alg")).dim == 5
    assert parse_algebra_file(fx("kx3.alg")).dim == 3


def test_loop_relation_accepted():
    a = parse_algebra_file(fx("loop_flag.alg"))
    # alpha^2 = 0 held in the algebra: the label list has no alpha.alpha
    assert "alpha.alpha" not in a.basis_labels


def test_length_one_relation_rejected(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text(
        "kind quiver\nfield QQ\nvertices 1\narrow x 1 1\nrelation x\n"
    )
    with pytest.raises(FormatError) as exc:
        parse_algebra_file(str(p))
    assert "length < 2" in str(exc.value)


def test_malformed_field_rejected(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("kind quiver\nfield GF 6\nvertices 1\narrow x 1 1\n")
    with pytest.raises(FormatError):
        parse_algebra_file(str(p))


def test_quiver_algebra_round_trip(tmp_path):
    a = parse_algebra_file(fx("loop_flag.alg"))
    out = tmp_path / "out.alg"
    write_algebra_file(a, str(out))
    b = parse_algebra_file(str(out))
    assert b.dim == a.dim
    assert b.basis_labels == a.basis_labels
    assert b.mult == a.mult


def test_table_algebra_round_trip(tmp_path):
    a = t2(parse_algebra_file(fx("a3.alg")))
    out = tmp_path / "out.alg"
    write_algebra_file(a, str(out))
    b = parse_algebra_file(str(out))
    assert b.dim == a.dim
    assert b.mult == a.mult
    assert b.idempotents == a.idempotents


def test_module_fixtures():
    a3 = parse_algebra_file(fx("a3.alg"))
    i2 = parse_module_file(fx("i2.mod"), a3)
    assert i2.dim_vector() == (1, 1, 0)
    assert is_isomorphic(i2, injective_modules(a3)[1])
    e1 = parse_module_file(fx("e1.mod"), a3)
    assert e1.dim_vector() == (2, 3, 3)


def test_quiver_module_round_trip(tmp_path):
    a3 = parse_algebra_file(fx("a3.alg"))
    for p in projective_modules(a3):
        out = tmp_path / "m.mod"
        write_module_file(p, str(out))
        q = parse_module_file(str(out), a3)
        assert is_isomorphic(p, q)


def test_table_module_round_trip(tmp_path):
    a = t2(parse_algebra_file(fx("a3.alg")))
    m, _ = radical_submodule(regular_module(a))
    out = tmp_path / "m.mod"
    write_module_file(m, str(out))
    q = parse_module_file(str(out), a)
    assert is_isomorphic(m, q)


# -- round trips over GF(7): scalars are written as ints in [0, 7) -----------


def test_gf_module_round_trip(tmp_path):
    a = linear_a_n(3, GF(7))
    b = t2(linear_a_n(2, GF(7)))
    mods = projective_modules(a) + injective_modules(a)
    mods += [direct_sum(a, mods[:2])[0], regular_module(b)]
    for m in mods:
        out = tmp_path / "m.mod"
        write_module_file(m, str(out))
        assert "Fp" not in out.read_text()
        q = parse_module_file(str(out), m.algebra)
        assert q.field == GF(7) and is_isomorphic(m, q)


def test_gf_table_algebra_round_trip(tmp_path):
    a = t2(linear_a_n(2, GF(7)))
    out = tmp_path / "t2.alg"
    write_algebra_file(a, str(out))
    b = parse_algebra_file(str(out))
    assert b.field == GF(7) and b.dim == a.dim == 9
    assert (b.mult, b.unit, b.idempotents, b.radical) == (
        a.mult, a.unit, a.idempotents, a.radical)


def test_gf_quiver_algebra_round_trip_keeps_relation_coefficients(tmp_path):
    """A commutative square up to the factor 3: b.a = -3 d.c over GF(7),
    written as 'b.a + 3*d.c' and read back as the same algebra."""
    q = Quiver((1, 2, 3, 4), (("a", 1, 2), ("b", 2, 4), ("c", 1, 3),
                              ("d", 3, 4)))
    rel = Relation(((1, ("b", "a")), (3, ("d", "c"))))
    a = bound_quiver_algebra(q, [rel], 3, GF(7))
    out = tmp_path / "sq.alg"
    write_algebra_file(a, str(out))
    text = out.read_text()
    assert "relation b.a + 3*d.c" in text and "field GF 7" in text
    b = parse_algebra_file(str(out))
    assert b.field == GF(7) and b.dim == a.dim == 9
    assert b.basis_labels == a.basis_labels and b.mult == a.mult
    # the surviving length-2 path carries the coefficient 7 - 3 = 4
    assert any(4 in v for row in b.mult for v in row)


def test_zero_module_accepted(tmp_path):
    a3 = parse_algebra_file(fx("a3.alg"))
    p = tmp_path / "z.mod"
    p.write_text("kind module\ndim 0\n")
    z = parse_module_file(str(p), a3)
    assert z.dim == 0


def test_action_axiom_violation_reported(tmp_path):
    lf = parse_algebra_file(fx("loop_flag.alg"))
    p = tmp_path / "bad.mod"
    # alpha with alpha^2 != 0 on a 2-dim vertex space
    p.write_text("kind quiver-module\ndims 2 0\narrow alpha : 0 1 ; 0 1\n")
    with pytest.raises(FormatError) as exc:
        parse_module_file(str(p), lf)
    assert "alpha" in str(exc.value)


@pytest.mark.parametrize("text, lineno, msg", [
    ("kind quiver-module\ndims 1 1 0\narrow a : 1 0\n", 3, "must be 1 x 1"),
    ("kind quiver-module\ndims 1 1\narrow a : 1\n", 2, "dims needs 3"),
    ("kind quiver-module\ndims 1 1 0\narrow a : 1\narrow a : 0\n", 4,
     "repeated arrow"),
    ("kind module\ndim 1\naction e_1 : 1\naction 0 : 1\n", 4,
     "repeated action"),
    ("kind quiver-module\ndims 1 1 0\narrow a1 : 1\n", 3, "unknown arrow"),
    ("kind quiver-module\ndims 1 0 0\naction e_1 : 5\n", 3,
     "'action' lines do not belong"),
    ("kind quiver-module\ndim 1\ndims 1 0 0\n", 2, "'dim' lines do not"),
    ("kind module\ndim 0\narrow a : 1 0 ; 0 1\ndims 4 4\n", 3,
     "'arrow' lines do not belong"),
    ("kind module\ndim 0\ndims 4 4\n", 3, "'dims' lines do not belong"),
], ids=["arrow-shape", "dims-length", "repeated-arrow", "repeated-action",
        "unknown-arrow", "action-in-quiver-module", "dim-in-quiver-module",
        "arrow-in-module", "dims-in-module"])
def test_shape_mismatch_reported(tmp_path, text, lineno, msg):
    a3 = parse_algebra_file(fx("a3.alg"))
    p = tmp_path / "bad.mod"
    p.write_text(text)
    with pytest.raises(FormatError) as exc:
        parse_module_file(str(p), a3)
    assert exc.value.lineno == lineno
    assert msg in str(exc.value)


@pytest.mark.parametrize("fixture, line, bad", [
    ("a3.alg", "nilpotency 4", "nilpotency x"),
    ("i2.mod", "dims 1 1 0", "dims 1 x"),
    ("i2.mod", "dims 1 1 0", "dims -1 1 0"),
    ("i2.mod", "dims 1 1 0", "dim x"),
])
def test_malformed_integer_reported_at_its_line(tmp_path, fixture, line, bad):
    with open(fx(fixture)) as fh:
        lines = fh.read().splitlines()
    lineno = lines.index(line) + 1
    lines[lineno - 1] = bad
    p = tmp_path / fixture
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc:
        if fixture.endswith(".alg"):
            parse_algebra_file(str(p))
        else:
            parse_module_file(str(p), parse_algebra_file(fx("a3.alg")))
    assert exc.value.lineno == lineno
    assert "nonnegative integer" in str(exc.value)


def test_dot_export_stable():
    labels = ["(A | 0)", "(B | P1)"]
    dot = support_quiver_dot(labels, [(0, 1)])
    assert dot == support_quiver_dot(labels, [(0, 1)])
    assert 'n0 [label="(A | 0)"];' in dot
    assert "n0 -- n1;" in dot
    assert dot.startswith("graph ")


def test_report_json_deterministic_and_tristate_aware():
    rep = {"x": yes("fine", bound=3), "nested": {"vals": [1, "a", None]}}
    s1 = report_json(rep)
    s2 = report_json(rep)
    assert s1 == s2
    assert '"verdict": "certified-yes"' in s1
