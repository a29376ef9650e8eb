"""Algebra constructors and validation.

Oracles: dimension counts from path enumeration, structure-constant
identities re-checked by Algebra.validate, and opposite/tensor axioms."""

import itertools
import random

import pytest

from gptau.algebra import (
    Algebra,
    AlgebraError,
    Quiver,
    Relation,
    bound_quiver_algebra,
    cyclic_nakayama,
    example_loop_flag_algebra,
    linear_a_n,
    loop_algebra,
    t2,
    tensor,
    trivial_algebra,
)
from gptau.approx import gamma, generator_data
from gptau.field import GF, QQ
from gptau.linalg import Matrix
from gptau.module import (
    direct_sum,
    dual_D,
    projective_modules,
    rad_end,
    regular_module,
)


def test_builder_dimensions(a3, loop_flag, kx3, nakayama22, ground_field_algebra):
    # path counts: A3 has 3 vertices + 2 arrows + 1 length-2 path
    assert a3.dim == 6
    # loop-flag: e1, e2, alpha, beta, beta.alpha
    assert loop_flag.dim == 5
    assert kx3.dim == 3
    # cyclic 2 vertices, J^2: 2 vertices + 2 arrows
    assert nakayama22.dim == 4
    assert ground_field_algebra.dim == 1


def test_quiver_rejects_duplicate_arrows():
    with pytest.raises(AlgebraError):
        Quiver((1,), (("a", 1, 1), ("a", 1, 1)))


def test_relation_shorter_than_two_rejected():
    q = Quiver((1,), (("x", 1, 1),))
    with pytest.raises(AlgebraError):
        bound_quiver_algebra(q, [Relation(((1, ("x",)),))], 3)


def test_non_admissible_ideal_detected():
    # no relations on a loop: paths never die within the bound
    q = Quiver((1,), (("x", 1, 1),))
    with pytest.raises(AlgebraError):
        bound_quiver_algebra(q, [], 4)


def test_non_parallel_relation_rejected(a3):
    q = Quiver((1, 2, 3), (("a", 1, 2), ("b", 2, 3)))
    with pytest.raises(AlgebraError):
        bound_quiver_algebra(
            q, [Relation(((1, ("b", "a")), (1, ("a", "a"))))], 4
        )


def test_structure_constants_associative(loop_flag):
    loop_flag.validate()  # associativity, unit, idempotents, radical


def test_opposite_is_involution(a3):
    op = a3.opposite()
    assert op.opposite() is a3
    # product order reverses
    x = [a3.field.of(0)] * a3.dim
    y = [a3.field.of(0)] * a3.dim
    x[a3.quiver_data["arrow_basis_index"]["a1"]] = a3.field.one()
    y[a3.quiver_data["arrow_basis_index"]["a2"]] = a3.field.one()
    assert a3.product(y, x) == op.product(x, y)


def test_tensor_dimension_and_unit(kx3, ground_field_algebra):
    prod = tensor(kx3, kx3)
    assert prod.dim == 9
    prod.validate()
    assert tensor(kx3, ground_field_algebra).dim == kx3.dim


def test_tensor_idempotents_are_primitive(battery):
    """tensor runs no primitivity check of its own: Algebra.validate
    proves each paired idempotent primitive, so every indecomposable
    projective of A (x) B has a local End with residue field k."""
    for a, b in itertools.combinations_with_replacement(battery.values(), 2):
        ab = tensor(a, b)
        projs = projective_modules(ab)
        assert len(projs) == a.n_idempotents * b.n_idempotents
        assert [rad_end(p)[1] for p in projs] == [1] * len(projs)


def test_tensor_field_mismatch_rejected(kx3):
    with pytest.raises(AlgebraError):
        tensor(kx3, loop_algebra(3, GF(5)))


def test_t2_dimension_and_idempotents(loop_flag, t2_loop_flag):
    assert t2_loop_flag.dim == 3 * loop_flag.dim
    assert t2_loop_flag.n_idempotents == 2 * loop_flag.n_idempotents
    t2_loop_flag.validate()
    assert t2(loop_flag) is t2(loop_flag)


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=str)
def test_t2_follows_the_triangular_product_rule(field):
    """Basis element k of T2(A) is (r, m, s) with one entry a basis
    element of A; the product is (rr', m r' + s m', s s')."""
    for a in (example_loop_flag_algebra(field), cyclic_nakayama(2, 2, field)):
        t, d = t2(a), a.dim

        def parts(v):
            return v[:d], v[d:2 * d], v[2 * d:]

        for x in range(t.dim):
            r, m, s = parts(t._basis_vec(x))
            for y in range(t.dim):
                r2, m2, s2 = parts(t._basis_vec(y))
                mid = [u + w for u, w in zip(a.product(m, r2),
                                             a.product(s, m2))]
                want = (a.product(r, r2) + [field.of(c) for c in mid]
                        + a.product(s, s2))
                assert t.product(t._basis_vec(x), t._basis_vec(y)) == want


def test_prime_field_algebra_builds():
    a = linear_a_n(3, GF(7))
    assert a.dim == 6
    a.validate()


def test_cyclic_nakayama_admissibility():
    a = cyclic_nakayama(3, 2)
    assert a.dim == 6  # 3 vertices + 3 arrows
    a.validate()


def test_invalid_structure_constants_rejected():
    f = QQ
    one = f.one()
    zero = f.zero()
    # "multiplication" that is not associative on a 2-dim algebra
    mult = [
        [[one, zero], [zero, one]],
        [[zero, one], [one, zero]],
    ]
    with pytest.raises(AlgebraError):
        Algebra(
            f,
            ["e", "x"],
            mult,
            [one, zero],
            [[one, zero]],
            [[zero, one]],
            provenance="test",
        )


def test_non_split_algebra_rejected():
    # QQ[x]/(x^2 + 1) = QQ(i): a field of dimension 2 over QQ, so
    # A/rad = A is 2-dimensional while 1 is the only idempotent.  The
    # library assumes basic split algebras (one-dimensional simples).
    mult = [
        [[1, 0], [0, 1]],
        [[0, 1], [-1, 0]],
    ]
    with pytest.raises(AlgebraError, match="not basic and split"):
        Algebra(QQ, ["1", "x"], mult, [1, 0], [[1, 0]], [], provenance="test")
    # over GF(2), x^2 + 1 = (x + 1)^2: local with radical spanned by 1 + x
    a = Algebra(GF(2), ["1", "x"], mult, [1, 0], [[1, 0]], [[1, 1]],
                provenance="test")
    assert a.dim == 2


def _closure_dim(a):
    """Dimension of the span of all products of the generators."""
    f = a.field
    span = Matrix.from_cols(f, a.generators(), nrows=a.dim).image_basis()
    while True:
        cur = [span.col(j) for j in range(span.cols)]
        prods = [a.product(x, y) for x in cur for y in cur]
        bigger = span.hstack(
            Matrix.from_cols(f, prods, nrows=a.dim)).image_basis()
        if bigger.cols == span.cols:
            return span.cols
        span = bigger


def _validation_corpus(field):
    """The battery, its opposites, T2, a tensor product and a Gamma over
    the field."""
    battery = [linear_a_n(3, field), example_loop_flag_algebra(field),
               loop_algebra(3, field), cyclic_nakayama(2, 2, field),
               trivial_algebra(field)]
    a3 = battery[0]
    e = generator_data(direct_sum(
        a3, [regular_module(a3), dual_D(regular_module(a3.opposite()))])[0])
    return (battery + [a.opposite() for a in battery]
            + [t2(battery[1]), tensor(battery[2], linear_a_n(2, field)),
               gamma(e).algebra])


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_generators_generate_the_algebra(field):
    """The idempotents and the radical lifts of rad/rad^2 generate A, on
    the battery, its opposites, T2, a tensor product and a Gamma."""
    for a in _validation_corpus(field):
        assert _closure_dim(a) == a.dim, a


def _dense_validate(a):
    """Algebra.validate as it was before it read only the nonzero
    structure constants: associativity by dense products on every basis
    triple, and one solve per product in the ideal check.  The
    reference for the sparse check and the batched solve."""
    f = a.field
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.mult[i][j]
            for k in range(a.dim):
                lhs = a.product(ij, a._basis_vec(k))
                rhs = a.product(a._basis_vec(i), a.mult[j][k])
                if lhs != rhs:
                    raise AlgebraError(
                        "associativity fails on basis triple (%d,%d,%d)"
                        % (i, j, k))
    for i in range(a.dim):
        b = a._basis_vec(i)
        if a.product(a.unit, b) != b or a.product(b, a.unit) != b:
            raise AlgebraError("unit axiom fails on basis element %d" % i)
    s = a.zero_vec()
    for x, e in enumerate(a.idempotents):
        s = [f.of(u + v) for u, v in zip(s, e)]
        for y, e2 in enumerate(a.idempotents):
            if a.product(e, e2) != (e if x == y else a.zero_vec()):
                raise AlgebraError("idempotents %d,%d not orthogonal" % (x, y))
    if s != a.unit:
        raise AlgebraError("idempotents do not sum to the unit")
    J = Matrix.from_cols(f, a.radical, nrows=a.dim)
    if J.cols != J.rank():
        raise AlgebraError("radical basis is linearly dependent")
    for e in a.idempotents:
        if J.solve(e) is not None:
            raise AlgebraError("an idempotent lies in the radical")
    power = a.radical
    for _ in range(a.dim + 1):
        if not power:
            break
        m = Matrix.from_cols(f, [a.product(x, r) for x in power
                                 for r in a.radical],
                             nrows=a.dim).image_basis()
        power = [m.col(j) for j in range(m.cols)]
    if power:
        raise AlgebraError("radical basis does not span a nilpotent ideal")
    for r in a.radical:
        for i in range(a.dim):
            b = a._basis_vec(i)
            for prod in (a.product(b, r), a.product(r, b)):
                if J.solve(prod) is None:
                    raise AlgebraError("radical is not a two-sided ideal")
    if a.dim - len(a.radical) < a.n_idempotents:
        raise AlgebraError("semisimple quotient smaller than idempotent count")
    if a.dim - len(a.radical) > a.n_idempotents:
        raise AlgebraError(
            "algebra/radical has dimension %d > %d idempotents; "
            "the algebra is not basic and split over this field"
            % (a.dim - len(a.radical), a.n_idempotents))


def _verdict(check, a):
    """None when check accepts a, else its AlgebraError message."""
    try:
        check(a)
    except AlgebraError as exc:
        return str(exc)
    return None


def _perturbed(a, rng, count):
    """count copies of a's tables, unvalidated, each with one entry moved
    by 1: mostly structure constants, and one entry each of the unit, an
    idempotent and a radical vector."""
    f = a.field
    out = []
    for n in range(count):
        mult = [[vec[:] for vec in row] for row in a.mult]
        unit = a.unit[:]
        idem = [e[:] for e in a.idempotents]
        rad = [r[:] for r in a.radical]
        table = {0: unit, 1: rng.choice(idem),
                 2: rng.choice(rad) if rad else unit}.get(n)
        if table is None:
            table = mult[rng.randrange(a.dim)][rng.randrange(a.dim)]
        k = rng.randrange(a.dim)
        table[k] = f.of(table[k] + 1)
        out.append(Algebra(f, a.basis_labels, mult, unit, idem, rad,
                           "perturbed", validate=False))
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_validate_agrees_with_the_dense_reference(field):
    """The sparse associativity check and the batched ideal solve accept
    and reject what the dense check did, with the same message, on the
    validation corpus and on single-entry perturbations of its tables
    (more of them on the smaller algebras, where the dense check is
    cheap)."""
    rng = random.Random(28)
    messages = set()
    for a in _validation_corpus(field):
        cases = [a] + _perturbed(a, rng, 24 if a.dim <= 6 else 8)
        for b in cases:
            want = _verdict(_dense_validate, b)
            assert _verdict(Algebra.validate, b) == want, (a, want)
            messages.add(want and want.split(" ")[0])
    assert {None, "associativity", "unit", "idempotents", "radical"} <= messages


def _table_algebra(mult, unit, idempotents, radical, field=QQ):
    return Algebra(field, ["b%d" % i for i in range(len(unit))], mult, unit,
                   idempotents, radical, "test", validate=False)


# k x k, k[x]/x^2 and k[x]/x^3 on the bases (e1, e2), (1, x), (1, x, x^2)
_KK = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
_DUAL = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
_CUBE = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
         [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
# k x k on the basis (1, x) with x^2 = x
_SPLIT = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
# k<x, y>/(x^2, y^2, yx) on the basis (1, x, y, xy): span(x) is a left
# ideal and span(y) a right ideal, neither two-sided
_E = [[int(k == m) for m in range(4)] for k in range(4)]
_XY = [_E, [_E[1], [0] * 4, _E[3], [0] * 4],
       [_E[2]] + [[0] * 4] * 3, [_E[3]] + [[0] * 4] * 3]


@pytest.mark.parametrize("tables, msg", [
    (([[[1]]], [0], [[1]], []), "unit axiom fails on basis element 0"),
    ((_KK, [1, 1], [[1, 0], [1, 0]], []), "idempotents 0,1 not orthogonal"),
    ((_KK, [1, 1], [[1, 0]], []), "idempotents do not sum to the unit"),
    ((_DUAL, [1, 0], [[1, 0]], [[0, 1], [0, 2]]),
     "radical basis is linearly dependent"),
    ((_DUAL, [1, 0], [[1, 0]], [[1, 0]]), "an idempotent lies in the radical"),
    ((_SPLIT, [1, 0], [[1, 0]], [[0, 1]]),
     "radical basis does not span a nilpotent ideal"),
    ((_CUBE, [1, 0, 0], [[1, 0, 0]], [[0, 1, 0]]),
     "radical is not a two-sided ideal"),
    ((_XY, _E[0], [_E[0]], [_E[1]]), "radical is not a two-sided ideal"),
    ((_XY, _E[0], [_E[0]], [_E[2]]), "radical is not a two-sided ideal"),
], ids=["unit", "orthogonality", "idempotent-sum", "dependent-radical",
        "idempotent-in-radical", "non-nilpotent-radical", "not-an-ideal",
        "left-ideal-only", "right-ideal-only"])
def test_each_validation_branch_rejects_a_minimal_table(tables, msg):
    """One minimal bad table per branch, each associative, so that the
    branch named is the first to fail; the dense reference agrees."""
    a = _table_algebra(*tables)
    assert _verdict(Algebra.validate, a) == msg
    assert _verdict(_dense_validate, a) == msg
