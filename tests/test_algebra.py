"""Algebra constructors and validation.

Oracles: dimension counts from path enumeration, structure-constant
identities re-checked by Algebra.validate, and opposite/tensor axioms."""

import itertools

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


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_generators_generate_the_algebra(field):
    """The idempotents and the radical lifts of rad/rad^2 generate A, on
    the battery, its opposites, T2, a tensor product and a Gamma."""
    battery = [linear_a_n(3, field), example_loop_flag_algebra(field),
               loop_algebra(3, field), cyclic_nakayama(2, 2, field),
               trivial_algebra(field)]
    a3 = battery[0]
    e = generator_data(direct_sum(
        a3, [regular_module(a3), dual_D(regular_module(a3.opposite()))])[0])
    algebras = (battery + [a.opposite() for a in battery]
                + [t2(battery[1]), tensor(battery[2], linear_a_n(2, field)),
                   gamma(e).algebra])
    for a in algebras:
        assert _closure_dim(a) == a.dim, a
