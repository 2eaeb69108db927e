import random
from fractions import Fraction

import pytest

from bilinv.errors import NotSquare, Singular
from bilinv.fields import PrimeField, QQ
from bilinv.linalg import Matrix, char_poly, eval_poly_at_matrix
from bilinv.poly import Poly
from linalg_reference import char_poly_faddeev, det_cofactor, restriction

F101 = PrimeField(101)


def rand_matrix(field, n, rng):
    if isinstance(field, PrimeField):
        return Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                              for _ in range(n)], coerce=False)
    return Matrix(field, [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                           for _ in range(n)] for _ in range(n)])


def test_det_examples():
    assert Matrix.identity(QQ, 3).det() == 1
    assert Matrix(QQ, [[0, 1], [1, 0]]).det() == -1
    W = Matrix(QQ, [["0", "1/2", "1"], ["1/2", "-1", "0"], ["1", "0", "0"]])
    assert W.det() == 1
    assert det_cofactor(W) == 1
    with pytest.raises(NotSquare):
        Matrix(QQ, [[1, 2]]).det()


def test_det_multiplicative_and_cofactor_agreement():
    rng = random.Random(23)
    for field in (QQ, F101):
        for n in (1, 2, 3, 4):
            for _ in range(10):
                A = rand_matrix(field, n, rng)
                B = rand_matrix(field, n, rng)
                assert (A * B).det() == field.mul(A.det(), B.det())
                assert A.det() == det_cofactor(A)


def test_kernel_vectors_annihilate():
    rng = random.Random(29)
    for _ in range(30):
        A = rand_matrix(F101, rng.randrange(2, 6), rng)
        for v in A.kernel_basis():
            assert all(F101.is_zero(c) for c in A.apply(v))


def test_char_poly_examples():
    assert char_poly(Matrix.identity(QQ, 3)) == \
        Poly.parse(QQ, "x^3-3*x^2+3*x-1")
    C = Matrix.companion(Poly.parse(QQ, "x^2-3*x+1"))
    assert char_poly(C) == Poly.parse(QQ, "x^2-3*x+1")
    J = Matrix(QQ, [[1, 1], [0, 1]])
    assert char_poly(J) == Poly.parse(QQ, "x^2-2*x+1")


def test_char_poly_two_routes_agree():
    rng = random.Random(31)
    for field in (QQ, F101):
        for n in range(1, 6):
            for _ in range(8):
                T = rand_matrix(field, n, rng)
                assert char_poly(T) == char_poly_faddeev(T)


def test_cayley_hamilton_random():
    rng = random.Random(37)
    for field in (QQ, F101):
        for _ in range(50):
            n = rng.randrange(1, 7)
            T = rand_matrix(field, n, rng)
            assert eval_poly_at_matrix(char_poly(T), T).is_zero()


def test_inverse_and_singular():
    A = Matrix(QQ, [[1, 2], [3, 4]])
    assert A * A.inverse() == Matrix.identity(QQ, 2)
    with pytest.raises(Singular):
        Matrix(QQ, [[1, 1], [1, 1]]).inverse()


def test_shape_mismatch_raises():
    # sums and stacks used to zip mismatched shapes down to the smaller one
    A = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    B = Matrix.identity(QQ, 2)
    for op in (lambda: A - B, lambda: A + B, lambda: B + A,
               lambda: B.hstack(Matrix(QQ, [[1]])), lambda: A * A,
               lambda: Matrix.zeros(QQ, 0, 3) - Matrix.zeros(QQ, 0, 2)):
        with pytest.raises(ValueError, match="incompatible shapes"):
            op()
    assert B.hstack(Matrix.zeros(QQ, 2, 0)) == B
    # a matrix with no rows keeps its width through every entrywise step
    E = Matrix.zeros(QQ, 0, 3)
    assert [M.ncols for M in (E + E, E - E, -E, E.scale(2))] == [3] * 4
    assert A.hstack(B) == Matrix(QQ, [[1, 2, 3, 1, 0], [4, 5, 6, 0, 1]])


def test_restriction_invariant_subspace():
    T = Matrix.block_diagonal(QQ, [Matrix.jordan_block(QQ, 2, 2),
                                   Matrix.identity(QQ, 1)])
    basis = Matrix(QQ, [[1, 0], [0, 1], [0, 0]])
    R = restriction(T, basis)
    assert R == Matrix.jordan_block(QQ, 2, 2)
    bad = Matrix(QQ, [[1], [0], [1]])
    with pytest.raises(Singular):
        restriction(Matrix.jordan_block(QQ, 1, 3), bad)
