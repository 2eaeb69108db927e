import random

import pytest

from bilinv.certificates import verify_gram
from bilinv.errors import Singular
from bilinv.fields import PrimeField, QQ
from bilinv.linalg import Matrix
from bilinv.oracle import (INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC,
                           find_nondegenerate, solve_form_space)
from linalg_reference import brute_force_reality


def test_space_dimensions():
    for n in (1, 2, 3, 4):
        sp = solve_form_space(Matrix.identity(QQ, n), SYMMETRIC)
        assert sp.dimension == n * (n + 1) // 2
        sp = solve_form_space(Matrix.identity(QQ, n), SKEW)
        assert sp.dimension == n * (n - 1) // 2


def test_jordan_block_spaces():
    J = Matrix(QQ, [[1, 1], [0, 1]])
    sp = solve_form_space(J, SYMMETRIC)
    # entrywise: T^t B T = B forces B = [[0,0],[0,d]] in this convention
    assert sp.dimension == 1
    assert sp.basis[0] == Matrix(QQ, [[0, 0], [0, 1]])
    assert find_nondegenerate(sp) is None
    sp = solve_form_space(J, SKEW)
    W = find_nondegenerate(sp)
    assert W is not None and all(verify_gram(J, W, SKEW, INVARIANT).values())


def test_infinitesimal_space():
    N = Matrix(QQ, [[0, 1], [0, 0]])
    sp = solve_form_space(N, SKEW, INFINITESIMAL)
    assert sp.dimension == 1
    assert sp.basis[0] == Matrix(QQ, [[0, 1], [-1, 0]])
    sp = solve_form_space(N, SYMMETRIC, INFINITESIMAL)
    assert find_nondegenerate(sp) is None


def test_singular_rejected_in_invariant_setting():
    with pytest.raises(Singular):
        solve_form_space(Matrix.diagonal(QQ, [1, 0]), SYMMETRIC)
    # but fine infinitesimally
    solve_form_space(Matrix.diagonal(QQ, [1, 0]), SYMMETRIC, INFINITESIMAL)


def test_witness_soundness_random():
    rng = random.Random(67)
    F = PrimeField(101)
    for _ in range(40):
        n = rng.randrange(1, 6)
        while True:
            T = Matrix(F, [[rng.randrange(101) for _ in range(n)]
                           for _ in range(n)], coerce=False)
            if not F.is_zero(T.det()):
                break
        for symmetry in (SYMMETRIC, SKEW):
            W = find_nondegenerate(solve_form_space(T, symmetry, INVARIANT),
                                   seed=3)
            if W is not None:
                assert all(verify_gram(T, W, symmetry, INVARIANT).values())


def test_brute_force_reality_examples():
    F3 = PrimeField(3)
    assert brute_force_reality(Matrix(F3, [[1, 1], [0, 1]]))
    assert brute_force_reality(Matrix.identity(F3, 2))
    assert brute_force_reality(Matrix.diagonal(F3, [1, 2]))
    with pytest.raises(ValueError, match="exceeds the limit"):
        brute_force_reality(Matrix.identity(PrimeField(101), 3))


def test_find_nondegenerate_deterministic():
    sp = solve_form_space(Matrix.identity(QQ, 3), SYMMETRIC)
    a = find_nondegenerate(sp, seed=5)
    b = find_nondegenerate(sp, seed=5)
    assert a == b
