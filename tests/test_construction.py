import random
from fractions import Fraction

import pytest

from bilinv.certificates import (INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC,
                                 check_symmetry, make_certificate,
                                 symmetry_of, verify_gram)
from bilinv.construction import (construct_infinitesimal_form,
                                 construct_invariant_form, convert_symmetry,
                                 hyperbolic_pairing, self_dual_block_form,
                                 skew_symmetric_converter, unipotent_block_form)
from bilinv.canonical import (DUALITY, indecomposable_decomposition,
                              natural_parity_ok)
from bilinv.errors import (DecisionFalse, EigenvalueObstruction,
                           NotDualPair, NotSelfDual, NotSquare,
                           ParityViolation, SmallCharacteristic,
                           UnverifiedForm)
from bilinv.fields import PrimeField, QQ
from bilinv.linalg import Matrix
from bilinv.poly import Poly, factor

F101 = PrimeField(101)


def rand_invertible(field, n, rng):
    while True:
        if isinstance(field, PrimeField):
            M = Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                               for _ in range(n)], coerce=False)
        else:
            M = Matrix(field, [[rng.randrange(-4, 5) for _ in range(n)]
                               for _ in range(n)])
        if not field.is_zero(M.det()):
            return M


def unipotent_chain_block(field, k):
    return Matrix(field, [[field.one if i in (j, j + 1) else field.zero
                           for j in range(k)] for i in range(k)],
                  coerce=False)


def test_unipotent_block_form_examples():
    K = unipotent_block_form(QQ, 3, SYMMETRIC)
    assert K == Matrix(QQ, [[0, 1, 2], [1, -2, 0], [2, 0, 0]])
    assert K.det() == 8
    assert unipotent_block_form(QQ, 2, SKEW) == Matrix(QQ, [[0, -1], [1, 0]])
    with pytest.raises(ParityViolation):
        unipotent_block_form(QQ, 2, SYMMETRIC)
    with pytest.raises(ParityViolation):
        unipotent_block_form(QQ, 3, SKEW)


def test_unipotent_block_form_invariance_all_sizes():
    for field in (QQ, F101):
        for k in range(1, 7):
            symmetry = SYMMETRIC if k % 2 else SKEW
            K = unipotent_block_form(field, k, symmetry)
            U = unipotent_chain_block(field, k)
            assert all(verify_gram(U, K, symmetry, INVARIANT).values())
            assert all(verify_gram(-U, K, symmetry, INVARIANT).values())


FIELDS = {"Q": QQ, "F_101": F101, "F_7": PrimeField(7)}


SPECIAL = {INVARIANT: ("x-1", "x+1"), INFINITESIMAL: ("x",)}


@pytest.mark.parametrize("field_name, text, setting", [
    ("Q", "x^2+1", INVARIANT), ("Q", "x^2-3*x+1", INVARIANT),
    ("Q", "x^4+x^3+x^2+x+1", INVARIANT), ("F_101", "x^2+x+1", INVARIANT),
    ("F_7", "x^2+1", INVARIANT), ("Q", "x^2+1", INFINITESIMAL),
    ("Q", "x^2+2", INFINITESIMAL), ("F_101", "x^2+2", INFINITESIMAL),
    ("F_7", "x^2+2", INFINITESIMAL)] + [
    (field_name, text, setting) for field_name in FIELDS
    for setting, texts in SPECIAL.items() for text in texts])
def test_self_dual_block_form_verifies(field_name, text, setting):
    field = FIELDS[field_name]
    p = Poly.parse(field, text)
    assert list(factor(p)) == [(p, 1)] and p == DUALITY[setting].dual(p)
    special = DUALITY[setting].special_factor(p) is not None
    for d in range(1, 6 if special else 4):
        if not field.char_exceeds(p.degree * d):
            continue
        C = Matrix.companion(p ** d)
        for symmetry in (SYMMETRIC, SKEW):
            if special and not natural_parity_ok(d, symmetry):
                # (x -+ 1)^d and x^d carry only their natural parity
                with pytest.raises(UnverifiedForm):
                    self_dual_block_form(p, d, symmetry, setting)
                continue
            B = self_dual_block_form(p, d, symmetry, setting)
            assert all(verify_gram(C, B, symmetry, setting).values())


def test_self_dual_block_form_cases():
    p = Poly.parse(QQ, "x^2+1")
    T = Matrix.companion(p ** 2)
    B = self_dual_block_form(p, 2, SKEW)
    assert all(verify_gram(T, B, SKEW, INVARIANT).values())
    B = self_dual_block_form(p, 2, SYMMETRIC)
    assert all(verify_gram(T, B, SYMMETRIC, INVARIANT).values())
    p = Poly.parse(QQ, "x^2-3*x+1")
    T = Matrix.companion(p ** 3)
    B = self_dual_block_form(p, 3, SYMMETRIC)
    assert all(verify_gram(T, B, SYMMETRIC, INVARIANT).values())
    with pytest.raises(NotSelfDual):
        self_dual_block_form(Poly.parse(QQ, "x^2+x+3"), 1, SYMMETRIC)
    with pytest.raises(NotSelfDual):
        self_dual_block_form(Poly.parse(QQ, "x^2+x+1"), 1, SKEW,
                             INFINITESIMAL)
    with pytest.raises(SmallCharacteristic):
        self_dual_block_form(Poly.parse(PrimeField(5), "x^2+x+1"), 3, SKEW)
    # the unipotent factor has a form only of its natural parity
    with pytest.raises(UnverifiedForm):
        self_dual_block_form(Poly.parse(QQ, "x-1"), 2, SYMMETRIC)


@pytest.mark.parametrize("text, error, match", [
    ("x", NotSelfDual, "not self-dual"),      # no dual: zero constant term
    ("2*x - 2", ValueError, "needs a monic p"),
    ("x^2 - 1", ValueError, "needs an irreducible p"),
])
def test_self_dual_block_form_checks_its_input(text, error, match):
    with pytest.raises(error, match=match):
        self_dual_block_form(Poly.parse(QQ, text), 1, SYMMETRIC)


def test_hyperbolic_pairing_examples():
    T = Matrix.diagonal(QQ, [2, Fraction(1, 2)])
    a, b = indecomposable_decomposition(T)
    cols, gram = hyperbolic_pairing(T, a, b, SYMMETRIC)
    inv = cols.inverse()
    B = inv.transpose() * gram * inv
    assert B == Matrix(QQ, [[0, 1], [1, 0]])
    cols, gram = hyperbolic_pairing(T, a, b, SKEW)
    B = inv.transpose() * gram * inv
    assert B == Matrix(QQ, [[0, 1], [-1, 0]])
    a, b = indecomposable_decomposition(Matrix.diagonal(QQ, [2, 3]))
    with pytest.raises(NotDualPair):
        hyperbolic_pairing(T, a, b, SYMMETRIC)


def test_hyperbolic_pairing_equal_copies():
    JJ = Matrix.block_diagonal(QQ, [Matrix.jordan_block(QQ, 1, 2),
                                    Matrix.jordan_block(QQ, 1, 2)])
    a, b = indecomposable_decomposition(JJ)
    cols, gram = hyperbolic_pairing(JJ, a, b, SYMMETRIC)
    inv = cols.inverse()
    B = inv.transpose() * gram * inv
    assert all(verify_gram(JJ, B, SYMMETRIC, INVARIANT).values())
    # both halves are totally isotropic for the assembled form
    for s in (a, b):
        assert (s.basis.transpose() * B * s.basis).is_zero()


def test_converter_example():
    T = Matrix(QQ, [[0, -1], [1, 0]])
    out = convert_symmetry(T, Matrix.identity(QQ, 2))
    assert out == Matrix(QQ, [[0, 2], [-2, 0]])
    cert = skew_symmetric_converter(T, Matrix.identity(QQ, 2))
    assert cert.symmetry == SKEW
    # twice: back to the original symmetry, scaled by (T - T^-1)^2
    back = convert_symmetry(T, cert.gram)
    W = T - T.inverse()
    assert back == (W * W).transpose() * Matrix.identity(QQ, 2)
    # infinitesimally the converter is B'(u, v) = B(S u, v)
    S = Matrix.diagonal(QQ, [1, -1])
    cert = skew_symmetric_converter(S, Matrix(QQ, [[0, 1], [1, 0]]),
                                    INFINITESIMAL)
    assert cert.symmetry == SKEW and all(cert.checks.values())
    assert cert.gram == Matrix(QQ, [[0, 1], [-1, 0]])
    assert cert.provenance == ["converter:symmetric->skew"]


def test_converter_eigenvalue_obstruction():
    with pytest.raises(EigenvalueObstruction):
        convert_symmetry(Matrix.jordan_block(QQ, 1, 2), Matrix.identity(QQ, 2))
    with pytest.raises(EigenvalueObstruction):
        skew_symmetric_converter(Matrix.zeros(QQ, 2, 2),
                                 Matrix.identity(QQ, 2), INFINITESIMAL)


def test_construct_examples():
    assert construct_invariant_form(Matrix.identity(QQ, 3), SYMMETRIC).gram \
        == Matrix.identity(QQ, 3)
    J3 = Matrix.jordan_block(QQ, 1, 3)
    cert = construct_invariant_form(J3, SYMMETRIC)
    assert all(cert.checks.values())
    JJ = Matrix.block_diagonal(QQ, [Matrix.jordan_block(QQ, 1, 2),
                                    Matrix.jordan_block(QQ, 1, 2)])
    cert = construct_invariant_form(JJ, SYMMETRIC)
    assert any("standard-pair" in s for s in cert.provenance)
    with pytest.raises(DecisionFalse):
        construct_invariant_form(Matrix.jordan_block(QQ, 1, 2), SYMMETRIC)
    # in characteristic 2, H + H^t vanishes; the block is H itself
    F2 = PrimeField(2)
    cert = construct_invariant_form(Matrix(F2, [[1]]), SYMMETRIC)
    assert cert.gram == Matrix(F2, [[1]])
    F3 = PrimeField(3)
    cert = construct_invariant_form(Matrix.jordan_block(F3, -1, 2), SKEW)
    assert all(cert.checks.values())
    assert cert.provenance == ["(x + 1)^2#0:unipotent-block"]


def test_construct_infinitesimal_examples():
    S = Matrix.diagonal(QQ, [1, -1])
    cert = construct_infinitesimal_form(S, SYMMETRIC)
    assert cert.gram == Matrix(QQ, [[0, 1], [1, 0]])
    N3 = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    cert = construct_infinitesimal_form(N3, SYMMETRIC)
    assert cert.gram == Matrix(QQ, [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    F2 = PrimeField(2)
    cert = construct_infinitesimal_form(Matrix(F2, [[0]]), SYMMETRIC)
    assert cert.gram == Matrix(F2, [[1]])
    S = Matrix.companion(Poly.parse(QQ, "x^2+1"))
    for symmetry in (SYMMETRIC, SKEW):
        cert = construct_infinitesimal_form(S, symmetry)
        assert all(cert.checks.values())


def test_basis_independence():
    rng = random.Random(97)
    T0 = Matrix.block_diagonal(QQ, [
        Matrix.jordan_block(QQ, 1, 3),
        Matrix.companion(Poly.parse(QQ, "x^2-3*x+1"))])
    cert0 = construct_invariant_form(T0, SYMMETRIC)
    for _ in range(5):
        g = rand_invertible(QQ, 5, rng)
        T = g * T0 * g.inverse()
        cert = construct_invariant_form(T, SYMMETRIC)
        assert all(cert.checks.values())
        # pull the conjugated certificate back through g
        pulled = g.transpose() * cert.gram * g
        assert all(verify_gram(T0, pulled, SYMMETRIC, INVARIANT).values())
        assert all(verify_gram(T, g.inverse().transpose() * cert0.gram
                               * g.inverse(), SYMMETRIC, INVARIANT).values())


def test_certificate_unconstructible_when_wrong():
    J2 = Matrix.jordan_block(QQ, 1, 2)
    with pytest.raises(UnverifiedForm):
        make_certificate(J2, Matrix.identity(QQ, 2), SYMMETRIC, INVARIANT)


def test_verifier_rejects_wrong_shapes():
    # a 1 x 2 "map", or a Gram of another size than the map, is refused
    # before any check runs; a non-square Gram has no symmetry
    row = Matrix(F101, [[1, 0]])
    I2, I3 = Matrix.identity(F101, 2), Matrix.identity(F101, 3)
    with pytest.raises(NotSquare):
        verify_gram(row, Matrix.identity(F101, 1), SYMMETRIC, INVARIANT)
    for setting in (INVARIANT, INFINITESIMAL):
        with pytest.raises(NotSquare):
            verify_gram(I2, I3, SYMMETRIC, setting)
        with pytest.raises(NotSquare):
            verify_gram(I3, I2, SYMMETRIC, setting)
    with pytest.raises(NotSquare):
        make_certificate(I2, I3, SYMMETRIC, INVARIANT)
    with pytest.raises(NotSquare):
        skew_symmetric_converter(Matrix(QQ, [[0, -1], [1, 0]]),
                                 Matrix.identity(QQ, 3))
    assert symmetry_of(row) is None
    assert symmetry_of(Matrix(F101, [[0, 0]])) is None
    assert not check_symmetry(row, SYMMETRIC)
    assert not check_symmetry(Matrix(F101, [[0, 0]]), SKEW)
