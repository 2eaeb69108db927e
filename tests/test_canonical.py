import random
from fractions import Fraction

import pytest

from bilinv.canonical import (DUALITY, ModuleStructure, _char_matrix,
                              elementary_divisors, divisor_multiset,
                              indecomposable_decomposition, invariant_factors,
                              min_poly, smith_normal_form)
from bilinv.certificates import INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC
from bilinv.corpus import corpus
from bilinv.decision import decide_invariant_form
from bilinv.fields import PrimeField, QQ, RationalField
from bilinv.linalg import Matrix, char_poly, eval_poly_at_matrix
from bilinv.poly import Poly, dual_poly, factor
from linalg_reference import restriction

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


def test_invariant_factor_examples():
    assert [d.to_str() for d in invariant_factors(Matrix(QQ, [[1, 1], [0, 1]]))] \
        == ["1", "x^2 - 2*x + 1"]
    assert [d.to_str() for d in invariant_factors(Matrix.identity(QQ, 2))] \
        == ["x - 1", "x - 1"]
    F7 = PrimeField(7)
    diag = invariant_factors(Matrix.diagonal(F7, [2, 3]))
    assert diag[0].is_one()
    assert diag[1] == Poly.x_minus(F7, 2) * Poly.x_minus(F7, 3)


def test_invariant_factors_divide_and_multiply_to_char_poly():
    rng = random.Random(41)
    for field in (QQ, F101):
        for _ in range(15):
            T = rand_invertible(field, rng.randrange(2, 6), rng)
            fac = invariant_factors(T)
            prod = Poly.one(field)
            for i in range(len(fac) - 1):
                assert (fac[i + 1] % fac[i]).is_zero()
                prod = prod * fac[i]
            assert prod * fac[-1] == char_poly(T)


def _rand_matrix(field, n, rng):
    if isinstance(field, RationalField):
        return Matrix(field, [[Fraction(rng.randrange(-3, 4),
                                        rng.randrange(1, 4))
                               for _ in range(n)] for _ in range(n)])
    return Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                          for _ in range(n)])


def _assert_field_scalars(field, polys):
    for f in polys:
        for c in f.coeffs:
            if isinstance(field, RationalField):
                assert type(c) is Fraction
            else:
                assert type(c) is int and 0 <= c < field.p
        assert not f.coeffs or not field.is_zero(f.coeffs[-1])


def _check_smith(T):
    F = T.field
    diag = smith_normal_form(_char_matrix(T))
    assert len(diag) == T.nrows
    _assert_field_scalars(F, diag)
    prod = Poly.one(F)
    for i, d in enumerate(diag):
        assert d.is_monic()
        if i:
            assert (d % diag[i - 1]).is_zero()
        prod = prod * d
    assert prod == char_poly(T)
    # runs the rank and invariance asserts of the summand construction
    assert sum(s.dim for s in ModuleStructure(T).summands) == T.nrows
    return diag


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), F101, QQ],
                         ids=str)
def test_smith_kernel_seeded(field):
    rng = random.Random(73)
    for _ in range(12):
        n = rng.randrange(1, 9)
        T = _rand_matrix(field, n, rng)
        if rng.random() < 0.5:
            # repeated blocks exercise nontrivial invariant factors
            half = _rand_matrix(field, n // 2 + 1, rng)
            T = Matrix.block_diagonal(field, [half, half])
        _check_smith(T)


def test_smith_kernel_named_cases():
    for F in (QQ, F101):
        empty = Matrix(F, [])
        assert smith_normal_form(_char_matrix(empty)) == []
        assert ModuleStructure(empty).summands == []
        assert _check_smith(Matrix(F, [[5]])) == [Poly.x_minus(F, 5)]
    F3 = PrimeField(3)
    for T, root in ((Matrix.zeros(F3, 3, 3), 0),
                    (Matrix.identity(F101, 3).scale(2), 2)):
        assert _check_smith(T) == [Poly.x_minus(T.field, root)] * 3
    # x - 1 does not divide x - 2, so the form has to add the culprit row
    # into the pivot row before it reaches diag(1, (x-1)(x-2))
    diag = _check_smith(Matrix.diagonal(QQ, [1, 2]))
    assert [d.to_str() for d in diag] == ["1", "x^2 - 3*x + 2"]


def test_smith_pivot_loop_fails_instead_of_hanging(monkeypatch):
    # with a zero quotient no pass can clear anything, so the pivot never
    # shrinks; the progress assert must stop the loop
    monkeypatch.setattr(Poly, "__floordiv__", lambda a, b: Poly.zero(a.field))
    for F in (QQ, F101):
        T = Matrix(F, [[1, 2], [3, 4]])
        with pytest.raises(AssertionError, match="no progress"):
            smith_normal_form(_char_matrix(T))


def test_empty_matrix_structure():
    for F in (QQ, F101):
        empty = Matrix(F, [])
        assert invariant_factors(empty) == []
        assert min_poly(empty) == Poly.one(F) == char_poly(empty)


def test_min_poly_examples():
    assert min_poly(Matrix.identity(QQ, 3)) == Poly.x_minus(QQ, 1)
    C = Matrix.companion(Poly.parse(QQ, "x^2-3*x+1"))
    assert min_poly(C) == char_poly(C)
    J = Matrix(QQ, [[1, 1], [0, 1]])
    assert min_poly(J) == char_poly(J)


def test_min_poly_properties():
    rng = random.Random(43)
    for _ in range(20):
        T = rand_invertible(F101, rng.randrange(2, 6), rng)
        m = min_poly(T)
        chi = char_poly(T)
        assert (chi % m).is_zero()
        assert eval_poly_at_matrix(m, T).is_zero()
        # no maximal proper divisor annihilates
        for p, _ in factor(m):
            assert not eval_poly_at_matrix(m // p, T).is_zero()


def test_elementary_divisor_examples():
    divs = elementary_divisors(Matrix.identity(QQ, 3))
    assert [(d.p.to_str(), d.k, d.multiplicity) for d in divs] == \
        [("x - 1", 1, 3)]
    divs = elementary_divisors(Matrix(QQ, [[1, 1], [0, 1]]))
    assert [(d.p.to_str(), d.k, d.multiplicity) for d in divs] == \
        [("x - 1", 2, 1)]
    C = Matrix.companion(Poly.parse(QQ, "x^2-3*x+1"))
    divs = elementary_divisors(Matrix.block_diagonal(QQ, [C, C]))
    assert [(d.p.to_str(), d.k, d.multiplicity) for d in divs] == \
        [("x^2 - 3*x + 1", 1, 2)]


def test_divisor_product_is_char_poly():
    rng = random.Random(44)
    for field in (QQ, F101):
        for _ in range(10):
            T = rand_invertible(field, rng.randrange(1, 6), rng)
            prod = Poly.one(field)
            for d in elementary_divisors(T):
                prod = prod * d.p ** (d.k * d.multiplicity)
            assert prod == char_poly(T)


def test_elementary_divisors_conjugation_invariant():
    rng = random.Random(47)
    T = Matrix.block_diagonal(F101, [
        Matrix.jordan_block(F101, 1, 2),
        Matrix.companion(Poly.parse(F101, "x^2-3*x+1"))])
    base = divisor_multiset(elementary_divisors(T))
    for _ in range(50):
        g = rand_invertible(F101, 4, rng)
        assert divisor_multiset(elementary_divisors(g * T * g.inverse())) == base


def test_elementary_divisors_degree_limit_propagates():
    from bilinv.errors import DegreeLimit
    big = Poly(QQ, [2] + [0] * 25 + [1])   # x^26 - ... degree above the cap
    T = Matrix.companion(big)
    with pytest.raises(DegreeLimit):
        elementary_divisors(T)
    divs = elementary_divisors(T, degree_limit=30)
    assert sum(d.dim for d in divs) == 26


def test_degree_limit_caps_squarefree_parts():
    # chi = prod (x - l)^2 over 13 eigenvalues: each minimal polynomial of
    # degree 26 is above the cap, but only its degree-13 squarefree part
    # is factored
    from bilinv.errors import DegreeLimit
    T = Matrix.block_diagonal(QQ, [Matrix.jordan_block(QQ, lam, 2)
                                   for lam in range(2, 15)])
    assert T.nrows == 26
    divs = elementary_divisors(T)
    assert sorted((d.p.to_str(), d.k, d.multiplicity) for d in divs) == \
        sorted((f"x - {lam}", 2, 1) for lam in range(2, 15))
    assert decide_invariant_form(T, SYMMETRIC).exists is False
    # a squarefree characteristic polynomial of degree 26 still raises
    C = Matrix.companion(Poly.parse(QQ, "x^26 - 3"))
    with pytest.raises(DegreeLimit):
        decide_invariant_form(C, SYMMETRIC)


def test_inverse_divisors_are_duals():
    # decide_real reads the divisors of T^-1 as the duals of those of T;
    # this keeps the direct route as the reference for that shortcut
    rng = random.Random(97)
    for field in (F101, QQ):
        for _ in range(12):
            T = rand_invertible(field, rng.randrange(1, 7), rng)
            duals = {(dual_poly(d.p).coeffs, d.k): d.multiplicity
                     for d in elementary_divisors(T)}
            assert divisor_multiset(elementary_divisors(T.inverse())) == duals


# setting -> [(p, exponents k, pairing of p^k for symmetric, for skew)],
# a pairing being None (each copy carries a form alone), "equal" (equal
# copies pair) or the dual divisor's p.  Infinitesimally x -+ 1 are not
# special: each is the other's additive dual.
PARTNERS = {
    INVARIANT: [
        ("x-1", (1, 3), None, "equal"), ("x-1", (2,), "equal", None),
        ("x+1", (1, 3), None, "equal"), ("x+1", (2,), "equal", None),
        ("x^2+x+1", (1, 2), None, None),
        ("x-2", (1, 2), "x-1/2", "x-1/2"),
    ],
    INFINITESIMAL: [
        ("x", (1,), None, "equal"), ("x", (2,), "equal", None),
        ("x-1", (1, 2, 3), "x+1", "x+1"), ("x+1", (1, 2, 3), "x-1", "x-1"),
        ("x^2+2", (1, 2), None, None),
        ("x-2", (1, 2), "x+2", "x+2"),
    ],
}


@pytest.mark.parametrize("field", [F101, QQ], ids=["F_101", "Q"])
def test_partner_table(field):
    for setting, rows in PARTNERS.items():
        rule = DUALITY[setting]
        for text, ks, *pairings in rows:
            p = Poly.parse(field, text)
            for k in ks:
                for symmetry, pairing in zip((SYMMETRIC, SKEW), pairings):
                    want = (None if pairing is None
                            else (p.coeffs, k) if pairing == "equal"
                            else (Poly.parse(field, pairing).coeffs, k))
                    assert rule.partner(p, k, symmetry) == want, \
                        (setting, text, k, symmetry)


def test_indecomposable_examples():
    s = indecomposable_decomposition(Matrix(QQ, [[1, 1], [0, 1]]))
    assert [(x.p.to_str(), x.k) for x in s] == [("x - 1", 2)]
    s = indecomposable_decomposition(Matrix.diagonal(QQ, [2, 3]))
    assert sorted((x.p.to_str(), x.k) for x in s) == \
        [("x - 2", 1), ("x - 3", 1)]
    JJ = Matrix.block_diagonal(QQ, [Matrix.jordan_block(QQ, 1, 2),
                                    Matrix.jordan_block(QQ, 1, 2)])
    s = indecomposable_decomposition(JJ)
    assert [(x.p.to_str(), x.k, x.copy_index) for x in s] == \
        [("x - 1", 2, 0), ("x - 1", 2, 1)]


def test_reassembly_to_block_form():
    rng = random.Random(59)
    blocks = [Matrix.jordan_block(QQ, 1, 3),
              Matrix.jordan_block(QQ, -1, 2),
              Matrix.companion(Poly.parse(QQ, "x^2-3*x+1"))]
    T0 = Matrix.block_diagonal(QQ, blocks)
    for _ in range(5):
        g = rand_invertible(QQ, 7, rng)
        T = g * T0 * g.inverse()
        summands = indecomposable_decomposition(T)
        C = summands[0].basis
        for s in summands[1:]:
            C = C.hstack(s.basis)
        assembled = C.inverse() * T * C
        # every summand is in its power basis: T acts as a companion block
        expected = Matrix.block_diagonal(
            QQ, [Matrix.companion(s.p ** s.k) for s in summands])
        assert assembled == expected


def test_summand_spans_are_invariant():
    # `summands` checks N^k v = 0 for each generator v; the linear solve of
    # the reference must then find T on each span, acting as the companion
    # matrix of p^k
    maps = [T for kind in ("invariant", "infinitesimal")
            for _, T in corpus(29, 40, kind)]
    rng = random.Random(31)
    for blocks in ([("x^2-3*x+1", 1), ("x^2-3*x+1", 1), ("x-1", 1)],
                   [("x^2+1", 2), ("x+1", 1), ("x-2", 1), ("x-1/2", 1)],
                   [("x^2-3*x+1", 2), ("x-1", 3), ("x+1", 2)]):
        T0 = Matrix.block_diagonal(QQ, [
            Matrix.companion(Poly.parse(QQ, f) ** k) for f, k in blocks])
        g = rand_invertible(QQ, T0.nrows, rng)
        maps.append(g * T0 * g.inverse())
    for T in maps:
        for s in ModuleStructure(T).summands:
            assert restriction(T, s.basis) == Matrix.companion(s.p ** s.k)
