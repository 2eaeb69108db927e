import random
import sys
from fractions import Fraction

import pytest

import bilinv.canonical
import bilinv.linalg
from bilinv.certificates import INVARIANT, SKEW, SYMMETRIC, verify_gram
from bilinv.construction import (construct_infinitesimal_form,
                                 construct_invariant_form)
from bilinv.decision import (BAD_UNIPOTENT_PARITY, ODD_DIMENSION_SKEW,
                             UNPAIRED_ADDITIVE_DUAL, UNPAIRED_DUAL,
                             decide_form, decide_infinitesimal_form,
                             decide_invariant_form, decide_real)
from bilinv.errors import SmallCharacteristic, Singular
from bilinv.fields import PrimeField, QQ
from bilinv.linalg import Matrix
from bilinv.poly import Poly
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


def test_unipotent_parity_cases():
    J2 = Matrix.jordan_block(QQ, 1, 2)
    rep = decide_invariant_form(J2, SYMMETRIC)
    assert not rep.exists
    assert [o.kind for o in rep.obstructions] == [BAD_UNIPOTENT_PARITY]
    assert decide_invariant_form(J2, SKEW).exists


def test_dual_pair_cases():
    T = Matrix.diagonal(QQ, [2, Fraction(1, 2)])
    assert decide_invariant_form(T, SYMMETRIC).exists
    assert decide_invariant_form(T, SKEW).exists
    T = Matrix.diagonal(QQ, [2, 3])
    rep = decide_invariant_form(T, SYMMETRIC)
    assert not rep.exists
    assert {o.kind for o in rep.obstructions} == {UNPAIRED_DUAL}
    labels = {o.divisor.p.to_str() for o in rep.obstructions}
    assert labels == {"x - 2", "x - 3"}


def test_skew_odd_dimension():
    rep = decide_invariant_form(Matrix.identity(QQ, 3), SKEW)
    assert not rep.exists
    assert ODD_DIMENSION_SKEW in {o.kind for o in rep.obstructions}


def test_preconditions():
    with pytest.raises(Singular):
        decide_invariant_form(Matrix.diagonal(QQ, [1, 0]), SYMMETRIC)
    with pytest.raises(SmallCharacteristic):
        decide_invariant_form(Matrix.identity(PrimeField(3), 3), SYMMETRIC)
    # the zero-dimensional map carries the empty form
    assert decide_invariant_form(Matrix(QQ, []), SKEW).exists


def test_empty_map_certificate():
    # the empty form is also constructed and verified, not only decided
    for field in (QQ, PrimeField(7)):
        E = Matrix(field, [])
        for symmetry in (SYMMETRIC, SKEW):
            for decide in (decide_invariant_form, decide_infinitesimal_form):
                witness = decide(E, symmetry, construct=True).witness
                assert witness.gram == E and witness.provenance == []
            assert all(verify_gram(E, E, symmetry, INVARIANT).values())


def test_unknown_symmetry_or_setting():
    # a misspelt symmetry must not fall through to the skew parity rule
    # (which skips the odd-dimension check), nor an unknown setting to a
    # bare KeyError
    J = Matrix.jordan_block(QQ, 1, 2)
    with pytest.raises(ValueError, match="unknown symmetry 'Symmetric'"):
        decide_invariant_form(J, "Symmetric")
    with pytest.raises(ValueError, match="unknown setting 'bogus'"):
        decide_form(J, SYMMETRIC, "bogus")
    with pytest.raises(ValueError, match="unknown symmetry"):
        verify_gram(J, Matrix.identity(QQ, 2), "Skew", INVARIANT)


def test_infinitesimal_cases():
    S = Matrix(QQ, [[0, 0], [1, 0]])
    assert not decide_infinitesimal_form(S, SYMMETRIC).exists
    assert decide_infinitesimal_form(S, SKEW).exists
    S = Matrix.diagonal(QQ, [1, -1])
    assert decide_infinitesimal_form(S, SYMMETRIC).exists
    assert decide_infinitesimal_form(S, SKEW).exists
    S = Matrix.diagonal(QQ, [1, 2])
    rep = decide_infinitesimal_form(S, SYMMETRIC)
    assert not rep.exists
    assert {o.kind for o in rep.obstructions} == {UNPAIRED_ADDITIVE_DUAL}


def test_decisions_conjugation_invariant():
    rng = random.Random(71)
    T0 = Matrix.block_diagonal(F101, [
        Matrix.jordan_block(F101, 1, 2),
        Matrix.companion(Poly.parse(F101, "x^2-3*x+1"))])
    for _ in range(25):
        g = rand_invertible(F101, 4, rng)
        T = g * T0 * g.inverse()
        for symmetry in (SYMMETRIC, SKEW):
            assert decide_invariant_form(T, symmetry).exists == \
                decide_invariant_form(T0, symmetry).exists


def test_decision_matches_inverse():
    rng = random.Random(73)
    for _ in range(20):
        T = rand_invertible(F101, rng.randrange(1, 6), rng)
        for symmetry in (SYMMETRIC, SKEW):
            assert decide_invariant_form(T, symmetry).exists == \
                decide_invariant_form(T.inverse(), symmetry).exists


def test_symmetric_equals_skew_without_pm_one():
    rng = random.Random(79)
    count = 0
    while count < 15:
        n = rng.randrange(2, 7, 2)
        T = rand_invertible(F101, n, rng)
        from bilinv.linalg import char_poly
        chi = char_poly(T)
        if F101.is_zero(chi(1)) or F101.is_zero(chi(F101.neg(1))):
            continue
        count += 1
        assert decide_invariant_form(T, SYMMETRIC).exists == \
            decide_invariant_form(T, SKEW).exists


def test_reality_examples():
    C = Matrix.companion(Poly.parse(QQ, "x^2-3*x+1"))
    assert decide_real(C).is_real
    rep = decide_real(Matrix.diagonal(QQ, [2, 2]))
    assert not rep.is_real and rep.mismatches
    assert rep.splitting is None
    rep = decide_real(Matrix(QQ, [[1, 1], [0, 1]]))
    assert rep.is_real
    b1, b2 = rep.splitting
    assert (b1.ncols, b2.ncols) == (0, 2)


def test_reality_splitting_blocks_invariant():
    rng = random.Random(83)
    T0 = Matrix.block_diagonal(QQ, [
        Matrix.jordan_block(QQ, 1, 2),           # even exponent: skew part
        Matrix.jordan_block(QQ, 1, 2),
        Matrix.jordan_block(QQ, -1, 1),          # odd exponent: symmetric part
        Matrix.companion(Poly.parse(QQ, "x^2-3*x+1"))])
    g = rand_invertible(QQ, 7, rng)
    T = g * T0 * g.inverse()
    rep = decide_real(T)
    assert rep.is_real
    b1, b2 = rep.splitting
    assert b1.ncols + b2.ncols == 7 and b2.ncols == 4
    for basis in (b1, b2):
        if basis.ncols:
            restriction(T, basis)
    # both parts admit witnesses of their kind
    from bilinv.decision import decide_invariant_form
    assert decide_invariant_form(restriction(T, b1), SYMMETRIC).exists
    assert decide_invariant_form(restriction(T, b2), SKEW).exists


def test_reality_matches_inverse():
    rng = random.Random(89)
    for _ in range(10):
        T = rand_invertible(F101, rng.randrange(1, 5), rng)
        assert decide_real(T).is_real == decide_real(T.inverse()).is_real


def count_structure_calls(monkeypatch):
    """Count Smith forms and char_poly calls made through bilinv."""
    counts = {"smith": 0, "char_poly": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bilinv.canonical, "smith_normal_form",
                        counted("smith", bilinv.canonical.smith_normal_form))
    original = bilinv.linalg.char_poly
    wrapper = counted("char_poly", original)
    for name, mod in list(sys.modules.items()):
        if name.startswith("bilinv") and \
                getattr(mod, "char_poly", None) is original:
            monkeypatch.setattr(mod, "char_poly", wrapper)
    return counts


def test_one_structure_per_call(monkeypatch):
    # no self-dual block, so no Jordan-Chevalley splitting runs
    rng = random.Random(101)
    g = rand_invertible(QQ, 6, rng)
    T = g * Matrix.block_diagonal(QQ, [
        Matrix.jordan_block(QQ, 1, 3), Matrix.jordan_block(QQ, -1, 1),
        Matrix.diagonal(QQ, [2, Fraction(1, 2)])]) * g.inverse()
    S = g * Matrix.block_diagonal(QQ, [
        Matrix.jordan_block(QQ, 0, 3), Matrix.jordan_block(QQ, 0, 1),
        Matrix.diagonal(QQ, [2, -2])]) * g.inverse()
    counts = count_structure_calls(monkeypatch)
    calls = [
        lambda: decide_invariant_form(T, SYMMETRIC),
        lambda: construct_invariant_form(T, SYMMETRIC),
        lambda: construct_infinitesimal_form(S, SYMMETRIC),
        lambda: decide_real(T),
    ]
    for call in calls:
        counts.update(smith=0, char_poly=0)
        call()
        assert counts == {"smith": 0, "char_poly": 1}
