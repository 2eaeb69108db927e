import random
from fractions import Fraction

import pytest

from bilinv.errors import (DegreeLimit, NotEvenPolynomial, NotSelfDual,
                           OddDegree, ZeroConstantTerm)
from bilinv.fields import PrimeField, QQ
from bilinv.poly import (Poly, additive_dual_poly, dual_poly, factor,
                         is_self_dual, poly_gcd, substitute_x_plus_inverse,
                         substitute_x_squared)

F101 = PrimeField(101)


def rand_poly(field, deg, rng, monic=False):
    if isinstance(field, PrimeField):
        coeffs = [rng.randrange(field.p) for _ in range(deg + 1)]
    else:
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                  for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = field.one
    elif field.is_zero(coeffs[-1]):
        coeffs[-1] = field.one
    return Poly(field, coeffs)


def test_gcd_examples():
    assert poly_gcd(Poly.parse(QQ, "x^2-1"), Poly.parse(QQ, "x-1")) == \
        Poly.parse(QQ, "x-1")
    assert poly_gcd(Poly.parse(QQ, "x^2+1"), Poly.parse(QQ, "x^2-1")).is_one()
    f = Poly.parse(QQ, "2*x^2-2")
    assert poly_gcd(f, Poly.zero(QQ)) == f.monic()


def test_factor_examples():
    fac = factor(Poly.parse(PrimeField(5), "x^4-1"))
    assert [(p.to_str(), e) for p, e in fac] == \
        [("x + 1", 1), ("x + 2", 1), ("x + 3", 1), ("x + 4", 1)]
    fac = factor(Poly.parse(QQ, "x^4-1"))
    assert [(p.to_str(), e) for p, e in fac] == \
        [("x - 1", 1), ("x + 1", 1), ("x^2 + 1", 1)]
    fac = factor(Poly.parse(QQ, "x^2-3*x+1"))
    assert len(fac) == 1 and fac.factors[0][1] == 1


def test_factor_reconstructs_random():
    rng = random.Random(7)
    for _ in range(200):
        f = rand_poly(F101, rng.randrange(1, 11), rng)
        assert factor(f).product() == f
    for _ in range(200):
        f = rand_poly(QQ, rng.randrange(1, 7), rng)
        assert factor(f).product() == f


def test_factor_char2():
    F2 = PrimeField(2)
    fac = factor(Poly.parse(F2, "x^3 + x"))
    assert [(p.to_str(), e) for p, e in fac] == [("x", 1), ("x + 1", 2)]
    # x^2 + x + 1 is the unique irreducible quadratic mod 2
    assert len(factor(Poly.parse(F2, "x^2 + x + 1"))) == 1
    # (x^3 + x + 1)(x^3 + x^2 + 1), two distinct irreducible cubics: the
    # equal-degree split takes the additive trace map of characteristic 2
    fac = factor(Poly.parse(F2, "x^6 + x^5 + x^4 + x^3 + x^2 + x + 1"))
    assert [(p.to_str(), e) for p, e in fac] == \
        [("x^3 + x^2 + 1", 1), ("x^3 + x + 1", 1)]
    rng = random.Random(9)
    for _ in range(100):
        f = rand_poly(F2, rng.randrange(1, 9), rng)
        assert factor(f).product() == f


def test_factor_multiplicities_char_p():
    F3 = PrimeField(3)
    f = Poly.parse(F3, "x+1") ** 3 * Poly.parse(F3, "x+2") ** 4
    fac = factor(f)
    assert sorted((p.to_str(), e) for p, e in fac) == \
        [("x + 1", 3), ("x + 2", 4)]


def random_product(field, rng):
    """A product of 1-4 random factors of degree 1-3, some repeated."""
    f = Poly.one(field)
    for _ in range(rng.randrange(1, 5)):
        g = rand_poly(field, rng.randrange(1, 4), rng)
        f = f * g ** rng.choice((1, 1, 2))
    return f


def test_factor_matches_sympy():
    # an independent factorization on seeded inputs
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(41)
    for field in (QQ, PrimeField(2), PrimeField(3), F101):
        for _ in range(25):
            f = random_product(field, rng)
            high_first = [sympy.Rational(str(c)) for c in reversed(f.coeffs)]
            if field.characteristic:
                ref = sympy.Poly(high_first, x, modulus=field.p)
            else:
                ref = sympy.Poly(high_first, x, domain="QQ")
            expected = sorted(
                (Poly(field, [Fraction(str(c)) for c in
                              reversed(g.all_coeffs())]).monic().coeffs, e)
                for g, e in ref.factor_list()[1])
            got = sorted((g.coeffs, e) for g, e in factor(f))
            assert got == expected, f.to_str()


def test_degree_limit():
    f = Poly(QQ, [1] * 26)
    with pytest.raises(DegreeLimit):
        factor(f)
    factor(f, degree_limit=30)
    # the cap applies to each squarefree part: (x^2 - 3)^13 has degree 26
    g = Poly.parse(QQ, "x^2 - 3")
    assert list(factor(g ** 13)) == [(g, 13)]


def no_rational_root(p):
    # rational root theorem on the primitive integer form
    import math
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    c0, lead = ints[0], ints[-1]
    if c0 == 0:
        return False
    for r in range(1, abs(c0) + 1):
        if c0 % r:
            continue
        for s in range(1, abs(lead) + 1):
            if lead % s:
                continue
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if p(cand) == 0:
                    return False
    return True


def test_factor_irreducibility_certificates():
    # low-degree factors have no roots; higher-degree ones re-factor to
    # themselves
    rng = random.Random(19)
    for field in (F101, QQ):
        for _ in range(25):
            f = rand_poly(field, rng.randrange(2, 7), rng)
            for p, _ in factor(f):
                if 2 <= p.degree <= 3:
                    if isinstance(field, PrimeField):
                        assert all(not field.is_zero(p(a))
                                   for a in range(field.p))
                    else:
                        assert no_rational_root(p)
                if p.degree > 1:
                    refac = factor(p)
                    assert len(refac) == 1 and refac.factors[0][1] == 1


def test_factor_determinism():
    f = Poly.parse(F101, "x^6 - 1")
    a = [(p.coeffs, e) for p, e in factor(f)]
    b = [(p.coeffs, e) for p, e in factor(f)]
    assert a == b


def test_dual_examples():
    assert dual_poly(Poly.parse(QQ, "x-2")) == Poly.parse(QQ, "x-1/2")
    h = Poly.parse(QQ, "x^2-3*x+1")
    assert dual_poly(h) == h and is_self_dual(h)
    with pytest.raises(ZeroConstantTerm):
        dual_poly(Poly.parse(QQ, "x^2+x"))
    assert not is_self_dual(Poly.parse(QQ, "x-2"))


def test_additive_dual_examples():
    assert additive_dual_poly(Poly.parse(QQ, "x^2+x+1")) == \
        Poly.parse(QQ, "x^2-x+1")
    assert additive_dual_poly(Poly.parse(QQ, "x-3")) == Poly.parse(QQ, "x+3")
    f, g = Poly.parse(QQ, "x^2+1"), Poly.parse(QQ, "x-2")
    assert additive_dual_poly(f) == f
    assert additive_dual_poly(g) != g


def test_duals_are_involutions():
    rng = random.Random(11)
    for _ in range(100):
        f = rand_poly(F101, rng.randrange(1, 8), rng, monic=True)
        assert additive_dual_poly(additive_dual_poly(f)) == f
        if not F101.is_zero(f.constant_term()):
            assert dual_poly(dual_poly(f)) == f


def test_dual_inverts_roots():
    rng = random.Random(13)
    for _ in range(50):
        roots = [rng.randrange(1, 101) for _ in range(rng.randrange(1, 6))]
        f = Poly.one(F101)
        for a in roots:
            f = f * Poly.x_minus(F101, a)
        fd = dual_poly(f)
        inv_roots = sorted(pow(a, 99, 101) for a in roots)
        g = Poly.one(F101)
        for a in inv_roots:
            g = g * Poly.x_minus(F101, a)
        assert fd == g


SELF_DUAL_CORPUS = [
    "x^2-3*x+1",
    "x^2+1",
    "x^4+x^3+x^2+x+1",
    "x^4+1",
    "x^4-x^2+1",
    "x^6+x^3+1",
    "x^6+x^5+x^4+x^3+x^2+x+1",
    "x^8-x^7+x^5-x^4+x^3-x+1",
    "x^8+1",
]


def test_substitute_x_plus_inverse_examples():
    assert substitute_x_plus_inverse(Poly.parse(QQ, "x^2-3*x+1")) == \
        Poly.parse(QQ, "x-3")
    assert substitute_x_plus_inverse(Poly.parse(QQ, "x^4+x^3+x^2+x+1")) == \
        Poly.parse(QQ, "x^2+x-1")
    assert substitute_x_plus_inverse(Poly.parse(QQ, "x^2+1")) == \
        Poly.parse(QQ, "x")
    with pytest.raises(NotSelfDual):
        substitute_x_plus_inverse(Poly.parse(QQ, "x^2-2*x+1") + Poly.one(QQ))
    with pytest.raises(OddDegree):
        substitute_x_plus_inverse(Poly.parse(QQ, "x-1"))


def expand_back(q, m):
    # x^m q(x + 1/x) as a genuine polynomial: sum q_j x^(m-j) (x^2+1)^j
    F = q.field
    x, x2p1 = Poly.x(F), Poly.parse(F, "x^2+1")
    acc = Poly.zero(F)
    for j in range(q.degree + 1):
        term = (x2p1 ** j * x ** (m - j)).scale(q.coeff(j))
        acc = acc + term
    return acc


def test_substitute_round_trip_corpus():
    for text in SELF_DUAL_CORPUS:
        p = Poly.parse(QQ, text)
        assert is_self_dual(p)
        q = substitute_x_plus_inverse(p)
        assert q.degree == p.degree // 2
        assert expand_back(q, p.degree // 2) == p


def test_substitute_x_squared():
    assert substitute_x_squared(Poly.parse(QQ, "x^2+1")) == \
        Poly.parse(QQ, "x+1")
    assert substitute_x_squared(Poly.parse(QQ, "x^4+3*x^2+1")) == \
        Poly.parse(QQ, "x^2+3*x+1")
    assert substitute_x_squared(Poly.parse(QQ, "x^2-2")) == \
        Poly.parse(QQ, "x-2")
    with pytest.raises(NotEvenPolynomial):
        substitute_x_squared(Poly.parse(QQ, "x^2+x"))
    p = Poly.parse(QQ, "x^4+3*x^2+1")
    q = substitute_x_squared(p)
    x = Poly.x(QQ)
    assert sum(((x ** (2 * j)).scale(c) for j, c in enumerate(q.coeffs)),
               Poly.zero(QQ)) == p


def test_parse_to_str_roundtrip():
    rng = random.Random(17)
    for _ in range(50):
        f = rand_poly(QQ, rng.randrange(0, 7), rng)
        assert Poly.parse(QQ, f.to_str()) == f
