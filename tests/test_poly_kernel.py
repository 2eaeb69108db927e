"""Property tests of the F[x] kernel and the Poly operators that wrap it.

Random a, b over F_2, F_3, F_101 and Q; the kernel is also checked
against a schoolbook product written with Field methods only.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bilinv.fields import PrimeField, QQ  # noqa: E402
from bilinv.poly import Poly, _axpy, _divmod  # noqa: E402

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(101), QQ)
PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)


def scalars(field):
    if field.characteristic:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@st.composite
def poly_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    a, b = (Poly(field, draw(st.lists(scalars(field), max_size=8)))
            for _ in range(2))
    return field, a, b


def schoolbook_mul(field, a, b):
    out = [field.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    while out and field.is_zero(out[-1]):
        out.pop()
    return tuple(out)


@PROPERTY
@given(poly_pairs())
def test_division_identity(pair):
    field, a, b = pair
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert a == q * b + r and r.degree < b.degree
    raw = _divmod(a.coeffs, b.coeffs, field.p, field.zero)
    assert (q.coeffs, r.coeffs) == tuple(map(tuple, raw))


@PROPERTY
@given(poly_pairs())
def test_add_sub_round_trip(pair):
    _, a, b = pair
    assert (a + b) - b == a
    assert a - a == Poly.zero(a.field) and -(-a) == a


@PROPERTY
@given(poly_pairs())
def test_product_commutes_and_matches_schoolbook(pair):
    field, a, b = pair
    ab = a * b
    assert ab == b * a
    assert ab.coeffs == schoolbook_mul(field, a.coeffs, b.coeffs)
    if not (a.is_zero() or b.is_zero()):
        raw = _axpy((), a.coeffs, b.coeffs, field.p, field.zero)
        assert ab.coeffs == tuple(raw)


@PROPERTY
@given(poly_pairs(),
       st.one_of(st.sampled_from(([1], [-1], [0, 1], [-1, 0, 1])),
                 st.lists(st.integers(-3, 3), min_size=1, max_size=4)))
def test_axpy_matches_poly_operators(pair, q):
    # q = +-1 takes the kernel's add/subtract shortcut
    field, a, b = pair
    q = Poly(field, q)
    if q.is_zero() or b.is_zero():
        return
    raw = _axpy(a.coeffs, q.coeffs, b.coeffs, field.p, field.zero)
    assert tuple(raw) == (a + q * b).coeffs
    prod = schoolbook_mul(field, q.coeffs, b.coeffs)
    n = max(len(a.coeffs), len(prod))
    pad = (field.zero,) * n
    out = [field.add(x, y) for x, y in zip((a.coeffs + pad)[:n],
                                           (prod + pad)[:n])]
    while out and field.is_zero(out[-1]):
        out.pop()
    assert raw == out
