"""The module structure from the characteristic polynomial against
independent references: sympy's characteristic polynomial, and the
elementary divisors read off the Smith normal form of xI - T.

Random conjugates of block-diagonal matrices over Q, F_7 and F_101, with
repeated Jordan and companion blocks, so that the divisors p^k come with
several sizes and multiplicities for one p.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bilinv.canonical import (ModuleStructure, _char_matrix,  # noqa: E402
                              divisor_multiset, smith_normal_form)
from bilinv.fields import PrimeField, QQ  # noqa: E402
from bilinv.linalg import (Matrix, char_poly,  # noqa: E402
                           eval_poly_at_matrix)
from bilinv.poly import Poly, factor  # noqa: E402
from linalg_reference import summand_bases_on_kernels  # noqa: E402

FIELDS = (QQ, PrimeField(7), PrimeField(101))
PROPERTY = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)


def _conjugate(T0, rng):
    F, n = T0.field, T0.nrows
    while True:
        if F.p is None:
            g = Matrix(F, [[Fraction(rng.randrange(-3, 4),
                                     rng.randrange(1, 3))
                            for _ in range(n)] for _ in range(n)])
        else:
            g = Matrix(F, [[rng.randrange(F.p) for _ in range(n)]
                           for _ in range(n)])
        if not F.is_zero(g.det()):
            return g * T0 * g.inverse()


@st.composite
def conjugates(draw, max_dim=8):
    """A random conjugate of a block-diagonal matrix of Jordan blocks
    J(l, k) and companion blocks of q^j, with l and q from short lists so
    that one p often comes with several exponents and multiplicities."""
    F = draw(st.sampled_from(FIELDS))
    blocks = []
    dim = 0
    while dim < max_dim and (not blocks or draw(st.booleans())):
        if draw(st.booleans()):
            block = Matrix.jordan_block(F, draw(st.sampled_from((1, -1, 2))),
                                        draw(st.integers(1, 3)))
        else:
            q = Poly(F, draw(st.sampled_from(((1, 1, 1), (1, 0, 1),
                                              (-1, -3, 1)))))
            block = Matrix.companion(q ** draw(st.integers(1, 2)))
        for _ in range(draw(st.integers(1, 3))):
            if dim + block.nrows <= max_dim:
                blocks.append(block)
                dim += block.nrows
    T0 = Matrix.block_diagonal(F, blocks)
    return _conjugate(T0, random.Random(draw(st.integers(0, 2 ** 32))))


def smith_divisors(T):
    """{(p coeffs, k): multiplicity} read off the Smith diagonal."""
    counts = {}
    for d in smith_normal_form(_char_matrix(T)):
        if d.degree >= 1:
            for p, k in factor(d):
                counts[(p.coeffs, k)] = counts.get((p.coeffs, k), 0) + 1
    return counts


@PROPERTY
@given(conjugates())
def test_divisors_match_smith_reference(T):
    structure = ModuleStructure(T)
    assert divisor_multiset(structure.elementary_divisors) == \
        smith_divisors(T)
    # runs the rank-n and per-summand invariance checks
    assert sum(s.dim for s in structure.summands) == T.nrows


@PROPERTY
@given(conjugates())
def test_kernel_chain_matches_explicit_powers(T):
    # primary runs on V and reads ker N^(j+1) off the RREF rows of N^j
    # times N; each step must give exactly the kernel basis of the
    # explicit power, and the chain must stop when it fills ker p(T)^e
    structure = ModuleStructure(T)
    n = T.nrows
    for p, e in structure.factorization:
        N, K = structure.primary(p, e)
        assert N == eval_poly_at_matrix(p, T)
        power = Matrix.identity(T.field, n)
        for basis in K:
            assert all(len(v) == n for v in basis)
            assert basis == power.kernel_basis()
            power = power * N
        assert len(K[-1]) == p.degree * e > len(K[-2])


@PROPERTY
@given(conjugates())
def test_generators_match_restriction_reference(T):
    # the chain on V picks exactly the generators that the route through
    # the basis of W = ker p(T)^e and T restricted to W picks, mapped
    # back to V
    structure = ModuleStructure(T)
    assert [s.basis for s in structure.summands] == \
        summand_bases_on_kernels(T, structure.factorization)


@PROPERTY
@given(conjugates())
def test_summands_in_divisor_order(T):
    # built in the order of the factorization and of ascending k, with
    # copy_index counting the copies of each p^k; nothing sorts them after
    summands = ModuleStructure(T).summands
    keys = [(s.p.degree, s.p.coeffs, s.k) for s in summands]
    assert keys == sorted(keys)
    seen = {}
    for s in summands:
        assert s.copy_index == seen.get(s.divisor_key(), 0)
        seen[s.divisor_key()] = s.copy_index + 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_char_poly_matches_sympy(field):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randrange(0, 9)
        if field.p is None:
            rows = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                     for _ in range(n)] for _ in range(n)]
        else:
            rows = [[rng.randrange(field.p) for _ in range(n)]
                    for _ in range(n)]
            if rng.random() < 0.5:       # many zeros: pivot searches, swaps
                rows = [[x if rng.random() < 0.3 else 0 for x in r]
                        for r in rows]
        ref = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                                  if field.p is None else x
                                  for r in rows for x in r]).charpoly()
        # over F_p, det(xI - T) reduces mod p coefficient by coefficient
        expected = Poly(field, [field.coerce(Fraction(str(c)))
                                if field.p is None else int(c) % field.p
                                for c in reversed(ref.all_coeffs())])
        assert char_poly(Matrix(field, rows)) == expected
