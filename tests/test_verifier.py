"""Differential test of the certificate verifier: `verify_gram`, which
runs on integer rows with a mod-q filter and Bareiss elimination, must
agree with `verify_gram_reference`, the same three checks on the field's
scalar methods, on every input.  Inputs are over Q (denominators up to
2^20), F_101 and F_(2^61 - 1), of dimension at most 6, in both settings
and with both claimed symmetries: random Grams, singular Grams, witnesses
from `construct_*_form`, and witnesses with one entry changed."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bilinv.certificates import (INFINITESIMAL, INVARIANT, SKEW,  # noqa: E402
                                 SYMMETRIC, verify_gram)
from bilinv.construction import (construct_infinitesimal_form,  # noqa: E402
                                 construct_invariant_form)
from bilinv.errors import DecisionFalse  # noqa: E402
from bilinv.fields import QQ, PrimeField  # noqa: E402
from bilinv.linalg import Matrix  # noqa: E402
from linalg_reference import verify_gram_reference  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=300,
                    deadline=None)
FIELDS = (QQ, PrimeField(101), PrimeField(2 ** 61 - 1))
DENOMINATOR = 2 ** 20
CONSTRUCT = {INVARIANT: construct_invariant_form,
             INFINITESIMAL: construct_infinitesimal_form}


def _scalar(field, rng):
    if field == QQ:
        return Fraction(rng.randint(-DENOMINATOR, DENOMINATOR),
                        rng.randint(1, DENOMINATOR))
    return rng.randrange(field.p)


def _unit(field, rng):
    while True:
        c = field.coerce(_scalar(field, rng))
        if not field.is_zero(c):
            return c


def _map(field, setting, n, rng):
    """g D g^-1 for a block-diagonal D of Jordan blocks at 1 or -1 (at 0
    infinitesimally), dual pairs diag(c, 1/c) (diag(c, -c)) and
    unpaired scalars, and g = L L^t with L unit lower triangular, so
    that many maps admit a form."""
    root = (1, -1) if setting == INVARIANT else (0,)
    blocks = []
    while n > 0:
        roll = rng.randrange(4)
        if roll == 0 and n >= 2:
            c = _unit(field, rng)
            dual = field.inv(c) if setting == INVARIANT else field.neg(c)
            blocks.append(Matrix.diagonal(field, [c, dual]))
            n -= 2
        elif roll == 1:
            blocks.append(Matrix.diagonal(field, [_scalar(field, rng)]))
            n -= 1
        else:
            k = rng.randint(1, n)
            blocks.append(Matrix.jordan_block(field, rng.choice(root), k))
            n -= k
    D = Matrix.block_diagonal(field, blocks)
    m = D.nrows
    lower = Matrix(field, [[1 if i == j else rng.randint(-2, 2) if j < i
                            else 0 for j in range(m)] for i in range(m)])
    g = lower * lower.transpose()
    return g * D * g.inverse()


def _gram(field, n, rng):
    """A random Gram, symmetric, skew or neither."""
    rows = [[_scalar(field, rng) for _ in range(n)] for _ in range(n)]
    shape = rng.randrange(3)
    for i in range(n):
        for j in range(i + 1):
            if shape == 0:
                rows[i][j] = rows[j][i]
            elif shape == 1:
                rows[i][j] = field.neg(field.coerce(rows[j][i])) if i != j \
                    else 0
    return Matrix(field, rows)


def _singular(F, n, rng):
    """A random Gram whose last row is a combination of the others."""
    rows = [[F.coerce(_scalar(F, rng)) for _ in range(n)]
            for _ in range(n - 1)]
    last = [F.zero] * n
    for row in rows:
        c = F.coerce(_scalar(F, rng))
        last = [F.add(x, F.mul(c, y)) for x, y in zip(last, row)]
    return Matrix(F, rows + [last])


def _change_one(B, rng):
    """B with one entry moved by a non-zero scalar."""
    F = B.field
    rows = [list(r) for r in B.rows]
    i, j = rng.randrange(B.nrows), rng.randrange(B.ncols)
    rows[i][j] = F.add(rows[i][j], _unit(F, rng))
    return Matrix(F, rows)


@PROPERTY
@given(st.sampled_from(FIELDS), st.sampled_from((INVARIANT, INFINITESIMAL)),
       st.sampled_from((SYMMETRIC, SKEW)),
       st.sampled_from(("random", "singular", "witness", "changed")),
       st.integers(1, 6), st.integers(0, 2 ** 32))
def test_verify_gram_matches_reference(field, setting, symmetry, kind, n,
                                       seed):
    rng = random.Random(seed)
    T = _map(field, setting, n, rng)
    B = _singular(field, n, rng) if kind == "singular" \
        else _gram(field, n, rng)
    if kind in ("witness", "changed"):
        try:
            B = CONSTRUCT[setting](T, symmetry).gram
        except DecisionFalse:
            pass
        if kind == "changed":
            B = _change_one(B, rng)
    assert verify_gram(T, B, symmetry, setting) \
        == verify_gram_reference(T, B, symmetry, setting)
