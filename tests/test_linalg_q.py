"""Property tests of the Q matrix paths, which run on integers over one
denominator, against plain-Fraction references kept here: a schoolbook
product, a textbook Gauss-Jordan RREF, and sum_k T^k u_k by matrix
powers.  Inputs mix positive and negative denominators, large and small
numerators, zero rows, and the shapes 0 x 0, n x 0 and 1 x n.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bilinv.certificates import SKEW, SYMMETRIC, check_symmetry  # noqa: E402
from bilinv.construction import (_share_transpose,  # noqa: E402
                                 construct_invariant_form)
from bilinv.errors import Singular  # noqa: E402
from bilinv.fields import QQ  # noqa: E402
from bilinv.canonical import krylov_basis  # noqa: E402
from bilinv.linalg import (Matrix, det_cofactor, krylov_sum,  # noqa: E402
                           poly_apply)
from bilinv.poly import Poly  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)

scalars = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30)),
    st.sampled_from((1, -1, 2, -3, 4, 7, -12, 10 ** 20 + 39)))


@st.composite
def raw_rows(draw, nrows, ncols):
    """nrows x ncols Fractions; each row is all zero with probability 1/4."""
    zero_row = [Fraction(0)] * ncols
    return [zero_row if draw(st.integers(0, 3)) == 0
            else draw(st.lists(scalars, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    return Matrix(QQ, draw(raw_rows(nrows, ncols)))


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(0, max_n))
    return Matrix(QQ, draw(raw_rows(n, n)))


# --- plain-Fraction references ---------------------------------------------

def schoolbook(a, b, inner):
    return [[sum((row[t] * col[t] for t in range(inner)), Fraction(0))
             for col in zip(*b)] if b else [] for row in a]


def ref_mul(A, B):
    out = schoolbook(A.rows, B.rows, A.ncols)
    if not B.rows:     # A is n x 0 and the product is n x 0
        out = [[] for _ in A.rows]
    return out


def ref_rref(rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def ref_power_apply(T, k, u):
    v = list(u)
    for _ in range(k):
        v = [sum((a * x for a, x in zip(row, v)), Fraction(0))
             for row in T.rows]
    return v


# --- properties ------------------------------------------------------------

@PROPERTY
@given(st.data())
def test_product_and_apply_match_schoolbook(data):
    A = data.draw(matrices())
    k = data.draw(st.integers(0, 4))
    B = Matrix(QQ, data.draw(raw_rows(A.ncols, k)))
    assert [list(r) for r in (A * B).rows] == ref_mul(A, B)
    v = data.draw(st.lists(scalars, min_size=A.ncols, max_size=A.ncols))
    assert list(A.apply(tuple(v))) == [
        sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in A.rows]


def _check_elimination(A):
    R_ref, piv_ref = ref_rref(A.rows, A.ncols)
    assert A.rank() == len(piv_ref)
    # kernel: one vector per free column, 1 there and 0 at the other free
    # columns, minus the RREF entries at the pivot coordinates
    free = [j for j in range(A.ncols) if j not in piv_ref]
    expected = []
    for j in free:
        v = [Fraction(0)] * A.ncols
        v[j] = Fraction(1)
        for r, c in enumerate(piv_ref):
            v[c] = -R_ref[r][j]
        expected.append(tuple(v))
    assert A.kernel_basis() == expected


@PROPERTY
@given(matrices())
@example(Matrix(QQ, []))
@example(Matrix(QQ, [[], [], []]))
@example(Matrix(QQ, [["1/2", "-3/4", "0", "5"]]))
@example(Matrix(QQ, [[0, 0, 0], ["2/3", "-1/5", "7"], [0, 0, 0]]))
def test_rank_and_kernel_match_textbook_rref(A):
    _check_elimination(A)


@PROPERTY
@given(square_matrices())
@example(Matrix(QQ, []))
@example(Matrix(QQ, [["-1/3"]]))
@example(Matrix(QQ, [[1, 2], [2, 4]]))
def test_inverse_and_det_match_references(A):
    n = A.nrows
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    R_ref, piv_ref = ref_rref([r + tuple(e) for r, e in zip(A.rows, ident)],
                              2 * n)
    assert A.det() == det_cofactor(A)
    if piv_ref[:n] != list(range(n)) or len(piv_ref) < n:
        assert A.det() == 0
        with pytest.raises(Singular):
            A.inverse()
        return
    inv = A.inverse()
    assert [list(r) for r in inv.rows] == [r[n:] for r in R_ref]
    assert A * inv == Matrix.identity(QQ, n)


@PROPERTY
@given(st.data())
def test_solve_right_matches_textbook_rref(data):
    A = data.draw(matrices())
    m = data.draw(st.integers(1, 3))
    rhs = Matrix(QQ, data.draw(raw_rows(A.nrows, m)))
    if A.nrows == 0:
        return
    R_ref, piv_ref = ref_rref([r + s for r, s in zip(A.rows, rhs.rows)],
                              A.ncols + m)
    if any(c >= A.ncols for c in piv_ref):
        with pytest.raises(Singular):
            A.solve_right(rhs)
        return
    X = A.solve_right(rhs)
    expected = [[Fraction(0)] * m for _ in range(A.ncols)]
    for r, c in enumerate(piv_ref):
        expected[c] = R_ref[r][A.ncols:]
    assert [list(r) for r in X.rows] == expected
    if A.ncols:     # a 0-row X keeps no column count, so A * X is n x 0
        assert A * X == rhs


def test_singular_raised():
    A = Matrix(QQ, [["1/2", "1/3"], ["3/2", "1"]])
    with pytest.raises(Singular):
        A.inverse()
    with pytest.raises(Singular):
        A.solve_right(Matrix(QQ, [[1], [0]]))
    assert A * A.solve_right(Matrix(QQ, [[1], [3]])) == \
        Matrix(QQ, [[1], [3]])


@PROPERTY
@given(st.data())
def test_krylov_sum_and_poly_apply_match_matrix_powers(data):
    T = data.draw(square_matrices(max_n=4))
    n = T.nrows
    if n == 0:
        return
    vec = st.lists(scalars, min_size=n, max_size=n).map(tuple)
    us = data.draw(st.lists(vec, min_size=1, max_size=4))
    expected = [Fraction(0)] * n
    for k, u in enumerate(us):
        expected = [a + b for a, b in
                    zip(expected, ref_power_apply(T, k, u))]
    assert list(krylov_sum(T, us)) == expected
    v = data.draw(vec)
    f = Poly(QQ, data.draw(st.lists(scalars, min_size=1, max_size=4)))
    if f.is_zero():
        return
    expected = [Fraction(0)] * n
    for k, c in enumerate(f.coeffs):
        expected = [a + c * b for a, b in
                    zip(expected, ref_power_apply(T, k, v))]
    assert list(poly_apply(f, T, v)) == expected
    r = data.draw(st.integers(1, 4))
    assert krylov_basis(T, v, r).cols() == [
        tuple(ref_power_apply(T, k, v)) for k in range(r)]


# --- shared entries of the assembled Gram --------------------------------------

def _conjugated(blocks, seed):
    T0 = Matrix.block_diagonal(QQ, blocks)
    rng = random.Random(seed)
    n = T0.nrows
    while True:
        g = Matrix(QQ, [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                         for _ in range(n)] for _ in range(n)])
        if g.det() != 0:
            return g * T0 * g.inverse()


def test_assembled_gram_shares_transposed_entries():
    quad = Matrix.companion(Poly.parse(QQ, "x^2-3*x+1"))
    T = _conjugated([quad, Matrix.jordan_block(QQ, 1, 3)], 3)
    B = construct_invariant_form(T, SYMMETRIC).gram.rows
    assert all(B[j][i] is B[i][j] for i in range(len(B)) for j in range(i))
    T = _conjugated([quad, Matrix.jordan_block(QQ, 1, 2)], 4)
    B = construct_invariant_form(T, SKEW).gram.rows
    assert all(B[j][i] == -B[i][j] for i in range(len(B)) for j in range(i))


def test_sharing_keeps_an_asymmetric_product_visible():
    B = Matrix(QQ, [["1/2", "1/3"], ["1/5", 2]])
    assert not check_symmetry(_share_transpose(B, SYMMETRIC), SYMMETRIC)
    assert not check_symmetry(_share_transpose(B, SKEW), SKEW)
