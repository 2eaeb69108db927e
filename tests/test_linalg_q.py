"""Property tests of the matrix paths, which run on integers over one
denominator for Q and F_p alike, against references kept here on the
field's scalar methods: a schoolbook product, a textbook Gauss-Jordan
RREF, a cofactor determinant, and f(T) and T^k v by matrix powers.  The
elimination and product properties run over Q, F_2, F_7, F_101 and
F_(2^61 - 1).  Q inputs mix positive and negative denominators and large
and small numerators; F_p inputs are arbitrary integers reduced mod p.
All of them include zero rows and the shapes 0 x 0, n x 0, 0 x n and
1 x n; a matrix with no rows keeps the width it was made with.
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
from bilinv.fields import QQ, PrimeField  # noqa: E402
from bilinv.canonical import krylov_basis  # noqa: E402
from bilinv.linalg import Matrix, eval_poly_at_matrix  # noqa: E402
from bilinv.poly import Poly  # noqa: E402
from linalg_reference import det_cofactor  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)

# F_2 has only the residues 0 and 1; 2^61 - 1 makes 122-bit products
PRIME_FIELDS = [PrimeField(2), PrimeField(7), PrimeField(101),
                PrimeField(2 ** 61 - 1)]
over_fp = pytest.mark.parametrize("F", PRIME_FIELDS, ids=repr)

scalars = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30)),
    st.sampled_from((1, -1, 2, -3, 4, 7, -12, 10 ** 20 + 39)))


def field_scalars(F):
    """Q scalars, or integers (reduced mod p on coercion) over F_p."""
    if F == QQ:
        return scalars
    return st.one_of(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30))


@st.composite
def raw_rows(draw, nrows, ncols, F=QQ):
    """nrows x ncols scalars; each row is all zero with probability 1/4."""
    zero_row = [F.zero] * ncols
    return [zero_row if draw(st.integers(0, 3)) == 0
            else draw(st.lists(field_scalars(F), min_size=ncols,
                               max_size=ncols))
            for _ in range(nrows)]


@st.composite
def matrices(draw, max_rows=4, max_cols=4, F=QQ):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    return Matrix(F, draw(raw_rows(nrows, ncols, F)), ncols=ncols)


@st.composite
def square_matrices(draw, max_n=4, F=QQ):
    n = draw(st.integers(0, max_n))
    return Matrix(F, draw(raw_rows(n, n, F)), ncols=n)


# --- references on the field's scalar methods --------------------------------

def ref_dot(F, xs, ys):
    acc = F.zero
    for x, y in zip(xs, ys):
        acc = F.add(acc, F.mul(x, y))
    return acc


def ref_mul(A, B):
    """Schoolbook product; n x 0 times 0 x k is the n x k zero matrix."""
    F = A.field
    return [[ref_dot(F, A.rows[i], B.col(j)) for j in range(B.ncols)]
            for i in range(A.nrows)]


def ref_rref(F, rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows))
                   if not F.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def ref_power_apply(T, k, u):
    v = list(u)
    for _ in range(k):
        v = [ref_dot(T.field, row, v) for row in T.rows]
    return v


# --- properties ------------------------------------------------------------

def _check_product(data, F):
    A = data.draw(matrices(F=F))
    k = data.draw(st.integers(0, 4))
    B = Matrix(F, data.draw(raw_rows(A.ncols, k, F)), ncols=k)
    assert [list(r) for r in (A * B).rows] == ref_mul(A, B)
    v = data.draw(st.lists(field_scalars(F), min_size=A.ncols,
                           max_size=A.ncols))
    v = tuple(F.coerce(x) for x in v)
    assert list(A.apply(v)) == [ref_dot(F, row, v) for row in A.rows]


@PROPERTY
@given(st.data())
def test_product_and_apply_match_schoolbook(data):
    _check_product(data, QQ)


@over_fp
@PROPERTY
@given(data=st.data())
def test_product_and_apply_match_schoolbook_over_fp(F, data):
    _check_product(data, F)


def _check_elimination(A):
    F = A.field
    R_ref, piv_ref = ref_rref(F, A.rows, A.ncols)
    assert A.rank() == len(piv_ref)
    # kernel: one vector per free column, 1 there and 0 at the other free
    # columns, minus the RREF entries at the pivot coordinates
    free = [j for j in range(A.ncols) if j not in piv_ref]
    expected = []
    for j in free:
        v = [F.zero] * A.ncols
        v[j] = F.one
        for r, c in enumerate(piv_ref):
            v[c] = F.neg(R_ref[r][j])
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


@over_fp
@PROPERTY
@given(data=st.data())
def test_rank_and_kernel_match_textbook_rref_over_fp(F, data):
    _check_elimination(data.draw(matrices(F=F)))


def _check_inverse_and_det(A):
    F = A.field
    n = A.nrows
    ident = Matrix.identity(F, n).rows
    R_ref, piv_ref = ref_rref(F, [r + e for r, e in zip(A.rows, ident)],
                              2 * n)
    assert A.det() == det_cofactor(A)
    if piv_ref[:n] != list(range(n)) or len(piv_ref) < n:
        assert A.det() == F.zero
        with pytest.raises(Singular):
            A.inverse()
        return
    inv = A.inverse()
    assert [list(r) for r in inv.rows] == [r[n:] for r in R_ref]
    assert A * inv == Matrix.identity(F, n)


@PROPERTY
@given(square_matrices())
@example(Matrix(QQ, []))
@example(Matrix(QQ, [["-1/3"]]))
@example(Matrix(QQ, [[1, 2], [2, 4]]))
def test_inverse_and_det_match_references(A):
    _check_inverse_and_det(A)


@over_fp
@PROPERTY
@given(data=st.data())
def test_inverse_and_det_match_references_over_fp(F, data):
    _check_inverse_and_det(data.draw(square_matrices(F=F)))


def _check_solve_right(data, F):
    A = data.draw(matrices(F=F))
    m = data.draw(st.integers(1, 3))
    rhs = Matrix(F, data.draw(raw_rows(A.nrows, m, F)), ncols=m)
    R_ref, piv_ref = ref_rref(F, [r + s for r, s in zip(A.rows, rhs.rows)],
                              A.ncols + m)
    if any(c >= A.ncols for c in piv_ref):
        with pytest.raises(Singular):
            A.solve_right(rhs)
        return
    X = A.solve_right(rhs)
    expected = [[F.zero] * m for _ in range(A.ncols)]
    for r, c in enumerate(piv_ref):
        expected[c] = R_ref[r][A.ncols:]
    assert [list(r) for r in X.rows] == expected
    assert (X.nrows, X.ncols) == (A.ncols, m)
    assert A * X == rhs and (A * X).ncols == m


@PROPERTY
@given(st.data())
def test_solve_right_matches_textbook_rref(data):
    _check_solve_right(data, QQ)


@over_fp
@PROPERTY
@given(data=st.data())
def test_solve_right_matches_textbook_rref_over_fp(F, data):
    _check_solve_right(data, F)


def test_fp_named_cases():
    F5 = PrimeField(5)
    # the integer lift has det -5: zero mod 5, so rank 1
    A = Matrix(F5, [[1, 2], [3, 1]])
    assert A.det() == 0 and A.rank() == 1
    assert A.kernel_basis() == [(3, 1)]
    with pytest.raises(Singular):
        A.inverse()
    for F in PRIME_FIELDS:
        empty = Matrix(F, [])
        assert empty.det() == F.one and empty.rank() == 0
        assert empty.inverse() == empty and empty * empty == empty
        tall = Matrix.zeros(F, 3, 0)          # 3 x 0
        wide = Matrix.zeros(F, 0, 3)          # 0 x 3
        assert (tall.rank(), wide.rank()) == (0, 0)
        assert tall.kernel_basis() == []
        assert wide.kernel_basis() == list(Matrix.identity(F, 3).rows)
        assert (tall * wide) == Matrix.zeros(F, 3, 3)
        assert (wide * tall).nrows == 0 and (wide * tall).ncols == 0
        assert tall.apply(()) == (F.zero,) * 3 and wide.apply((1, 2, 3)) == ()
        X = tall.solve_right(Matrix.zeros(F, 3, 2))
        assert (X.nrows, X.ncols) == (0, 2)
        with pytest.raises(Singular):
            tall.solve_right(Matrix(F, [[1], [0], [0]]))


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
def test_poly_at_matrix_and_krylov_basis_match_matrix_powers(data):
    T = data.draw(square_matrices(max_n=4))
    n = T.nrows
    f = Poly(QQ, data.draw(st.lists(scalars, min_size=0, max_size=4)))
    expected = []
    for j in range(n):
        e = [Fraction(int(i == j)) for i in range(n)]
        col = [Fraction(0)] * n
        for k, c in enumerate(f.coeffs):
            col = [a + c * b for a, b in zip(col, ref_power_apply(T, k, e))]
        expected.append(tuple(col))
    assert eval_poly_at_matrix(f, T).cols() == expected
    v = data.draw(st.lists(scalars, min_size=n, max_size=n).map(tuple))
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
