"""Dense exact matrices over Q or F_p, and the solvers built on them.

Matrices are immutable row-major tuples of raw scalars sharing one field.
Determinants run fraction-free (Bareiss) over Q after clearing row
denominators, and by ordinary elimination over F_p.  The characteristic
polynomial is the Bareiss determinant of xI - T computed with polynomial
entries, which works in every characteristic; a Faddeev-LeVerrier route
is kept alongside as an independent cross-check for small sizes.
"""

import math
from fractions import Fraction

from .errors import NotSquare, Singular
from .fields import Field, RationalField
from .poly import Poly


class Matrix:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows, coerce: bool = True):
        if coerce:
            rows = tuple(tuple(field.coerce(c) for c in row) for row in rows)
        else:
            rows = tuple(tuple(row) for row in rows)
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows

    # --- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)]
                           for i in range(n)], coerce=False)

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], coerce=False)

    @classmethod
    def diagonal(cls, field, entries) -> "Matrix":
        entries = [field.coerce(e) for e in entries]
        n = len(entries)
        z = field.zero
        return cls(field, [[entries[i] if i == j else z for j in range(n)]
                           for i in range(n)], coerce=False)

    @classmethod
    def from_cols(cls, field, cols) -> "Matrix":
        return cls(field, list(zip(*cols)))

    @classmethod
    def companion(cls, f: Poly) -> "Matrix":
        """Companion matrix C of a monic f with C e_i = e_{i+1} below the
        last column, so e_1, C e_1, ... is the power basis."""
        if not f.is_monic() or f.degree < 1:
            raise ValueError("companion matrix needs a monic nonconstant poly")
        F = f.field
        n = f.degree
        rows = [[F.zero] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i + 1][i] = F.one
        for i in range(n):
            rows[i][n - 1] = F.neg(f.coeff(i))
        return cls(F, rows, coerce=False)

    @classmethod
    def jordan_block(cls, field, lam, k: int) -> "Matrix":
        """Upper bidiagonal block: lam on the diagonal, 1 above it."""
        lam = field.coerce(lam)
        rows = [[field.zero] * k for _ in range(k)]
        for i in range(k):
            rows[i][i] = lam
            if i + 1 < k:
                rows[i][i + 1] = field.one
        return cls(field, rows, coerce=False)

    @classmethod
    def block_diagonal(cls, field, blocks) -> "Matrix":
        n = sum(b.nrows for b in blocks)
        rows = [[field.zero] * n for _ in range(n)]
        off = 0
        for b in blocks:
            field.require_same(b.field)
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.nrows
        return cls(field, rows, coerce=False)

    # --- structure ----------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def col(self, j: int):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.to_str(c) for c in row) for row in self.rows)
        return f"Matrix({self.field!r}, [{body}])"

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {other!r}")
        self.field.require_same(other.field)

    # --- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        F = self.field
        return Matrix(F, [[F.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)],
                      coerce=False)

    def __sub__(self, other):
        self._check(other)
        F = self.field
        return Matrix(F, [[F.sub(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)],
                      coerce=False)

    def __neg__(self):
        F = self.field
        return Matrix(F, [[F.neg(a) for a in r] for r in self.rows],
                      coerce=False)

    def __mul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("incompatible shapes for multiplication")
        F = self.field
        bt = list(zip(*other.rows))
        return Matrix(F, [[F.dot(row, col) for col in bt]
                          for row in self.rows], coerce=False)

    def scale(self, c) -> "Matrix":
        F = self.field
        c = F.coerce(c)
        return Matrix(F, [[F.mul(c, a) for a in r] for r in self.rows],
                      coerce=False)

    def __pow__(self, e: int):
        if not self.is_square:
            raise NotSquare("matrix power needs a square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        out = Matrix.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)), coerce=False)

    def trace(self):
        F = self.field
        acc = F.zero
        for i in range(min(self.nrows, self.ncols)):
            acc = F.add(acc, self.rows[i][i])
        return acc

    def apply(self, vec):
        """Matrix times a column vector (tuple of raw scalars)."""
        F = self.field
        return tuple(F.dot(row, vec) for row in self.rows)

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(c) for r in self.rows for c in r)

    def hstack(self, other) -> "Matrix":
        self._check(other)
        return Matrix(self.field,
                      [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                      coerce=False)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix(self.field,
                      [[self.rows[i][j] for j in col_idx] for i in row_idx],
                      coerce=False)

    def to_str_rows(self):
        return [[self.field.to_str(c) for c in row] for row in self.rows]

    # --- elimination-based operations ----------------------------------------

    def det(self):
        """Exact determinant; Bareiss over Q, ordinary elimination over F_p."""
        if not self.is_square:
            raise NotSquare("determinant of a non-square matrix")
        if self.nrows == 0:
            return self.field.one
        if isinstance(self.field, RationalField):
            return _det_bareiss_q(self)
        return _det_gauss_fp(self)

    def rank(self) -> int:
        _, pivots = _rref(self)
        return len(pivots)

    def kernel_basis(self):
        """Basis of the right kernel, one vector per free column.

        Deterministic reduced form: each vector carries 1 at its own free
        coordinate and 0 at every other free coordinate.
        """
        F = self.field
        R, pivots = _rref(self)
        pivot_cols = {c: r for r, c in enumerate(pivots)}
        free = [j for j in range(self.ncols) if j not in pivot_cols]
        basis = []
        for j in free:
            v = [F.zero] * self.ncols
            v[j] = F.one
            for c, r in pivot_cols.items():
                v[c] = F.neg(R.rows[r][j])
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise NotSquare("inverse of a non-square matrix")
        aug = self.hstack(Matrix.identity(self.field, self.nrows))
        R, pivots = _rref(aug)
        if pivots != list(range(self.nrows)):
            raise Singular("matrix is not invertible")
        return R.submatrix(range(self.nrows),
                           range(self.nrows, 2 * self.nrows))

    def solve_right(self, rhs: "Matrix"):
        """Solve self * X = rhs exactly, or raise Singular if inconsistent.

        The solution with all free variables set to zero is returned, so
        the output is deterministic.
        """
        self._check(rhs)
        F = self.field
        aug = self.hstack(rhs)
        R, pivots = _rref(aug)
        for r in range(len(pivots), self.nrows):
            if any(not F.is_zero(R.rows[r][j])
                   for j in range(self.ncols, aug.ncols)):
                raise Singular("inconsistent linear system")
        # a pivot inside the right block also means inconsistency
        if any(p >= self.ncols for p in pivots):
            raise Singular("inconsistent linear system")
        rows = [[F.zero] * rhs.ncols for _ in range(self.ncols)]
        for r, c in enumerate(pivots):
            for j in range(rhs.ncols):
                rows[c][j] = R.rows[r][self.ncols + j]
        return Matrix(F, rows, coerce=False)


def _rref(M: Matrix):
    """Reduced row echelon form and pivot column list (deterministic)."""
    F = M.field
    rows = [list(r) for r in M.rows]
    pivots = []
    r = 0
    for c in range(M.ncols):
        if r == M.nrows:
            break
        pr = next((i for i in range(r, M.nrows)
                   if not F.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(M.nrows):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(F, rows, coerce=False), pivots


def _det_gauss_fp(M: Matrix):
    p = M.field.p
    n = M.nrows
    rows = [list(r) for r in M.rows]
    det = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] % p), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        piv = rows[c][c]
        det = det * piv % p
        inv = pow(piv, p - 2, p)
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return det % p


def _det_bareiss_q(M: Matrix):
    # scale each row to integers, run integer Bareiss, and divide back
    n = M.nrows
    rows = []
    scale = Fraction(1)
    for r in M.rows:
        den = math.lcm(*(c.denominator for c in r))
        scale *= den
        rows.append([int(c * den) for c in r])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pr is None:
                return Fraction(0)
            rows[k], rows[pr] = rows[pr], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return Fraction(sign * rows[n - 1][n - 1]) / scale


def det_cofactor(M: Matrix):
    """Cofactor-expansion determinant; cross-check route for small n."""
    if not M.is_square:
        raise NotSquare("determinant of a non-square matrix")
    F = M.field
    n = M.nrows
    if n == 0:
        return F.one
    if n == 1:
        return M.rows[0][0]
    acc = F.zero
    rest_rows = range(1, n)
    for j in range(n):
        if F.is_zero(M.rows[0][j]):
            continue
        minor = M.submatrix(rest_rows, [c for c in range(n) if c != j])
        term = F.mul(M.rows[0][j], det_cofactor(minor))
        acc = F.add(acc, term) if j % 2 == 0 else F.sub(acc, term)
    return acc


# --- characteristic polynomial ------------------------------------------------

def char_poly(T: Matrix) -> Poly:
    """Monic characteristic polynomial det(xI - T).

    Fraction-free elimination on the polynomial matrix xI - T; the exact
    divisions happen in F[x], so this is valid in every characteristic.
    """
    if not T.is_square:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    F = T.field
    n = T.nrows
    if n == 0:
        return Poly.one(F)
    A = [[Poly(F, ([F.neg(T.rows[i][j])] if i != j
                   else [F.neg(T.rows[i][j]), F.one]))
          for j in range(n)] for i in range(n)]
    sign = 1
    prev = Poly.one(F)
    for k in range(n - 1):
        if A[k][k].is_zero():
            pr = next((i for i in range(k + 1, n) if not A[i][k].is_zero()),
                      None)
            if pr is None:
                return Poly.zero(F)
            A[k], A[pr] = A[pr], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = A[i][j] * A[k][k] - A[i][k] * A[k][j]
                q, r = divmod(num, prev)
                assert r.is_zero(), "inexact division in fraction-free step"
                A[i][j] = q
            A[i][k] = Poly.zero(F)
        prev = A[k][k]
    chi = A[n - 1][n - 1]
    if sign < 0:
        chi = -chi
    assert chi.is_monic() and chi.degree == n
    return chi


def char_poly_faddeev(T: Matrix) -> Poly:
    """Faddeev-LeVerrier characteristic polynomial.

    Needs characteristic 0 or > n (divides by 1..n); kept as the
    independent validation route for the fraction-free one.
    """
    if not T.is_square:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    F = T.field
    n = T.nrows
    if not F.char_exceeds(n):
        raise ValueError("Faddeev-LeVerrier needs characteristic > n")
    coeffs = [F.one]  # coefficient of x^n
    N = Matrix.zeros(F, n, n)
    ident = Matrix.identity(F, n)
    for k in range(1, n + 1):
        N = T * (N + ident.scale(coeffs[-1])) if k > 1 else T
        ck = F.neg(F.div(N.trace(), F.coerce(k)))
        coeffs.append(ck)
    return Poly(F, list(reversed(coeffs)))


def eval_poly_at_matrix(f: Poly, T: Matrix) -> Matrix:
    """f(T) as a matrix, by Horner's rule (one product per coefficient).

    Callers that need only f(T) v for a vector v apply it by Horner on
    vectors instead (see `canonical`), which costs matrix-vector rather
    than matrix products.
    """
    T.field.require_same(f.field)
    F = T.field
    n = T.nrows
    acc = Matrix.zeros(F, n, n)
    for c in reversed(f.coeffs):
        acc = acc * T if not acc.is_zero() else acc
        acc = acc + Matrix.identity(F, n).scale(c)
    return acc


def restriction(T: Matrix, basis_cols: Matrix) -> Matrix:
    """Matrix of T on the invariant subspace spanned by the given columns.

    Solves basis * X = T * basis; Singular if the span is not invariant.
    """
    return basis_cols.solve_right(T * basis_cols)
