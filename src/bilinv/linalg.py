"""Dense exact matrices over Q or F_p, and the solvers built on them.

Matrices are immutable row-major tuples of raw scalars sharing one field;
a matrix with no rows keeps the width it was made with, so a 0 x n
matrix transposes to n x 0.  Products and elimination run on one integer
path for both fields: each row or column is written as integers over one
denominator by the field (`Field.clear`; over F_p the residues over 1),
inner products are taken on Python ints, and the field turns each output
integer over its denominator back into a scalar (`Field.ratio`).
Elimination is Gauss-Jordan on the cleared rows, one column step at a
time by the field (`Field.eliminate`): fraction-free over Q, with each
new row divided by its content and one division by the pivot at the
end; over F_p, with the pivot row scaled to 1 and one pass mod p per
other row.  Determinants are fraction-free Bareiss on the cleared rows
(over F_p, on the integer lift of the residues, reduced mod p at the
end).

The characteristic polynomial comes from reduction to upper Hessenberg
form by similarity (Cohen, Alg. 2.2.9), which works in every
characteristic.
"""

from operator import mul

from .errors import NotSquare, Singular
from .fields import Field
from .poly import Poly, _axpy


class Matrix:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows, coerce: bool = True,
                 ncols: int = 0):
        """`ncols` is the width of a matrix with no rows; otherwise the
        width is that of the rows."""
        if coerce:
            rows = tuple([tuple([field.coerce(c) for c in row])
                          for row in rows])
        else:
            rows = tuple([tuple(row) for row in rows])
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else ncols
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
        return cls(field, [[z] * ncols for _ in range(nrows)], coerce=False,
                   ncols=ncols)

    @classmethod
    def diagonal(cls, field, entries) -> "Matrix":
        entries = [field.coerce(e) for e in entries]
        n = len(entries)
        z = field.zero
        return cls(field, [[entries[i] if i == j else z for j in range(n)]
                           for i in range(n)], coerce=False)

    @classmethod
    def from_cols(cls, field, cols) -> "Matrix":
        return cls(field, list(zip(*cols)), ncols=len(cols))

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
    def jordan_block(cls, field, eigenvalue, k: int) -> "Matrix":
        """Upper bidiagonal block: eigenvalue on the diagonal, 1 above it."""
        eigenvalue = field.coerce(eigenvalue)
        rows = [[field.zero] * k for _ in range(k)]
        for i in range(k):
            rows[i][i] = eigenvalue
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

    def col(self, j: int):
        return tuple([r[j] for r in self.rows])

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

    def _check(self, other, *dims):
        """Same field, and ValueError unless the named dimensions agree."""
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {other!r}")
        self.field.require_same(other.field)
        if any(getattr(self, d) != getattr(other, d) for d in dims):
            raise ValueError(f"incompatible shapes {self.nrows}x{self.ncols}"
                             f" and {other.nrows}x{other.ncols}")

    # --- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other, "nrows", "ncols")
        F = self.field
        return Matrix(F, [[F.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)],
                      coerce=False, ncols=self.ncols)

    def __sub__(self, other):
        self._check(other, "nrows", "ncols")
        F = self.field
        return Matrix(F, [[F.sub(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)],
                      coerce=False, ncols=self.ncols)

    def __neg__(self):
        F = self.field
        return Matrix(F, [[F.neg(a) for a in r] for r in self.rows],
                      coerce=False, ncols=self.ncols)

    def __mul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("incompatible shapes for multiplication")
        F = self.field
        ratio = F.ratio
        cols = [F.clear(col) for col in other.transpose().rows]
        return Matrix(F, [[ratio(sum(map(mul, a, b)), da * db)
                           for b, db in cols]
                          for a, da in map(F.clear, self.rows)],
                      coerce=False, ncols=other.ncols)

    def scale(self, c) -> "Matrix":
        F = self.field
        c = F.coerce(c)
        return Matrix(F, [[F.mul(c, a) for a in r] for r in self.rows],
                      coerce=False, ncols=self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)) or [()] * self.ncols,
                      coerce=False, ncols=self.nrows)

    def apply(self, vec):
        """Matrix times a column vector (tuple of raw scalars)."""
        F = self.field
        ratio = F.ratio
        v, dv = F.clear(vec)
        return tuple([ratio(sum(map(mul, a, v)), da * dv)
                      for a, da in map(F.clear, self.rows)])

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(c) for r in self.rows for c in r)

    def hstack(self, other) -> "Matrix":
        self._check(other, "nrows")
        return Matrix(self.field,
                      [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                      coerce=False, ncols=self.ncols + other.ncols)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix(self.field,
                      [[self.rows[i][j] for j in col_idx] for i in row_idx],
                      coerce=False, ncols=len(col_idx))

    def to_str_rows(self):
        return [[self.field.to_str(c) for c in row] for row in self.rows]

    # --- elimination-based operations ----------------------------------------

    def det(self):
        """Exact determinant by fraction-free Bareiss elimination on the
        cleared rows: the integer determinant over the product of the row
        denominators over Q, and over F_p the determinant of the integer
        lift of the residues, reduced mod p."""
        if not self.is_square:
            raise NotSquare("determinant of a non-square matrix")
        F = self.field
        n = self.nrows
        if n == 0:
            return F.one
        rows = []
        scale = 1
        for r in self.rows:
            ints, den = F.clear(r)
            scale *= den
            rows.append(ints)
        sign = 1
        prev = 1
        for k in range(n - 1):
            if rows[k][k] == 0:
                pr = next((i for i in range(k + 1, n) if rows[i][k]), None)
                if pr is None:
                    return F.zero
                rows[k], rows[pr] = rows[pr], rows[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    rows[i][j] = (rows[i][j] * rows[k][k]
                                  - rows[i][k] * rows[k][j]) // prev
                rows[i][k] = 0
            prev = rows[k][k]
        return F.ratio(sign * rows[n - 1][n - 1], scale)

    def rank(self) -> int:
        _, pivots = _rref(self)
        return len(pivots)

    def kernel_basis(self):
        """Basis of the right kernel, one vector per free column.

        Deterministic reduced form: each vector carries 1 at its own free
        coordinate and 0 at every other free coordinate.
        """
        return _kernel(self)[1]

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
        # a pivot inside the right block means inconsistency
        if any(p >= self.ncols for p in pivots):
            raise Singular("inconsistent linear system")
        rows = [[F.zero] * rhs.ncols for _ in range(self.ncols)]
        for r, c in enumerate(pivots):
            for j in range(rhs.ncols):
                rows[c][j] = R.rows[r][self.ncols + j]
        return Matrix(F, rows, coerce=False, ncols=rhs.ncols)


def _rref(M: Matrix):
    """The non-zero rows of the reduced row echelon form, as a matrix, and
    the pivot column list (deterministic).

    Gauss-Jordan on the cleared rows, one `Field.eliminate` step per
    pivot column: a row changes only by nonzero multiples and by
    multiples of the pivot row, so the row space and hence the (unique)
    RREF are unchanged; pivot rows are divided out at the end."""
    F = M.field
    n = M.nrows
    reduce_row, eliminate = F.reduce_row, F.eliminate
    rows = [reduce_row(F.clear(r)[0]) for r in M.rows]
    pivots = []
    r = 0
    for c in range(M.ncols):
        if r == n:
            break
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        eliminate(rows, r, c)
        pivots.append(c)
        r += 1
    ratio, zero = F.ratio, F.zero
    out = [[ratio(x, rows[i][c]) if x else zero for x in rows[i]]
           for i, c in enumerate(pivots)]
    return Matrix(F, out, coerce=False, ncols=M.ncols), pivots


def _kernel(M: Matrix):
    """(R, basis): R the non-zero rows of the RREF of M, so its rank is
    R.nrows, and the basis of the right kernel read off them (the form
    `Matrix.kernel_basis` documents)."""
    F = M.field
    R, pivots = _rref(M)
    pivot_cols = set(pivots)
    basis = []
    for j in range(M.ncols):
        if j in pivot_cols:
            continue
        v = [F.zero] * M.ncols
        v[j] = F.one
        for row, c in zip(R.rows, pivots):
            v[c] = F.neg(row[j])
        basis.append(tuple(v))
    return R, basis


# --- characteristic polynomial ------------------------------------------------

def char_poly(T: Matrix) -> Poly:
    """Monic characteristic polynomial det(xI - T).

    Reduces T to upper Hessenberg form H by similarity, then runs the
    recurrence for the characteristic polynomials of the leading principal
    submatrices of H (Cohen, Alg. 2.2.9); valid in every characteristic.
    """
    if not T.is_square:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    F = T.field
    n = T.nrows
    H = [list(r) for r in T.rows]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if not F.is_zero(H[i][m - 1])),
                 None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for row in H:
                row[i], row[m] = row[m], row[i]
        inv = F.inv(H[m][m - 1])
        for i in range(m + 1, n):
            u = F.mul(H[i][m - 1], inv)
            if not F.is_zero(u):
                # row_i -= u row_m, then col_m += u col_i
                H[i] = [F.sub(a, F.mul(u, b)) for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = F.add(row[m], F.mul(u, row[i]))
    # chi_k = det(xI - H[:k, :k]) on raw coefficient lists
    p, zero = F.p, F.zero
    chis = [[F.one]]
    for k in range(n):
        acc = _axpy((), [F.neg(H[k][k]), F.one], chis[k], p, zero)
        t = F.one
        for i in range(1, k + 1):
            t = F.mul(t, H[k - i + 1][k - i])
            if F.is_zero(t):
                break
            c = F.mul(t, H[k - i][k])
            if not F.is_zero(c):
                acc = _axpy(acc, [F.neg(c)], chis[k - i], p, zero)
        chis.append(acc)
    return Poly(F, tuple(chis[n]), normalize=False)


def eval_poly_at_matrix(f: Poly, T: Matrix) -> Matrix:
    """f(T) as a matrix by Horner's rule, starting from lc(f) T + f_(d-1) I,
    with each coefficient added on the diagonal: deg f - 1 matrix
    products."""
    T.field.require_same(f.field)
    F = T.field
    if f.degree < 1:
        return Matrix.diagonal(F, [f.coeff(0)] * T.nrows)

    def plus_scalar(A, c):
        # A + c I
        rows = [list(r) for r in A.rows]
        for i, r in enumerate(rows):
            r[i] = F.add(r[i], c)
        return Matrix(F, rows, coerce=False)

    acc = plus_scalar(T.scale(f.lc), f.coeffs[-2])
    for c in reversed(f.coeffs[:-2]):
        acc = plus_scalar(acc * T, c)
    return acc
