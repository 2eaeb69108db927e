"""Independent reference routes for the linear algebra tests: a cofactor
determinant and the Faddeev-LeVerrier characteristic polynomial, written
on the field's scalar methods only, so they share no code with the
integer paths of `bilinv.linalg`.
"""

from bilinv.errors import NotSquare
from bilinv.linalg import Matrix
from bilinv.poly import Poly


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


def trace(M: Matrix):
    F = M.field
    acc = F.zero
    for i in range(min(M.nrows, M.ncols)):
        acc = F.add(acc, M.rows[i][i])
    return acc


def char_poly_faddeev(T: Matrix) -> Poly:
    """Faddeev-LeVerrier characteristic polynomial.

    Needs characteristic 0 or > n (divides by 1..n); kept as the
    independent validation route for the Hessenberg one.
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
        ck = F.neg(F.div(trace(N), F.coerce(k)))
        coeffs.append(ck)
    return Poly(F, list(reversed(coeffs)))
