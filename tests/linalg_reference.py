"""Independent reference routes for the linear algebra tests: a cofactor
determinant and the Faddeev-LeVerrier characteristic polynomial, written
on the field's scalar methods only, so they share no code with the
integer paths of `bilinv.linalg`; and the summand generators chosen in
the coordinates of W = ker p(T)^e, with T restricted to W, against which
the kernel chain that `ModuleStructure` runs on V is checked.
"""

from bilinv.canonical import krylov_basis
from bilinv.errors import NotSquare
from bilinv.linalg import Matrix, _rref, eval_poly_at_matrix, restriction
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


def summand_bases_on_kernels(T: Matrix, factorization):
    """The bases of `ModuleStructure.summands`, in its order, with every
    generator chosen on W = ker p(T)^e: B the kernel basis of p(T)^(2^a),
    2^a >= e, S = T on W (`restriction`), the kernels of the explicit
    powers of N = p(S), the same greedy selection, and each generator
    mapped back to V by B."""
    F = T.field
    out = []
    for p, e in factorization:
        P, a = eval_poly_at_matrix(p, T), 1
        while a < e:
            P, a = P * P, 2 * a
        B = Matrix.from_cols(F, P.kernel_basis())
        S = restriction(T, B)
        N = eval_poly_at_matrix(p, S)
        K, power = [[]], N
        while len(K[-1]) < S.nrows:
            K.append(power.kernel_basis())
            power = power * N
        d, top = p.degree, len(K) - 1
        dims = [len(basis) // d for basis in K]
        at_least = [b - a for a, b in zip(dims, dims[1:])] + [0]
        for k in range(1, top + 1):
            if at_least[k - 1] == at_least[k]:
                continue
            base = K[k - 1] + [N.apply(u) for u in K[min(k + 1, top)]]
            lines = [w for v in K[k] for w in krylov_basis(S, v, d).cols()]
            pivots = set(_rref(Matrix.from_cols(F, base + lines))[1])
            gens = [v for i, v in enumerate(K[k])
                    if len(base) + i * d in pivots]
            assert len(gens) == at_least[k - 1] - at_least[k]
            out.extend((p, k, krylov_basis(T, B.apply(v), d * k))
                       for v in gens)
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs, t[1]))
    return [basis for _, _, basis in out]
