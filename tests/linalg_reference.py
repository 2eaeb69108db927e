"""Independent reference routes for the tests, none of which the library
runs:

- a cofactor determinant and the Faddeev-LeVerrier characteristic
  polynomial, written on the field's scalar methods only, so they share
  no code with the integer paths of `bilinv.linalg`;
- `restriction`, the matrix of T on an invariant subspace by one linear
  solve, and the summand generators chosen in the coordinates of
  W = ker p(T)^e, with T restricted to W, against which the kernel chain
  that `ModuleStructure` runs on V is checked;
- `brute_force_reality`, an exhaustive search of GL(n, p) for a g with
  g T g^-1 = T^-1, the ground truth for `decide_real` on tiny groups;
- the unipotent Jordan types of small dimension (`partitions`,
  `unipotent_jordan_types`) and their block-diagonal Jordan matrices;
- `verify_gram_reference`, the certificate checks on the field's scalar
  methods: schoolbook products and a Gauss elimination with field
  inverses, against which the integer-row verifier of
  `bilinv.certificates` is checked.
"""

from itertools import product

from bilinv.canonical import krylov_basis
from bilinv.errors import NotSquare, Singular
from bilinv.fields import PrimeField
from bilinv.linalg import Matrix, _rref, eval_poly_at_matrix
from bilinv.poly import Poly

GROUP_SIZE_LIMIT = 10 ** 4


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


def restriction(T: Matrix, basis_cols: Matrix) -> Matrix:
    """Matrix of T on the invariant subspace spanned by the given columns.

    Solves basis * X = T * basis; Singular if the span is not invariant.
    """
    return basis_cols.solve_right(T * basis_cols)


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


def brute_force_reality(T: Matrix) -> bool:
    """Exhaustively search g in GL(n, p) with g T g^-1 = T^-1.

    Only for tiny groups: ValueError over Q or when |GL(n, p)| exceeds
    GROUP_SIZE_LIMIT.
    """
    F = T.field
    if not isinstance(F, PrimeField):
        raise ValueError("exhaustive search is limited to prime fields")
    n = T.nrows
    p = F.p
    order = 1
    for i in range(n):
        order *= p ** n - p ** i
    if order > GROUP_SIZE_LIMIT:
        raise ValueError(f"|GL({n}, {p})| = {order} exceeds the limit")
    if F.is_zero(T.det()):
        raise Singular("reality concerns invertible maps")
    Tinv = T.inverse()
    for entries in product(range(p), repeat=n * n):
        g = Matrix(F, [entries[i * n:(i + 1) * n] for i in range(n)],
                   coerce=False)
        if F.is_zero(g.det()):
            continue
        if g * T == Tinv * g:
            return True
    return False


def partitions(n: int):
    """All partitions of n, largest part first, deterministic order."""
    if n == 0:
        return [()]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, maxpart), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def unipotent_jordan_types(max_dim: int):
    """All Jordan types (partitions) of unipotent maps with dim <= max_dim."""
    out = []
    for n in range(1, max_dim + 1):
        out.extend(partitions(n))
    return out


def jordan_matrix(field, parts, eigenvalue=1) -> Matrix:
    return Matrix.block_diagonal(
        field, [Matrix.jordan_block(field, eigenvalue, k) for k in parts])


def _schoolbook_mul(field, A, B):
    n, m, k = len(A), len(B[0]) if B else 0, len(B)
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = field.zero
            for t in range(k):
                acc = field.add(acc, field.mul(A[i][t], B[t][j]))
            out[i][j] = acc
    return out


def verify_gram_reference(M: Matrix, B: Matrix, symmetry: str,
                          setting: str) -> dict:
    """The three checks of `bilinv.certificates.verify_gram` on square
    M and B of one field, recomputed on the field's scalar methods."""
    F = M.field
    a = [list(r) for r in M.rows]
    b = [list(r) for r in B.rows]
    at = [list(col) for col in zip(*a)]
    n = len(a)
    if setting == "invariant":
        lhs = _schoolbook_mul(F, _schoolbook_mul(F, at, b), a)
        invariance = all(lhs[i][j] == b[i][j]
                         for i in range(n) for j in range(n))
    else:
        lhs = _schoolbook_mul(F, at, b)
        rhs = _schoolbook_mul(F, b, a)
        invariance = all(F.is_zero(F.add(lhs[i][j], rhs[i][j]))
                         for i in range(n) for j in range(n))
    sign = F.one if symmetry == "symmetric" else F.neg(F.one)
    symmetry_ok = all(b[i][j] == F.mul(sign, b[j][i])
                      for i in range(n) for j in range(n))
    nondegenerate = True
    for c in range(n):
        piv = next((i for i in range(c, n) if not F.is_zero(b[i][c])), None)
        if piv is None:
            nondegenerate = False
            break
        b[c], b[piv] = b[piv], b[c]
        inv = F.inv(b[c][c])
        for i in range(c + 1, n):
            if not F.is_zero(b[i][c]):
                f = F.mul(b[i][c], inv)
                b[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(b[i], b[c])]
    return {"invariance": invariance, "symmetry_ok": symmetry_ok,
            "nondegenerate": nondegenerate}
