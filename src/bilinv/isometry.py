"""Analysis of unipotent isometries of a verified form: orthogonal
decomposition into indecomposables and standard pairs, Witt index over
prime fields, and the level bounds.

The orthogonal decomposition peels the current space greedily at the top
nilpotency level k of N = T - I (after flipping the sign when the
minimal polynomial is a power of x + 1):

  * when the parity of k matches the symmetry, some vector v has
    B(v, N^(k-1) v) != 0; its N-chain spans a non-degenerate
    indecomposable summand and the B-orthogonal complement is invariant;
  * otherwise every chain Gram is degenerate on the anti-diagonal, and a
    standard pair is carved out instead: pick u of height k, a partner w
    pairing against N^(k-1) u, and make both chains totally isotropic by
    a triangular sweep of corrections c * N^s (partner); the correction
    at level j changes B(u, N^j u) by an invertible multiple of the
    pairing and leaves all higher levels alone, so the sweep terminates
    with exact zeros.

The peel runs on V with N and B fixed; only an n x d column basis C of
the current subspace shrinks, from the identity.  v (a column c_i, else
a sum c_i + c_j) is read off the top Gram C^t B N^(k-1) C, k the least
level with N^k C = 0, and the complement of a summand X is C times the
kernel of X^t B C.  C is injective, so B(C x, N^j C y) is what the form
and map restricted to the subspace give at (x, y).

The Witt index over F_p (p odd) is read off the classification of
quadratic forms over finite fields (Serre, *A Course in Arithmetic*,
Ch. IV): a non-degenerate symmetric form is fixed up to isometry by its
dimension n and discriminant, and every form of dimension >= 3 is
isotropic.  So with m = n // 2 the index is m for odd n, and for n = 2m
it is m when (-1)^m det B is a square mod p (the form is hyperbolic) and
m - 1 otherwise.  Skew forms are hyperbolic, of index n / 2.
"""

from dataclasses import dataclass

from .canonical import krylov_basis, natural_parity_ok
from .certificates import (INVARIANT, SKEW, SYMMETRIC, FormCertificate,
                           symmetry_of, verified_symmetry)
from .errors import (Degenerate, NotSquare, NotUnipotent, NotUnipotentType,
                     RationalsUnsupported, SmallCharacteristic)
from .fields import PrimeField
from .linalg import Matrix

ODD_INDECOMPOSABLE = "OddIndecomposable"
EVEN_INDECOMPOSABLE = "EvenIndecomposable"
STANDARD_PAIR = "StandardPair"

WITHIN_WITT = "WithinWitt"
EVEN_DIM_2L = "EvenDim2l"
GENERAL_ODD = "GeneralOdd"
SYMPLECTIC_EVEN = "SymplecticEven"


@dataclass(slots=True)
class OrthogonalSummand:
    """One orthogonal summand.  Its basis is kept one row per basis
    vector: summands are tall and narrow, and a report that keeps a row
    tuple per ambient coordinate instead takes several times the memory."""

    vectors: Matrix        # dim x n: the basis vectors as rows
    kind: str
    block_size: int        # k: chain length of each indecomposable piece

    @property
    def basis(self) -> Matrix:
        """The basis vectors as the columns of an n x dim matrix."""
        return self.vectors.transpose()

    @property
    def halves(self):
        """(half_1, half_2) column matrices of a standard pair, its first
        and last block_size basis vectors; None for other kinds."""
        if self.kind != STANDARD_PAIR:
            return None
        k, n = self.block_size, self.vectors.ncols
        return tuple(self.vectors.submatrix(rows, range(n)).transpose()
                     for rows in (range(k), range(k, 2 * k)))

    def to_json(self):
        return {"kind": self.kind, "block_size": self.block_size,
                "dim": self.vectors.nrows,
                "basis": self.vectors.to_str_rows()}


@dataclass(slots=True)
class OrthogonalSummandReport:
    summands: list
    symmetry: str

    def to_json(self):
        return {"symmetry": self.symmetry,
                "summands": [s.to_json() for s in self.summands]}


def _unipotent_type(T: Matrix):
    """(N, k, N^(k-1)) with N = T - I or -T - I nilpotent of level k: the
    minimal polynomial of T is (x - 1)^k or (x + 1)^k.
    NotUnipotentType if it is neither.  The sign is settled first: when
    -T - I is nilpotent, T - I = -2I + nilpotent is invertible in odd
    characteristic, so only T - I can be nilpotent when it is singular."""
    ident = Matrix.identity(T.field, T.nrows)
    N = T - ident
    if not T.field.is_zero(N.det()):
        N = -T - ident
    try:
        return (N,) + _level(N, ident)
    except NotUnipotent:
        raise NotUnipotentType(
            "minimal polynomial is not a power of (x - 1) or (x + 1)"
        ) from None


def _level(N: Matrix, C: Matrix):
    """(k, N^(k-1) C) for the least k with N^k C = 0 (None for N^-1 C
    when C has no columns); NotUnipotent if N is not nilpotent on the
    column span of C."""
    k, prev, P = 0, None, C
    while not P.is_zero():
        prev, P = P, N * P
        k += 1
        if k > N.nrows:
            raise NotUnipotent("matrix is not unipotent")
    return k, prev


def _bil(field, B, u, v):
    return field.dot(B.apply(v), u)


def _isotropize(field, B, N, k, u, partner):
    """Kill B(u, N^j u) for all j by corrections from the partner chain.

    The correction for level j is z = N^(k-1-j) partner, so N^j z is
    N^(k-1) partner at every level: only matrix-vector products are
    needed."""
    zs = krylov_basis(N, partner, k)
    top = zs.col(k - 1)
    for j in range(k - 2, -1, -2):
        nju = krylov_basis(N, u, j + 1).col(j)
        psi = _bil(field, B, u, nju)
        if field.is_zero(psi):
            continue
        z = zs.col(k - 1 - j)
        lin = field.add(_bil(field, B, u, top), _bil(field, B, z, nju))
        quad = _bil(field, B, z, top)
        assert field.is_zero(quad), "partner chain correction not linear"
        assert not field.is_zero(lin), "pairing lost during sweep"
        c = field.neg(field.div(psi, lin))
        u = tuple(field.add(a, field.mul(c, b)) for a, b in zip(u, z))
    chain = krylov_basis(N, u, k)
    for j in range(k):
        assert field.is_zero(_bil(field, B, u, chain.col(j))), \
            "chain failed to isotropize"
    return u


def _verified_form(T: Matrix, form):
    """(B, symmetry) of a FormCertificate or Gram matrix, re-verified as
    a symmetric or skew invariant form of T."""
    B = form.gram if isinstance(form, FormCertificate) else form
    return B, verified_symmetry(T, B, INVARIANT)


def orthogonal_decomposition(T: Matrix, form) -> OrthogonalSummandReport:
    """Split a verified (T, B) with unipotent-type T orthogonally.

    `form` is a FormCertificate or a Gram Matrix; it is re-verified
    against T.  Every summand is exactly B-orthogonal to the others,
    carries a non-degenerate restriction, and is of the kind the
    symmetry admits: odd (resp. even) indecomposable chains, or standard
    pairs of two totally isotropic chains.
    """
    F = T.field
    if not T.is_square:
        raise NotSquare("isometry analysis needs a square matrix")
    if F.characteristic == 2:
        raise SmallCharacteristic("characteristic 2 is out of scope")
    B, symmetry = _verified_form(T, form)
    N, k, top = _unipotent_type(T)
    C = Matrix.identity(F, T.nrows)  # column basis of the current subspace
    summands = []
    while C.ncols:
        d = C.ncols
        if natural_parity_ok(k, symmetry):
            G = C.transpose() * B * top     # B(c_i, N^(k-1) c_j)
            v = next((C.col(i) for i in range(d)
                      if not F.is_zero(G.rows[i][i])), None)
            if v is None:
                v = next((tuple(map(F.add, C.col(i), C.col(j)))
                          for i in range(d) for j in range(i + 1, d)
                          if not F.is_zero(F.add(
                              F.add(G.rows[i][i], G.rows[j][j]),
                              F.add(G.rows[i][j], G.rows[j][i])))), None)
            assert v is not None, "no anisotropic top chain found"
            X = krylov_basis(N, v, k)
            kind = ODD_INDECOMPOSABLE if symmetry == SYMMETRIC \
                else EVEN_INDECOMPOSABLE
        else:
            i = next(i for i in range(d)
                     if any(not F.is_zero(c) for c in top.col(i)))
            u = C.col(i)
            lhs = Matrix(F, [C.transpose().apply(B.apply(top.col(i)))],
                         coerce=False)
            w = C.apply(lhs.solve_right(
                Matrix(F, [[F.one]], coerce=False)).col(0))
            u = _isotropize(F, B, N, k, u, w)
            w = _isotropize(F, B, N, k, w, u)
            X = krylov_basis(N, u, k).hstack(krylov_basis(N, w, k))
            kind = STANDARD_PAIR
        summands.append(OrthogonalSummand(X.transpose(), kind, k))
        XtB = X.transpose() * B
        assert not F.is_zero((XtB * X).det()), \
            "summand restriction degenerate"
        # B-orthogonal complement inside the current subspace
        Z = (XtB * C).kernel_basis()
        if not Z:
            break
        C = C * Matrix.from_cols(F, Z)
        k, top = _level(N, C)
    report = OrthogonalSummandReport(summands, symmetry)
    _validate_orthogonal_report(T, B, report)
    return report


def _validate_orthogonal_report(T, B, report):
    F = T.field
    total = 0
    for i, s in enumerate(report.summands):
        basis = s.basis
        total += basis.ncols
        gram = s.vectors * B * basis
        assert not F.is_zero(gram.det())
        basis.solve_right(T * basis)    # invariance
        if s.kind == STANDARD_PAIR:
            for half in s.halves:
                assert (half.transpose() * B * half).is_zero()
        for other in report.summands[i + 1:]:
            assert (s.vectors * B * other.basis).is_zero()
    assert total == T.nrows


# --- Witt index -----------------------------------------------------------------

def witt_index(B: Matrix) -> int:
    """Maximal dimension of a totally isotropic subspace, over F_p only.

    Read off the dimension and the discriminant; see the module
    docstring.
    """
    F = B.field
    if not isinstance(F, PrimeField):
        raise RationalsUnsupported(
            "Witt index computation is limited to odd prime fields")
    if F.p == 2:
        raise SmallCharacteristic("characteristic 2 is out of scope")
    symmetry = symmetry_of(B)
    if symmetry is None:
        raise Degenerate("Gram matrix is neither symmetric nor skew")
    det = B.det()
    if F.is_zero(det):
        raise Degenerate("Witt index needs a non-degenerate form")
    p, m = F.p, B.nrows // 2
    if symmetry == SKEW or B.nrows % 2:
        return m
    disc = (-1) ** m * det % p
    return m if pow(disc, (p - 1) // 2, p) == 1 else m - 1


# --- level bounds -----------------------------------------------------------------

@dataclass(slots=True)
class LevelReport:
    level: int
    witt_index: int
    dim: int
    bound_case: str
    bound_satisfied: bool

    def to_json(self):
        return {"level": self.level, "witt_index": self.witt_index,
                "dim": self.dim, "bound_case": self.bound_case,
                "bound_satisfied": self.bound_satisfied}


def level_analysis(T: Matrix, form) -> LevelReport:
    """Level of a unipotent isometry against the Witt index bounds.

    Symmetric: k <= l, or k odd with k <= 2l - 1 when dim = 2l, or k odd
    with k <= 2l + 1 when dim >= 2l + 1.  Skew: k <= l, or k even with
    k <= 2l.  A genuine unipotent isometry always satisfies its bound;
    the report records which case applied.
    """
    F = T.field
    if not isinstance(F, PrimeField):
        raise RationalsUnsupported(
            "level analysis needs the Witt index, available over F_p only")
    B, symmetry = _verified_form(T, form)
    n = T.nrows
    ident = Matrix.identity(F, n)
    k, _ = _level(T - ident, ident)
    l = witt_index(B)
    if symmetry == SYMMETRIC:
        if k <= l:
            case, ok = WITHIN_WITT, True
        elif n == 2 * l:
            case, ok = EVEN_DIM_2L, (k % 2 == 1 and k <= 2 * l - 1)
        else:
            case, ok = GENERAL_ODD, (k % 2 == 1 and k <= 2 * l + 1)
    else:
        if k <= l:
            case, ok = WITHIN_WITT, True
        else:
            case, ok = SYMPLECTIC_EVEN, (k % 2 == 0 and k <= 2 * l)
    return LevelReport(k, l, n, case, ok)
