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
from .linalg import Matrix, restriction

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
    NotUnipotentType if it is neither."""
    ident = Matrix.identity(T.field, T.nrows)
    for W in (T, -T):
        N = W - ident
        try:
            return (N,) + _nilpotency_level(N)
        except NotUnipotent:
            continue
    raise NotUnipotentType(
        "minimal polynomial is not a power of (x - 1) or (x + 1)")


def _nilpotency_level(N: Matrix):
    """(k, N^(k-1)) for the least k with N^k = 0 (N^-1 is None when N is
    empty)."""
    k, prev = 0, None
    P = Matrix.identity(N.field, N.nrows)
    while not P.is_zero():
        prev, P = P, P * N
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
    N, k, nk1 = _unipotent_type(T)
    B_cur = B
    cols = Matrix.identity(F, T.nrows)  # ambient basis of the current subspace
    summands = []
    while cols.ncols > 0:
        d = cols.ncols
        if natural_parity_ok(k, symmetry):
            M2 = B_cur * nk1
            v = None
            for i in range(d):
                if not F.is_zero(M2.rows[i][i]):
                    v = tuple(F.one if t == i else F.zero for t in range(d))
                    break
            if v is None:
                for i in range(d):
                    for j in range(i + 1, d):
                        val = F.add(F.add(M2.rows[i][i], M2.rows[j][j]),
                                    F.add(M2.rows[i][j], M2.rows[j][i]))
                        if not F.is_zero(val):
                            v = tuple(F.one if t in (i, j) else F.zero
                                      for t in range(d))
                            break
                    if v is not None:
                        break
            assert v is not None, "no anisotropic top chain found"
            local = krylov_basis(N, v, k)
            kind = ODD_INDECOMPOSABLE if symmetry == SYMMETRIC \
                else EVEN_INDECOMPOSABLE
            summands.append(OrthogonalSummand(
                (cols * local).transpose(), kind, k))
        else:
            u = next(tuple(F.one if t == i else F.zero for t in range(d))
                     for i in range(d)
                     if any(not F.is_zero(c) for c in nk1.col(i)))
            lhs = Matrix(F, [B_cur.apply(nk1.apply(u))], coerce=False)
            w = tuple(lhs.solve_right(
                Matrix(F, [[F.one]], coerce=False)).col(0))
            u = _isotropize(F, B_cur, N, k, u, w)
            w = _isotropize(F, B_cur, N, k, w, u)
            local = krylov_basis(N, u, k).hstack(krylov_basis(N, w, k))
            summands.append(OrthogonalSummand(
                (cols * local).transpose(), STANDARD_PAIR, k))
        gram = local.transpose() * B_cur * local
        assert not F.is_zero(gram.det()), "summand restriction degenerate"
        # B-orthogonal complement inside the current subspace
        Z = (local.transpose() * B_cur).kernel_basis()
        if not Z:
            break
        Zm = Matrix.from_cols(F, Z)
        cols = cols * Zm
        N = restriction(N, Zm)
        B_cur = Zm.transpose() * B_cur * Zm
        k, nk1 = _nilpotency_level(N)
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
    k, _ = _nilpotency_level(T - Matrix.identity(F, n))
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
