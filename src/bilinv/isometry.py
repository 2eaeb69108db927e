"""Analysis of unipotent isometries of a verified form: orthogonal
decomposition into indecomposables and standard pairs, Witt index over
prime fields, and the level bounds.

The orthogonal decomposition peels the current space greedily at its
level k, by Krull-Schmidt the largest part of the Jordan type of T not
yet peeled, with N = T - I, or -(T + I) when chi is a power of x + 1,
both read off `ModuleStructure(T)`:

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
a sum c_i + c_j) is read off the top Gram C^t B N^(k-1) C, each N^j
formed once, and the complement of a summand X is C times the kernel of
X^t B C.  C is injective, so B(C x, N^j C y) is what the form and map
restricted to the subspace give at (x, y).

The Witt index over F_p (p odd) is read off the classification of
quadratic forms over finite fields (Serre, *A Course in Arithmetic*,
Ch. IV): a non-degenerate symmetric form is fixed up to isometry by its
dimension n and discriminant, and every form of dimension >= 3 is
isotropic.  So with m = n // 2 the index is m for odd n, and for n = 2m
it is m when (-1)^m det B is a square mod p (the form is hyperbolic) and
m - 1 otherwise.  Skew forms are hyperbolic, of index n / 2.
"""

from collections import Counter
from dataclasses import dataclass

from .canonical import ModuleStructure, krylov_basis, natural_parity_ok
from .certificates import (INVARIANT, SKEW, SYMMETRIC, FormCertificate,
                           symmetry_of, verified_symmetry)
from .errors import (Degenerate, NotSquare, NotUnipotent, NotUnipotentType,
                     RationalsUnsupported, SmallCharacteristic)
from .fields import PrimeField
from .linalg import Matrix
from .poly import Poly

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


def _jordan_type(T: Matrix, signs=(1, -1), error=NotUnipotentType):
    """(N, Jordan type of T, largest part first) for chi = (x - r)^n, r
    the first of `signs` that fits, N = T - I (r = 1) or -(T + I) (r = -1);
    `error` if none fits.  The type comes off N's kernel chain."""
    structure = ModuleStructure(T)
    F, n = T.field, T.nrows
    for r in signs:
        p = Poly.x_minus(F, r)
        if structure.char_poly == p ** n:
            break
    else:
        raise error(f"characteristic poly is not (x - r)^n for r in {signs}")
    N = structure.primary(p, n)[0]
    parts = sorted((k for k, m in structure._counts(p, n).items()
                    for _ in range(m)), reverse=True)
    return (N if r == 1 else -N), parts


def _kind(k: int, symmetry: str) -> str:
    """The summand kind that takes a part k of the Jordan type."""
    if not natural_parity_ok(k, symmetry):
        return STANDARD_PAIR
    return ODD_INDECOMPOSABLE if symmetry == SYMMETRIC else EVEN_INDECOMPOSABLE


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
        if not field.is_zero(quad):
            raise AssertionError("partner chain correction not linear")
        if field.is_zero(lin):
            raise AssertionError("pairing lost during sweep")
        c = field.neg(field.div(psi, lin))
        u = tuple(field.add(a, field.mul(c, b)) for a, b in zip(u, z))
    chain = krylov_basis(N, u, k)
    if any(not field.is_zero(_bil(field, B, u, chain.col(j)))
           for j in range(k)):
        raise AssertionError("chain failed to isotropize")
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
    N, parts = _jordan_type(T)
    powers = [Matrix.identity(F, T.nrows)]    # N^j below the first level
    for _ in range(max(parts, default=1) - 1):
        powers.append(N * powers[-1])
    C = powers[0]                    # column basis of the current subspace
    rest = list(parts)               # the Jordan type of that subspace
    summands = []
    while C.ncols:
        d, k = C.ncols, rest[0]
        top = powers[k - 1] * C
        kind = _kind(k, symmetry)
        if kind != STANDARD_PAIR:
            G = C.transpose() * B * top     # B(c_i, N^(k-1) c_j)
            v = next((C.col(i) for i in range(d)
                      if not F.is_zero(G.rows[i][i])), None)
            if v is None:
                v = next((tuple(map(F.add, C.col(i), C.col(j)))
                          for i in range(d) for j in range(i + 1, d)
                          if not F.is_zero(F.add(
                              F.add(G.rows[i][i], G.rows[j][j]),
                              F.add(G.rows[i][j], G.rows[j][i])))), None)
            if v is None:
                raise AssertionError("no anisotropic top chain found")
            X = krylov_basis(N, v, k)
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
        summands.append(OrthogonalSummand(X.transpose(), kind, k))
        del rest[:2 if kind == STANDARD_PAIR else 1]
        # B-orthogonal complement inside the current subspace
        Z = (X.transpose() * B * C).kernel_basis()
        if not Z:
            break
        C = C * Matrix.from_cols(F, Z)
    report = OrthogonalSummandReport(summands, symmetry)
    _validate_orthogonal_report(T, B, report, parts)
    return report


def _validate_orthogonal_report(T, B, report, parts):
    """AssertionError unless the report splits V as `parts` dictates."""
    F = T.field
    taken = Counter()
    for i, s in enumerate(report.summands):
        basis = s.basis
        taken[s.kind, s.block_size] += 2 if s.kind == STANDARD_PAIR else 1
        if F.is_zero((s.vectors * B * basis).det()):
            raise AssertionError(f"summand {i} restriction degenerate")
        if basis.hstack(T * basis).rank() != basis.ncols:
            raise AssertionError(f"summand {i} not T-invariant")
        if any(not (h.transpose() * B * h).is_zero() for h in s.halves or ()):
            raise AssertionError(f"standard pair {i} has a non-isotropic half")
        for j, other in enumerate(report.summands[i + 1:], i + 1):
            if not (s.vectors * B * other.basis).is_zero():
                raise AssertionError(f"summands {i} and {j} not orthogonal")
    if sum(s.vectors.nrows for s in report.summands) != T.nrows:
        raise AssertionError("summands do not fill the space")
    if taken != Counter((_kind(k, report.symmetry), k) for k in parts):
        raise AssertionError("summand kinds do not match the Jordan type")


# --- Witt index -----------------------------------------------------------------

def witt_index(B: Matrix) -> int:
    """Maximal dimension of a totally isotropic subspace, over F_p only.

    Read off the dimension and the discriminant; see the module
    docstring.
    """
    if not B.is_square:
        raise NotSquare("Witt index of a non-square Gram matrix")
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
    k = max(_jordan_type(T, (1,), NotUnipotent)[1], default=0)
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
