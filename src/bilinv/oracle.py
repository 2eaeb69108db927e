"""Brute-force ground truth for the form decision procedures.

The invariance condition is linear in the Gram matrix, so the full space
of symmetric (or skew) solutions of T^t B T = B, respectively
S^t B + B S = 0, is computed exactly by elimination over the n(n+1)/2
(or n(n-1)/2) symmetry coordinates.  A non-degenerate element is then
searched: an exhaustive pass over small coefficient tuples for low
dimensions, then seeded random combinations.  Absence after the budget
is probabilistic evidence (the determinant is a degree-n polynomial, so
over F_p a random tuple misses a nonzero det with probability <= n/p).

This module never consults the decision procedures; agreement between
the two is what the acceptance suite checks.
"""

from dataclasses import dataclass
from itertools import product

from .certificates import INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC
from .errors import NotSquare, Singular
from .fields import PrimeField
from .linalg import Matrix

EXHAUSTIVE_DIM = 4
EXHAUSTIVE_SCALARS = (0, 1, -1, 2)
DEFAULT_TRIALS = 64


@dataclass(slots=True)
class InvariantFormSpace:
    """Solution space of the (in)finitesimal invariance equations
    intersected with the symmetric or skew coordinate subspace."""

    basis: list           # list of Matrix, Gram matrices
    symmetry: str
    setting: str

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _symmetry_coordinates(field, n, symmetry):
    """Basis of the symmetric or skew matrix space, deterministic order."""
    coords = []
    one = field.one
    for i in range(n):
        js = range(i, n) if symmetry == SYMMETRIC else range(i + 1, n)
        for j in js:
            rows = [[field.zero] * n for _ in range(n)]
            rows[i][j] = one
            if i != j:
                rows[j][i] = one if symmetry == SYMMETRIC else field.neg(one)
            coords.append(Matrix(field, rows, coerce=False))
    return coords


def solve_form_space(M: Matrix, symmetry: str,
                     setting: str = INVARIANT) -> InvariantFormSpace:
    """All Gram matrices B of the requested symmetry with T^t B T = B
    (invariant setting) or S^t B + B S = 0 (infinitesimal setting)."""
    if not M.is_square:
        raise NotSquare("form space of a non-square matrix")
    F = M.field
    n = M.nrows
    if setting == INVARIANT and F.is_zero(M.det()):
        raise Singular("invariant setting requires an invertible map")
    coords = _symmetry_coordinates(F, n, symmetry)
    Mt = M.transpose()
    images = []
    for C in coords:
        if setting == INVARIANT:
            images.append(Mt * C * M - C)
        else:
            images.append(Mt * C + C * M)
    # rows: n*n equations, columns: one per coordinate
    eq_rows = [[img.rows[i][j] for img in images]
               for i in range(n) for j in range(n)]
    kernel = Matrix(F, eq_rows, coerce=False,
                    ncols=len(coords)).kernel_basis()
    basis = []
    for vec in kernel:
        B = _combine(F, coords, vec)
        invariant = (Mt * B * M == B if setting == INVARIANT
                     else (Mt * B + B * M).is_zero())
        if not invariant:
            raise AssertionError("solved form is not invariant")
        basis.append(B)
    return InvariantFormSpace(basis, symmetry, setting)


def _combine(field, basis, coeffs):
    n = basis[0].nrows
    rows = [[field.zero] * n for _ in range(n)]
    for c, B in zip(coeffs, basis):
        if field.is_zero(c):
            continue
        for i in range(n):
            for j in range(n):
                rows[i][j] = field.add(rows[i][j], field.mul(c, B.rows[i][j]))
    return Matrix(field, rows, coerce=False)


def find_nondegenerate(space: InvariantFormSpace, seed: int = 0,
                       trials: int = DEFAULT_TRIALS):
    """A non-degenerate combination from the space, or None.

    Deterministic exhaustive pass over small scalar tuples when the
    dimension is at most 4, then `trials` seeded random combinations.
    """
    import random as _random
    if space.dimension == 0:
        return None
    F = space.basis[0].field
    dim = space.dimension
    if dim <= EXHAUSTIVE_DIM:
        for tup in product(EXHAUSTIVE_SCALARS, repeat=dim):
            if all(c == 0 for c in tup):
                continue
            B = _combine(F, space.basis, [F.coerce(c) for c in tup])
            if not F.is_zero(B.det()):
                return B
    rng = _random.Random(seed)
    for _ in range(trials):
        if isinstance(F, PrimeField):
            tup = [rng.randrange(F.p) for _ in range(dim)]
        else:
            tup = [F.coerce(rng.randrange(-99, 100)) for _ in range(dim)]
        if all(F.is_zero(c) for c in tup):
            continue
        B = _combine(F, space.basis, tup)
        if not F.is_zero(B.det()):
            return B
    return None

