"""Module structure of a linear map: invariant factors, elementary
divisors, indecomposable summands with explicit bases, and the duality
rules that read form existence off the divisors.

Everything is driven by one computation: the Smith normal form of
xI - T over F[x], with partial pivoting on lowest-degree entries.  It
runs on `poly`'s F[x] kernel directly, on raw coefficient lists rather
than `Poly` objects, each row or column update one fused a + q*b;
`Poly` objects are built only for the returned diagonal and transform.
A `ModuleStructure` runs it once per matrix, tracking the inverse row
transform, and factors each invariant factor once.  The elementary
divisors, invertibility and the indecomposable summands are all read
from that one analysis: the tracked transform yields, for each
nonconstant invariant factor, an explicit generator of the corresponding
cyclic summand, and splitting the generators along the factorization of
their annihilators produces the indecomposable decomposition with a
basis per summand.  A generator sum_j pinv[j][i](T) e_j is evaluated as
sum_k T^k u_k, u_k the x^k coefficients of transform column i, by
Horner on vectors (`linalg.krylov_sum`); so are the annihilation check
and the cofactor projections (`linalg.poly_apply`), so the decomposition
costs matrix-vector products only.  Over Q those products, the Horner
sums and the rank and restriction checks run in `linalg` on integers
over one denominator, with one Fraction built per output entry.

Every summand, whatever its divisor p^k, has one kind of basis: the
powers v, Tv, ..., T^(N-1) v of its generator v, N = deg p^k.  On it T
acts as the companion matrix of p^k, the ring F[x]/(p^k) in its basis
of powers of x, which is what every form construction reads.
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

from .certificates import INFINITESIMAL, INVARIANT, SYMMETRIC
from .errors import NotSquare
from .linalg import Matrix, krylov_sum, poly_apply, restriction
from .poly import (DEFAULT_DEGREE_LIMIT, Poly, _axpy, _divmod, _scale,
                   additive_dual_poly, dual_poly, factor)


# --- Smith normal form over F[x] -------------------------------------------

def smith_normal_form(A, track: bool = False):
    """Smith normal form of a square polynomial matrix.

    Returns (diag, pinv) where diag is the list of monic (or zero)
    diagonal entries with d_1 | d_2 | ... and, when track is set, pinv is
    the inverse of the accumulated row transform, as a polynomial matrix.
    Column transforms are not tracked (the applications never need them).
    """
    n = len(A)
    if n == 0:
        return [], ([] if track else None)
    field = A[0][0].field
    p = field.p
    zero, one = field.zero, field.one
    minus_one = field.neg(one)
    M = [[list(e.coeffs) for e in row] for row in A]
    # the transpose of pinv: row operations on M are column operations
    # on pinv, so they become row operations here
    pinv_t = [[[one] if i == j else [] for j in range(n)]
              for i in range(n)] if track else None

    def row_axpy(dst, src, q):
        # row_dst -= q * row_src ; inverse transform: col_src += q * col_dst
        mq = _scale(q, minus_one, p)
        Md, Ms = M[dst], M[src]
        for j in range(n):
            if Ms[j]:
                Md[j] = _axpy(Md[j], mq, Ms[j], p, zero)
        if track:
            Pd, Ps = pinv_t[dst], pinv_t[src]
            for a in range(n):
                if Pd[a]:
                    Ps[a] = _axpy(Ps[a], q, Pd[a], p, zero)

    for t in range(n):
        older = last = None       # pivot lengths of the last two passes
        while True:
            # lowest-degree nonzero pivot in the trailing block
            best = None
            for i in range(t, n):
                row = M[i]
                for j in range(t, n):
                    e = row[j]
                    if e and (best is None or len(e) < best[0]):
                        best = (len(e), i, j)
            if best is None:
                break
            # a pass that is not clean leaves a remainder shorter than its
            # pivot, and a culprit fix-up is followed by such a pass, so the
            # pivot shrinks at least once every two passes
            assert older is None or best[0] < older, \
                "Smith pivot loop made no progress in two passes"
            older, last = last, best[0]
            _, bi, bj = best
            if bi != t:
                M[t], M[bi] = M[bi], M[t]
                if track:
                    pinv_t[t], pinv_t[bi] = pinv_t[bi], pinv_t[t]
            if bj != t:
                for row in M:
                    row[t], row[bj] = row[bj], row[t]
            clean = True
            for r in range(t + 1, n):
                if M[r][t]:
                    q = _divmod(M[r][t], M[t][t], p, zero)[0]
                    row_axpy(r, t, q)
                    if M[r][t]:
                        clean = False
            for c in range(t + 1, n):
                if M[t][c]:
                    mq = _scale(_divmod(M[t][c], M[t][t], p, zero)[0],
                                minus_one, p)
                    for row in M:
                        if row[t]:
                            row[c] = _axpy(row[c], mq, row[t], p, zero)
                    if M[t][c]:
                        clean = False
            if not clean:
                continue
            # enforce divisibility into the trailing block (a constant
            # pivot divides everything)
            culprit = None
            pivot = M[t][t]
            if len(pivot) > 1:
                for r in range(t + 1, n):
                    for c in range(t + 1, n):
                        if M[r][c] and _divmod(M[r][c], pivot, p, zero)[1]:
                            culprit = r
                            break
                    if culprit is not None:
                        break
            if culprit is None:
                break
            row_axpy(t, culprit, [minus_one])    # row_t += row_culprit
    diag = []
    for i in range(n):
        d = M[i][i]
        if d and d[-1] != one:
            lc = d[-1]
            d = _scale(d, field.inv(lc), p)
            if track:
                pinv_t[i] = [_scale(e, lc, p) for e in pinv_t[i]]
        diag.append(Poly(field, tuple(d), normalize=False))
    if track:
        pinv = [[Poly(field, tuple(pinv_t[j][i]), normalize=False)
                 for j in range(n)] for i in range(n)]
    else:
        pinv = None
    return diag, pinv


def _char_matrix(T: Matrix):
    F = T.field
    n = T.nrows
    return [[Poly(F, ([F.neg(T.rows[i][j])] if i != j
                      else [F.neg(T.rows[i][j]), F.one]))
             for j in range(n)] for i in range(n)]


def invariant_factors(T: Matrix):
    """Monic invariant factors d_1 | ... | d_n of xI - T (constants included)."""
    if not T.is_square:
        raise NotSquare("invariant factors of a non-square matrix")
    diag, _ = smith_normal_form(_char_matrix(T))
    assert all(not d.is_zero() for d in diag)
    return diag


def min_poly(T: Matrix) -> Poly:
    """Monic minimal polynomial: the largest invariant factor of xI - T
    (1 for the 0 x 0 matrix)."""
    diag = invariant_factors(T)
    return diag[-1] if diag else Poly.one(T.field)


# --- elementary divisors and summands ----------------------------------------

@dataclass(frozen=True, slots=True)
class ElementaryDivisor:
    """An irreducible power p^k occurring in `multiplicity` summands."""

    p: Poly
    k: int
    multiplicity: int

    @property
    def dim(self) -> int:
        return self.p.degree * self.k * self.multiplicity

    def sort_key(self):
        return (self.p.degree, self.p.coeffs, self.k)

    def label(self) -> str:
        base = self.p.to_str()
        return f"({base})^{self.k}" if self.k > 1 else f"({base})"


def divisor_multiset(divisors):
    """Hashable multiset view {(p coeffs, k): multiplicity}."""
    return {(d.p.coeffs, d.k): d.multiplicity for d in divisors}


@dataclass(slots=True)
class IndecomposableSummand:
    """One cyclic summand with annihilator p^k and an explicit basis."""

    p: Poly
    k: int
    copy_index: int
    basis: Matrix          # columns v, Tv, ..., T^(deg p * k - 1) v

    @property
    def dim(self) -> int:
        return self.p.degree * self.k

    def divisor_key(self):
        return (self.p.coeffs, self.k)


def krylov_basis(T: Matrix, v, r: int) -> Matrix:
    """Columns v, Tv, ..., T^(r-1) v."""
    cols = [v]
    for _ in range(r - 1):
        cols.append(T.apply(cols[-1]))
    return Matrix.from_cols(T.field, cols)


class ModuleStructure:
    """The F[x]-module structure of V under T, computed once per matrix.

    Holds one tracked Smith form of xI - T.  Its diagonal gives the
    invariant factors, and T is invertible iff no invariant factor has a
    zero constant term; both are known on construction, before anything
    is factored, so callers can reject a singular map first.  On first
    use each nonconstant invariant factor is factored once (with `seed`
    and `degree_limit`, as in `factor`), and the elementary divisors and
    the indecomposable summands are both read from those factorizations
    and the same Smith transform.
    """

    def __init__(self, T: Matrix, seed: int = 0,
                 degree_limit: int = DEFAULT_DEGREE_LIMIT):
        if not T.is_square:
            raise NotSquare("module structure of a non-square matrix")
        self.T = T
        self.seed = seed
        self.degree_limit = degree_limit
        diag, self._pinv = smith_normal_form(_char_matrix(T), track=True)
        assert all(not d.is_zero() for d in diag)
        self.invariant_factors = diag
        self.invertible = not any(T.field.is_zero(d.constant_term())
                                  for d in diag)

    @cached_property
    def factorizations(self):
        """[(index, d, factor(d))] for each nonconstant invariant factor d."""
        return [(idx, d, factor(d, seed=self.seed,
                                degree_limit=self.degree_limit))
                for idx, d in enumerate(self.invariant_factors)
                if d.degree >= 1]

    @cached_property
    def elementary_divisors(self):
        """Complete multiset of elementary divisors, deterministically
        ordered."""
        counts: dict = {}
        for _, _, fac in self.factorizations:
            for p, k in fac:
                counts[(p, k)] = counts.get((p, k), 0) + 1
        divisors = [ElementaryDivisor(p, k, m) for (p, k), m in counts.items()]
        divisors.sort(key=ElementaryDivisor.sort_key)
        assert sum(d.dim for d in divisors) == self.T.nrows
        return divisors

    @cached_property
    def summands(self):
        """T-cyclic summands, one per elementary divisor copy.

        Generators come from the tracked Smith transform projected to
        each invariant-factor summand, then separated along the coprime
        factorization of the annihilator.  The direct-sum property is
        verified exactly before returning.
        """
        T = self.T
        F = T.field
        n = T.nrows
        pinv = self._pinv
        summands = []
        for idx, d, fac in self.factorizations:
            # generator sum_j pinv[j][idx](T) e_j = sum_k T^k u_k, where
            # u_k holds the x^k coefficients of transform column idx
            column = [pinv[j][idx] for j in range(n)]
            deg = max(e.degree for e in column)
            gen = krylov_sum(T, [tuple(e.coeff(k) for e in column)
                                 for k in range(deg + 1)])
            assert all(F.is_zero(c) for c in poly_apply(d, T, gen)), \
                "generator not annihilated by its invariant factor"
            for p, k in fac:
                w = poly_apply(d // p ** k, T, gen)
                summands.append(IndecomposableSummand(
                    p, k, 0, krylov_basis(T, w, p.degree * k)))
        summands.sort(key=lambda s: (s.p.degree, s.p.coeffs, s.k))
        counters: dict = {}
        for s in summands:
            key = s.divisor_key()
            s.copy_index = counters.get(key, 0)
            counters[key] = s.copy_index + 1
        if summands:
            whole = reduce(Matrix.hstack, [s.basis for s in summands])
            assert whole.ncols == n and whole.rank() == n, \
                "summand bases do not assemble to a basis"
            for s in summands:
                restriction(T, s.basis)   # raises Singular unless invariant
        return summands


def elementary_divisors(T: Matrix, seed: int = 0,
                        degree_limit: int = DEFAULT_DEGREE_LIMIT):
    """Complete multiset of elementary divisors, deterministically ordered."""
    return ModuleStructure(T, seed, degree_limit).elementary_divisors


def indecomposable_decomposition(T: Matrix, seed: int = 0,
                                 degree_limit: int = DEFAULT_DEGREE_LIMIT):
    """Split V into T-cyclic summands, one per elementary divisor copy
    (see `ModuleStructure.summands`)."""
    return ModuleStructure(T, seed, degree_limit).summands


# --- duality rules -------------------------------------------------------------

UNPAIRED_DUAL = "UnpairedDual"
BAD_UNIPOTENT_PARITY = "BadUnipotentParity"
ODD_DIMENSION_SKEW = "OddDimensionSkew"
UNPAIRED_ADDITIVE_DUAL = "UnpairedAdditiveDual"
BAD_NILPOTENT_PARITY = "BadNilpotentParity"


def natural_parity_ok(k: int, symmetry: str) -> bool:
    """An indecomposable (x -+ 1)^k or x^k block carries a non-degenerate
    form of this symmetry iff k is odd (symmetric) or even (skew)."""
    return (k % 2 == 1) == (symmetry == SYMMETRIC)


PARITY_DETAIL = ("{label}^{k} needs exponent {need} or even multiplicity, "
                 "found multiplicity {multiplicity}")


@dataclass(frozen=True, slots=True)
class DualityRule:
    """How one setting reads form existence off the elementary divisors.

    A divisor p^k whose p is one of the special linear factors x - r
    needs the exponent parity natural for the symmetry (k odd for
    symmetric, k even for skew) or an even multiplicity; any other
    divisor is self-dual under `dual` or meets its dual divisor at equal
    multiplicity.  The obstruction kinds and details name what fails.
    """

    setting: str
    special: tuple          # ((r, label), ...) for the factors x - r
    dual: Callable          # monic dual operator on polynomials
    parity_kind: str
    unpaired_kind: str
    unpaired_detail: str    # format fields: dual_multiplicity, multiplicity

    def special_factor(self, p: Poly):
        """(r, label) when p = x - r is a special factor, else None."""
        if p.degree == 1:
            F = p.field
            for r, label in self.special:
                if p.coeff(0) == F.coerce(-r):
                    return r, label
        return None

    def is_self_dual(self, p: Poly) -> bool:
        return p == self.dual(p)


DUALITY = {
    INVARIANT: DualityRule(
        INVARIANT, ((1, "(x - 1)"), (-1, "(x + 1)")), dual_poly,
        BAD_UNIPOTENT_PARITY, UNPAIRED_DUAL,
        "dual divisor multiplicity {dual_multiplicity} != {multiplicity}"),
    INFINITESIMAL: DualityRule(
        INFINITESIMAL, ((0, "x"),), additive_dual_poly,
        BAD_NILPOTENT_PARITY, UNPAIRED_ADDITIVE_DUAL,
        "additive dual multiplicity {dual_multiplicity} != {multiplicity}"),
}
