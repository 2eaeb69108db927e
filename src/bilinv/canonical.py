"""Module structure of a linear map: invariant factors, elementary
divisors, indecomposable summands with explicit bases, and the duality
rules that read form existence off the divisors (`DualityRule.partner`).

A `ModuleStructure` starts from the characteristic polynomial chi of T
(`linalg.char_poly`) and factors it once.  For each p^e exactly dividing
chi, the kernels of the powers of p(T) on V grow until they fill
W = ker p(T)^e, of dimension deg p * e: their dimensions give the
multiplicities of the divisors p^k, and their bases give the generators
of the cyclic summands.  `invariant_factors` and `min_poly` are read off the
divisors.  The Smith normal form of xI - T over F[x], on `Poly`
arithmetic, is kept as an independent reference for the invariant factors.

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
from .linalg import Matrix, _kernel, _rref, char_poly, eval_poly_at_matrix
from .poly import (DEFAULT_DEGREE_LIMIT, Poly, additive_dual_poly, dual_poly,
                   factor)


# --- Smith normal form over F[x] -------------------------------------------

def smith_normal_form(A):
    """Diagonal of the Smith normal form of a square polynomial matrix:
    the list of monic (or zero) entries d_1 | d_2 | ... .  Transforms
    are not kept."""
    n = len(A)
    M = [list(row) for row in A]
    for t in range(n):
        older = last = None       # pivot lengths of the last two passes
        while True:
            # lowest-degree nonzero pivot in the trailing block
            nonzero = [(len(M[i][j].coeffs), i, j) for i in range(t, n)
                       for j in range(t, n) if not M[i][j].is_zero()]
            if not nonzero:
                break
            length, bi, bj = min(nonzero)
            # a pass that is not clean leaves a remainder shorter than its
            # pivot, and a culprit fix-up is followed by such a pass, so the
            # pivot shrinks at least once every two passes
            if older is not None and length >= older:
                raise AssertionError(
                    "Smith pivot loop made no progress in two passes")
            older, last = last, length
            M[t], M[bi] = M[bi], M[t]
            for row in M:
                row[t], row[bj] = row[bj], row[t]
            pivot = M[t][t]
            for r in range(t + 1, n):
                q = M[r][t] // pivot
                M[r] = [a - q * b for a, b in zip(M[r], M[t])]
            for c in range(t + 1, n):
                q = M[t][c] // pivot
                for row in M:
                    row[c] -= q * row[t]
            clean = all(M[r][t].is_zero() and M[t][r].is_zero()
                        for r in range(t + 1, n))
            if not clean:
                continue
            # enforce divisibility into the trailing block (a constant
            # pivot divides everything)
            culprit = None
            if pivot.degree > 0:
                culprit = next((r for r in range(t + 1, n)
                                for c in range(t + 1, n)
                                if not (M[r][c] % pivot).is_zero()), None)
            if culprit is None:
                break
            # row_t += row_culprit
            M[t] = [a + b for a, b in zip(M[t], M[culprit])]
    return [M[i][i].monic() for i in range(n)]


def _char_matrix(T: Matrix):
    F = T.field
    n = T.nrows
    return [[Poly(F, ([F.neg(T.rows[i][j])] if i != j
                      else [F.neg(T.rows[i][j]), F.one]))
             for j in range(n)] for i in range(n)]


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

    Holds the characteristic polynomial chi of T, so `invertible` (chi(0)
    nonzero) is known on construction, before anything is factored, and
    callers can reject a singular map first.  On first use chi is
    factored once by `factor` (over Q, `degree_limit` caps each Yun
    squarefree part).  For each p^e exactly dividing chi, the
    multiplicities of the divisors p^k are read off the kernel dimensions
    of the powers of p(T) on V, up to the first power whose kernel is
    W = ker p(T)^e; the summands are built from those kernels when first
    asked for.
    """

    def __init__(self, T: Matrix, degree_limit: int = DEFAULT_DEGREE_LIMIT):
        if not T.is_square:
            raise NotSquare("module structure of a non-square matrix")
        self.T = T
        self.degree_limit = degree_limit
        self.char_poly = char_poly(T)
        self.invertible = not T.field.is_zero(self.char_poly.constant_term())
        self._primary = {}

    @cached_property
    def factorization(self):
        """[(p, e)] with p^e exactly dividing chi, by p."""
        return list(factor(self.char_poly, self.degree_limit))

    def primary(self, p: Poly, e: int):
        """(N, K) for the p-primary component: N = p(T) on V, and K[j]
        the kernel basis of N^j (`Matrix.kernel_basis`), j = 0, 1, ... up
        to the first j with dim ker N^j = deg p * e, when ker N^j is all
        of W = ker p(T)^e.

        The kernels form a chain: with R_j the non-zero rows of the RREF
        of N^j, R_j N has the row space of N^(j+1), so one elimination of
        the rank(N^j) x n product R_j N gives both R_(j+1) and K[j+1]
        (the RREF is unique, so K[j+1] is exactly the kernel basis of
        N^(j+1)).  No power of N is formed, and the rows shrink with the
        rank."""
        if (p, e) not in self._primary:
            N = eval_poly_at_matrix(p, self.T)
            R, basis = _kernel(N)
            K = [[], basis]
            while len(K[-1]) < p.degree * e:
                R, basis = _kernel(R * N)
                K.append(basis)
            self._primary[(p, e)] = N, K
        return self._primary[(p, e)]

    def _counts(self, p, e):
        """{k: multiplicity of p^k}; p^1 once when e = 1, with no linear
        algebra.  The number of blocks of size >= j is
        (dim ker N^j - dim ker N^(j-1)) / deg p."""
        if e == 1:
            return {1: 1}
        dims = [len(basis) // p.degree for basis in self.primary(p, e)[1]]
        at_least = [b - a for a, b in zip(dims, dims[1:])] + [0]
        return {k: m for k, m in enumerate(
            (a - b for a, b in zip(at_least, at_least[1:])), 1) if m}

    @cached_property
    def elementary_divisors(self):
        """Complete multiset of elementary divisors, deterministically
        ordered."""
        divisors = [ElementaryDivisor(p, k, m) for p, e in self.factorization
                    for k, m in self._counts(p, e).items()]
        divisors.sort(key=ElementaryDivisor.sort_key)
        if sum(d.dim for d in divisors) != self.T.nrows:
            raise AssertionError("divisor degrees do not sum to n")
        return divisors

    @cached_property
    def summands(self):
        """T-cyclic summands, one per elementary divisor copy.

        The generators of the p^k summands are taken greedily from the
        basis of ker N^k, each independent modulo ker N^(k-1) + N ker
        N^(k+1) and the F[x]/(p)-lines v, Tv, ..., T^(deg p - 1) v of
        those already taken (the cyclic decomposition theorem, Hoffman &
        Kunze, Linear Algebra, 7.2); each is expanded to its power basis
        under T and checked invariant (N^k v = 0).  The direct-sum property
        is verified exactly before returning.  The summands come in the
        order of the factorization (by degree, then coefficients of p) and
        by ascending k for each p; copy_index counts the copies of each p^k.
        """
        T = self.T
        F = T.field
        n = T.nrows
        summands = []
        for p, e in self.factorization:
            N, K = self.primary(p, e)
            d, top = p.degree, len(K) - 1
            for k, m in self._counts(p, e).items():
                if e == 1:
                    # ker p(T) is one cyclic summand, generated by any
                    # nonzero vector of it
                    gens = K[1][:1]
                else:
                    # ker N^(k-1) + N ker N^(k+1), then the candidate
                    # lines; a line is independent of what precedes it iff
                    # its first vector is, so each pivot there marks a
                    # generator
                    base = K[k - 1] + [N.apply(u) for u in K[min(k + 1, top)]]
                    lines = [w for v in K[k]
                             for w in krylov_basis(T, v, d).cols()]
                    pivots = set(_rref(Matrix.from_cols(F, base + lines))[1])
                    gens = [v for i, v in enumerate(K[k])
                            if len(base) + i * d in pivots]
                if len(gens) != m:
                    raise AssertionError("generator count != multiplicity")
                for i, v in enumerate(gens):
                    # p^k is monic of degree dk, so T^(dk) v is in the span
                    w = v
                    for _ in range(k):
                        w = N.apply(w)
                    if any(w):
                        raise AssertionError("summand span not T-invariant")
                    summands.append(IndecomposableSummand(
                        p, k, i, krylov_basis(T, v, d * k)))
        if summands:
            whole = reduce(Matrix.hstack, [s.basis for s in summands])
            if whole.ncols != n or whole.rank() != n:
                raise AssertionError(
                    "summand bases do not assemble to a basis")
        return summands


def invariant_factors(T: Matrix):
    """Monic invariant factors d_1 | ... | d_n of xI - T (constants
    included): the j-th largest is the product over p of the j-th
    largest power p^k among the elementary divisors."""
    out = [Poly.one(T.field)] * T.nrows
    slot = {}
    for d in reversed(ModuleStructure(T).elementary_divisors):
        for _ in range(d.multiplicity):
            slot[d.p] = j = slot.get(d.p, T.nrows) - 1
            out[j] = out[j] * d.p ** d.k
    return out


def min_poly(T: Matrix) -> Poly:
    """Monic minimal polynomial: the largest invariant factor of xI - T
    (1 for the 0 x 0 matrix)."""
    diag = invariant_factors(T)
    return diag[-1] if diag else Poly.one(T.field)


def elementary_divisors(T: Matrix, degree_limit: int = DEFAULT_DEGREE_LIMIT):
    """Complete multiset of elementary divisors, deterministically ordered."""
    return ModuleStructure(T, degree_limit).elementary_divisors


def indecomposable_decomposition(T: Matrix,
                                 degree_limit: int = DEFAULT_DEGREE_LIMIT):
    """Split V into T-cyclic summands, one per elementary divisor copy
    (see `ModuleStructure.summands`)."""
    return ModuleStructure(T, degree_limit).summands


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

    `partner` is the one place that decides how the copies of a divisor
    p^k carry a form: each alone, in pairs of equal copies, or each with
    a copy of the dual divisor.  The decision, the witness assembly and
    the reality split all read it.  The obstruction kinds and details
    name what fails.
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

    def partner(self, p: Poly, k: int, symmetry: str):
        """The divisor key a copy of p^k pairs with under this symmetry.

        None when each copy carries a form alone: p self-dual under
        `dual`, and at a special factor x - r the exponent parity natural
        for the symmetry (k odd for symmetric, k even for skew).
        (p.coeffs, k) when equal copies pair: a special factor of the
        other parity, so a form needs an even multiplicity.  Otherwise
        (dual(p).coeffs, k): each copy pairs with a copy of the dual
        divisor, which must occur at equal multiplicity."""
        if self.special_factor(p) is not None:
            return None if natural_parity_ok(k, symmetry) else (p.coeffs, k)
        q = self.dual(p)
        return None if q == p else (q.coeffs, k)


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
