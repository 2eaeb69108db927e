"""Independent re-check of Gram witnesses with the benchmark's own
arithmetic: invariance (T^t B T = B, or S^t B + B S = 0), the symmetry
type, and det B != 0.  Nothing here imports bilinv, so a defect in the
library's certificates module cannot vouch for the library's output.

Matrices are lists of rows: ints in [0, p) over F_p (p given), ints or
Fractions over Q (p is None).
"""

from fractions import Fraction
from math import lcm

from gen import mat_mul, transpose

# det != 0 modulo this prime proves det != 0 over Z; a zero residue (rare
# by chance) falls back to exact elimination
_CHECK_PRIME = (1 << 61) - 1


def _rank_mod(A, p) -> int:
    rows = [[x % p for x in r] for r in A]
    n, m = len(rows), len(rows[0]) if rows else 0
    rank = 0
    for c in range(m):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, n):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _nonsingular_q(B) -> bool:
    den = lcm(*(Fraction(x).denominator for r in B for x in r))
    ints = [[int(Fraction(x) * den) for x in r] for r in B]
    if _rank_mod(ints, _CHECK_PRIME) == len(B):
        return True                  # det != 0 mod a prime, so det != 0
    rows = [[Fraction(x) for x in r] for r in B]
    n = len(rows)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return True


def _eq(a, b, p) -> bool:
    return (a - b) % p == 0 if p else a == b


def gram_problems(T, B, p, setting, symmetry):
    """Names of the failed checks; empty when B is a witness for T."""
    n = len(T)
    bad = []
    if len(B) != n or any(len(r) != n for r in B):
        return ["shape"]
    Tt = transpose(T)
    if setting == "invariant":
        lhs = mat_mul(mat_mul(Tt, B, p), T, p)
        ok = all(_eq(lhs[i][j], B[i][j], p) for i in range(n) for j in range(n))
    else:
        lhs, rhs = mat_mul(Tt, B, p), mat_mul(B, T, p)
        ok = all(_eq(lhs[i][j], -rhs[i][j], p)
                 for i in range(n) for j in range(n))
    if not ok:
        bad.append("invariance")
    sign = 1 if symmetry == "symmetric" else -1
    if not all(_eq(B[i][j], sign * B[j][i], p)
               for i in range(n) for j in range(i, n)):
        bad.append("symmetry")
    nonsingular = _rank_mod(B, p) == n if p else _nonsingular_q(B)
    if not nonsingular:
        bad.append("degenerate")
    return bad
