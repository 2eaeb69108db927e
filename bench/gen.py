"""Seeded instance generation for the benchmark, with its own arithmetic.

Instances are built from elementary-divisor atoms whose answer is known
by construction, then conjugated by a random change of basis.  Nothing
here calls bilinv: a matrix is a list of rows of ints (reduced mod p over
F_p, exact over Q), so the decision code never vouches for its own
inputs.  A polynomial is its coefficient list, lowest degree first,
always monic.
"""

import math
import random
from fractions import Fraction

# x^4 + x^3 + x^2 + x + 1, the fifth cyclotomic polynomial (self-dual)
PHI5 = [1, 1, 1, 1, 1]


def rng_for(*key) -> random.Random:
    """Independent stream per key; str seeding is stable across runs."""
    return random.Random("/".join(str(k) for k in key))


# --- polynomials -----------------------------------------------------------

def poly_mul(a, b, p=None):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out] if p else out


def poly_pow(a, k, p=None):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a, p)
    return out


def linear(c, p=None):
    """x - c."""
    return [(-c) % p if p else -c, 1]


def negate_x(a):
    """a(-x) over Q, made monic again."""
    out = [c if i % 2 == 0 else -c for i, c in enumerate(a)]
    if len(a) % 2 == 0:            # odd degree: leading coefficient flipped
        out = [-c for c in out]
    return out


def is_square_mod(a, p) -> bool:
    a %= p
    return a == 0 or pow(a, (p - 1) // 2, p) == 1


# --- matrices ----------------------------------------------------------------

def companion(f):
    """Companion block of a monic f: ones below the diagonal, -f in the
    last column."""
    n = len(f) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i + 1][i] = 1
    for i in range(n):
        rows[i][n - 1] = -f[i]
    return rows


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off:off + len(row)] = row
        off += len(b)
    return rows


def mat_mul(A, B, p=None):
    cols = list(zip(*B))
    if p:
        return [[sum(a * b for a, b in zip(r, c)) % p for c in cols]
                for r in A]
    return [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in A]


def transpose(A):
    return [list(c) for c in zip(*A)]


def inverse_mod(A, p):
    """Gauss-Jordan inverse over F_p; None when A is singular."""
    n = len(A)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for i in range(n):
            f = aug[i][c]
            if i != c and f:
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def conjugate_fp(J, p, rng):
    """(g J g^-1, g^-1) for a dense uniformly random invertible g over F_p."""
    n = len(J)
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        ginv = inverse_mod(g, p)
        if ginv is not None:
            return mat_mul(mat_mul(g, J, p), ginv, p), ginv


def unimodular(n, rng, sweeps):
    """Integer g with det 1 and its integer inverse, as products of
    unit triangular factors with entries in [-1, 1]."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    for _ in range(sweeps):
        for lower in (True, False):
            E = [[int(i == j) if i == j or (i > j) != lower
                  else rng.randint(-1, 1) for j in range(n)] for i in range(n)]
            g = mat_mul(g, E)
            ginv = mat_mul(_unit_triangular_inverse(E, lower), ginv)
    return g, ginv


def _unit_triangular_inverse(E, lower):
    n = len(E)
    if not lower:
        return transpose(_unit_triangular_inverse(transpose(E), True))
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(E[i][t] * inv[t][j] for t in range(j, i))
    return inv


Q_ENTRY_TARGET = 1000
Q_DRAWS = 8


def conjugate_q(J, rng):
    """g J g^-1 over Q for an integer unimodular g; entries stay exact.

    Random unimodular products grow erratically with n, so Q_DRAWS
    candidates are drawn and the one whose largest entry is nearest to
    Q_ENTRY_TARGET (on a log scale) is kept: the cost of Fraction
    arithmetic depends on entry size, and a steady size keeps instances
    comparable.  A fixed number of draws keeps set-up time steady too.
    """
    sweeps = 2 if len(J) <= 8 else 1
    best = None
    for _ in range(Q_DRAWS):
        g, ginv = unimodular(len(J), rng, sweeps)
        T = mat_mul(mat_mul(g, J), ginv)
        size = max(abs(x) for r in T for x in r)
        miss = abs(math.log(max(size, 1) / Q_ENTRY_TARGET))
        if best is None or miss < best[0]:
            best = (miss, T)
    return best[1]


# --- atoms with a known answer -------------------------------------------------
#
# A template fixes the block structure of an instance; the seed picks only
# the scalars (which irreducible quadratic, which dual pair) and the change
# of basis.  Cost follows structure, so fixed templates keep the cost of a
# cycle steady from seed to seed.  Tokens:
#   ("uni", lam, k, copies)  (x - lam)^k, lam = +-1      (invariant)
#   ("nil", k, copies)       x^k                         (infinitesimal)
#   ("sd", power)            a self-dual irreducible quadratic to a power
#   ("pair", k)              (x - c)^k with its dual (x - 1/c)^k, resp. (x + c)^k
#   ("phi5",)                PHI5 (invariant) or PHI5(x), PHI5(-x)

SELF_DUAL_QUADRATICS_Q = (0, 1, -1, 3, -3, 4, -4)   # a in x^2 - a x + 1
DUAL_PAIR_SCALARS_Q = (2, 3, -2, -3)


def _dual_free_scalar(p, rng):
    while True:
        c = rng.randrange(2, p - 1)
        if c * c % p != 1:
            return c


def _self_dual_quadratic(setting, p, rng):
    """Irreducible x^2 - a x + 1 (invariant) or x^2 + c (infinitesimal)."""
    if p is None:
        if setting == "invariant":
            return [1, -rng.choice(SELF_DUAL_QUADRATICS_Q), 1]
        return [rng.randint(1, 5), 0, 1]
    while True:
        if setting == "invariant":
            a = rng.randrange(p)
            if not is_square_mod(a * a - 4, p):
                return [1, (-a) % p, 1]
        else:
            c = rng.randrange(1, p)
            if not is_square_mod(-c, p):
                return [c, 0, 1]


def _dual_pair(setting, k, p, rng):
    if p is None:
        c = Fraction(rng.choice(DUAL_PAIR_SCALARS_Q))
        partner = 1 / c if setting == "invariant" else -c
    else:
        c = _dual_free_scalar(p, rng)
        partner = pow(c, p - 2, p) if setting == "invariant" else p - c
    return [poly_pow(linear(c, p), k, p), poly_pow(linear(partner, p), k, p)]


def template_atoms(template, setting, p, rng):
    """Monic block polynomials of a template (p None: over Q)."""
    atoms = []
    for kind, *args in template:
        if kind == "uni":
            lam, k, copies = args
            atoms += [poly_pow(linear(lam, p), k, p)] * copies
        elif kind == "nil":
            k, copies = args
            atoms += [[0] * k + [1]] * copies
        elif kind == "sd":
            atoms.append(poly_pow(_self_dual_quadratic(setting, p, rng),
                                  args[0], p))
        elif kind == "pair":
            atoms += _dual_pair(setting, args[0], p, rng)
        elif kind == "phi5":
            atoms += [PHI5] if setting == "invariant" else \
                [PHI5, negate_x(PHI5)]
        else:
            raise ValueError(f"unknown template token {kind!r}")
    return atoms


def template_admissible(template, symmetry) -> bool:
    """The paper's parity rule on the (x -+ 1)^k / x^k blocks: exponent
    odd for symmetric (even for skew), or an even number of copies.  Every
    other token is self-dual or paired, so never an obstruction."""
    copies = {}
    for kind, *args in template:
        if kind in ("uni", "nil"):
            key = (kind,) + tuple(args[:-1])
            copies[key] = copies.get(key, 0) + args[-1]
    natural = 1 if symmetry == "symmetric" else 0
    return all(key[-1] % 2 == natural or m % 2 == 0
               for key, m in copies.items())


def unipotent_block(k):
    """Lower unit bidiagonal k x k block (chain basis of (x - 1)^k)."""
    return [[int(i == j or i == j + 1) for j in range(k)] for i in range(k)]
