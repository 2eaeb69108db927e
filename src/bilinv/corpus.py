"""Seeded random instance generation for the selftest and acceptance runs.

Instances are assembled from elementary-divisor atoms -- unipotent-type
blocks (x -+ 1)^k of both parities, self-dual irreducible quadratics,
dual pairs, deliberately unpaired divisors, and (in the additive
variant) nilpotent x^k blocks and additive dual pairs -- then conjugated
by a random invertible matrix.  Everything is driven by one
random.Random(seed), so a corpus is reproducible from its seed.
"""

import random

from .errors import SmallCharacteristic
from .fields import PrimeField
from .linalg import Matrix
from .poly import Poly

DEFAULT_FIELDS = (101, 257)
MAX_DIM = 6


def random_invertible(field, n: int, rng: random.Random) -> Matrix:
    """A random invertible n x n matrix over F_p; ValueError over Q."""
    if not isinstance(field, PrimeField):
        raise ValueError("random_invertible samples over F_p only")
    while True:
        M = Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                           for _ in range(n)], coerce=False)
        if not field.is_zero(M.det()):
            return M


def _nonsquare_ok(field, disc):
    p = field.p
    disc %= p
    return disc != 0 and pow(disc, (p - 1) // 2, p) == p - 1


def _self_dual_quadratic(field, rng):
    # x^2 - a x + 1, irreducible iff a^2 - 4 is a non-square
    while True:
        a = rng.randrange(field.p)
        if _nonsquare_ok(field, a * a - 4):
            return Poly(field, [1, -a % field.p, 1])


def _even_quadratic(field, rng):
    # x^2 + c, irreducible iff -c is a non-square
    while True:
        c = rng.randrange(1, field.p)
        if _nonsquare_ok(field, -c):
            return Poly(field, [c, 0, 1])


def _dual_free_scalar(field, rng):
    # c with c not in {0, 1, -1} and c != 1/c
    while True:
        c = rng.randrange(2, field.p - 1)
        if c != pow(c, field.p - 2, field.p):
            return c


def _invariant_atoms(field, rng, budget):
    """(dim, matrix) atoms for an invertible instance."""
    atoms = []
    while budget > 0:
        roll = rng.randrange(8)
        if roll <= 2:          # unipotent-type block
            root = 1 if rng.randrange(2) == 0 else -1
            k = rng.randrange(1, min(3, budget) + 1)
            mult = rng.randrange(1, min(3, budget // k) + 1)
            block = Matrix.companion(Poly.x_minus(field, root) ** k)
            for _ in range(mult):
                atoms.append(Matrix.block_diagonal(field, [block]))
            budget -= k * mult
        elif roll == 3 and budget >= 2:      # self-dual irreducible
            p = _self_dual_quadratic(field, rng)
            k = 2 if budget >= 4 and rng.randrange(3) == 0 else 1
            atoms.append(Matrix.companion(p ** k))
            budget -= 2 * k
        elif roll == 4 and budget >= 2:      # dual pair of linears
            c = _dual_free_scalar(field, rng)
            k = 2 if budget >= 4 and rng.randrange(3) == 0 else 1
            cinv = pow(c, field.p - 2, field.p)
            atoms.append(Matrix.block_diagonal(field, [
                Matrix.companion(Poly.x_minus(field, c) ** k),
                Matrix.companion(Poly.x_minus(field, cinv) ** k)]))
            budget -= 2 * k
        elif roll == 5:                      # unpaired linear (NO instances)
            c = _dual_free_scalar(field, rng)
            k = rng.randrange(1, min(2, budget) + 1)
            atoms.append(Matrix.companion(Poly.x_minus(field, c) ** k))
            budget -= k
        elif roll >= 6 and budget >= 2:      # non-self-dual quadratic pair
            c = _dual_free_scalar(field, rng)
            d = _dual_free_scalar(field, rng)
            q = Poly.x_minus(field, c) * Poly.x_minus(field, d)
            atoms.append(Matrix.companion(q))
            budget -= 2
        else:
            root = 1 if rng.randrange(2) == 0 else -1
            atoms.append(Matrix.companion(Poly.x_minus(field, root)))
            budget -= 1
    return atoms


def _infinitesimal_atoms(field, rng, budget):
    atoms = []
    while budget > 0:
        roll = rng.randrange(7)
        if roll <= 2:          # nilpotent block x^k
            k = rng.randrange(1, min(3, budget) + 1)
            mult = rng.randrange(1, min(3, budget // k) + 1)
            for _ in range(mult):
                atoms.append(Matrix.companion(Poly(field, [0, 1]) ** k))
            budget -= k * mult
        elif roll == 3 and budget >= 2:      # additively self-dual quadratic
            p = _even_quadratic(field, rng)
            k = 2 if budget >= 4 and rng.randrange(3) == 0 else 1
            atoms.append(Matrix.companion(p ** k))
            budget -= 2 * k
        elif roll == 4 and budget >= 2:      # additive dual pair
            c = rng.randrange(1, field.p)
            k = 2 if budget >= 4 and rng.randrange(3) == 0 else 1
            atoms.append(Matrix.block_diagonal(field, [
                Matrix.companion(Poly.x_minus(field, c) ** k),
                Matrix.companion(Poly.x_minus(field, -c) ** k)]))
            budget -= 2 * k
        else:                                # unpaired linear
            c = rng.randrange(1, field.p)
            k = rng.randrange(1, min(2, budget) + 1)
            atoms.append(Matrix.companion(Poly.x_minus(field, c) ** k))
            budget -= k
    return atoms


def sample_instance(field, rng: random.Random, kind: str,
                    max_dim: int = MAX_DIM) -> Matrix:
    """One conjugated instance; kind is "invariant" or "infinitesimal"."""
    n = rng.randrange(1, max_dim + 1)
    maker = _invariant_atoms if kind == "invariant" else _infinitesimal_atoms
    atoms = maker(field, rng, n)
    T = Matrix.block_diagonal(field, atoms)
    g = random_invertible(field, T.nrows, rng)
    return g * T * g.inverse()


def corpus(seed: int, count: int, kind: str,
           field_primes=DEFAULT_FIELDS, max_dim: int = MAX_DIM):
    """List of (field, matrix) pairs, reproducible from the seed.

    Every prime must be at least 5: dual pairs need a scalar outside
    {0, 1, -1} that is not its own inverse, and the quadratic atoms must
    be irreducible."""
    rng = random.Random(seed)
    fields = [PrimeField(p) for p in field_primes]
    if min(field.p for field in fields) < 5:
        raise SmallCharacteristic("the corpus needs every prime to be at "
                                  "least 5")
    out = []
    for i in range(count):
        field = fields[i % len(fields)]
        out.append((field, sample_instance(field, rng, kind, max_dim)))
    return out


def symmetric_admissible(parts) -> bool:
    """Even chain lengths must occur an even number of times."""
    from collections import Counter
    return all(k % 2 == 1 or m % 2 == 0 for k, m in Counter(parts).items())


def skew_admissible(parts) -> bool:
    from collections import Counter
    return all(k % 2 == 0 or m % 2 == 0 for k, m in Counter(parts).items())
