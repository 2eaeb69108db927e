"""Exact scalar arithmetic over Q and over prime fields F_p.

A field object owns the representation of its scalars and performs all
arithmetic on them; the scalars themselves are plain values:

  * over Q, a scalar is a ``fractions.Fraction`` (always in lowest terms
    with positive denominator),
  * over F_p, a scalar is an ``int`` in ``[0, p)``.

Containers (polynomials, matrices) carry a reference to their field and
coerce every entry on construction, so scalars of different fields never
meet in arithmetic; cross-field container operations raise MixedFields.

Scalar text form: ``"a/b"`` or ``"a"`` over Q, a decimal residue over F_p.

Matrix kernels run on the integer form of a row of scalars, which each
field provides: ``clear`` writes the row as integers over one
denominator, ``reduce_row`` keeps an integer row small without changing
the line it spans, and ``ratio`` turns an integer over an integer back
into a scalar.  Over Q these are the lcm of the denominators, removal of
the row's content and ``Fraction(n, d)``; over F_p, the residues over
d = 1, reduction mod p and n * d^-1 mod p.

``eliminate`` is the elimination step on such rows: it clears one column
of every row but the pivot row.  Over Q it is fraction-free, each row
scaled by the gcd-reduced pivot and then divided by its content; over
F_p the pivot row is scaled to 1 first, and each other row takes one
pass (x - f*y) mod p from the pivot column on.
"""

import math
from fractions import Fraction

from .errors import MixedFields, ZeroInverse


# Miller-Rabin with the prime bases up to 41 decides primality exactly
# below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", 2015); above it a base can still prove n composite.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test.

    Exact below PRIMALITY_BOUND.  Above it a composite found by one of
    the bases still returns False, and any other n raises ValueError.
    """
    if n < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality of {n} is not decided at or above "
                         f"{PRIMALITY_BOUND}")
    return True


class Field:
    """Common interface of the two scalar fields."""

    characteristic = 0

    def char_exceeds(self, n: int) -> bool:
        """True when the characteristic is 0 or greater than n."""
        return self.characteristic == 0 or self.characteristic > n

    def require_same(self, other: "Field") -> None:
        if self != other:
            raise MixedFields(f"cannot mix scalars of {self} and {other}")

    # subclasses provide: zero, one, coerce, add, sub, mul, neg, inv,
    # div, is_zero, parse, to_str, dot, and the integer form of a row:
    # clear, ratio, reduce_row, eliminate


class RationalField(Field):
    """The field Q with Fraction scalars."""

    characteristic = 0
    p = None             # no modulus: the polynomial kernel reads this
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("0 has no inverse in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroInverse("division by zero in Q")
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

    def dot(self, xs, ys):
        return sum((x * y for x, y in zip(xs, ys)), Fraction(0))

    def clear(self, xs):
        """xs as (ints, d) with xs[i] = ints[i] / d, d the lcm of their
        denominators (1 for no scalars)."""
        d = math.lcm(*[x.denominator for x in xs])
        if d == 1:
            return [x.numerator for x in xs], 1
        return [x.numerator * (d // x.denominator) for x in xs], d

    def ratio(self, n: int, d: int):
        return Fraction(n, d)

    def reduce_row(self, row):
        """An integer row divided by the gcd of its entries."""
        g = math.gcd(*row)
        return [x // g for x in row] if g > 1 else row

    def eliminate(self, rows, r: int, c: int) -> None:
        """Clear column c of every integer row but rows[r], in place, by
        fraction-free updates a*row - b*rows[r] with a/b = rows[r][c]/f
        in lowest terms, each followed by content removal."""
        reduce_row = self.reduce_row
        prow = rows[r]
        piv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = math.gcd(piv, f)
                a, b = piv // g, f // g
                rows[i] = reduce_row([a * x - b * y
                                      for x, y in zip(row, prow)])

    def parse(self, text: str):
        text = text.strip()
        # Fraction reads "1e10000000" too, and then builds a ten-million
        # digit integer; the scalar form is "a/b" or a decimal
        if "e" in text.lower():
            raise ValueError(f"exponent notation is not a Q scalar: {text!r}")
        return Fraction(text)

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """The field F_p with residues stored in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            # exact rational literals are accepted when the denominator
            # is invertible mod p
            num = x.numerator % self.p
            den = x.denominator % self.p
            if den == 0:
                raise ZeroInverse(f"denominator of {x} vanishes mod {self.p}")
            return num * pow(den, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroInverse(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def dot(self, xs, ys):
        return sum(x * y for x, y in zip(xs, ys)) % self.p

    def clear(self, xs):
        """The residues xs as integers over d = 1."""
        return list(xs), 1

    def ratio(self, n: int, d: int):
        return n % self.p if d == 1 else n * self.inv(d) % self.p

    def reduce_row(self, row):
        """An integer row reduced mod p."""
        p = self.p
        return [x % p for x in row]

    def eliminate(self, rows, r: int, c: int) -> None:
        """Scale rows[r] so its entry at c is 1, then clear column c of
        every other row, in place.  The pivot row is zero before column c
        (elimination runs column by column), so only the columns from c
        on change."""
        p = self.p
        prow = rows[r]
        inv = pow(prow[c], -1, p)
        rows[r] = prow = [x * inv % p for x in prow]
        tail = prow[c:]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = row[:c] + [(x - f * y) % p
                                     for x, y in zip(row[c:], tail)]

    def parse(self, text: str):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


QQ = RationalField()

