"""Univariate polynomials over Q or F_p, with factorization and duality.

Polynomials are dense coefficient tuples, lowest degree first, trailing
zeros stripped; the zero polynomial has an empty tuple and degree -1.
All arithmetic is exact.

This module holds the one F[x] arithmetic kernel, three functions on raw
coefficient sequences (`_scale`, `_axpy`, `_divmod`): over F_p on ints
with one reduction mod p per output coefficient, over Q on Fractions
with plain operators.  `Poly` addition, subtraction, multiplication,
division and scaling wrap it, the Z[x] products of Hensel lifting use
it on ints, and `linalg.char_poly` runs on it directly.

The two duality operators act on monic polynomials:

  * multiplicative dual  f*(x) = f(0)^-1 x^deg(f) f(1/x)  (roots invert),
  * additive dual        f-(x) = (-1)^deg(f) f(-x)        (roots negate),

and a polynomial is (additively) self-dual when it equals its own dual.

Factorization is complete over both fields: squarefree splitting,
distinct-degree splitting and equal-degree splitting over F_p;
reduction mod a good prime, linear Hensel lifting and subset
recombination over Q (degree capped, default 24).
"""

import itertools
import math
import random
from dataclasses import dataclass

from .errors import (DegreeLimit, MixedFields, NotEvenPolynomial, NotSelfDual,
                     OddDegree, ZeroConstantTerm)
from .fields import Field, PrimeField, QQ, is_prime

DEFAULT_DEGREE_LIMIT = 24


# --- the F[x] kernel --------------------------------------------------------
#
# Raw coefficient sequences, lowest degree first, trailing zeros stripped
# (the zero polynomial is empty); results are lists.  Over F_p the entries
# are ints in [0, p), left unreduced inside one update and reduced once per
# output coefficient.  `p` is the modulus, or None over Q (Fractions);
# `_axpy` with p None also multiplies over Z (ints, for Hensel lifting).
# `zero` is the field's zero scalar.

def _scale(a, c, p):
    return [x * c % p for x in a] if p is not None else [x * c for x in a]


def _axpy(a, q, b, p, zero):
    """a + q*b, for nonzero q and b; with a empty, the product q*b.
    A coefficient 1 or -1 of q adds or subtracts b without multiplying."""
    out = list(a) + [zero] * (len(q) + len(b) - 1 - len(a))
    for i, c in enumerate(q):
        if c == 1:
            for j, y in enumerate(b, i):
                out[j] += y
        elif c == -1:
            for j, y in enumerate(b, i):
                out[j] -= y
        elif c:
            for j, y in enumerate(b, i):
                out[j] += c * y
    if p is not None:
        out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return out


def _divmod(a, b, p, zero):
    """(quotient, remainder) of a by a nonzero b."""
    inv = pow(b[-1], p - 2, p) if p is not None else 1 / b[-1]
    if len(b) == 1:
        return _scale(a, inv, p), []
    db = len(b) - 1
    dq = len(a) - len(b)
    if dq < 0:
        return [], a
    rem = list(a)
    quo = [zero] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + db] * inv
        if p is not None:
            c %= p
        if c:
            quo[i] = c
            for j, y in enumerate(b, i):
                rem[j] -= c * y
    rem = rem[:db] if p is None else [c % p for c in rem[:db]]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


class Poly:
    """Dense univariate polynomial over a fixed field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs, normalize: bool = True):
        self.field = field
        if normalize:
            coeffs = [field.coerce(c) for c in coeffs]
            while coeffs and field.is_zero(coeffs[-1]):
                coeffs.pop()
        self.coeffs = tuple(coeffs)

    # --- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, (), normalize=False)

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,), normalize=False)

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one), normalize=False)

    @classmethod
    def x_minus(cls, field, a):
        """The monic linear polynomial x - a."""
        return cls(field, (field.neg(field.coerce(a)), field.one))

    @classmethod
    def parse(cls, field, text: str) -> "Poly":
        """Parse text like ``"x^4 - 3*x + 1/2"``."""
        s = text.replace(" ", "").replace("-", "+-")
        coeffs: dict[int, object] = {}
        for term in s.split("+"):
            if not term:
                continue
            if "x" in term:
                head, _, tail = term.partition("x")
                exp = int(tail[1:]) if tail.startswith("^") else 1
                head = head.rstrip("*")
                if head in ("", "-"):
                    head += "1"
                c = field.parse(head)
            else:
                exp, c = 0, field.parse(term)
            coeffs[exp] = field.add(coeffs.get(exp, field.zero), c)
        if not coeffs:
            return cls.zero(field)
        out = [field.zero] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c
        return cls(field, out)

    # --- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    @property
    def lc(self):
        """Leading coefficient (of the zero polynomial: 0)."""
        return self.coeffs[-1] if self.coeffs else self.field.zero

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs)

    # --- arithmetic -----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {other!r}")
        self.field.require_same(other.field)

    def _add_scaled(self, c, other):
        """self + c*other for a nonzero scalar c."""
        self._check(other)
        F = self.field
        if not other.coeffs:
            return self
        return Poly(F, _axpy(self.coeffs, (F.coerce(c),), other.coeffs, F.p,
                             F.zero), normalize=False)

    def __add__(self, other):
        return self._add_scaled(1, other)

    def __sub__(self, other):
        return self._add_scaled(-1, other)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(F)
        return Poly(F, _axpy((), self.coeffs, other.coeffs, F.p, F.zero),
                    normalize=False)

    def scale(self, c) -> "Poly":
        F = self.field
        c = F.coerce(c)
        if F.is_zero(c):
            return Poly.zero(F)
        return Poly(F, _scale(self.coeffs, c, F.p), normalize=False)

    def __divmod__(self, other):
        self._check(other)
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _divmod(self.coeffs, other.coeffs, F.p, F.zero)
        return Poly(F, quo, normalize=False), Poly(F, rem, normalize=False)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, a):
        """Evaluate at a scalar (Horner)."""
        F = self.field
        a = F.coerce(a)
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.lc))

    def derivative(self) -> "Poly":
        return Poly(self.field,
                    [i * c for i, c in enumerate(self.coeffs[1:], 1)])

    # --- text form --------------------------------------------------------

    def to_str(self) -> str:
        if self.is_zero():
            return "0"
        F = self.field
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if F.is_zero(c):
                continue
            s = F.to_str(c)
            neg = s.startswith("-")
            if neg:
                s = s[1:]
            if i > 0:
                xs = "x" if i == 1 else f"x^{i}"
                s = xs if s == "1" else f"{s}*{xs}"
            if not parts:
                parts.append(("-" if neg else "") + s)
            else:
                parts.append(("- " if neg else "+ ") + s)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self.field!r}, {self.to_str()!r})"


# --- gcd machinery -------------------------------------------------------

def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) = monic(f)."""
    if f.field != g.field:
        raise MixedFields("gcd of polynomials over different fields")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base**e reduced mod the given polynomial."""
    out = Poly.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            out = out * base % mod
        base = base * base % mod
        e >>= 1
    return out


# --- factorization -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Factorization:
    """unit * prod(p_i ** e_i) reconstructs the input exactly."""

    unit: object
    factors: tuple  # ((monic irreducible Poly, exponent), ...)
    field: Field

    def product(self) -> Poly:
        out = Poly.constant(self.field, self.unit)
        for p, e in self.factors:
            out = out * p ** e
        return out

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def factor(f: Poly,
           degree_limit: int = DEFAULT_DEGREE_LIMIT) -> Factorization:
    """Complete factorization into monic irreducibles over f's field.

    Over Q the degree of each Yun squarefree part is capped (DegreeLimit),
    so a repeated factor counts once.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    # equal-degree splitting is Las Vegas: the generator changes only the
    # path, and the sorted factorization is unique
    rng = random.Random(0)
    if isinstance(f.field, PrimeField):
        pairs = _factor_fp(f.monic(), rng)
    else:
        pairs = _factor_q(f.monic(), rng, degree_limit)
    pairs.sort(key=lambda t: t[0].sort_key())
    fac = Factorization(f.lc, tuple(pairs), f.field)
    if fac.product() != f:
        raise AssertionError("factorization failed to reconstruct input")
    return fac


# --- factorization over F_p ----------------------------------------------

def _pth_root_fp(f: Poly) -> Poly:
    # f = g(x^p); on the prime field a^(1/p) = a, so just pick the
    # coefficients at indices divisible by p
    return Poly(f.field, f.coeffs[::f.field.p])


def _squarefree(f: Poly):
    """Yun's algorithm: monic f -> list of (monic squarefree,
    multiplicity), over Q and over F_p (where f' = 0 means f = g(x^p))."""
    p = f.field.characteristic
    out = []
    d = f.derivative()
    if d.is_zero():
        if f.degree < 1:
            return out
        for g, m in _squarefree(_pth_root_fp(f)):
            out.append((g, m * p))
        return out
    c = poly_gcd(f, d)
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for g, m in _squarefree(_pth_root_fp(c)):
            out.append((g, m * p))
    return out


def _distinct_degree_fp(g: Poly):
    """Squarefree monic g -> list of (product of degree-d irreducibles, d)."""
    F = g.field
    out = []
    h = Poly.x(F) % g
    cur = g
    d = 0
    while cur.degree > 2 * (d + 1) - 1:
        d += 1
        h = pow_mod(h, F.p, cur)
        fac = poly_gcd(h - Poly.x(F), cur)
        if fac.degree > 0:
            out.append((fac, d))
            cur = cur // fac
            h = h % cur
    if cur.degree > 0:
        out.append((cur, cur.degree))
    return out


def _random_poly(field, degree: int, rng) -> Poly:
    return Poly(field, [rng.randrange(field.p) for _ in range(degree + 1)])


def _equal_degree_fp(h: Poly, d: int, rng):
    """Split a product of distinct degree-d irreducibles (Cantor-Zassenhaus)."""
    F = h.field
    if h.degree == d:
        return [h]
    p = F.p
    while True:
        a = _random_poly(F, h.degree - 1, rng)
        if a.degree < 1:
            continue
        g = poly_gcd(a, h)
        if 0 < g.degree < h.degree:
            break
        if p == 2:
            # additive trace map replaces the power trick in char 2
            b = a
            t = a
            for _ in range(d - 1):
                t = t * t % h
                b = (b + t) % h
        else:
            b = pow_mod(a, (p ** d - 1) // 2, h) - Poly.one(F)
        g = poly_gcd(b, h)
        if 0 < g.degree < h.degree:
            break
    return _equal_degree_fp(g, d, rng) + _equal_degree_fp(h // g, d, rng)


def _factor_fp(f: Poly, rng):
    out = []
    for g, mult in _squarefree(f):
        for irr in _equal_degree_all(g, rng):
            out.append((irr.monic(), mult))
    return out


# --- factorization over Q (integer coefficients, Hensel + recombination) --

def _zdeg(a):
    return len(a) - 1


def _zdiv_exact(a, b):
    """Exact division of integer polynomials, or None."""
    if len(a) < len(b):
        return None
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        if rem[i + _zdeg(b)] % b[-1] != 0:
            return None
        c = rem[i + _zdeg(b)] // b[-1]
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    if any(rem):
        return None
    return quo


def _zprimitive(a):
    cont = math.gcd(*a)
    if a[-1] < 0:
        cont = -cont
    return [c // cont for c in a]


def _sym_mod(c, q):
    c %= q
    return c - q if c > q // 2 else c


def _zassenhaus(zc, rng):
    """Factor a primitive squarefree integer polynomial, nonzero at 0.

    Returns a list of primitive integer factors with positive leading
    coefficient.
    """
    n = _zdeg(zc)
    if n == 1:
        return [zc]
    lead = zc[-1]
    # good prime: odd, not dividing the leading coefficient, reduction
    # squarefree
    p = 3
    while True:
        if lead % p != 0:
            Fp = PrimeField(p)
            fp = Poly(Fp, zc)
            if fp.degree == n and poly_gcd(fp, fp.derivative()).is_one():
                break
        p += 2
        while not is_prime(p):
            p += 2
    modular = [g.monic() for g in _equal_degree_all(Poly(Fp, zc).monic(), rng)]
    if len(modular) == 1:
        return [zc]
    # coefficient bound (Mignotte-style, generous) and lifting target
    norm = math.isqrt(sum(c * c for c in zc)) + 1
    bound = 2 ** (n + 1) * norm * abs(lead)
    a = 1
    while p ** a < 2 * bound + 1:
        a += 1
    lifted = _hensel_lift(zc, modular, p, a)
    return _recombine(zc, lifted, p ** a)


def _equal_degree_all(fp: Poly, rng):
    out = []
    for prod_d, d in _distinct_degree_fp(fp):
        out.extend(_equal_degree_fp(prod_d, d, rng))
    return out


def _hensel_lift(zc, modular, p, a):
    """Lift F = lc * prod(g_i) from mod p to mod p^a, linearly.

    The g_i stay monic integer polynomials; one correction per step with
    the precomputed partial-product inverses, each u^(p^deg g_i - 2) in the
    field F_p[x]/(g_i) of p^deg g_i elements (g_i is irreducible mod p).
    """
    Fp = PrimeField(p)
    lifted = [[int(c) for c in g.coeffs] for g in modular]
    gs = [Poly(Fp, g) for g in lifted]
    taus = []
    for i, g in enumerate(gs):
        u = Poly.one(Fp)
        for j, h in enumerate(gs):
            if j != i:
                u = u * h % g
        taus.append(pow_mod(u, p ** g.degree - 2, g))
    linv = pow(zc[-1] % p, p - 2, p)
    q = p
    for _ in range(a - 1):
        prod = [zc[-1]]
        for g in lifted:
            prod = _axpy((), prod, g, None, 0)
        err = [x - y for x, y in zip(zc, prod)]
        if any(c % q for c in err):
            raise AssertionError("Hensel lift error not divisible by q")
        e = Poly(Fp, [c // q for c in err])
        for i, g in enumerate(lifted):
            gi = Poly(Fp, g)
            delta = e.scale(linv) * taus[i] % gi
            for k in range(len(delta.coeffs)):
                g[k] = (g[k] + q * delta.coeffs[k]) % (q * p)
        q *= p
    return lifted


def _recombine(zc, lifted, q):
    """Zassenhaus subset search over the lifted modular factors."""
    out = []
    rem = list(zc)
    idx = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(idx):
        found = False
        for subset in itertools.combinations(idx, s):
            lead = rem[-1]
            # cheap prune: the candidate constant term must divide
            # lead * rem(0)
            if rem[0] != 0:
                c0 = lead
                for i in subset:
                    c0 = c0 * lifted[i][0] % q
                c0 = _sym_mod(c0, q)
                if c0 == 0 or (lead * rem[0]) % c0 != 0:
                    continue
            cand = [lead]
            for i in subset:
                cand = [c % q for c in _axpy((), cand, lifted[i], None, 0)]
            cand = _zprimitive([_sym_mod(c, q) for c in cand])
            quo = _zdiv_exact(rem, cand)
            if quo is not None:
                out.append(cand)
                rem = quo
                idx = [i for i in idx if i not in subset]
                found = True
                break
        if not found:
            s += 1
    if _zdeg(rem) > 0:
        out.append(_zprimitive(rem))
    return out


def _factor_q(f: Poly, rng, degree_limit):
    out = []
    # strip powers of x first
    val = 0
    while f.degree >= 1 and f.field.is_zero(f.constant_term()):
        f = Poly(f.field, f.coeffs[1:], normalize=False)
        val += 1
    if val:
        out.append((Poly.x(f.field), val))
    for g, mult in _squarefree(f):
        if g.degree > degree_limit:
            raise DegreeLimit(f"degree {g.degree} exceeds factorization "
                              f"bound {degree_limit}")
        den = math.lcm(*(c.denominator for c in g.coeffs))
        zc = _zprimitive([int(c * den) for c in g.coeffs])
        for zfac in _zassenhaus(zc, rng):
            out.append((Poly(QQ, zfac).monic(), mult))
    return out


# --- duality operators -----------------------------------------------------

def dual_poly(f: Poly) -> Poly:
    """Monic dual f*(x) = f(0)^-1 x^d f(1/x); roots become inverses."""
    if not f.is_monic():
        raise ValueError("dual is defined for monic polynomials")
    c0 = f.constant_term()
    if f.field.is_zero(c0):
        raise ZeroConstantTerm("dual undefined: constant term is zero")
    return Poly(f.field, f.coeffs[::-1], normalize=False).scale(
        f.field.inv(c0))


def additive_dual_poly(f: Poly) -> Poly:
    """Monic additive dual f-(x) = (-1)^d f(-x); roots become negatives."""
    if not f.is_monic():
        raise ValueError("additive dual is defined for monic polynomials")
    F = f.field
    d = f.degree
    out = [c if (d - i) % 2 == 0 else F.neg(c) for i, c in enumerate(f.coeffs)]
    return Poly(F, out)


def is_self_dual(f: Poly) -> bool:
    return f == dual_poly(f)


def substitute_x_plus_inverse(p: Poly) -> Poly:
    """For self-dual monic p of degree 2m return q with x^-m p(x) = q(x + 1/x).

    Uses the recurrence x^j + x^-j = y (x^(j-1) + x^(1-j)) - (x^(j-2) + x^(2-j))
    so no Laurent algebra is needed.  q is irreducible whenever p is.
    """
    if p.degree % 2 != 0 or p.degree < 2:
        raise OddDegree(f"degree {p.degree} is not even and positive")
    if not (p.is_monic() and is_self_dual(p)):
        raise NotSelfDual(f"{p.to_str()} is not monic self-dual")
    F = p.field
    m = p.degree // 2
    two = F.add(F.one, F.one)
    s_prev = Poly.constant(F, two)       # x^0 + x^0
    s_cur = Poly.x(F)                    # x + 1/x
    q = Poly.constant(F, p.coeff(m))
    for j in range(1, m + 1):
        q = q + s_cur.scale(p.coeff(m + j))
        s_prev, s_cur = s_cur, Poly.x(F) * s_cur - s_prev
    return q


def substitute_x_squared(p: Poly) -> Poly:
    """For an even polynomial p return q with p(x) = q(x^2)."""
    F = p.field
    if any(not F.is_zero(c) for c in p.coeffs[1::2]):
        raise NotEvenPolynomial(f"{p.to_str()} has odd-degree terms")
    return Poly(F, p.coeffs[::2])
