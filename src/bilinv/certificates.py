"""Form certificates and their independent verifier.

A certificate packages a Gram matrix with the map it belongs to and the
three checks that make it a witness: invariance (T^t B T = B, or
S^t B + B S = 0 infinitesimally), the symmetry type, and
non-degeneracy.  The checks here are recomputed from scratch with the
verifier's own loops on purpose: the verifier shares nothing with the
constructors except the scalar field primitives, so a bug in the
construction pipeline cannot vouch for itself.

The invariance and non-degeneracy checks run on integer rows.  The map
is written M = A/d and the Gram B = C/e, each with integer rows over one
denominator for the whole matrix (``Field.clear``; over F_p the
residues, d = e = 1).  Invariance is then A^t C A = d^2 C, or
A^t C + C A = 0 infinitesimally, over Z, with each row-by-column
product reduced mod p over F_p.  Over F_p non-degeneracy is an
elimination mod p on the residues.  Over Q it is an elimination of C mod
the prime q = 2^61 - 1 first: a non-zero residue of det C proves B
non-degenerate; only when the residue is 0 does fraction-free Bareiss
elimination on C (Cohen, *A Course in Computational Algebraic Number
Theory*, Alg. 2.2.6) decide exactly.  No answer rests on chance.

A certificate with a failing check cannot be built; make_certificate
raises instead.
"""

import math
from dataclasses import dataclass
from operator import mul

from .errors import NotSquare, UnverifiedForm
from .linalg import Matrix

SYMMETRIC = "symmetric"
SKEW = "skew"
INVARIANT = "invariant"
INFINITESIMAL = "infinitesimal"

SYMMETRIES = (SYMMETRIC, SKEW)
SETTINGS = (INVARIANT, INFINITESIMAL)

# det C mod this prime is the first non-degeneracy test over Q
FILTER_PRIME = 2 ** 61 - 1


def _integer_rows(M: Matrix):
    """(rows, d): M = rows / d with integer rows over one denominator d
    for the whole matrix."""
    cleared = [M.field.clear(row) for row in M.rows]
    d = math.lcm(*[e for _, e in cleared])
    return [row if e == d else [x * (d // e) for x in row]
            for row, e in cleared], d


def _product(X, cols, p):
    """X times the matrix with columns cols, reduced mod p unless p is
    None."""
    if p is None:
        return [[sum(map(mul, row, col)) for col in cols] for row in X]
    return [[sum(map(mul, row, col)) % p for col in cols] for row in X]


def check_invariance(M: Matrix, B: Matrix, setting: str) -> bool:
    p = M.field.p
    A, d = _integer_rows(M)
    C, _ = _integer_rows(B)
    At = list(zip(*A))              # the rows of A^t are the columns of A
    AtC = _product(At, list(zip(*C)), p)
    if setting == INVARIANT:
        dd = d * d
        return all(x == dd * y
                   for lhs, row in zip(_product(AtC, At, p), C)
                   for x, y in zip(lhs, row))
    sums = [x + y for lhs, rhs in zip(AtC, _product(C, At, p))
            for x, y in zip(lhs, rhs)]
    return not any(sums) if p is None else not any(s % p for s in sums)


def check_symmetry(B: Matrix, symmetry: str) -> bool:
    if not B.is_square:
        return False
    F = B.field
    n = B.nrows
    if symmetry == SYMMETRIC:
        return all(B.rows[i][j] == B.rows[j][i]
                   for i in range(n) for j in range(i, n))
    return all(F.is_zero(F.add(B.rows[i][j], B.rows[j][i]))
               for i in range(n) for j in range(i, n))


def _nonsingular_mod(rows, p) -> bool:
    """Whether the square matrix of residues rows is invertible mod p."""
    rows = [list(row) for row in rows]
    n = len(rows)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        tail = rows[c][c:]
        inv = pow(tail[0], -1, p)
        for i in range(c + 1, n):
            f = rows[i][c]
            if f:
                f = f * inv % p
                rows[i][c:] = [(x - f * y) % p
                               for x, y in zip(rows[i][c:], tail)]
    return True


def _nonsingular_bareiss(rows) -> bool:
    """Whether the square integer matrix rows has det != 0, by
    fraction-free Bareiss elimination: after step c each entry is a
    minor of the row-permuted input, so every division is exact."""
    rows = [list(row) for row in rows]
    n = len(rows)
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        tail = rows[c][c:]
        a = tail[0]
        for i in range(c + 1, n):
            f = rows[i][c]
            rows[i][c:] = [(a * x - f * y) // prev
                           for x, y in zip(rows[i][c:], tail)]
        prev = a
    return True


def check_nondegenerate(B: Matrix) -> bool:
    # own elimination, deliberately not the library determinant
    p = B.field.p
    C, _ = _integer_rows(B)
    if p is not None:
        return _nonsingular_mod(C, p)
    if _nonsingular_mod([[x % FILTER_PRIME for x in row] for row in C],
                        FILTER_PRIME):
        return True
    return _nonsingular_bareiss(C)


def require_kind(symmetry: str, setting: str) -> None:
    """ValueError unless symmetry is one of SYMMETRIES and setting one of
    SETTINGS."""
    if symmetry not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}")


def _require_pair(M: Matrix, B: Matrix) -> None:
    """MixedFields or NotSquare unless M and B are n x n over one
    field."""
    M.field.require_same(B.field)
    if not (M.is_square and B.nrows == B.ncols == M.nrows):
        raise NotSquare("map and Gram matrix are not both n x n")


def verify_gram(M: Matrix, B: Matrix, symmetry: str, setting: str) -> dict:
    """The three certificate checks, recomputed from scratch."""
    require_kind(symmetry, setting)
    _require_pair(M, B)
    return {
        "invariance": check_invariance(M, B, setting),
        "symmetry_ok": check_symmetry(B, symmetry),
        "nondegenerate": check_nondegenerate(B),
    }


def symmetry_of(B: Matrix):
    """Detect the symmetry type of a Gram matrix, or None for neither."""
    if check_symmetry(B, SYMMETRIC):
        return SYMMETRIC
    if check_symmetry(B, SKEW):
        return SKEW
    return None


def verified_symmetry(M: Matrix, B: Matrix, setting: str) -> str:
    """The symmetry of a Gram given from outside, once it verifies as a
    non-degenerate form of that symmetry for M; UnverifiedForm if not,
    NotSquare first if M and B are not both n x n."""
    _require_pair(M, B)
    symmetry = symmetry_of(B)
    if symmetry is None:
        raise UnverifiedForm("Gram matrix is neither symmetric nor skew")
    checks = verify_gram(M, B, symmetry, setting)
    if not all(checks.values()):
        failed = [k for k, v in checks.items() if not v]
        raise UnverifiedForm(f"form fails checks: {failed}")
    return symmetry


@dataclass(slots=True)
class FormCertificate:
    """A verified Gram witness for a map; unconstructible unless all
    three checks pass."""

    gram: Matrix
    symmetry: str
    setting: str
    checks: dict
    provenance: list   # one entry per assembled block

    def to_json(self) -> dict:
        return {
            "gram": self.gram.to_str_rows(),
            "symmetry": self.symmetry,
            "setting": self.setting,
            "checks": dict(self.checks),
            "provenance": list(self.provenance),
        }


def make_certificate(M: Matrix, B: Matrix, symmetry: str, setting: str,
                     provenance=None) -> FormCertificate:
    checks = verify_gram(M, B, symmetry, setting)
    if not all(checks.values()):
        failed = [k for k, v in checks.items() if not v]
        raise UnverifiedForm(f"certificate checks failed: {failed}")
    return FormCertificate(B, symmetry, setting, checks,
                           list(provenance or []))
