"""Form certificates and their independent verifier.

A certificate packages a Gram matrix with the map it belongs to and the
three checks that make it a witness: invariance (T^t B T = B, or
S^t B + B S = 0 infinitesimally), the symmetry type, and
non-degeneracy.  The checks here are recomputed from scratch with local
row-list arithmetic on purpose: the verifier shares nothing with the
constructors except the scalar field primitives, so a bug in the
construction pipeline cannot vouch for itself.

A certificate with a failing check cannot be built; make_certificate
raises instead.
"""

from dataclasses import dataclass

from .errors import NotSquare, UnverifiedForm
from .linalg import Matrix

SYMMETRIC = "symmetric"
SKEW = "skew"
INVARIANT = "invariant"
INFINITESIMAL = "infinitesimal"

SYMMETRIES = (SYMMETRIC, SKEW)
SETTINGS = (INVARIANT, INFINITESIMAL)


def _raw_mul(field, A, B):
    n, m, k = len(A), len(B[0]) if B else 0, len(B)
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = field.zero
            for t in range(k):
                acc = field.add(acc, field.mul(A[i][t], B[t][j]))
            out[i][j] = acc
    return out


def check_invariance(M: Matrix, B: Matrix, setting: str) -> bool:
    F = M.field
    a = [list(r) for r in M.rows]
    b = [list(r) for r in B.rows]
    at = [list(col) for col in zip(*a)]
    n = len(a)
    if setting == INVARIANT:
        lhs = _raw_mul(F, _raw_mul(F, at, b), a)
        return all(lhs[i][j] == b[i][j] for i in range(n) for j in range(n))
    lhs = _raw_mul(F, at, b)
    rhs = _raw_mul(F, b, a)
    return all(F.is_zero(F.add(lhs[i][j], rhs[i][j]))
               for i in range(n) for j in range(n))


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


def check_nondegenerate(B: Matrix) -> bool:
    # own elimination, deliberately not the library determinant
    F = B.field
    rows = [list(r) for r in B.rows]
    n = len(rows)
    for c in range(n):
        piv = next((i for i in range(c, n) if not F.is_zero(rows[i][c])), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = F.inv(rows[c][c])
        for i in range(c + 1, n):
            if not F.is_zero(rows[i][c]):
                f = F.mul(rows[i][c], inv)
                rows[i] = [F.sub(x, F.mul(f, y))
                           for x, y in zip(rows[i], rows[c])]
    return True


def require_kind(symmetry: str, setting: str) -> None:
    """ValueError unless symmetry is one of SYMMETRIES and setting one of
    SETTINGS."""
    if symmetry not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}")


def verify_gram(M: Matrix, B: Matrix, symmetry: str, setting: str) -> dict:
    """The three certificate checks, recomputed from scratch."""
    require_kind(symmetry, setting)
    M.field.require_same(B.field)
    if not (M.is_square and B.nrows == B.ncols == M.nrows):
        raise NotSquare("map and Gram matrix are not both n x n")
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
    non-degenerate form of that symmetry for M; UnverifiedForm if not."""
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
