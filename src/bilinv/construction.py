"""Explicit Gram-matrix witnesses, block by block.

The construction follows the indecomposable decomposition of the map,
read from the same `ModuleStructure` the decision used, and the
duality rule of its setting (`canonical.DUALITY`).  A cyclic summand
with divisor f = p^k is the ring F[x]/(f) in its power basis, x^i <->
T^i v.  One functional builds every block: lambda0, the coefficient of
x^(N-1) (N = deg f), which is nonzero on the simple socle of F[x]/(f).
With sigma the involution x -> 1/x (invariant setting) or x -> -x
(infinitesimal setting):

  * a self-dual p^k, including the special factors x -+ 1 and x with
    the natural exponent parity: B(a, b) = lambda_j(a sigma(b)), where
    lambda_j is lambda0(x^j .) made eps-hermitian, for the first j < N
    that makes B non-degenerate (routes "unipotent-block",
    "nilpotent-block" and "trace-form");
  * a divisor and its dual partner, or two equal copies of a special
    factor with the other parity: the two-block hyperbolic Gram whose
    cross block is lambda0(a iota(b)) on the two power bases, iota the
    ring isomorphism x -> 1/x (or x -> -x) from the partner's ring
    (routes "hyperbolic-pair" and "standard-pair").

Each block has the requested symmetry as built: nothing is searched for,
solved for or converted.  The assembled global Gram is verified by the
independent checker before a certificate is issued.
"""

from functools import reduce

from .canonical import (DUALITY, IndecomposableSummand, krylov_basis,
                        natural_parity_ok)
from .certificates import (INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC,
                           FormCertificate, make_certificate, symmetry_of,
                           verify_gram)
from .decision import decide_form
from .errors import (DecisionFalse, EigenvalueObstruction, NotDualPair,
                     NotSelfDual, ParityViolation, Singular,
                     SmallCharacteristic, UnverifiedForm)
from .fields import Field
from .linalg import Matrix
from .poly import DEFAULT_DEGREE_LIMIT, Poly


# --- the socle functional --------------------------------------------------------

def _socle_values(f: Poly, setting: str) -> dict:
    """s(e) = lambda0(x^e), the x^(N-1) coefficient of x^e mod f with
    N = deg f, for e from -(N-1) (invariant) or 0 (infinitesimal) to
    3N-3: the recurrence sum_t f_t s(e + t) = 0 from s(0..N-1) = 0, ...,
    0, 1.  Stepping down divides by f(0), nonzero for an invertible map."""
    F = f.field
    c = f.coeffs
    N = f.degree
    s = {e: F.zero for e in range(N - 1)}
    s[N - 1] = F.one
    for e in range(N, 3 * N - 2):
        s[e] = F.neg(F.dot(c[:N], [s[e - N + t] for t in range(N)]))
    if setting == INVARIANT:
        inv0 = F.inv(c[0])
        for e in range(-1, -N, -1):
            s[e] = F.neg(F.mul(inv0, F.dot(c[1:], [s[e + t]
                                                   for t in range(1, N + 1)])))
    return s


def _sigma(F: Field, setting: str, m: int):
    """The involution x -> 1/x (invariant) or x -> -x (infinitesimal) on
    x^m, as (c, e) with sigma(x^m) = c x^e."""
    if setting == INVARIANT:
        return F.one, -m
    return (F.one if m % 2 == 0 else F.neg(F.one)), m


def _functional_gram(F: Field, setting: str, N: int, lam) -> Matrix:
    """The Gram [lam(x^i sigma(x^j))] for i, j < N of a functional lam
    given on the powers x^m."""
    sig = [_sigma(F, setting, j) for j in range(N)]
    return Matrix(F, [[F.mul(c, lam(i + e)) for c, e in sig]
                      for i in range(N)], coerce=False)


def self_dual_block_form(p: Poly, d: int, symmetry: str,
                         setting: str = INVARIANT) -> Matrix:
    """Witness of the requested symmetry on F[x]/(p^d) for a self-dual
    (additively self-dual, infinitesimally) irreducible p, as a Gram in
    the power basis x^i: the standard basis of the companion of p^d.

    B(a, b) = lambda_k(a sigma(b)) for the first k < N = deg p^d whose
    Gram is non-degenerate, lambda_k being lambda0(x^k .) made
    eps-hermitian, eps = 1 (symmetric) or -1 (skew).  As sigma is an
    involutive ring automorphism, the Gram is H + eps H^t with
    H = [lambda0(x^(k+i) sigma(x^j))], or H itself when H = eps H^t
    already (needed in characteristic 2, where H + H^t = 0).  Each
    lambda_k has lambda_k o sigma = eps lambda_k, so B is invariant and
    eps-symmetric as built, and the lambda_k span every such functional:
    when no k works (for x -+ 1 or x: the wrong exponent parity), no
    form of this symmetry exists on the block (UnverifiedForm).
    """
    F = p.field
    if not DUALITY[setting].is_self_dual(p):
        raise NotSelfDual(f"{p.to_str()} is not self-dual in the {setting} "
                          f"setting")
    f = p ** d
    N = f.degree
    if not F.char_exceeds(N):
        raise SmallCharacteristic(
            f"need characteristic 0 or > {N}, have {F.characteristic}")
    s = _socle_values(f, setting)
    eps = F.one if symmetry == SYMMETRIC else F.neg(F.one)
    for k in range(N):
        G = _functional_gram(F, setting, N, lambda m: s[k + m])
        flipped = G.transpose().scale(eps)
        if G != flipped:
            G = G + flipped
        if not F.is_zero(G.det()):
            return G
    raise UnverifiedForm(f"no non-degenerate {symmetry} form on "
                         f"({p.to_str()})^{d}")


def unipotent_block_form(field: Field, k: int, symmetry: str,
                         lam: int = 1) -> Matrix:
    """Gram K with U^t K U = K for the lower unit bidiagonal unipotent U
    of size k, the chain-basis shape of a (x - lam)^k block: the
    `self_dual_block_form` of (x - 1)^k moved from the power basis to the
    chain basis (C - I)^i e_0, C the companion of (x - 1)^k, on which C
    acts as U.  Symmetric needs k odd, skew k even.  -U has the same
    invariant forms, so lam only names the factor in the parity error.
    """
    if lam not in (1, -1):
        raise ValueError("lam must be +1 or -1")
    if not natural_parity_ok(k, symmetry):
        raise ParityViolation(
            f"no non-degenerate {symmetry} form on an indecomposable "
            f"(x {'-' if lam == 1 else '+'} 1)^{k} block")
    p = Poly.parse(field, "x - 1")
    eye = Matrix.identity(field, k)
    P = krylov_basis(Matrix.companion(p ** k) - eye, eye.col(0), k)
    return P.transpose() * self_dual_block_form(p, k, symmetry) * P


# --- symmetry converter --------------------------------------------------------

def convert_symmetry(M: Matrix, B: Matrix,
                     setting: str = INVARIANT) -> Matrix:
    """Turn a symmetric witness into a skew one or back.

    Invariant setting: B'(u, v) = B((T - T^-1) u, v), defined when T has
    no eigenvalue 1 or -1.  Infinitesimal setting: B'(u, v) = B(S u, v),
    defined when S is invertible.  The output Gram has the opposite
    symmetry and stays invariant and non-degenerate.
    """
    F = M.field
    if setting == INVARIANT:
        if F.is_zero(M.det()):
            raise Singular("converter needs an invertible map")
        W = M - M.inverse()
        if F.is_zero(W.det()):
            raise EigenvalueObstruction(
                "converter undefined: 1 or -1 is an eigenvalue")
        return W.transpose() * B
    if F.is_zero(M.det()):
        raise EigenvalueObstruction(
            "infinitesimal converter undefined: 0 is an eigenvalue")
    return M.transpose() * B


def skew_symmetric_converter(M: Matrix, B: Matrix,
                             setting: str = INVARIANT) -> FormCertificate:
    """Public converter: checks the input witness, emits a verified
    certificate of the opposite symmetry."""
    src = symmetry_of(B)
    if src is None:
        raise UnverifiedForm("input Gram is neither symmetric nor skew")
    checks = verify_gram(M, B, src, setting)
    if not all(checks.values()):
        raise UnverifiedForm(f"input witness fails checks: {checks}")
    out = convert_symmetry(M, B, setting)
    target = SKEW if src == SYMMETRIC else SYMMETRIC
    return make_certificate(M, out, target, setting,
                            [f"converter:{src}->{target}"])


# --- pairing of dual partners ---------------------------------------------------

def hyperbolic_pairing(M: Matrix, a: IndecomposableSummand,
                       b: IndecomposableSummand, symmetry: str,
                       setting: str = INVARIANT):
    """Standard two-block Gram on the span of two dual (or equal-copy)
    summands: zero on each summand, non-degenerate across.

    With f = p^k the divisor of a and the partner's ring identified with
    F[x]/(f) by iota: x -> 1/x (or x -> -x), the cross block on the power
    bases is X_ij = lambda0(x^i iota(x^j)).  It is invertible because
    lambda0 is nonzero on the simple socle of F[x]/(f).

    Returns (columns, gram) with columns = [basis_a | basis_b].
    """
    F = M.field
    if b.k != a.k or b.p != DUALITY[setting].dual(a.p):
        raise NotDualPair(f"({b.p.to_str()})^{b.k} is not the dual partner "
                          f"of ({a.p.to_str()})^{a.k}")
    N = a.dim
    s = _socle_values(a.p ** a.k, setting)
    X = _functional_gram(F, setting, N, s.__getitem__)
    sgn = F.one if symmetry == SYMMETRIC else F.neg(F.one)
    zeros = [F.zero] * N
    rows = ([zeros + list(row) for row in X.rows]
            + [[F.mul(sgn, x) for x in col] + zeros for col in X.cols()])
    return a.basis.hstack(b.basis), Matrix(F, rows, coerce=False)


# --- assembly over the full decomposition -----------------------------------------

def assemble_witness(structure, symmetry: str, rule) -> FormCertificate:
    """Verified witness on V = sum of structure.summands, block by block
    as the duality rule dictates (see the module docstring)."""
    M = structure.T
    F = M.field
    setting = rule.setting
    groups: dict = {}
    for s in structure.summands:
        groups.setdefault(s.divisor_key(), []).append(s)
    blocks = []
    provenance = []
    consumed = set()
    for key in groups:
        if key in consumed:
            continue
        consumed.add(key)
        copies = groups[key]
        p, k = copies[0].p, copies[0].k
        label = f"({p.to_str()})^{k}" if k > 1 else f"({p.to_str()})"
        special = rule.special_factor(p)
        if (natural_parity_ok(k, symmetry) if special is not None
                else rule.is_self_dual(p)):
            gram = self_dual_block_form(p, k, symmetry, setting)
            route = ("trace-form" if special is None
                     else "unipotent-block" if setting == INVARIANT
                     else "nilpotent-block")
            for s in copies:
                blocks.append((s.basis, gram))
                provenance.append(f"{label}#{s.copy_index}:{route}")
            continue
        if special is not None:
            assert len(copies) % 2 == 0, \
                "odd multiplicity survived a positive decision"
            pairs = zip(copies[0::2], copies[1::2])
            link, route = "+#", "standard-pair"
        else:
            partner_key = (rule.dual(p).coeffs, k)
            partner = groups.get(partner_key)
            if partner is None or len(partner) != len(copies):
                raise NotDualPair(f"divisor {label} lacks a dual partner at "
                                  f"equal multiplicity")
            consumed.add(partner_key)
            pairs = zip(copies, partner)
            link, route = "<->dual#", "hyperbolic-pair"
        for a, b in pairs:
            blocks.append(hyperbolic_pairing(M, a, b, symmetry, setting))
            provenance.append(
                f"{label}#{a.copy_index}{link}{b.copy_index}:{route}")
    C = reduce(Matrix.hstack, [cols for cols, _ in blocks])
    B_union = Matrix.block_diagonal(F, [gram for _, gram in blocks])
    Cinv = C.inverse()
    B = _share_transpose(Cinv.transpose() * B_union * Cinv, symmetry)
    return make_certificate(M, B, symmetry, setting, provenance)


def _share_transpose(B: Matrix, symmetry: str) -> Matrix:
    """B with each entry below the diagonal replaced by the entry above it
    (symmetric) or by its negative (skew), wherever the computed entries
    already agree: the Gram keeps one copy of each large rational, and
    the verifier still sees any asymmetry the products left."""
    F = B.field
    rows = [list(r) for r in B.rows]
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            x = row[j] if symmetry == SYMMETRIC else F.neg(row[j])
            if rows[j][i] == x:
                rows[j][i] = x
    return Matrix(F, rows, coerce=False)


def _construct(M: Matrix, symmetry: str, setting: str, seed: int,
               degree_limit: int) -> FormCertificate:
    report = decide_form(M, symmetry, setting, construct=True, seed=seed,
                         degree_limit=degree_limit)
    if not report.exists:
        kinds = sorted({o.kind for o in report.obstructions})
        raise DecisionFalse(f"no {symmetry} {setting} form exists: {kinds}")
    return report.witness


def construct_invariant_form(T: Matrix, symmetry: str, seed: int = 0,
                             degree_limit: int = DEFAULT_DEGREE_LIMIT
                             ) -> FormCertificate:
    """Assemble and verify a T-invariant non-degenerate witness of the
    requested symmetry; DecisionFalse when none exists.  This is
    decide_invariant_form(..., construct=True) with the same seed and
    degree_limit, returning the witness."""
    return _construct(T, symmetry, INVARIANT, seed, degree_limit)


def construct_infinitesimal_form(S: Matrix, symmetry: str, seed: int = 0,
                                 degree_limit: int = DEFAULT_DEGREE_LIMIT
                                 ) -> FormCertificate:
    """Same as construct_invariant_form, for S^t B + B S = 0."""
    return _construct(S, symmetry, INFINITESIMAL, seed, degree_limit)
