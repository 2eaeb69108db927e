"""Explicit Gram-matrix witnesses, block by block.

The construction follows the indecomposable decomposition of the map,
read from the same `ModuleStructure` the decision used, and the
duality rule of its setting (`canonical.DUALITY`).
Each summand class has a dedicated block witness:

  * (x -+ 1)^k with the right parity: the anti-triangular unipotent
    block form, pinned to an alternating anti-diagonal;
  * x^k (infinitesimal setting): the alternating anti-diagonal;
  * a self-dual irreducible power p(x)^d: a Kronecker product K (x) b,
    where b is the trace form of the quadratic subring construction on
    F[x]/(p) (verified, with an equation-solving fallback when the
    textbook reading of the trace form degenerates) and K is the scalar
    unipotent (or nilpotent) block pattern of size d;
  * everything else pairs with its dual partner through an invertible
    intertwiner, giving a two-block hyperbolic Gram that vanishes on
    each summand.

Every block is verified exactly right after it is built; any failure
falls back to solving the invariance equations on that block and
searching the solution space for a non-degenerate element.  The
assembled global Gram is verified once more by the independent checker
before a certificate is issued.
"""

from .canonical import (IndecomposableSummand, jordan_chevalley,
                        natural_parity_ok)
from .certificates import (INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC,
                           FormCertificate, make_certificate, symmetry_of,
                           verify_gram)
from .decision import decide_form
from .errors import (DecisionFalse, EigenvalueObstruction, NotDualPair,
                     NotSelfDual, ParityViolation, Singular,
                     SmallCharacteristic, UnverifiedForm)
from .fields import Field
from .linalg import Matrix, kron, restriction
from .oracle import InvariantFormSpace, find_nondegenerate, solve_form_space
from .poly import (DEFAULT_DEGREE_LIMIT, Poly, is_additively_self_dual,
                   is_self_dual, pow_mod, substitute_x_plus_inverse,
                   substitute_x_squared)

FALLBACK_SEED = 0
FALLBACK_TRIALS = 128


# --- scalar block patterns ---------------------------------------------------

def unipotent_block_form(field: Field, k: int, symmetry: str,
                         lam: int = 1) -> Matrix:
    """Anti-triangular K with U^t K U = K for the lower unit bidiagonal
    unipotent U of size k (the chain-basis shape of a (x - lam)^k block).

    The anti-diagonal is pinned to 1, -1, 1, ..., the free corner to 0,
    everything else is forced by the invariance recurrence; the result
    has determinant +-1.  Symmetric needs k odd, skew k even.  The Gram
    is the same for lam = 1 and lam = -1 (signs cancel in pairs), so lam
    only participates in the parity error message.
    """
    if lam not in (1, -1):
        raise ValueError("lam must be +1 or -1")
    if not natural_parity_ok(k, symmetry):
        raise ParityViolation(
            f"no non-degenerate {symmetry} form on an indecomposable "
            f"(x {'-' if lam == 1 else '+'} 1)^{k} block")
    F = field
    nunk = k * k
    rows, rhs = [], []

    def unknown(i, j):
        return i * k + j

    U = [[F.zero] * k for _ in range(k)]
    for i in range(k):
        U[i][i] = F.one
        if i + 1 < k:
            U[i + 1][i] = F.one
    for a in range(k):
        for b in range(k):
            row = [F.zero] * nunk
            for i in (a, a + 1):
                if i >= k or F.is_zero(U[i][a]):
                    continue
                for j in (b, b + 1):
                    if j >= k or F.is_zero(U[j][b]):
                        continue
                    row[unknown(i, j)] = F.add(row[unknown(i, j)],
                                               F.mul(U[i][a], U[j][b]))
            row[unknown(a, b)] = F.sub(row[unknown(a, b)], F.one)
            rows.append(row)
            rhs.append(F.zero)
    sgn = F.one if symmetry == SYMMETRIC else F.neg(F.one)
    for i in range(k):
        for j in range(i, k):
            if i == j and symmetry == SYMMETRIC:
                continue
            row = [F.zero] * nunk
            row[unknown(i, j)] = F.one
            row[unknown(j, i)] = F.sub(row[unknown(j, i)], sgn)
            rows.append(row)
            rhs.append(F.zero)
    for i in range(k):
        row = [F.zero] * nunk
        row[unknown(i, k - 1 - i)] = F.one
        rows.append(row)
        rhs.append(F.one if i % 2 == 0 else F.neg(F.one))
    if k > 1:
        row = [F.zero] * nunk
        row[unknown(0, 0)] = F.one
        rows.append(row)
        rhs.append(F.zero)
    sol = Matrix(F, rows, coerce=False).solve_right(
        Matrix(F, [[c] for c in rhs], coerce=False))
    vec = sol.col(0)
    K = Matrix(F, [[vec[unknown(i, j)] for j in range(k)] for i in range(k)],
               coerce=False)
    Umat = Matrix(F, U, coerce=False)
    assert Umat.transpose() * K * Umat == K
    assert not F.is_zero(K.det())
    return K


def nilpotent_block_form(field: Field, k: int, symmetry: str) -> Matrix:
    """Alternating anti-diagonal K with N^t K + K N = 0 for the lower
    shift N of size k.  Symmetric needs k odd, skew k even."""
    if not natural_parity_ok(k, symmetry):
        raise ParityViolation(
            f"no non-degenerate {symmetry} form on an indecomposable "
            f"nilpotent block of size {k}")
    F = field
    rows = [[F.zero] * k for _ in range(k)]
    for i in range(k):
        rows[i][k - 1 - i] = F.one if i % 2 == 0 else F.neg(F.one)
    return Matrix(F, rows, coerce=False)


# --- quadratic subring trace forms -------------------------------------------

class QuotientRingContext:
    """The ring E = F[x]/(p) for a self-dual irreducible p of degree 2m,
    its involution (x -> 1/x multiplicatively, x -> -x additively), and
    the fixed subring E_1 = F[y]/(q).
    """

    def __init__(self, p: Poly, d: int, additive: bool = False):
        F = p.field
        if p.degree % 2 != 0 or p.degree < 2:
            raise NotSelfDual(f"{p.to_str()} has no quadratic subring split")
        if not F.char_exceeds(p.degree * max(d, 1)):
            raise SmallCharacteristic(
                f"separability needs characteristic 0 or > {p.degree * d}")
        if additive:
            if not is_additively_self_dual(p):
                raise NotSelfDual(f"{p.to_str()} is not additively self-dual")
            self.q = substitute_x_squared(p)
        else:
            if not is_self_dual(p):
                raise NotSelfDual(f"{p.to_str()} is not self-dual")
            self.q = substitute_x_plus_inverse(p)
        self.p = p
        self.d = d
        self.additive = additive
        self.field = F
        m = p.degree // 2
        self.m = m
        if additive:
            sigma_x = Poly(F, (F.zero, F.neg(F.one)))
        else:
            # 1/x in E, from p(x) = 0 and p(0) = 1
            sigma_x = Poly(F, [F.neg(c) for c in p.coeffs[1:]])
        cols = []
        for i in range(p.degree):
            cols.append(pow_mod(sigma_x, i, p))
        self.sigma = Matrix.from_cols(
            F, [tuple(c.coeff(t) for t in range(p.degree)) for c in cols])
        ident = Matrix.identity(F, p.degree)
        assert self.sigma * self.sigma == ident, "involution check failed"
        fixed_dim = p.degree - (self.sigma - ident).rank()
        assert fixed_dim == m, "fixed subring has the wrong dimension"


def _mult_trace(ctx: QuotientRingContext, g: Poly):
    """Trace of multiplication by g on E = F[x]/(p), power basis."""
    F = ctx.field
    deg = ctx.p.degree
    acc = F.zero
    for i in range(deg):
        col = g * Poly(F, (F.zero,) * i + (F.one,)) % ctx.p
        acc = F.add(acc, col.coeff(i))
    return acc


def trace_norm_form(ctx: QuotientRingContext):
    """Gram matrix of B(a, b) = Tr_{E1/F}(n(a,1) n(b,1)) in the power
    basis, where n is the polarized norm form of E over E_1 and
    n(a,1) = (a + sigma(a))/2.

    The matrix is verified against multiplication by x (invariantly or
    infinitesimally, matching the context); when the check fails -- the
    literal reading does degenerate for some inputs -- the block is
    rebuilt by solving the invariance equations and searching the
    solution space, and the route is reported accordingly.
    """
    F = ctx.field
    deg = ctx.p.degree
    half = F.inv(F.add(F.one, F.one))
    sig_cols = ctx.sigma.cols()
    n1 = []
    for i in range(deg):
        vec = [F.zero] * deg
        vec[i] = F.one
        n1.append(Poly(F, [F.mul(half, F.add(a, b))
                           for a, b in zip(vec, sig_cols[i])]))
    rows = [[F.zero] * deg for _ in range(deg)]
    for i in range(deg):
        for j in range(i, deg):
            val = F.mul(half, _mult_trace(ctx, n1[i] * n1[j] % ctx.p))
            rows[i][j] = val
            rows[j][i] = val
    B = Matrix(F, rows, coerce=False)
    C = Matrix.companion(ctx.p)
    setting = INFINITESIMAL if ctx.additive else INVARIANT
    if all(verify_gram(C, B, SYMMETRIC, setting).values()):
        return B, "trace-form"
    B = _oracle_block(C, SYMMETRIC, setting)
    return B, "trace-form-fallback"


def _oracle_block(M: Matrix, symmetry: str, setting: str) -> Matrix:
    space = solve_form_space(M, symmetry, setting)
    B = find_nondegenerate(space, seed=FALLBACK_SEED, trials=FALLBACK_TRIALS)
    if B is None:
        raise UnverifiedForm(
            f"no non-degenerate {symmetry} witness found on a block "
            f"(space dimension {space.dimension})")
    return B


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

def _intertwiner_space(Ta: Matrix, Tb: Matrix, setting: str):
    """Basis of {X : Ta^t X Tb = X} (invariant) or {X : Sa^t X + X Sb = 0}."""
    F = Ta.field
    r = Ta.nrows
    Tat = Ta.transpose()
    basis = []
    images = []
    for i in range(r):
        for j in range(r):
            E = [[F.zero] * r for _ in range(r)]
            E[i][j] = F.one
            Em = Matrix(F, E, coerce=False)
            basis.append(Em)
            if setting == INVARIANT:
                images.append(Tat * Em * Tb - Em)
            else:
                images.append(Tat * Em + Em * Tb)
    eq_rows = [[img.rows[a][b] for img in images]
               for a in range(r) for b in range(r)]
    kernel = Matrix(F, eq_rows, coerce=False).kernel_basis()
    out = []
    for vec in kernel:
        rows = [[vec[i * r + j] for j in range(r)] for i in range(r)]
        out.append(Matrix(F, rows, coerce=False))
    return out


def pairing_block(Ta: Matrix, Tb: Matrix, setting: str = INVARIANT) -> Matrix:
    """An invertible intertwiner realizing the dual pairing of two
    summands (restrictions Ta, Tb of the map); NotDualPair if none."""
    basis = _intertwiner_space(Ta, Tb, setting)
    if basis:
        space = InvariantFormSpace(basis, "pairing", setting)
        X = find_nondegenerate(space, seed=FALLBACK_SEED,
                               trials=FALLBACK_TRIALS)
        if X is not None:
            return X
    raise NotDualPair("no invertible intertwiner: summands are not dual")


def hyperbolic_pairing(M: Matrix, a: IndecomposableSummand,
                       b: IndecomposableSummand, symmetry: str,
                       setting: str = INVARIANT):
    """Standard two-block Gram on the span of two dual (or equal-copy)
    summands: zero on each summand, non-degenerate across.

    Returns (columns, gram) with columns = [basis_a | basis_b].
    """
    F = M.field
    Ta = restriction(M, a.basis)
    Tb = restriction(M, b.basis)
    X = pairing_block(Ta, Tb, setting)
    r = Ta.nrows
    sgn = F.one if symmetry == SYMMETRIC else F.neg(F.one)
    rows = [[F.zero] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        for j in range(r):
            rows[i][r + j] = X.rows[i][j]
            rows[r + j][i] = F.mul(sgn, X.rows[i][j])
    return a.basis.hstack(b.basis), Matrix(F, rows, coerce=False)


# --- self-dual prime-power blocks ------------------------------------------------

def _refined_basis(M: Matrix, summand: IndecomposableSummand, setting: str):
    """Basis N^j Ts^i v of the summand, on which the map splits as
    semisimple block-diagonal times the unit block shift."""
    F = M.field
    Tloc = restriction(M, summand.basis)
    r = Tloc.nrows
    mode = "multiplicative" if setting == INVARIANT else "additive"
    jc = jordan_chevalley(Tloc, mode)
    Ts = jc.semisimple
    if setting == INVARIANT:
        N = jc.unipotent_or_nilpotent - Matrix.identity(F, r)
    else:
        N = jc.unipotent_or_nilpotent
    deg = summand.p.degree
    cols = []
    v = tuple(F.one if t == 0 else F.zero for t in range(r))
    block = [v]
    for _ in range(deg - 1):
        block.append(Ts.apply(block[-1]))
    for _ in range(summand.k):
        cols.extend(block)
        block = [N.apply(u) for u in block]
    C_loc = Matrix.from_cols(F, cols)
    return summand.basis * C_loc


def _self_dual_block(M: Matrix, summand: IndecomposableSummand,
                     symmetry: str, setting: str):
    """Witness on one self-dual p^d summand: columns, Gram, route."""
    F = M.field
    p, d = summand.p, summand.k
    ctx = QuotientRingContext(p, d, additive=(setting == INFINITESIMAL))
    b, route = trace_norm_form(ctx)
    natural = SYMMETRIC if d % 2 == 1 else SKEW
    if setting == INVARIANT:
        K = unipotent_block_form(F, d, natural)
    else:
        K = nilpotent_block_form(F, d, natural)
    cols = _refined_basis(M, summand, setting)
    gram = kron(K, b)
    Tref = restriction(M, cols)
    if not all(verify_gram(Tref, gram, natural, setting).values()):
        # fall back to solving the block outright, in the power basis
        cols = summand.basis
        gram = _oracle_block(restriction(M, cols), natural, setting)
        route = "block-oracle"
    if natural != symmetry:
        Tref = restriction(M, cols)
        gram = convert_symmetry(Tref, gram, setting)
        route += "+converter"
    return cols, gram, route


def self_dual_block_form(p: Poly, d: int, symmetry: str,
                         setting: str = INVARIANT) -> Matrix:
    """Standalone witness on F[x]/(p^d) for self-dual irreducible p,
    expressed in the power basis of the companion block."""
    M = Matrix.companion(p ** d)
    F = p.field
    summand = IndecomposableSummand(
        p, d, 0, Matrix.identity(F, M.nrows),
        tuple(F.one if t == 0 else F.zero for t in range(M.nrows)))
    cols, gram, _ = _self_dual_block(M, summand, symmetry, setting)
    inv = cols.inverse()
    return inv.transpose() * gram * inv


# --- assembly over the full decomposition -----------------------------------------

def assemble_witness(structure, symmetry: str, rule) -> FormCertificate:
    """Verified witness on V = sum of structure.summands, block by block
    as the duality rule dictates (see the module docstring)."""
    M = structure.T
    F = M.field
    setting = rule.setting
    groups: dict = {}
    order = []
    for s in structure.summands:
        key = s.divisor_key()
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(s)
    blocks = []
    provenance = []
    consumed = set()
    for key in order:
        if key in consumed:
            continue
        consumed.add(key)
        copies = groups[key]
        p, k = copies[0].p, copies[0].k
        label = f"({p.to_str()})^{k}" if k > 1 else f"({p.to_str()})"
        special = rule.special_factor(p)
        if special is not None:
            if natural_parity_ok(k, symmetry):
                if setting == INVARIANT:
                    K = unipotent_block_form(F, k, symmetry, lam=special[0])
                    route = "unipotent-block"
                else:
                    K = nilpotent_block_form(F, k, symmetry)
                    route = "nilpotent-block"
                for s in copies:
                    blocks.append((s.basis, K))
                    provenance.append(f"{label}#{s.copy_index}:{route}")
            else:
                assert len(copies) % 2 == 0, \
                    "odd multiplicity survived a positive decision"
                for a, b in zip(copies[0::2], copies[1::2]):
                    cols, gram = hyperbolic_pairing(M, a, b, symmetry, setting)
                    blocks.append((cols, gram))
                    provenance.append(
                        f"{label}#{a.copy_index}+#{b.copy_index}:standard-pair")
            continue
        if rule.is_self_dual(p):
            for s in copies:
                cols, gram, route = _self_dual_block(M, s, symmetry, setting)
                blocks.append((cols, gram))
                provenance.append(f"{label}#{s.copy_index}:{route}")
            continue
        partner_key = (rule.dual(p).coeffs, k)
        partner = groups.get(partner_key)
        if partner is None or len(partner) != len(copies):
            raise NotDualPair(
                f"divisor {label} lacks a dual partner at equal multiplicity")
        consumed.add(partner_key)
        for a, b in zip(copies, partner):
            cols, gram = hyperbolic_pairing(M, a, b, symmetry, setting)
            blocks.append((cols, gram))
            provenance.append(
                f"{label}#{a.copy_index}<->dual#{b.copy_index}:hyperbolic-pair")
    C = blocks[0][0]
    for cols, _ in blocks[1:]:
        C = C.hstack(cols)
    B_union = Matrix.block_diagonal(F, [gram for _, gram in blocks])
    Cinv = C.inverse()
    B = Cinv.transpose() * B_union * Cinv
    return make_certificate(M, B, symmetry, setting, provenance)


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
