"""Decision procedures: existence of invariant forms, the infinitesimal
variant, and the reality classifier.

Everything reads off the elementary divisors of one `ModuleStructure`
per call.  For an invertible T over a field of characteristic 0 or
> dim, a non-degenerate invariant form of the requested symmetry exists
iff

  (i)  every divisor p^k with p away from x -+ 1 is self-dual or paired
       with its dual divisor at equal multiplicity, and
  (ii) every (x -+ 1)^k divisor either has the parity matching the
       symmetry (k odd for symmetric, k even for skew) or occurs with
       even multiplicity,

plus an even ambient dimension in the skew case.  Infinitesimally the
same shape applies with additive duals, x^k playing the unipotent role.
Both settings run one rule, `decide_form`, over the duality table
`canonical.DUALITY`, whose two entries name the special linear factors,
the dual operator and the obstructions of each setting.  Which copies of
a divisor pair, and with what, is decided in one place,
`DualityRule.partner`, which the witness assembly and the reality split
read as well.

Reality of T in the general linear group is divisor-multiset equality of
T and T^-1, and the divisors of T^-1 are the duals p*^k of those of T;
real maps split into a symmetric-witness part and a skew-witness part
along their indecomposable summands.
"""

from dataclasses import dataclass, field as dc_field

from .canonical import (DUALITY, ODD_DIMENSION_SKEW, PARITY_DETAIL,
                        ElementaryDivisor, ModuleStructure, divisor_multiset)
# the other obstruction kinds, re-exported beside the reports that use them
from .canonical import (BAD_NILPOTENT_PARITY, BAD_UNIPOTENT_PARITY,  # noqa: F401
                        UNPAIRED_ADDITIVE_DUAL, UNPAIRED_DUAL)
from .certificates import (INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC,
                           FormCertificate, require_kind)
from .errors import SmallCharacteristic, Singular
from .linalg import Matrix
from .poly import DEFAULT_DEGREE_LIMIT


@dataclass(slots=True)
class ObstructionRecord:
    kind: str
    divisor: ElementaryDivisor
    detail: str

    def to_json(self):
        return {"kind": self.kind, "divisor": self.divisor.label(),
                "multiplicity": self.divisor.multiplicity,
                "detail": self.detail}


@dataclass(slots=True)
class DecisionReport:
    symmetry: str
    setting: str
    exists: bool
    obstructions: list
    divisors: list
    witness: FormCertificate = None

    def to_json(self):
        out = {
            "setting": self.setting,
            "symmetry": self.symmetry,
            "exists": self.exists,
            "divisors": [{"divisor": d.label(), "multiplicity": d.multiplicity}
                         for d in self.divisors],
            "obstructions": [o.to_json() for o in self.obstructions],
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def decide_form(M: Matrix, symmetry: str, setting: str,
                construct: bool = False,
                degree_limit: int = DEFAULT_DEGREE_LIMIT) -> DecisionReport:
    """The decision rule of DUALITY[setting] on one ModuleStructure of M.

    All violations are reported, not only the first.  With construct
    set, a witness certificate assembled from the same structure's
    summands is attached to a positive report.  An unknown symmetry or
    setting is a ValueError.
    """
    require_kind(symmetry, setting)
    F = M.field
    n = M.nrows
    if not F.char_exceeds(n):
        raise SmallCharacteristic(
            f"need characteristic 0 or > {n}, have {F.characteristic}")
    structure = ModuleStructure(M, degree_limit)
    if setting == INVARIANT and not structure.invertible:
        raise Singular("invariant-form decision needs an invertible map")
    rule = DUALITY[setting]
    divisors = structure.elementary_divisors
    have = divisor_multiset(divisors)
    obstructions = []
    if symmetry == SKEW and n % 2 == 1:
        obstructions.append(ObstructionRecord(
            ODD_DIMENSION_SKEW, divisors[0],
            f"ambient dimension {n} is odd"))
    for d in divisors:
        key = rule.partner(d.p, d.k, symmetry)
        if key is None:
            continue
        if key == (d.p.coeffs, d.k):
            if d.multiplicity % 2 == 1:
                obstructions.append(ObstructionRecord(
                    rule.parity_kind, d, PARITY_DETAIL.format(
                        label=rule.special_factor(d.p)[1], k=d.k,
                        need="odd" if symmetry == SYMMETRIC else "even",
                        multiplicity=d.multiplicity)))
            continue
        dual_mult = have.get(key, 0)
        if dual_mult != d.multiplicity:
            obstructions.append(ObstructionRecord(
                rule.unpaired_kind, d, rule.unpaired_detail.format(
                    dual_multiplicity=dual_mult,
                    multiplicity=d.multiplicity)))
    report = DecisionReport(symmetry, setting, not obstructions,
                            obstructions, divisors)
    if construct and report.exists:
        from .construction import assemble_witness
        report.witness = assemble_witness(structure, symmetry, rule)
    return report


def decide_invariant_form(T: Matrix, symmetry: str, construct: bool = False,
                          degree_limit: int = DEFAULT_DEGREE_LIMIT
                          ) -> DecisionReport:
    """Does a T-invariant non-degenerate form of this symmetry exist?

    All violations are reported, not only the first.  With construct
    set, a verified witness certificate is attached to a positive
    report; degree_limit reaches the one factorization both share.
    """
    return decide_form(T, symmetry, INVARIANT, construct, degree_limit)


def decide_infinitesimal_form(S: Matrix, symmetry: str,
                              construct: bool = False,
                              degree_limit: int = DEFAULT_DEGREE_LIMIT
                              ) -> DecisionReport:
    """Does B with S^t B + B S = 0, non-degenerate, of this symmetry
    exist?  S may be singular."""
    return decide_form(S, symmetry, INFINITESIMAL, construct, degree_limit)


@dataclass(slots=True)
class RealityReport:
    """Is T conjugate to its inverse, and the symmetric/skew splitting.
    Each part keeps its basis one row per basis vector, as
    `OrthogonalSummand` does."""

    is_real: bool
    mismatches: list                    # (divisor of T, multiplicity in T^-1)
    parts: tuple = None                 # (vectors_1, vectors_2) or None
    divisors: list = dc_field(default_factory=list)

    @property
    def splitting(self):
        """(basis_1, basis_2) as n x dim column matrices, or None."""
        if self.parts is None:
            return None
        return tuple(v.transpose() for v in self.parts)

    def to_json(self):
        out = {
            "is_real": self.is_real,
            "mismatches": [
                {"divisor": d.label(), "multiplicity": d.multiplicity,
                 "inverse_multiplicity": m}
                for d, m in self.mismatches],
        }
        if self.parts is not None:
            v1, v2 = self.parts
            out["splitting"] = {
                "symmetric_part": v1.to_str_rows(),
                "skew_part": v2.to_str_rows(),
                "dims": [v1.nrows, v2.nrows],
            }
        return out


def decide_real(T: Matrix,
                degree_limit: int = DEFAULT_DEGREE_LIMIT) -> RealityReport:
    """T is real in GL(V) iff T and T^-1 share all elementary divisors.

    The divisors of T^-1 are the duals p*^k of the divisors p^k of T, so
    one ModuleStructure of T answers the question: p^k occurs in T^-1 as
    often as p*^k does in T.  When T is real and the characteristic
    allows it, the summands are split into the two parts along which a
    symmetric and a skew witness exist: a summand goes to the skew part
    iff its copies pair among themselves under the symmetric rule
    (`DualityRule.partner`), that is an even (x -+ 1)^k exponent.  Only
    the bases are returned; no Gram is attached to either part yet.
    """
    structure = ModuleStructure(T, degree_limit)
    if not structure.invertible:
        raise Singular("reality concerns invertible maps")
    rule = DUALITY[INVARIANT]
    div_T = structure.elementary_divisors
    have = divisor_multiset(div_T)
    mismatches = []
    for d in div_T:
        inverse_mult = have.get((rule.dual(d.p).coeffs, d.k), 0)
        if inverse_mult != d.multiplicity:
            mismatches.append((d, inverse_mult))
    report = RealityReport(not mismatches, mismatches, divisors=div_T)
    F = T.field
    if report.is_real and F.char_exceeds(T.nrows):
        sym_rows, skew_rows = [], []
        for s in structure.summands:
            if rule.partner(s.p, s.k, SYMMETRIC) == s.divisor_key():
                skew_rows.extend(s.basis.cols())
            else:
                sym_rows.extend(s.basis.cols())
        report.parts = tuple(Matrix(F, rows, coerce=False, ncols=T.nrows)
                             for rows in (sym_rows, skew_rows))
    return report
