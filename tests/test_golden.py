"""Golden outputs: sha256 digests of the canonical JSON of the Smith
diagonal of xI - T and of the constructed certificate, on seeded
instances over F_101, F_257 and Q, of the decision and reality reports
of seeded instances over the same fields, and of the orthogonal
decomposition of seeded unipotent-type isometries over F_7, F_101 and Q.

The digests pin the exact output, not just its correctness: a kernel
rewrite that keeps the pivot order, the row and column operations and
the final scaling reproduces them byte for byte.  A change that alters
outputs on purpose must update the digests and say why.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from bilinv.canonical import _char_matrix, smith_normal_form
from bilinv.certificates import INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC
from bilinv.construction import (construct_infinitesimal_form,
                                 construct_invariant_form,
                                 unipotent_block_form)
from bilinv.decision import (BAD_NILPOTENT_PARITY, BAD_UNIPOTENT_PARITY,
                             ODD_DIMENSION_SKEW, UNPAIRED_ADDITIVE_DUAL,
                             UNPAIRED_DUAL, DecisionReport,
                             decide_infinitesimal_form, decide_invariant_form,
                             decide_real)
from bilinv.fields import PrimeField, QQ
from bilinv.isometry import orthogonal_decomposition
from bilinv.linalg import Matrix
from bilinv.oracle import find_nondegenerate, solve_form_space
from bilinv.poly import Poly
from linalg_reference import jordan_matrix


def _blocks(field, spec):
    """Block-diagonal matrix from ("J", lam, k) Jordan blocks and
    ("C", "poly text") companion blocks."""
    blocks = []
    for kind, *args in spec:
        if kind == "J":
            blocks.append(Matrix.jordan_block(field, *args))
        else:
            blocks.append(Matrix.companion(Poly.parse(field, args[0])))
    return Matrix.block_diagonal(field, blocks)


def _conjugate(field, T0, seed):
    rng = random.Random(seed)
    n = T0.nrows
    while True:
        if isinstance(field, PrimeField):
            g = Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                               for _ in range(n)])
        else:
            g = Matrix(field, [[Fraction(rng.randrange(-3, 4),
                                         rng.randrange(1, 4))
                                for _ in range(n)] for _ in range(n)])
        if not field.is_zero(g.det()):
            return g * T0 * g.inverse()


# name -> (field, blocks, seed, construct function, symmetry)
INSTANCES = {
    "fp101-invariant-symmetric": (
        PrimeField(101),
        [("J", 1, 3), ("J", -1, 1), ("C", "x^2-3*x+1"), ("J", 2, 1),
         ("J", 51, 1)],
        11, construct_invariant_form, SYMMETRIC),
    "fp257-invariant-skew": (
        PrimeField(257),
        [("J", 1, 2), ("J", -1, 2), ("C", "x^2+1"), ("J", 3, 1),
         ("J", 86, 1)],
        12, construct_invariant_form, SKEW),
    "fp257-invariant-symmetric-repeated": (
        PrimeField(257),
        [("J", 1, 1), ("J", 1, 1), ("J", 1, 3), ("C", "x^2+x+1")],
        13, construct_invariant_form, SYMMETRIC),
    "fp101-infinitesimal-skew": (
        PrimeField(101),
        [("J", 0, 2), ("J", 5, 1), ("J", -5, 1), ("C", "x^2+1")],
        14, construct_infinitesimal_form, SKEW),
    "q-invariant-symmetric": (
        QQ,
        [("J", 1, 3), ("C", "x^2-3*x+1"), ("J", 2, 1), ("J", "1/2", 1)],
        15, construct_invariant_form, SYMMETRIC),
    "q-infinitesimal-symmetric": (
        QQ,
        [("J", 0, 3), ("J", 2, 1), ("J", -2, 1)],
        16, construct_infinitesimal_form, SYMMETRIC),
    # n = 10, shaped like the bench's q-construct instances: Gram entries
    # of several thousand bits pin the Q products and elimination
    "q10-invariant-symmetric": (
        QQ,
        [("C", "x^4+x^3+x^2+x+1"), ("C", "x^2-3*x+1"), ("J", 1, 3),
         ("J", -1, 1)],
        16, construct_invariant_form, SYMMETRIC),
    "q10-invariant-skew": (
        QQ,
        [("C", "x^4+x^3+x^2+x+1"), ("C", "x^2-3*x+1"), ("J", 1, 2),
         ("J", -1, 1), ("J", -1, 1)],
        17, construct_invariant_form, SKEW),
}

# sha256 of (smith JSON, certificate JSON).  The Smith form is only the
# reference for the invariant factors, so its digests cover the diagonal
# alone; they were recomputed when the Smith form stopped keeping a row
# transform, from the diagonal the earlier form returned.  The
# certificate digests were recomputed when the summand generators moved
# from a Smith row transform to reduced bases of the kernels of p(T)^k
# (the decisions and divisors did not change, the Gram witnesses did).
# The two q10 instances pin the Q products and elimination on integers
# over one denominator.
GOLDEN = {
    "fp101-infinitesimal-skew": (
        "2fb3552ee1e97f7e058af9e99435a9bd36adb2aedd1ab22479074da510fafb32",
        "de1246ec6a06fec7162c53013be97f17f7238b51a068dae2ef8878863e73699f"),
    "fp101-invariant-symmetric": (
        "d57e25343d9c7d70c2cfff270539c1d7f804950022df82ea82c1349c75abf6fc",
        "e51c6d17fc85bd9addebec3bc708c260c07125600b9c43208fd76fa214539838"),
    "fp257-invariant-skew": (
        "ddc8c082a99a41247d304331b9888408f0239a9f8ca99bab5c4c9a1d10244f5c",
        "782c8738fed03729a829669fb10903913305a754429d62e41b2e2b47e3434518"),
    "fp257-invariant-symmetric-repeated": (
        "052734cfd838881870042b8688e5b4a15121282b0c6a2be02bfef9335a190c0c",
        "6fc56436a58d020f2a1720a1da70678681aab0303b6b29c667bb6c4ce8e29de6"),
    "q-infinitesimal-symmetric": (
        "39ec7e63800b790c6280bf8e73b6f76d49f7368db3fece2048efbee915483e95",
        "0f64e791f5ef0cfada04822a691e7329ef401affec272d5742fcb30112113cfd"),
    "q-invariant-symmetric": (
        "b35f5aa5ce7f0c9e1959ff6464532a33a03b38468759c12de19cee79cd1629c8",
        "e80e54c595615bb9cbd1114be3b991671190a6f5fbe730942bc2bace7ba458aa"),
    "q10-invariant-skew": (
        "aa9bd5f74c002df53abd6a73129052ed9ff979c49d5c2ced4983c74ef335f026",
        "0c90e23a523144ace834f5626c915071f36ac84490056054b0b1f2d1f67d4b15"),
    "q10-invariant-symmetric": (
        "fc462a6fcf2696a5670366ec3609267cde8978808f83461f88b78ad45ba97fd5",
        "a3a70c9e30a73bf036d80f6f6361dc5ae4a30d880efdf9edbc4ca27eadb9e3db"),
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _smith_json(field, T):
    return {"diag": [[field.to_str(c) for c in d.coeffs]
                     for d in smith_normal_form(_char_matrix(T))]}


def golden_digests(name):
    field, spec, seed, construct, symmetry = INSTANCES[name]
    T = _conjugate(field, _blocks(field, spec), seed)
    return (_digest(_smith_json(field, T)),
            _digest(construct(T, symmetry).to_json()))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_outputs(name):
    assert golden_digests(name) == GOLDEN[name]


# name -> (field, blocks, conjugation seed, setting).  Each instance is
# decided for both symmetries with a witness constructed, and an
# invariant-setting instance is also classified for reality.  Together
# they reach every obstruction kind (a parity and an unpaired obstruction
# in one report among them), standard and hyperbolic pairs in the
# provenance, a map that is not real and a real map whose symmetric and
# skew parts are both non-empty.
DECISIONS = {
    "fp101-invariant-obstructed": (
        PrimeField(101), [("J", 1, 2), ("J", 2, 1)], 41, INVARIANT),
    "fp101-infinitesimal-obstructed": (
        PrimeField(101), [("J", 0, 2), ("J", 3, 1)], 42, INFINITESIMAL),
    "fp257-invariant-pairs": (
        PrimeField(257),
        [("J", 1, 2), ("J", 1, 2), ("J", 3, 1), ("J", 86, 1),
         ("C", "x^2+1")], 43, INVARIANT),
    "q-invariant-pairs": (
        QQ,
        [("J", -1, 1), ("J", -1, 1), ("C", "x^2-3*x+1"), ("J", 2, 1),
         ("J", "1/2", 1)], 44, INVARIANT),
    "q-infinitesimal-pairs": (
        QQ,
        [("J", 0, 1), ("J", 0, 1), ("J", 2, 1), ("J", -2, 1),
         ("C", "x^2+1")], 45, INFINITESIMAL),
    "fp101-not-real": (
        PrimeField(101),
        [("J", 2, 1), ("J", 2, 2), ("J", 1, 1), ("J", 3, 1), ("J", 34, 1)],
        46, INVARIANT),
    "fp101-real-split": (
        PrimeField(101),
        [("J", 1, 2), ("J", 1, 1), ("J", -1, 3), ("C", "x^2+1"),
         ("J", 2, 1), ("J", 51, 1)], 47, INVARIANT),
    "q-real-split": (
        QQ, [("J", 1, 2), ("J", -1, 2), ("J", 2, 1), ("J", "1/2", 1)],
        48, INVARIANT),
}

# sha256 of the to_json() of the symmetric and the skew decision report
# (witness included) and, for the invariant setting, of the reality
# report, computed before the pairing rule moved into one method
GOLDEN_DECISIONS = {
    "fp101-infinitesimal-obstructed": (
        "5c3caff0db39cd1e90a6ad7d0197ae5e336264ea02b4af5ebc7b0f2248f8dce9",
        "29e44e2181ea6cfce749004dfda8747474da250a9aef5c2adf70de75fda29b79",
    ),
    "fp101-invariant-obstructed": (
        "a6dbe772d5de9d9bb2d946613dea2cccbefd69001fdce50c35e350448f58e579",
        "7694b527171a91a639701f569862a662e1a1e596ec3d6514aa81ba7c37ec0ec9",
        "0d7a8eb5fb1f5115cecb2a5ffc3d26505a2b717cc03be1834b9b07a11d3fff4e",
    ),
    "fp101-not-real": (
        "64b962b9795c4980fb082d10118ae8e82a709716d90dbef444eaba56ef956b87",
        "cc5f65038765693604f05ee172872fb4d4ecac4408a25e43a0d196bbab7fa6fa",
        "d2b4c03afc3733c452114d39bdb07de57ac19e655b3062fdbd87b3c36dc32e8c",
    ),
    "fp101-real-split": (
        "14c6936b2aebee99a38c8299b658037e43f59e62e04ff1101328762e76b322d2",
        "3b593dd789fd3463fa3a03062ac5948700cafd405eac3d0060a552a116011e41",
        "81fc1393bf8c8c9ca62c30c2fe16b37b000164666ce1ac61cd5f91d123ef625b",
    ),
    "fp257-invariant-pairs": (
        "c3192755332e5552ae415605d484931120a5c0b1feba74cca610aa1100029c64",
        "6e3c8e74ce6a70e3c994679b90014641b6fc348e824635b17d676e960f94201f",
        "6641da8361c1daad0803acc296156c424355958990cf18355fca628735d0b5c9",
    ),
    "q-infinitesimal-pairs": (
        "8f68d8bddaa29cbbe941084420bceb89d4f85ed4d77351d8ae1117eb0af89d0b",
        "967b41a695d39cdae77326b5554e8d64b1c6d821bbc6d054d81fe0781f1c188f",
    ),
    "q-invariant-pairs": (
        "961c1b1b13ca5528bf456c73abe95d4c00f5db8a1d47ad6768c4a99f8ccd35a1",
        "92c232e0f8eeb66e65a9d2e433fe747c93ac1100d9d7c4c8be46fbfe8a81c7d8",
        "d3b5f589cca78157773ba9c952c2a2986928a112a4e1847a0bac1ee3fb5964b5",
    ),
    "q-real-split": (
        "daa36b04ad25c9275c24df757e4bee660c19e9f1e7b387709d883cbb1fc85f4b",
        "25d7484a2c71c52ce5417dea69168c0aac8ae3870feb0519836f63a8374f5608",
        "0b82168b6b65f07e1443c8110cc259eb72a97093003a257bba3e57f1ddc269f5",
    ),
}


def decision_reports(name):
    field, spec, seed, setting = DECISIONS[name]
    T = _conjugate(field, _blocks(field, spec), seed)
    decide = (decide_invariant_form if setting == INVARIANT
              else decide_infinitesimal_form)
    reports = [decide(T, symmetry, construct=True)
               for symmetry in (SYMMETRIC, SKEW)]
    if setting == INVARIANT:
        reports.append(decide_real(T))
    return reports


@pytest.mark.parametrize("name", sorted(DECISIONS))
def test_golden_decisions(name):
    assert tuple(_digest(r.to_json()) for r in decision_reports(name)) == \
        GOLDEN_DECISIONS[name]


def test_golden_decisions_reach_every_case():
    reports = [r for name in DECISIONS for r in decision_reports(name)]
    decisions = [r for r in reports if isinstance(r, DecisionReport)]
    kinds = [{o.kind for o in r.obstructions} for r in decisions]
    assert set().union(*kinds) == {
        BAD_UNIPOTENT_PARITY, BAD_NILPOTENT_PARITY, ODD_DIMENSION_SKEW,
        UNPAIRED_DUAL, UNPAIRED_ADDITIVE_DUAL}
    assert any({BAD_UNIPOTENT_PARITY, UNPAIRED_DUAL} <= k for k in kinds)
    routes = {entry.rsplit(":", 1)[1] for r in decisions if r.exists
              for entry in r.witness.provenance}
    assert {"standard-pair", "hyperbolic-pair"} <= routes
    reality = [r for r in reports if not isinstance(r, DecisionReport)]
    assert any(not r.is_real and r.mismatches for r in reality)
    assert any(r.is_real and min(v.nrows for v in r.parts) > 0
               for r in reality)


# name -> (field, Jordan type, eigenvalue, conjugation seed, symmetry,
# Gram source).  Every peel path is covered: both signs of the eigenvalue,
# both symmetries, anisotropic chains found on a column and on a sum of
# two columns, and standard pairs (even chains of a symmetric form, odd
# chains of a skew one).  "oracle" Grams come from the equation solver
# and share no block alignment with the peel, so its sweeps run.
# "hyperbolic" instances are not conjugated: two copies of a lower
# bidiagonal block paired only across the copies, so every column is
# isotropic at the top level and the peel takes a sum of two columns.
DECOMPOSITIONS = {
    "fp101-plus-symmetric": (PrimeField(101), (3, 2, 2, 1), 1, 21,
                             SYMMETRIC, "construct"),
    "fp101-minus-skew": (PrimeField(101), (4, 3, 3, 2), -1, 22,
                         SKEW, "construct"),
    "fp101-plus-symmetric-oracle": (PrimeField(101), (2, 2, 1, 1), 1, 23,
                                    SYMMETRIC, "oracle"),
    "fp101-minus-skew-oracle": (PrimeField(101), (3, 3, 2), -1, 24,
                                SKEW, "oracle"),
    "f7-minus-symmetric": (PrimeField(7), (2, 2, 1, 1), -1, 25,
                           SYMMETRIC, "construct"),
    "f7-plus-skew": (PrimeField(7), (2, 2, 1, 1), 1, 26, SKEW, "construct"),
    "f7-plus-symmetric-oracle": (PrimeField(7), (3, 1, 1, 1), 1, 27,
                                 SYMMETRIC, "oracle"),
    "q-plus-symmetric": (QQ, (3, 2, 2, 1), 1, 28, SYMMETRIC, "construct"),
    "q-minus-symmetric": (QQ, (2, 2, 1), -1, 29, SYMMETRIC, "construct"),
    "q-plus-skew": (QQ, (3, 3, 2), 1, 30, SKEW, "construct"),
    "q-minus-skew": (QQ, (2, 1, 1), -1, 31, SKEW, "construct"),
    "q-minus-symmetric-hyperbolic": (QQ, (3, 3), -1, None, SYMMETRIC,
                                     "hyperbolic"),
    "f7-plus-skew-hyperbolic": (PrimeField(7), (2, 2), 1, None, SKEW,
                                "hyperbolic"),
}

# sha256 of orthogonal_decomposition(T, B).to_json(), computed with the
# peel that restricted N and conjugated the Gram at every step; the peel
# on V must reproduce them
GOLDEN_DECOMPOSITIONS = {
    "f7-minus-symmetric":
        "fd0200d68e2f098b43f83be313d7ddd3690666d2fcc82a6c988ef6f216b04422",
    "f7-plus-skew":
        "a88a8eb6b68de0a3742354a47fb37a6350aa969426767c76f43835db0fb1bcc5",
    "f7-plus-skew-hyperbolic":
        "f2e423169dedbed203b6b71bc5b6422b26a62d3be1975389e2781b8fbbb0546e",
    "f7-plus-symmetric-oracle":
        "862712f1f1094958f40d67a124ed6ff96baca3f187ad9baa412b67af6c3cb4b9",
    "fp101-minus-skew":
        "833922e742175258a53169e9eff3ad8081154367ac784129474182127cb97a99",
    "fp101-minus-skew-oracle":
        "d8cc578e02677b3330e7129c9a8c0ccb4a00b52ed6ba644553ef33c8b607d532",
    "fp101-plus-symmetric":
        "be85d9aeb24af3d4b3bb8446887d918531420a5dfa476fabb1e8ef87d58f6494",
    "fp101-plus-symmetric-oracle":
        "a910bbbd12bd087e67ef8de78a76e36b977edab4bbe78934ec5ce8701b90f5ba",
    "q-minus-skew":
        "a852d573da3ec0a19d9d70457245159807b978fcd3ffc1dcd4e32ad382870f10",
    "q-minus-symmetric":
        "22dd9e51ba68dd705a6fa6b15b4e9611dca144ecd0ec3a12a5b5b3f13c8e3b72",
    "q-minus-symmetric-hyperbolic":
        "d6898dabb70ece8f36a62302255f5891ca578d2f051fd592bb334c41034cf024",
    "q-plus-skew":
        "cb23f22824af5594d1ffdff915507413d98e0a3819c413a958e8f617d41105ad",
    "q-plus-symmetric":
        "cc7adbf83433a3d4af5db0a0e8bf6bb4442269c163a08c1a91e77ae36923112e",
}


def decomposition_digest(name):
    field, parts, lam, seed, symmetry, source = DECOMPOSITIONS[name]
    if source == "hyperbolic":
        k = parts[0]
        U = Matrix.jordan_block(field, 1, k).transpose().scale(lam)
        A = unipotent_block_form(field, k, symmetry)
        Z = Matrix.zeros(field, k, k)
        T = Matrix.block_diagonal(field, [U, U])
        B = Matrix(field, Z.hstack(A).rows + A.hstack(Z).rows)
    else:
        T = _conjugate(field, jordan_matrix(field, parts, lam), seed)
        B = (find_nondegenerate(solve_form_space(T, symmetry), seed=seed)
             if source == "oracle"
             else construct_invariant_form(T, symmetry).gram)
    return _digest(orthogonal_decomposition(T, B).to_json())


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_golden_decompositions(name):
    assert decomposition_digest(name) == GOLDEN_DECOMPOSITIONS[name]


def _bits(M) -> int:
    return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
               for row in M.rows for x in row)


def _unimodular_conjugate(T0, seed):
    """g T0 g^-1 for g a product of integer elementary matrices I + c E_ij
    with c in {-1, 0, 1}, so T keeps small integer entries."""
    rng = random.Random(seed)
    n = T0.nrows
    g = ginv = Matrix.identity(QQ, n)
    for i in range(n):
        for j in range(n):
            c = rng.randrange(-1, 2)
            if i != j and c:
                E, Einv = ([[int(a == b) for b in range(n)] for a in range(n)]
                           for _ in range(2))
                E[i][j], Einv[i][j] = c, -c
                g, ginv = g * Matrix(QQ, E), Matrix(QQ, Einv) * ginv
    return g * T0 * ginv


@pytest.mark.parametrize("name", ["q10-invariant-skew",
                                  "q10-invariant-symmetric"])
def test_q10_witness_entries_stay_small(name):
    field, spec, seed, construct, symmetry = INSTANCES[name]
    T0 = _blocks(field, spec)
    # the golden rational conjugates have 34 and 37 bit entries, and the
    # Gram on each primary component carries the projection onto it
    # (31-36 bit entries) twice: 49 and 93 bits, where generators read
    # off a Smith row transform gave 6189 and 7011
    T = _conjugate(field, T0, seed)
    assert _bits(construct(T, symmetry).gram) <= 3 * _bits(T)
    # integer conjugates of the size of the benchmark's q-construct inputs
    for conj_seed in range(3):
        T = _unimodular_conjugate(T0, conj_seed)
        assert _bits(T) <= 11
        assert _bits(construct(T, symmetry).gram) <= 64


if __name__ == "__main__":
    for name in sorted(INSTANCES):
        print(f"    {name!r}: {golden_digests(name)!r},")
    for name in sorted(DECISIONS):
        digests = tuple(_digest(r.to_json()) for r in decision_reports(name))
        print(f"    {name!r}: {digests!r},")
    for name in sorted(DECOMPOSITIONS):
        print(f"    {name!r}: {decomposition_digest(name)!r},")
