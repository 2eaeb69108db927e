"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Tolerances are exact everywhere; the
arithmetic never rounds."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from bilinv.certificates import (INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC,
                                 verify_gram)
from bilinv.cli import run as cli_run
from bilinv.construction import (construct_infinitesimal_form,
                                 construct_invariant_form, convert_symmetry)
from bilinv.corpus import (corpus, random_invertible, skew_admissible,
                           symmetric_admissible)
from bilinv.decision import (decide_infinitesimal_form, decide_invariant_form,
                             decide_real)
from bilinv.fields import PrimeField, QQ
from bilinv.isometry import (EVEN_INDECOMPOSABLE, GENERAL_ODD,
                             ODD_INDECOMPOSABLE, STANDARD_PAIR, level_analysis,
                             orthogonal_decomposition)
from bilinv.linalg import Matrix, char_poly
from bilinv.oracle import find_nondegenerate, solve_form_space
from bilinv.poly import (Poly, additive_dual_poly, dual_poly,
                         is_self_dual, substitute_x_plus_inverse)
from linalg_reference import (brute_force_reality, jordan_matrix,
                              unipotent_jordan_types)

SEED = 20260808
CORPUS_SIZE = 500          # split between the two settings
FIELDS = (101, 257)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{status}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def agreement_data():
    """Corpus instances with decisions, oracle verdicts and certificates."""
    half = CORPUS_SIZE // 2
    data = []
    pools = (("invariant", corpus(SEED, CORPUS_SIZE - half, "invariant",
                                  FIELDS)),
             ("infinitesimal", corpus(SEED + 1, half, "infinitesimal",
                                      FIELDS)))
    idx = 0
    for kind, pool in pools:
        setting = INVARIANT if kind == "invariant" else INFINITESIMAL
        for field, T in pool:
            rec = {"kind": kind, "setting": setting, "field": field, "T": T,
                   "results": {}}
            for symmetry in (SYMMETRIC, SKEW):
                if kind == "invariant":
                    exists = decide_invariant_form(T, symmetry).exists
                else:
                    exists = decide_infinitesimal_form(T, symmetry).exists
                witness = find_nondegenerate(
                    solve_form_space(T, symmetry, setting),
                    seed=SEED * 1000003 + idx)
                rec["results"][symmetry] = (exists, witness)
            data.append(rec)
            idx += 1
    return data


def test_criterion_1_oracle_agreement(agreement_data):
    disagreements = []
    for i, rec in enumerate(agreement_data):
        for symmetry, (exists, witness) in rec["results"].items():
            if exists != (witness is not None):
                disagreements.append((i, rec["kind"], symmetry))
    report(1, "decision/oracle agreement on the randomized corpus",
           not disagreements and len(agreement_data) == CORPUS_SIZE,
           f"{len(agreement_data)} instances, "
           f"{len(disagreements)} disagreements")


def test_criterion_2_witness_completeness(agreement_data):
    built = 0
    for rec in agreement_data:
        T = rec["T"]
        for symmetry, (exists, _) in rec["results"].items():
            if not exists:
                continue
            if rec["kind"] == "invariant":
                cert = construct_invariant_form(T, symmetry)
            else:
                cert = construct_infinitesimal_form(T, symmetry)
            checks = verify_gram(T, cert.gram, symmetry, rec["setting"])
            assert all(checks.values()), (symmetry, checks)
            built += 1
    report(2, "verified witness on every YES instance", built > 0,
           f"{built} certificates, all three checks exact")


def test_criterion_3_parity_cases_pinned():
    cases = 0
    for field in (QQ, PrimeField(101)):
        J2 = Matrix.jordan_block(field, 1, 2)
        assert not decide_invariant_form(J2, SYMMETRIC).exists
        assert decide_invariant_form(J2, SKEW).exists
        cert = construct_invariant_form(J2, SKEW)
        assert all(verify_gram(J2, cert.gram, SKEW, INVARIANT).values())

        J3 = Matrix.jordan_block(field, 1, 3)
        assert decide_invariant_form(J3, SYMMETRIC).exists
        cert = construct_invariant_form(J3, SYMMETRIC)
        assert all(verify_gram(J3, cert.gram, SYMMETRIC, INVARIANT).values())

        JJ = Matrix.block_diagonal(field, [Matrix.jordan_block(field, 1, 2),
                                           Matrix.jordan_block(field, 1, 2)])
        assert decide_invariant_form(JJ, SYMMETRIC).exists
        cert = construct_invariant_form(JJ, SYMMETRIC)
        assert any("standard-pair" in s for s in cert.provenance)
        assert all(verify_gram(JJ, cert.gram, SYMMETRIC, INVARIANT).values())

        Jm = Matrix.jordan_block(field, -1, 2)
        assert not decide_invariant_form(Jm, SYMMETRIC).exists
        assert decide_invariant_form(Jm, SKEW).exists
        cert = construct_invariant_form(Jm, SKEW)
        assert all(verify_gram(Jm, cert.gram, SKEW, INVARIANT).values())
        cases += 4
    report(3, "pinned parity cases over Q and F101", cases == 8,
           "J2(1), J3(1), J2+J2, J2(-1)")


SELF_DUAL_CORPUS = ["x^2-3*x+1", "x^2+1", "x^4+x^3+x^2+x+1", "x^4+1",
                    "x^4-x^2+1", "x^6+x^3+1",
                    "x^6+x^5+x^4+x^3+x^2+x+1",
                    "x^8-x^7+x^5-x^4+x^3-x+1", "x^8+1"]


def test_criterion_4_dual_machinery():
    rng = random.Random(SEED)
    checked = 0
    for field in (QQ, PrimeField(101)):
        for _ in range(100):
            deg = rng.randrange(1, 9)
            if isinstance(field, PrimeField):
                coeffs = [rng.randrange(field.p) for _ in range(deg)] + [1]
            else:
                coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                          for _ in range(deg)] + [Fraction(1)]
            f = Poly(field, coeffs)
            assert additive_dual_poly(additive_dual_poly(f)) == f
            if not field.is_zero(f.constant_term()):
                assert dual_poly(dual_poly(f)) == f
            checked += 1
    x, x2p1 = Poly.x(QQ), Poly.parse(QQ, "x^2+1")
    for text in SELF_DUAL_CORPUS:
        p = Poly.parse(QQ, text)
        assert is_self_dual(p)
        m = p.degree // 2
        q = substitute_x_plus_inverse(p)
        back = Poly.zero(QQ)
        for j in range(q.degree + 1):
            back = back + (x2p1 ** j * x ** (m - j)).scale(q.coeff(j))
        assert back == p
    report(4, "dual involutions and the x + 1/x round-trip", checked == 200,
           f"{checked} random polynomials, {len(SELF_DUAL_CORPUS)} self-dual")


@pytest.fixture(scope="module")
def unipotent_instances():
    """(field, T, symmetry, certificate) for every admitting Jordan type
    with dim <= 6 over both corpus primes, conjugated."""
    rng = random.Random(SEED + 2)
    out = []
    for prime in FIELDS:
        field = PrimeField(prime)
        for parts in unipotent_jordan_types(6):
            n = sum(parts)
            g = random_invertible(field, n, rng)
            T = g * jordan_matrix(field, parts, 1) * g.inverse()
            for symmetry, admissible in ((SYMMETRIC, symmetric_admissible),
                                         (SKEW, skew_admissible)):
                if not admissible(parts) or (symmetry == SKEW and n % 2):
                    continue
                cert = construct_invariant_form(T, symmetry)
                out.append((field, T, parts, symmetry, cert))
    return out


def test_criterion_5_level_bounds(unipotent_instances):
    terminal_seen = False
    for field, T, parts, symmetry, cert in unipotent_instances:
        rep = level_analysis(T, cert)
        assert rep.bound_satisfied, (parts, symmetry, rep)
        assert rep.level == max(parts)
    # the terminal case k = 2l + 1 is realized by J3(1)
    field = PrimeField(101)
    J3 = Matrix.jordan_block(field, 1, 3)
    rep = level_analysis(J3, construct_invariant_form(J3, SYMMETRIC))
    terminal_seen = (rep.level, rep.witt_index, rep.bound_case) == \
        (3, 1, GENERAL_ODD) and rep.level == 2 * rep.witt_index + 1
    report(5, "level bounds on all unipotent isometry instances",
           terminal_seen, f"{len(unipotent_instances)} instances; "
           "terminal case k = 2l + 1 realized by the 3-chain")


def test_criterion_6_orthogonal_decomposition(unipotent_instances):
    rng = random.Random(SEED + 3)
    total = 0
    instances = list(unipotent_instances)
    # negative unipotent types are covered by the same theorem
    for prime in (101,):
        field = PrimeField(prime)
        for parts in unipotent_jordan_types(5):
            n = sum(parts)
            g = random_invertible(field, n, rng)
            T = g * jordan_matrix(field, parts, -1) * g.inverse()
            for symmetry, admissible in ((SYMMETRIC, symmetric_admissible),
                                         (SKEW, skew_admissible)):
                if not admissible(parts) or (symmetry == SKEW and n % 2):
                    continue
                instances.append((field, T, parts, symmetry,
                                  construct_invariant_form(T, symmetry)))
    for field, T, parts, symmetry, cert in instances:
        B = cert.gram
        repd = orthogonal_decomposition(T, cert)
        summands = repd.summands
        for i, s in enumerate(summands):
            gram = s.basis.transpose() * B * s.basis
            assert not field.is_zero(gram.det()), "degenerate summand"
            for other in summands[i + 1:]:
                assert (s.basis.transpose() * B * other.basis).is_zero(), \
                    "summands not orthogonal"
            if symmetry == SYMMETRIC:
                assert s.kind in (ODD_INDECOMPOSABLE, STANDARD_PAIR)
                if s.kind == ODD_INDECOMPOSABLE:
                    assert s.block_size % 2 == 1
            else:
                assert s.kind in (EVEN_INDECOMPOSABLE, STANDARD_PAIR)
                if s.kind == EVEN_INDECOMPOSABLE:
                    assert s.block_size % 2 == 0
            if s.kind == STANDARD_PAIR:
                for half in s.halves:
                    assert (half.transpose() * B * half).is_zero(), \
                        "standard-pair half not isotropic"
        assert sum(s.basis.ncols for s in summands) == T.nrows
        total += 1
    report(6, "orthogonal decompositions verify kind constraints", total > 0,
           f"{total} unipotent instances, both signs")


def test_criterion_7_reality():
    # exhaustive over GL(2, F2) and GL(2, F3)
    from itertools import product
    checked = 0
    for p in (2, 3):
        field = PrimeField(p)
        for entries in product(range(p), repeat=4):
            T = Matrix(field, [entries[:2], entries[2:]], coerce=False)
            if field.is_zero(T.det()):
                continue
            assert decide_real(T).is_real == brute_force_reality(T), T
            checked += 1
    assert checked == 6 + 48
    # conjugation invariance over Q
    rng = random.Random(SEED + 4)
    pool = [Matrix.jordan_block(QQ, 1, 2),
            Matrix.block_diagonal(QQ, [Matrix.jordan_block(QQ, 1, 3),
                                       Matrix.identity(QQ, 1)]),
            Matrix.diagonal(QQ, [2, Fraction(1, 2)]),
            Matrix.companion(Poly.parse(QQ, "x^2-3*x+1")),
            Matrix.diagonal(QQ, [2, 3]),
            Matrix.block_diagonal(QQ, [Matrix.jordan_block(QQ, -1, 2),
                                       Matrix.jordan_block(QQ, -1, 2)])]
    conjugations = 0
    while conjugations < 100:
        T0 = pool[conjugations % len(pool)]
        n = T0.nrows
        g = Matrix(QQ, [[rng.randrange(-4, 5) for _ in range(n)]
                        for _ in range(n)])
        if QQ.is_zero(g.det()):
            continue
        assert decide_real(g * T0 * g.inverse()).is_real == \
            decide_real(T0).is_real
        conjugations += 1
    report(7, "reality agrees with exhaustive search and conjugation",
           True, f"{checked} group elements, {conjugations} conjugations")


def test_criterion_8_converter(agreement_data):
    converted = 0
    for rec in agreement_data:
        if rec["kind"] != "invariant":
            continue
        T = rec["T"]
        field = rec["field"]
        chi = char_poly(T)
        if field.is_zero(chi(field.one)) or \
                field.is_zero(chi(field.neg(field.one))):
            continue
        exists, _ = rec["results"][SYMMETRIC]
        if not exists:
            continue
        for src in (SYMMETRIC, SKEW):
            cert = construct_invariant_form(T, src)
            dst = SKEW if src == SYMMETRIC else SYMMETRIC
            out = convert_symmetry(T, cert.gram)
            assert all(verify_gram(T, out, dst, INVARIANT).values()), src
            converted += 1
    report(8, "symmetry converter verifies in both directions",
           converted > 0, f"{converted} conversions")


def test_criterion_9_selftest_determinism():
    def run_selftest():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_run(["selftest", "--seed", "20260808", "--count", "100"])
        return code, buf.getvalue()

    code1, out1 = run_selftest()
    code2, out2 = run_selftest()
    payload = json.loads(out1)
    report(9, "selftest output byte-identical across runs",
           code1 == code2 == 0 and out1 == out2
           and payload["summary"]["all_agree"],
           f"{payload['summary']['instances']} instances, "
           f"{len(out1)} bytes")
