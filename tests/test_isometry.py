import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bilinv
import bilinv.canonical
from bilinv.certificates import SKEW, SYMMETRIC
from bilinv.construction import construct_invariant_form
from bilinv.corpus import skew_admissible, symmetric_admissible
from bilinv.errors import (Degenerate, NotSquare, NotUnipotent,
                           NotUnipotentType, RationalsUnsupported,
                           SmallCharacteristic, UnverifiedForm)
from bilinv.fields import PrimeField, QQ
from bilinv.isometry import (EVEN_INDECOMPOSABLE, GENERAL_ODD,
                             ODD_INDECOMPOSABLE, STANDARD_PAIR,
                             OrthogonalSummand, _validate_orthogonal_report,
                             level_analysis, orthogonal_decomposition,
                             witt_index)
from bilinv.linalg import Matrix
from linalg_reference import jordan_matrix, unipotent_jordan_types

F101 = PrimeField(101)


def rand_invertible(field, n, rng):
    while True:
        M = Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                           for _ in range(n)], coerce=False)
        if not field.is_zero(M.det()):
            return M


def test_orthogonal_decomposition_examples():
    J3 = Matrix.jordan_block(F101, 1, 3)
    rep = orthogonal_decomposition(J3, construct_invariant_form(J3, SYMMETRIC))
    assert [(s.kind, s.block_size) for s in rep.summands] == \
        [(ODD_INDECOMPOSABLE, 3)]
    JJ = Matrix.block_diagonal(F101, [Matrix.jordan_block(F101, 1, 2)] * 2)
    rep = orthogonal_decomposition(JJ, construct_invariant_form(JJ, SYMMETRIC))
    assert [(s.kind, s.block_size) for s in rep.summands] == \
        [(STANDARD_PAIR, 2)]
    J2 = Matrix.jordan_block(F101, 1, 2)
    rep = orthogonal_decomposition(J2, construct_invariant_form(J2, SKEW))
    assert [(s.kind, s.block_size) for s in rep.summands] == \
        [(EVEN_INDECOMPOSABLE, 2)]


def test_empty_map():
    for field in (QQ, F101):
        E = Matrix(field, [])
        assert orthogonal_decomposition(E, E).to_json() == \
            {"symmetry": SYMMETRIC, "summands": []}
    assert level_analysis(Matrix(F101, []), Matrix(F101, [])).to_json() == \
        {"level": 0, "witt_index": 0, "dim": 0, "bound_case": "WithinWitt",
         "bound_satisfied": True}


def test_orthogonal_decomposition_rejects():
    T = Matrix.diagonal(F101, [2, 51])   # 2 * 51 = 102 = 1 mod 101
    cert = construct_invariant_form(T, SYMMETRIC)
    with pytest.raises(NotUnipotentType):
        orthogonal_decomposition(T, cert)
    # T - I is singular, yet T is not unipotent
    T = Matrix.diagonal(F101, [1, 2, 51])
    cert = construct_invariant_form(T, SYMMETRIC)
    with pytest.raises(NotUnipotentType):
        orthogonal_decomposition(T, cert)
    J3 = Matrix.jordan_block(F101, 1, 3)
    with pytest.raises(UnverifiedForm):
        orthogonal_decomposition(J3, Matrix.identity(F101, 3))
    # a Gram of another size than the map
    for analyze in (orthogonal_decomposition, level_analysis):
        for m in (2, 4):
            with pytest.raises(NotSquare):
                analyze(J3, Matrix.identity(F101, m))
    # over F_2 the anisotropic-vector search has nothing to find
    F2 = PrimeField(2)
    with pytest.raises(SmallCharacteristic):
        orthogonal_decomposition(Matrix.identity(F2, 2),
                                 Matrix(F2, [[0, 1], [1, 0]]))


def test_unipotent_test_routes(monkeypatch):
    j3 = Matrix.jordan_block(F101, 1, 3)
    pair = Matrix.diagonal(F101, [2, 51])
    forms = {T: construct_invariant_form(T, SYMMETRIC)
             for T in (j3, -j3, pair)}
    # chi is matched to (x -+ 1)^n and the Jordan type is read off the
    # kernel chain of N, so no analysis factors anything; a map not of
    # unipotent type is refused on chi
    calls = []
    factor = bilinv.canonical.factor
    monkeypatch.setattr(bilinv.canonical, "factor",
                        lambda *a: calls.append(a) or factor(*a))
    # the level needs a unipotent map, not one of unipotent type
    for T in (-j3, pair):
        with pytest.raises(NotUnipotent):
            level_analysis(T, forms[T])
    for T in (j3, -j3):
        rep = orthogonal_decomposition(T, forms[T])
        assert [(s.kind, s.block_size) for s in rep.summands] == \
            [(ODD_INDECOMPOSABLE, 3)]
    assert level_analysis(j3, forms[j3]).level == 3
    with pytest.raises(NotUnipotentType):
        orthogonal_decomposition(pair, forms[pair])
    assert calls == []


def _report_of_j3_plus_j1():
    """(T, B, report, Jordan type) for J_3 + J_1 over F_101 with its
    constructed symmetric form: two summands, of sizes 3 and 1."""
    T = Matrix.block_diagonal(F101, [Matrix.jordan_block(F101, 1, 3),
                                     Matrix.identity(F101, 1)])
    B = construct_invariant_form(T, SYMMETRIC).gram
    report = orthogonal_decomposition(T, B)
    assert [(s.kind, s.block_size) for s in report.summands] == \
        [(ODD_INDECOMPOSABLE, 3), (ODD_INDECOMPOSABLE, 1)]
    return T, B, report, [3, 1]


def test_validate_orthogonal_report_rejects_broken_reports():
    T, B, report, parts = _report_of_j3_plus_j1()
    _validate_orthogonal_report(T, B, report, parts)
    chain, line = (s.vectors for s in report.summands)
    # the chain x0, x1, x2 with x2 moved off by the other summand's vector:
    # still non-degenerate, no longer invariant
    x0, x1, x2 = chain.rows
    moved = Matrix(F101, [x0, x1, [a + b for a, b in zip(x2, line.rows[0])]])
    assert not F101.is_zero((moved * B * moved.transpose()).det())
    report.summands[0] = OrthogonalSummand(moved, ODD_INDECOMPOSABLE, 3)
    with pytest.raises(AssertionError, match="not T-invariant"):
        _validate_orthogonal_report(T, B, report, parts)
    # two 1-dimensional summands of I_2 that are not B-orthogonal
    with pytest.raises(AssertionError, match="not orthogonal"):
        exec(NON_ORTHOGONAL, {})


NON_ORTHOGONAL = """
from bilinv.fields import PrimeField
from bilinv.isometry import (ODD_INDECOMPOSABLE, OrthogonalSummand,
                             _validate_orthogonal_report,
                             orthogonal_decomposition)
from bilinv.linalg import Matrix
I2 = Matrix.identity(PrimeField(101), 2)
report = orthogonal_decomposition(I2, I2)
report.summands[1] = OrthogonalSummand(Matrix(I2.field, [[1, 1]]),
                                       ODD_INDECOMPOSABLE, 1)
_validate_orthogonal_report(I2, I2, report, [1, 1])
"""


def test_validate_orthogonal_report_survives_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(bilinv.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", NON_ORTHOGONAL],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert "AssertionError: summands 0 and 1 not orthogonal" in done.stderr


def test_validate_orthogonal_report_checks_kinds_against_jordan_type():
    T, B, report, parts = _report_of_j3_plus_j1()
    # the same geometry under the wrong Jordan type, or the wrong kind
    with pytest.raises(AssertionError, match="Jordan type"):
        _validate_orthogonal_report(T, B, report, [2, 2])
    s = report.summands[1]
    report.summands[1] = OrthogonalSummand(s.vectors, EVEN_INDECOMPOSABLE, 1)
    with pytest.raises(AssertionError, match="Jordan type"):
        _validate_orthogonal_report(T, B, report, parts)


def test_orthogonal_decomposition_conjugated_all_types():
    rng = random.Random(101)
    for parts in unipotent_jordan_types(5):
        n = sum(parts)
        for lam in (1, -1):
            T0 = jordan_matrix(F101, parts, lam)
            g = rand_invertible(F101, n, rng)
            T = g * T0 * g.inverse()
            for symmetry, admissible in ((SYMMETRIC, symmetric_admissible),
                                         (SKEW, skew_admissible)):
                if not admissible(parts):
                    continue
                if symmetry == SKEW and n % 2:
                    continue
                cert = construct_invariant_form(T, symmetry)
                rep = orthogonal_decomposition(T, cert)
                # top-level chain sizes reproduce the partition
                sizes = []
                for s in rep.summands:
                    reps = 2 if s.kind == STANDARD_PAIR else 1
                    sizes.extend([s.block_size] * reps)
                assert sorted(sizes, reverse=True) == sorted(
                    parts, reverse=True)
                for s in rep.summands:
                    if symmetry == SYMMETRIC:
                        assert s.kind in (ODD_INDECOMPOSABLE, STANDARD_PAIR)
                    else:
                        assert s.kind in (EVEN_INDECOMPOSABLE, STANDARD_PAIR)


def test_orthogonal_decomposition_of_oracle_forms():
    # forms straight from the equation solver share no block alignment
    # with the decomposition code, so this exercises the chain sweeps
    from bilinv.oracle import find_nondegenerate, solve_form_space
    rng = random.Random(109)
    for parts in unipotent_jordan_types(5):
        n = sum(parts)
        T0 = jordan_matrix(F101, parts, 1)
        g = rand_invertible(F101, n, rng)
        T = g * T0 * g.inverse()
        for symmetry, admissible in ((SYMMETRIC, symmetric_admissible),
                                     (SKEW, skew_admissible)):
            if not admissible(parts) or (symmetry == SKEW and n % 2):
                continue
            B = find_nondegenerate(solve_form_space(T, symmetry), seed=7)
            assert B is not None
            rep = orthogonal_decomposition(T, B)
            sizes = []
            for s in rep.summands:
                reps = 2 if s.kind == STANDARD_PAIR else 1
                sizes.extend([s.block_size] * reps)
            assert sorted(sizes) == sorted(parts)


def test_witt_index_examples():
    F5, F3 = PrimeField(5), PrimeField(3)
    assert witt_index(Matrix.diagonal(F5, [1, -1])) == 1
    assert witt_index(Matrix.diagonal(F3, [1, 1])) == 0
    assert witt_index(Matrix.diagonal(F5, [1, 1])) == 1
    assert witt_index(Matrix(F5, [[0, 1], [-1, 0]])) == 1
    with pytest.raises(RationalsUnsupported):
        witt_index(Matrix.identity(QQ, 2))
    with pytest.raises(Degenerate, match="non-degenerate"):
        witt_index(Matrix(F5, [[1, 1], [1, 1]]))
    with pytest.raises(Degenerate, match="neither symmetric nor skew"):
        witt_index(Matrix(F5, [[0, 1], [2, 0]]))
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0]]):
        with pytest.raises(NotSquare):
            witt_index(Matrix(F101, rows))


def test_witt_index_congruence_invariant():
    rng = random.Random(103)
    B0 = Matrix.diagonal(F101, [1, 1, -1, 3])
    base = witt_index(B0)
    for _ in range(10):
        G = rand_invertible(F101, 4, rng)
        assert witt_index(G.transpose() * B0 * G) == base


def _greedy_witt_index(B):
    """Exhaustive greedy reference: keep adding an isotropic vector that
    is orthogonal to the span so far and outside it.  By Witt's theorem
    every maximal totally isotropic subspace has the same dimension, so
    the greedy result is the index."""
    F, n = B.field, B.nrows
    isotropic = [v for v in itertools.product(range(F.p), repeat=n)
                 if any(v) and F.is_zero(F.dot(B.apply(v), v))]
    chosen, span = [], {(0,) * n}
    while True:
        v = next((v for v in isotropic if v not in span and all(
            F.is_zero(F.dot(B.apply(v), b)) for b in chosen)), None)
        if v is None:
            return len(chosen)
        chosen.append(v)
        span = {tuple(F.add(a, F.mul(c, x)) for a, x in zip(w, v))
                for w in span for c in range(F.p)}


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_witt_index_brute_force(p):
    # random congruent forms G^t D G in both discriminant classes, against
    # an exhaustive search over a small field (p = 1 and 3 mod 4 both)
    F = PrimeField(p)
    rng = random.Random(107 + p)
    nonsquare = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) != 1)
    for n in range(1, 5):
        for _ in range(2):
            for scale in (1, nonsquare):
                diag = [rng.randrange(1, p) for _ in range(n)]
                diag[-1] = diag[-1] * scale % p
                G = rand_invertible(F, n, rng)
                B = G.transpose() * Matrix.diagonal(F, diag) * G
                assert witt_index(B) == _greedy_witt_index(B)


def test_level_examples():
    J3 = Matrix.jordan_block(F101, 1, 3)
    rep = level_analysis(J3, construct_invariant_form(J3, SYMMETRIC))
    assert (rep.level, rep.witt_index, rep.bound_case, rep.bound_satisfied) \
        == (3, 1, GENERAL_ODD, True)
    I4 = Matrix.identity(F101, 4)
    rep = level_analysis(I4, construct_invariant_form(I4, SYMMETRIC))
    assert rep.level == 1 and rep.bound_satisfied
    J2 = Matrix.jordan_block(F101, 1, 2)
    rep = level_analysis(J2, construct_invariant_form(J2, SKEW))
    assert (rep.level, rep.witt_index, rep.bound_satisfied) == (2, 1, True)
    with pytest.raises(RationalsUnsupported):
        J3q = Matrix.jordan_block(QQ, 1, 3)
        level_analysis(J3q, construct_invariant_form(J3q, SYMMETRIC))
