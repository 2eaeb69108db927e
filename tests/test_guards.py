"""The checks must fail when they should: no guard in the library is a
bare `assert` (those vanish under `python -O`), the public verifier
rejects a Gram that fails exactly one of its three checks, its exact
routes decide the inputs that its shortcuts cannot, and a Gram of the
wrong shape is NotSquare wherever the library takes one from outside."""

import ast
import json
from pathlib import Path

import pytest

import bilinv
from bilinv.certificates import (INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC,
                                 verify_gram)
from bilinv.cli import run
from bilinv.construction import skew_symmetric_converter
from bilinv.errors import NotSquare, UnverifiedForm
from bilinv.fields import PrimeField, QQ
from bilinv.isometry import level_analysis, orthogonal_decomposition
from bilinv.linalg import Matrix

SRC = Path(bilinv.__file__).parent
F101 = PrimeField(101)
Q61 = 2 ** 61 - 1       # the prime of the verifier's non-degeneracy filter
F61 = PrimeField(Q61)
BIG = 2 ** 40 + 15      # a unit of F61 whose products need reduction
BIG_INV = pow(BIG, -1, Q61)


def test_no_bare_assert_in_library():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"bare assert (stripped by python -O) at {found}"


# (failing check, map T of the invariant setting, Gram, claimed symmetry);
# the infinitesimal setting takes S = T - I, on which each Gram fails the
# same one check
REJECTED = [
    ("nondegenerate", [[1, 0], [0, 1]], [[0, 0], [0, 0]], SYMMETRIC),
    ("symmetry_ok", [[1, 0], [0, 1]], [[1, 1], [-1, 0]], SKEW),
    ("invariance", [[1, 1], [0, 1]], [[1, 0], [0, 1]], SYMMETRIC),
]


def _case(field, setting, rows, gram):
    T = Matrix(field, rows)
    if setting == INFINITESIMAL:
        T = T - Matrix.identity(field, T.nrows)
    return T, Matrix(field, gram)


@pytest.mark.parametrize("setting", [INVARIANT, INFINITESIMAL])
@pytest.mark.parametrize("failing, rows, gram, symmetry", REJECTED)
def test_verify_gram_rejects_one_check(failing, rows, gram, symmetry,
                                       setting):
    for field in (QQ, F101):
        T, B = _case(field, setting, rows, gram)
        checks = verify_gram(T, B, symmetry, setting)
        assert [k for k, ok in checks.items() if not ok] == [failing]


@pytest.mark.parametrize("setting", [INVARIANT, INFINITESIMAL])
@pytest.mark.parametrize("failing, rows, gram, symmetry", REJECTED)
def test_cli_verify_rejects_one_check(failing, rows, gram, symmetry, setting,
                                      tmp_path, capsys):
    T, B = _case(QQ, setting, rows, gram)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"field": "Q", "matrix": T.to_str_rows(),
                                "gram": B.to_str_rows()}))
    code = run(["verify", str(path), "--symmetry", symmetry,
                "--setting", setting])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["verified"] is False
    assert [k for k, ok in out["checks"].items() if not ok] == [failing]


def test_isometry_analyses_reject_degenerate_invariant_gram():
    T = Matrix.identity(F101, 2)
    B = Matrix.diagonal(F101, [1, 0])      # symmetric and invariant
    for analyze in (orthogonal_decomposition, level_analysis):
        with pytest.raises(UnverifiedForm, match="nondegenerate"):
            analyze(T, B)


# inputs that only the exact routes decide, as (setting, field, map,
# Gram, symmetry, failing checks): over Q, Grams whose det is 0 mod the
# filter prime, so that only Bareiss elimination tells a non-degenerate
# one from a degenerate one; denominators on both the map and the Gram,
# in each setting, each with a one-entry change that breaks invariance
# only; and products of residues near 2^61 over F_(2^61 - 1)
EXACT = [
    (INVARIANT, QQ, [[1, 0], [0, 1]], [[Q61, 0], [0, 1]], SYMMETRIC, []),
    (INVARIANT, QQ, [[1, 0], [0, 1]], [[Q61, Q61], [1, 1]], SYMMETRIC,
     ["symmetry_ok", "nondegenerate"]),
    (INVARIANT, QQ, [[2, 0], [0, "1/2"]], [[0, "1/3"], ["1/3", 0]],
     SYMMETRIC, []),
    (INVARIANT, QQ, [[2, 0], [0, "1/2"]], [["1/5", "1/3"], ["1/3", 0]],
     SYMMETRIC, ["invariance"]),
    (INFINITESIMAL, QQ, [["1/2", 0], [0, "-1/2"]], [[0, "1/3"], ["1/3", 0]],
     SYMMETRIC, []),
    (INFINITESIMAL, QQ, [["1/2", 0], [0, "-1/2"]],
     [["1/5", "1/3"], ["1/3", 0]], SYMMETRIC, ["invariance"]),
    (INVARIANT, F61, [[BIG, 0], [0, BIG_INV]], [[0, BIG], [-BIG, 0]], SKEW,
     []),
    (INVARIANT, F61, [[BIG, 0], [0, BIG]], [[0, BIG], [-BIG, 0]], SKEW,
     ["invariance"]),
    (INFINITESIMAL, F61, [[BIG, 0], [0, -BIG]], [[0, BIG], [BIG, 0]],
     SYMMETRIC, []),
    (INFINITESIMAL, F61, [[BIG, 1], [0, -BIG]], [[0, BIG], [BIG, 0]],
     SYMMETRIC, ["invariance"]),
]


@pytest.mark.parametrize("setting, field, rows, gram, symmetry, failing",
                         EXACT)
def test_verify_gram_exact_routes(setting, field, rows, gram, symmetry,
                                  failing):
    T, B = Matrix(field, rows), Matrix(field, gram)
    checks = verify_gram(T, B, symmetry, setting)
    assert [k for k, ok in checks.items() if not ok] == failing


def test_non_square_gram_is_not_square():
    T = Matrix(F101, [[1, 1], [0, 1]])
    B = Matrix(F101, [[0, 1, 0], [-1, 0, 0]])
    for call in (orthogonal_decomposition, level_analysis,
                 skew_symmetric_converter):
        with pytest.raises(NotSquare):
            call(T, B)
