"""The checks must fail when they should: no guard in the library is a
bare `assert` (those vanish under `python -O`), and the public verifier
rejects a Gram that fails exactly one of its three checks."""

import ast
import json
from pathlib import Path

import pytest

import bilinv
from bilinv.certificates import (INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC,
                                 verify_gram)
from bilinv.cli import run
from bilinv.errors import UnverifiedForm
from bilinv.fields import PrimeField, QQ
from bilinv.isometry import level_analysis, orthogonal_decomposition
from bilinv.linalg import Matrix

SRC = Path(bilinv.__file__).parent
F101 = PrimeField(101)


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
