"""One-line mutants of bilinv and the tests that must tell them apart.

Run from the repository root, with pytest installed:

    python tests/mutants.py

Each mutant replaces one piece of text inside one function.  It is
applied to a fresh copy of src/ and tests/ in a temporary directory, and
only the test files its row names run on that copy.  A row says whether
the mutant is expected killed (a test fails) or equivalent (no input can
tell it from the original).  The script first runs the same test files
on an unmutated copy, then prints one line per mutant, and exits 1 when
the unmutated copy fails or a mutant's result differs from its row.

Pytest does not collect this file: its name does not start with test_.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KILLED, EQUIVALENT = "killed", "equivalent"
VERIFIER = "src/bilinv/certificates.py"
CANONICAL = "src/bilinv/canonical.py"
ISOMETRY = "src/bilinv/isometry.py"
GUARDS = ("tests/test_guards.py",)
CANONICAL_TESTS = ("tests/test_canonical.py",)
ISOMETRY_TESTS = ("tests/test_isometry.py",)

# (name, file, function, text, replacement, test files, expectation)
MUTANTS = [
    ("a zero residue mod q passes without Bareiss", VERIFIER,
     "check_nondegenerate", "return _nonsingular_bareiss(C)", "return True",
     GUARDS, KILLED),
    ("a zero residue mod q fails without Bareiss", VERIFIER,
     "check_nondegenerate", "return _nonsingular_bareiss(C)", "return False",
     GUARDS, KILLED),
    ("d^2 dropped from the invariance comparison", VERIFIER,
     "check_invariance", "dd = d * d", "dd = 1", GUARDS, KILLED),
    ("mod p dropped in the F_p infinitesimal sum", VERIFIER,
     "check_invariance", "not any(s % p for s in sums)", "not any(sums)",
     GUARDS, KILLED),
    ("rows not brought to the one denominator", VERIFIER, "_integer_rows",
     "[x * (d // e) for x in row]", "row", GUARDS, KILLED),
    ("check_symmetry skips the diagonal of a skew Gram", VERIFIER,
     "check_symmetry", "return all(F.is_zero(",
     "return all(i == j or F.is_zero(", GUARDS, KILLED),
    ("check_symmetry skips the diagonal of a symmetric Gram", VERIFIER,
     "check_symmetry", "return all(B.rows[i][j] == B.rows[j][i]",
     "return all(i == j or B.rows[i][j] == B.rows[j][i]", GUARDS,
     EQUIVALENT),
    ("the mod-p elimination goes on past a missing pivot", VERIFIER,
     "_nonsingular_mod", "return False", "continue", GUARDS, KILLED),
    ("the Bareiss elimination goes on past a missing pivot", VERIFIER,
     "_nonsingular_bareiss", "return False", "continue", GUARDS, KILLED),
    ("the Smith form skips the culprit fix-up", CANONICAL,
     "smith_normal_form", "if culprit is None:", "if True:",
     CANONICAL_TESTS, KILLED),
    ("the Smith diagonal is not made monic", CANONICAL, "smith_normal_form",
     "M[i][i].monic()", "M[i][i]", CANONICAL_TESTS, KILLED),
    ("the Jordan type comes smallest part first", ISOMETRY, "_jordan_type",
     ", reverse=True)", ")", ISOMETRY_TESTS, KILLED),
    ("the discriminant drops (-1)^m", ISOMETRY, "witt_index",
     "disc = (-1) ** m * det % p", "disc = det % p", ISOMETRY_TESTS, KILLED),
    ("the isotropic sweep skips level 0", ISOMETRY, "_isotropize",
     "range(k - 2, -1, -2)", "range(k - 2, 0, -2)", ISOMETRY_TESTS, KILLED),
]


def copy_tree(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))


def apply(tree: Path, path: str, function: str, old: str, new: str) -> None:
    """Replace old by new in the source of one top-level or nested
    function; the text must occur exactly once there."""
    file = tree / path
    text = file.read_text()
    node = next((n for n in ast.walk(ast.parse(text))
                 if isinstance(n, ast.FunctionDef) and n.name == function),
                None)
    if node is None:
        raise SystemExit(f"mutants: no function {function} in {path}")
    lines = text.splitlines(keepends=True)
    start = sum(map(len, lines[:node.lineno - 1]))
    end = sum(map(len, lines[:node.end_lineno]))
    body = text[start:end]
    if body.count(old) != 1:
        raise SystemExit(f"mutants: {old!r} occurs {body.count(old)} times "
                         f"in {function}")
    file.write_text(text[:start] + body.replace(old, new) + text[end:])


def failed(tree: Path, tests) -> bool:
    """Whether some test fails on the tree; SystemExit when pytest cannot
    run the files at all."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, text=True,
        timeout=600)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"mutants: pytest exited {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    return proc.returncode == 1


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory(prefix="bilinv-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = sorted({t for row in MUTANTS for t in row[5]})
        if failed(base, tests):
            print(f"unmutated tree fails {' '.join(tests)}")
            return 1
        for i, (name, path, function, old, new, tests, expected) in \
                enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            apply(tree, path, function, old, new)
            killed = failed(tree, tests)
            match = killed == (expected == KILLED)
            print(f"{'ok  ' if match else 'FAIL'} "
                  f"{'killed' if killed else 'survived':8} "
                  f"(expected {expected}) {name}")
            ok = ok and match
            shutil.rmtree(tree)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
