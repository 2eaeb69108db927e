import json

import pytest

from bilinv.cli import run


def write_instance(tmp_path, name, field, matrix, gram=None):
    data = {"field": field, "matrix": matrix}
    if gram is not None:
        data["gram"] = gram
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


J2 = [["1", "1"], ["0", "1"]]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_decide_skew_j2(tmp_path, capsys):
    path = write_instance(tmp_path, "j2.json", "Q", J2)
    code, out = run_json(capsys, ["decide", path, "--symmetry", "skew"])
    assert code == 0 and out["exists"] is True
    code, out = run_json(capsys, ["decide", path, "--symmetry", "symmetric"])
    assert code == 0 and out["exists"] is False
    assert out["obstructions"][0]["kind"] == "BadUnipotentParity"


def test_construct_verify_roundtrip(tmp_path, capsys):
    path = write_instance(tmp_path, "j3.json", "Q",
                          [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]])
    code, out = run_json(capsys, ["construct", path, "--symmetry", "symmetric"])
    assert code == 0 and out["exists"] and "witness" in out
    gram = out["witness"]["gram"]
    path2 = write_instance(tmp_path, "j3v.json", "Q",
                           [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]],
                           gram=gram)
    code, out = run_json(capsys, ["verify", path2, "--symmetry", "symmetric",
                                  "--setting", "invariant"])
    assert code == 0 and out["verified"]


def test_construct_honours_degree_limit(tmp_path, capsys):
    # 25 distinct eigenvalues: one invariant factor of degree 25, above
    # the default factorization cap of 24
    diag = ["1"] + [e for k in range(2, 14) for e in (str(k), f"1/{k}")]
    rows = [[diag[i] if i == j else "0" for j in range(25)]
            for i in range(25)]
    path = write_instance(tmp_path, "d25.json", "Q", rows)
    code, out = run_json(capsys, ["construct", path, "--symmetry",
                                  "symmetric", "--degree-limit", "30"])
    assert code == 0 and out["exists"] and "witness" in out
    path2 = write_instance(tmp_path, "d25v.json", "Q", rows,
                           gram=out["witness"]["gram"])
    code, out = run_json(capsys, ["verify", path2, "--symmetry", "symmetric",
                                  "--setting", "invariant"])
    assert code == 0 and out["verified"]


def test_verify_failure_exit_code(tmp_path, capsys):
    path = write_instance(tmp_path, "bad.json", "Q", J2,
                          gram=[["1", "0"], ["0", "1"]])
    code, out = run_json(capsys, ["verify", path, "--symmetry", "symmetric",
                                  "--setting", "invariant"])
    assert code == 1 and not out["verified"]


def test_missing_gram_is_input_error(tmp_path, capsys):
    path = write_instance(tmp_path, "nog.json", "Q", J2)
    code, out = run_json(capsys, ["level", path])
    assert code == 2 and out["error"]["kind"] == "InputError"


def test_level_over_rationals_is_capability_error(tmp_path, capsys):
    path = write_instance(tmp_path, "lq.json", "Q", J2,
                          gram=[["0", "1"], ["-1", "0"]])
    code, out = run_json(capsys, ["level", path])
    assert code == 3 and out["error"]["kind"] == "RationalsUnsupported"


def test_level_and_decompose_over_fp(tmp_path, capsys):
    path = write_instance(tmp_path, "lp.json", {"Fp": 101}, J2,
                          gram=[["0", "1"], ["-1", "0"]])
    code, out = run_json(capsys, ["level", path])
    assert code == 0 and out["bound_satisfied"] and out["level"] == 2
    code, out = run_json(capsys, ["decompose", path])
    assert code == 0
    assert out["summands"][0]["kind"] == "EvenIndecomposable"


def test_level_of_non_unipotent_is_input_error(tmp_path, capsys):
    # -J_3 is of unipotent type, so it decomposes, but it has no level
    minus_j3 = [["-1", "-1", "0"], ["0", "-1", "-1"], ["0", "0", "-1"]]
    path = write_instance(tmp_path, "m3.json", {"Fp": 101}, minus_j3)
    code, out = run_json(capsys, ["construct", path, "--symmetry",
                                  "symmetric"])
    assert code == 0
    path = write_instance(tmp_path, "m3g.json", {"Fp": 101}, minus_j3,
                          gram=out["witness"]["gram"])
    code, out = run_json(capsys, ["level", path])
    assert code == 2 and out["error"]["kind"] == "NotUnipotent"
    code, out = run_json(capsys, ["decompose", path])
    assert code == 0 and [s["kind"] for s in out["summands"]] == \
        ["OddIndecomposable"]


def test_real_subcommand(tmp_path, capsys):
    path = write_instance(tmp_path, "r.json", "Q", J2)
    code, out = run_json(capsys, ["real", path])
    assert code == 0 and out["is_real"] is True
    path = write_instance(tmp_path, "r2.json", "Q", [["2", "0"], ["0", "2"]])
    code, out = run_json(capsys, ["real", path])
    assert code == 0 and out["is_real"] is False


def test_infinitesimal_subcommand(tmp_path, capsys):
    path = write_instance(tmp_path, "s.json", "Q", [["0", "0"], ["1", "0"]])
    code, out = run_json(capsys, ["infinitesimal", path, "--symmetry", "skew",
                                  "--construct"])
    assert code == 0 and out["exists"] and "witness" in out


def test_oracle_subcommand(tmp_path, capsys):
    path = write_instance(tmp_path, "o.json", "Q", J2)
    code, out = run_json(capsys, ["oracle", path, "--symmetry", "skew",
                                  "--seed", "5"])
    assert code == 0 and out["dimension"] == 1 and out["witness"] is not None
    code, out = run_json(capsys, ["oracle", path, "--symmetry", "symmetric",
                                  "--seed", "5"])
    assert code == 0 and out["witness"] is None


def test_bad_instance_files(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run_json(capsys, ["decide", str(path), "--symmetry", "skew"])
    assert code == 2
    path = write_instance(tmp_path, "rect.json", "Q", [["1", "0"]])
    code, out = run_json(capsys, ["decide", path, "--symmetry", "skew"])
    assert code == 2
    path = write_instance(tmp_path, "badf.json", {"Fp": 10}, J2)
    code, out = run_json(capsys, ["decide", path, "--symmetry", "skew"])
    assert code == 2
    path = write_instance(tmp_path, "bigf.json", {"Fp": 2 ** 89 - 1}, J2)
    code, out = run_json(capsys, ["decide", path, "--symmetry", "skew"])
    assert code == 2 and out["error"]["kind"] == "InputError"
    # exponent notation would make Fraction build a huge integer
    path = write_instance(tmp_path, "huge.json", "Q", [["1e10000000"]])
    code, out = run_json(capsys, ["decide", path, "--symmetry", "skew"])
    assert code == 2 and out["error"]["kind"] == "InputError"
    # an integer literal past the int digit limit fails inside json.load
    path = tmp_path / "bigint.json"
    path.write_text('{"field": "Q", "matrix": [[' + "1" * 5000 + "]]}")
    code, out = run_json(capsys, ["decide", str(path), "--symmetry", "skew"])
    assert code == 2 and out["error"]["kind"] == "InputError"
    path = write_instance(tmp_path, "zinv.json", {"Fp": 101}, [["1/101"]])
    code, out = run_json(capsys, ["decide", path, "--symmetry", "skew"])
    assert code == 2 and out["error"]["kind"] == "InputError"
    assert out["error"]["detail"].startswith("bad scalar")
    for value in (5, []):
        path = tmp_path / "notobj.json"
        path.write_text(json.dumps(value))
        code, out = run_json(capsys, ["decide", str(path), "--symmetry",
                                      "skew"])
        assert code == 2 and out["error"]["kind"] == "InputError"


def test_capability_error_small_characteristic(tmp_path, capsys):
    path = write_instance(tmp_path, "f2.json", {"Fp": 2}, [["1", "1"], ["0", "1"]])
    code, out = run_json(capsys, ["decide", path, "--symmetry", "skew"])
    assert code == 3 and out["error"]["kind"] == "SmallCharacteristic"
    path = write_instance(tmp_path, "f2g.json", {"Fp": 2},
                          [["1", "0"], ["0", "1"]],
                          gram=[["0", "1"], ["1", "0"]])
    code, out = run_json(capsys, ["decompose", path])
    assert code == 3 and out["error"]["kind"] == "SmallCharacteristic"


def test_selftest_smoke_and_determinism(capsys):
    code = run(["selftest", "--seed", "11", "--count", "12"])
    first = capsys.readouterr().out
    assert code == 0
    data = json.loads(first)
    assert data["summary"]["all_agree"]
    code = run(["selftest", "--seed", "11", "--count", "12"])
    second = capsys.readouterr().out
    assert code == 0 and first == second


def test_selftest_has_no_jobs_option(capsys):
    # selftest runs in one process; --jobs is an unknown option, reported
    # as JSON on stdout like any other input error
    code, out = run_json(capsys, ["selftest", "--seed", "13", "--count", "8",
                                  "--jobs", "2"])
    assert code == 2
    assert out["error"] == {"kind": "InputError",
                            "detail": "unrecognized arguments: --jobs 2"}


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0 and run(["selftest", "--help"]) == 0
    assert "usage: bilinv" in capsys.readouterr().out


SELFTEST = ["selftest", "--seed", "1"]


def _factoring(command, limit):
    """A factoring subcommand on a missing instance with a bad limit."""
    argv = [command, "missing.json", "--degree-limit", limit]
    return argv + (["--symmetry", "skew"] if command != "real" else [])


# each bad value is rejected before any instance is generated or read,
# with a detail that names it
@pytest.mark.parametrize("argv, code, kind, detail", [
    (SELFTEST + ["--fields", "4"], 2, "InputError", "modulus 4"),
    (SELFTEST + ["--fields", "x"], 2, "InputError", "--fields"),
    (SELFTEST + ["--fields", "101,"], 2, "InputError", "--fields"),
    (SELFTEST + ["--max-dim", "0"], 2, "InputError", "--max-dim"),
    (SELFTEST + ["--count", "-3"], 2, "InputError", "--count"),
    (SELFTEST + ["--count", "0"], 2, "InputError", "--count"),
    (_factoring("decide", "-5"), 2, "InputError", "--degree-limit"),
    (SELFTEST + ["--trials", "-2"], 2, "InputError", "--trials"),
    (["oracle", "missing.json", "--symmetry", "skew", "--seed", "5",
      "--trials", "-1"], 2, "InputError", "--trials"),
    (SELFTEST + ["--fields", "3"], 3, "SmallCharacteristic", "--max-dim 6"),
    (SELFTEST + ["--fields", "101,7", "--max-dim", "7"], 3,
     "SmallCharacteristic", "--max-dim 7"),
    (_factoring("construct", "0"), 2, "InputError", "--degree-limit"),
    (_factoring("infinitesimal", "-1"), 2, "InputError", "--degree-limit"),
    (_factoring("real", "0"), 2, "InputError", "--degree-limit"),
    (SELFTEST + ["--count", "x"], 2, "InputError", "--count"),
    # factorization is deterministic, so the factoring commands take no seed
    (_factoring("decide", "24") + ["--seed", "3"], 2, "InputError", "--seed"),
    (_factoring("real", "24") + ["--seed", "3"], 2, "InputError", "--seed"),
])
def test_bad_option_values(capsys, argv, code, kind, detail):
    got, out = run_json(capsys, argv)
    assert got == code and out["error"]["kind"] == kind
    assert detail in out["error"]["detail"]


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    import bilinv.cli

    def broken(*args, **kwargs):
        raise AssertionError("generator not annihilated")
    monkeypatch.setattr(bilinv.cli, "decide_invariant_form", broken)
    path = write_instance(tmp_path, "j2.json", "Q", J2)
    code, out = run_json(capsys, ["decide", path, "--symmetry", "skew"])
    assert code == 4
    assert out["error"] == {"kind": "InternalError",
                            "detail": "AssertionError: generator not "
                                      "annihilated"}
