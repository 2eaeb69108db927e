"""Batch front end: JSON instances in, machine-readable certificates out.

Instance file schema:

    {"field": "Q" | {"Fp": p},
     "matrix": [["1", "1/2"], ["0", "1"]],
     "gram":   optional, same shape}

decide, construct, infinitesimal and real take --degree-limit (the
degree cap of factorization over Q, at least 1).  verify, decompose
and level factor nothing (decompose and level read the Jordan type off
a kernel chain), so none of the three takes it.  Only oracle and
selftest take --seed: it seeds the oracle's random search and the
selftest corpus.

Exit codes: 0 computed (even when the answer is "no form exists"),
1 verification failure, 2 input error, 3 capability error (degree limit,
rationals unsupported, small characteristic), 4 internal error (a failed
internal consistency check or any other unexpected exception: a bug,
never an answer about the input).
All errors are also reported as {"error": {"kind", "detail"}} on stdout,
with kind "InternalError" for exit code 4.
"""

import argparse
import json
import sys
import traceback

from .certificates import (INFINITESIMAL, INVARIANT, SETTINGS, SKEW,
                           SYMMETRIC, verify_gram)
from .corpus import DEFAULT_FIELDS, corpus
from .decision import (decide_infinitesimal_form, decide_invariant_form,
                       decide_real)
from .errors import (CAPABILITY_ERRORS, BilinvError, InputError,
                     SmallCharacteristic, UnverifiedForm, ZeroInverse)
from .fields import PrimeField, QQ, is_prime
from .isometry import level_analysis, orthogonal_decomposition
from .linalg import Matrix
from .oracle import DEFAULT_TRIALS, find_nondegenerate, solve_form_space


def _parse_field(spec):
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        p = spec["Fp"]
        try:
            prime = isinstance(p, int) and is_prime(p)
        except ValueError as exc:
            raise InputError(f"modulus {p!r} is too large: {exc}") from exc
        if not prime:
            raise InputError(f"modulus {p!r} is not a prime integer")
        return PrimeField(p)
    raise InputError(f'field must be "Q" or {{"Fp": p}}, got {spec!r}')


def _parse_matrix(field, rows, what):
    if not isinstance(rows, list) or not rows or \
            any(not isinstance(r, list) for r in rows):
        raise InputError(f"{what} must be a non-empty array of arrays")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError(f"{what} must be square")
    try:
        return Matrix(field, [[field.parse(str(e)) for e in r] for r in rows])
    except (ValueError, ZeroDivisionError, ZeroInverse) as exc:
        raise InputError(f"bad scalar in {what}: {exc}") from exc


def load_instance(path, need_gram=False):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past the digit limit
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"instance must be a JSON object, got {data!r}")
    if "field" not in data or "matrix" not in data:
        raise InputError('instance needs "field" and "matrix"')
    field = _parse_field(data["field"])
    T = _parse_matrix(field, data["matrix"], "matrix")
    gram = None
    if data.get("gram") is not None:
        gram = _parse_matrix(field, data["gram"], "gram")
        if gram.nrows != T.nrows:
            raise InputError("gram and matrix sizes differ")
    if need_gram and gram is None:
        raise InputError('this subcommand requires a "gram" entry')
    return field, T, gram


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _internal_error_exit(exc) -> int:
    # the traceback goes to stderr, so stdout stays one JSON document
    traceback.print_exception(exc, file=sys.stderr)
    detail = "".join(traceback.format_exception_only(exc)).strip()
    _emit({"error": {"kind": "InternalError", "detail": detail}})
    return 4


def _error_exit(exc) -> int:
    payload = {"error": {"kind": type(exc).__name__, "detail": str(exc)}}
    _emit(payload)
    if isinstance(exc, CAPABILITY_ERRORS):
        return 3
    if isinstance(exc, UnverifiedForm):
        return 1
    return 2


# --- subcommand bodies ----------------------------------------------------------

def _check_at_least(args, **bounds):
    for name, low in bounds.items():
        if getattr(args, name) < low:
            raise InputError(f"--{name.replace('_', '-')} must be at least "
                             f"{low}, got {getattr(args, name)}")


def _cmd_form(args) -> int:
    # decide, construct and infinitesimal: each subparser's set_defaults
    # names the decision function, and construct is fixed there or given
    # by the --construct flag
    _check_at_least(args, degree_limit=1)
    _, M, _ = load_instance(args.instance)
    report = args.decide(M, args.symmetry, construct=args.construct,
                         degree_limit=args.degree_limit)
    _emit(report.to_json())
    return 0


def _cmd_verify(args) -> int:
    _, T, gram = load_instance(args.instance, need_gram=True)
    checks = verify_gram(T, gram, args.symmetry, args.setting)
    ok = all(checks.values())
    _emit({"verified": ok, "checks": checks})
    return 0 if ok else 1


def _cmd_real(args) -> int:
    _check_at_least(args, degree_limit=1)
    _, T, _ = load_instance(args.instance)
    report = decide_real(T, degree_limit=args.degree_limit)
    _emit(report.to_json())
    return 0


def _cmd_isometry(args) -> int:
    # decompose and level: each subparser's set_defaults names the analysis
    _, T, gram = load_instance(args.instance, need_gram=True)
    _emit(args.analyze(T, gram).to_json())
    return 0


def _cmd_oracle(args) -> int:
    _check_at_least(args, trials=0)
    field, M, _ = load_instance(args.instance)
    space = solve_form_space(M, args.symmetry, args.setting)
    witness = find_nondegenerate(space, seed=args.seed, trials=args.trials)
    payload = {
        "dimension": space.dimension,
        "symmetry": args.symmetry,
        "setting": args.setting,
        "seed": args.seed,
        "witness": witness.to_str_rows() if witness is not None else None,
    }
    _emit(payload)
    return 0


# --- selftest --------------------------------------------------------------------

def _selftest_record(index, kind, T, seed, trials):
    rec = {"index": index, "kind": kind, "field": f"F{T.field.p}",
           "dim": T.nrows, "results": {}}
    decide = decide_invariant_form if kind == "invariant" \
        else decide_infinitesimal_form
    setting = INVARIANT if kind == "invariant" else INFINITESIMAL
    for symmetry in (SYMMETRIC, SKEW):
        report = decide(T, symmetry, construct=True)
        exists = report.exists
        witness = find_nondegenerate(
            solve_form_space(T, symmetry, setting), seed=seed, trials=trials)
        certificate = all(report.witness.checks.values()) if exists else None
        rec["results"][symmetry] = {
            "exists": exists,
            "oracle": witness is not None,
            "agree": exists == (witness is not None),
            "certificate": certificate,
        }
    return rec


def _cmd_selftest(args) -> int:
    _check_at_least(args, count=1, max_dim=1, trials=0)
    try:
        primes = tuple(_parse_field({"Fp": int(p)}).p
                       for p in args.fields.split(","))
    except ValueError as exc:
        raise InputError(f"--fields must list primes: {exc}") from exc
    # decisions need p > n, and the corpus's dual pairs need a scalar
    # outside {0, 1, -1} that is not its own inverse, so p >= 5
    if min(primes) <= max(4, args.max_dim):
        raise SmallCharacteristic(f"selftest needs every prime above 4 and "
                                  f"above --max-dim {args.max_dim}")
    half = args.count // 2
    pools = (("invariant", args.seed, args.count - half),
             ("infinitesimal", args.seed + 1, half))
    records = []
    for kind, seed, cnt in pools:
        for _, T in corpus(seed, cnt, kind, primes, args.max_dim):
            index = len(records)
            records.append(_selftest_record(
                index, kind, T, args.seed * 1000003 + index, args.trials))
    checks = [r["results"][s] for r in records for s in (SYMMETRIC, SKEW)]
    summary = {
        "instances": len(records),
        "checks": len(checks),
        "agreements": sum(1 for c in checks if c["agree"]),
        "certificates": sum(1 for c in checks if c["certificate"]),
        "failed_certificates": sum(
            1 for c in checks if c["certificate"] is False),
        "all_agree": all(c["agree"] for c in checks),
    }
    _emit({"seed": args.seed, "summary": summary, "records": records})
    return 0 if summary["all_agree"] else 1


# --- argument parsing --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An unknown option or a value that does not parse is an InputError,
    reported as JSON with exit 2 like any other; subparsers inherit this
    class.  --help still prints and exits 0."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bilinv",
        description="Invariant bilinear form decisions, witnesses and "
                    "unipotent isometry analysis over Q and F_p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, factoring=False, symmetry=False, setting=False):
        p.add_argument("instance", help="path to a JSON instance file")
        if factoring:
            p.add_argument("--degree-limit", type=int, default=24)
        if symmetry:
            p.add_argument("--symmetry", choices=(SYMMETRIC, SKEW),
                           required=True)
        if setting:
            p.add_argument("--setting", choices=SETTINGS, required=True)

    p = sub.add_parser("decide", help="invariant-form existence")
    common(p, factoring=True, symmetry=True)
    p.set_defaults(run=_cmd_form, decide=decide_invariant_form,
                   construct=False)
    p = sub.add_parser("construct", help="existence plus a verified witness")
    common(p, factoring=True, symmetry=True)
    p.set_defaults(run=_cmd_form, decide=decide_invariant_form,
                   construct=True)
    p = sub.add_parser("infinitesimal",
                       help="infinitesimally invariant form existence")
    common(p, factoring=True, symmetry=True)
    p.add_argument("--construct", action="store_true")
    p.set_defaults(run=_cmd_form, decide=decide_infinitesimal_form)
    p = sub.add_parser("verify", help="re-check a provided witness")
    common(p, symmetry=True, setting=True)
    p.set_defaults(run=_cmd_verify)
    p = sub.add_parser("real", help="conjugacy to the inverse")
    common(p, factoring=True)
    p.set_defaults(run=_cmd_real)
    p = sub.add_parser("decompose",
                       help="orthogonal decomposition (needs gram)")
    common(p)
    p.set_defaults(run=_cmd_isometry, analyze=orthogonal_decomposition)
    p = sub.add_parser("level", help="unipotent level bounds (needs gram)")
    common(p)
    p.set_defaults(run=_cmd_isometry, analyze=level_analysis)
    p = sub.add_parser("oracle", help="solve the invariance equations")
    p.set_defaults(run=_cmd_oracle)
    p.add_argument("instance")
    p.add_argument("--symmetry", choices=(SYMMETRIC, SKEW), required=True)
    p.add_argument("--setting", choices=SETTINGS, default=INVARIANT)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p = sub.add_parser("selftest", help="run the seeded agreement corpus")
    p.set_defaults(run=_cmd_selftest)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--max-dim", type=int, default=6)
    p.add_argument("--fields", default=",".join(str(p) for p in DEFAULT_FIELDS))
    return parser


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except InputError as exc:
        return _error_exit(exc)
    except SystemExit as exc:     # --help
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except BilinvError as exc:
        return _error_exit(exc)
    except Exception as exc:
        return _internal_error_exit(exc)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
