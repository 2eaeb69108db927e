"""The four benchmark workloads.

Each workload turns (seed, cycle) into a list of instances with the
benchmark's own generator, runs one instance through bilinv's public
functions (`call`, the only timed part), checks the outputs against an
answer known without the decision code (`problems`), and reduces the
outputs to canonical JSON for the run digest (`canonical`).

The library is reached through module attributes (`decision.decide_*`,
not names imported into this file), so the tracer's wrappers, installed
on the bilinv modules, see every call.
"""

from bilinv import construction, corpus, decision, isometry, oracle
from bilinv.fields import PrimeField, QQ
from bilinv.linalg import Matrix

import gen
from verify import gram_problems

INV, INF = "invariant", "infinitesimal"
SYM, SKEW = "symmetric", "skew"


def _rows(M):
    return [list(r) for r in M.rows]


def _matrix(inst):
    field = PrimeField(inst["p"]) if inst["p"] else QQ
    return Matrix(field, inst["rows"], coerce=True)


class _Construct:
    """decide_* then construct_* on instances that are YES by
    construction, as `bilinv construct` / `infinitesimal --construct` do.
    """

    # (prime or None for Q, setting, symmetry, template); see gen.py
    SHAPES = ()
    TINY = ()

    def make(self, seed, cycle, tiny):
        out = []
        for i, (p, setting, symmetry, template) in enumerate(
                self.TINY if tiny else self.SHAPES):
            assert gen.template_admissible(template, symmetry)
            rng = gen.rng_for(self.name, seed, cycle, i)
            atoms = gen.template_atoms(template, setting, p, rng)
            J = gen.block_diag([gen.companion(a) for a in atoms])
            if p:
                rows, _ = gen.conjugate_fp([[x % p for x in r] for r in J],
                                           p, rng)
            else:
                rows = gen.conjugate_q(J, rng)
            out.append({"p": p, "setting": setting, "symmetry": symmetry,
                        "rows": rows})
        return out

    def call(self, inst):
        M = _matrix(inst)
        if inst["setting"] == INV:
            report = decision.decide_invariant_form(M, inst["symmetry"])
            cert = (construction.construct_invariant_form(M, inst["symmetry"])
                    if report.exists else None)
        else:
            report = decision.decide_infinitesimal_form(M, inst["symmetry"])
            cert = (construction.construct_infinitesimal_form(
                M, inst["symmetry"]) if report.exists else None)
        return report, cert

    def problems(self, inst, out):
        report, cert = out
        if not report.exists or cert is None:
            return ["decision: NO on an instance that is YES by construction"]
        return ["gram " + b for b in gram_problems(
            inst["rows"], _rows(cert.gram), inst["p"], inst["setting"],
            inst["symmetry"])]

    def canonical(self, out):
        report, cert = out
        return {"decision": report.to_json(),
                "certificate": cert.to_json() if cert else None}

    def routes(self, out):
        _, cert = out
        return cert.provenance if cert else []


def _uni(lam, k, copies=1):
    return ("uni", lam, k, copies)


def _nil(k, copies=1):
    return ("nil", k, copies)


SD, SD2, PAIR, PAIR2, PHI5 = ("sd", 1), ("sd", 2), ("pair", 1), ("pair", 2), \
    ("phi5",)


class FpConstruct(_Construct):
    name = "fp-construct"
    # invariant at n = 16 and infinitesimal at n = 18 cost about the same,
    # so per-instance latency is unimodal and its median is steady
    SHAPES = (
        (101, INV, SYM, (_uni(1, 3), _uni(-1, 1), _uni(1, 2, 2), SD, SD2,
                         PAIR)),
        (257, INF, SKEW, (_nil(2), _nil(1, 2), SD, SD2, PAIR, PAIR2, SD)),
        (257, INV, SKEW, (_uni(1, 2), _uni(-1, 3, 2), SD, SD2, PAIR)),
        (101, INF, SYM, (_nil(3), _nil(1), _nil(2, 2), SD, SD2, PAIR2)),
        (257, INV, SYM, (_uni(1, 3), _uni(1, 1), _uni(-1, 1, 2),
                         _uni(-1, 2, 2), SD, SD2)),
        (101, INF, SKEW, (_nil(2), _nil(3, 2), SD, SD2, PAIR, PAIR)),
        (101, INV, SKEW, (_uni(1, 2), _uni(-1, 4), _uni(1, 1, 2), SD, SD2,
                          PAIR)),
        (257, INF, SYM, (_nil(1), _nil(3), _nil(2, 2), SD, SD2, PAIR, SD)),
    )
    TINY = (
        (101, INV, SYM, (_uni(1, 3), SD, PAIR)),
        (257, INF, SKEW, (_nil(2), SD, PAIR)),
    )


class QConstruct(_Construct):
    name = "q-construct"
    # all at n = 10, the largest size the Q pipeline handles in about a
    # second; five invariant shapes (the dearer kind) against three
    # infinitesimal ones put the median inside one cost cluster
    SHAPES = (
        (None, INV, SYM, (PHI5, SD, _uni(1, 3), _uni(-1, 1))),
        (None, INF, SKEW, (PHI5, SD)),
        (None, INV, SKEW, (PHI5, SD, _uni(1, 2), _uni(-1, 1, 2))),
        (None, INF, SYM, (PHI5, SD)),
        (None, INV, SYM, (PHI5, SD, PAIR, _uni(1, 1), _uni(-1, 1))),
        (None, INV, SYM, (PHI5, SD, _uni(1, 1), _uni(-1, 3))),
        (None, INV, SKEW, (PHI5, SD, PAIR, _uni(-1, 2))),
        (None, INF, SYM, (PHI5, SD)),
    )
    TINY = (
        (None, INV, SYM, (PHI5, SD)),
        (None, INV, SKEW, (PHI5, SD)),
    )


class Selftest:
    """The per-instance work of `bilinv selftest --jobs 1`: for each
    symmetry, decide, then oracle solve and search, then construct on YES.
    The corpus() stream at dim <= 6 over F_101/F_257, both kinds
    interleaved."""

    name = "selftest"
    CYCLE = 200

    def make(self, seed, cycle, tiny):
        count = 8 if tiny else self.CYCLE
        base = (seed * 1009 + cycle) * 2
        inv = corpus.corpus(base, count - count // 2, INV)
        inf = corpus.corpus(base + 1, count // 2, INF)
        out = []
        for i in range(count):
            kind, pool = (INV, inv) if i % 2 == 0 else (INF, inf)
            field, T = pool[i // 2]
            out.append({"p": field.p, "kind": kind, "rows": _rows(T),
                        "search_seed": base * 1000003 + i})
        return out

    def call(self, inst):
        M = _matrix(inst)
        setting = inst["kind"]
        decide = (decision.decide_invariant_form if setting == INV
                  else decision.decide_infinitesimal_form)
        construct = (construction.construct_invariant_form if setting == INV
                     else construction.construct_infinitesimal_form)
        out = {}
        for symmetry in (SYM, SKEW):
            exists = decide(M, symmetry).exists
            witness = oracle.find_nondegenerate(
                oracle.solve_form_space(M, symmetry, setting),
                seed=inst["search_seed"], trials=oracle.DEFAULT_TRIALS)
            cert = construct(M, symmetry) if exists else None
            out[symmetry] = (exists, witness, cert)
        return out

    def problems(self, inst, out):
        bad = []
        for symmetry, (exists, witness, cert) in out.items():
            if exists != (witness is not None):
                bad.append(f"{symmetry}: decision {exists} disagrees with "
                           f"the oracle")
            for what, B in (("oracle", witness),
                            ("certificate", cert.gram if cert else None)):
                if B is not None:
                    bad += [f"{symmetry} {what} {b}" for b in gram_problems(
                        inst["rows"], _rows(B), inst["p"], inst["kind"],
                        symmetry)]
        return bad

    def canonical(self, out):
        return {s: {"exists": e,
                    "oracle": w.to_str_rows() if w is not None else None,
                    "certificate": c.to_json() if c else None}
                for s, (e, w, c) in out.items()}

    def routes(self, out):
        return [r for _, _, c in out.values() if c for r in c.provenance]


class FpAnalyze:
    """Decision-only callers on unipotent isometries over F_101 with
    symmetric-admissible Jordan types: both decide_invariant_form
    symmetries, decide_real, orthogonal_decomposition and level_analysis.
    The symmetric Gram is built in set-up."""

    name = "fp-analyze"
    P = 101
    # symmetric-admissible Jordan types, n = 12..16; half skew-admissible
    TYPES = ((5, 3, 2, 2), (4, 4, 3, 3, 1, 1), (7, 3, 2, 2, 1), (6, 6, 1, 1),
             (5, 4, 4, 1), (3, 3, 2, 2, 1, 1), (5, 5, 3, 3), (6, 6, 3))
    TINY = ((3, 2, 2), (3, 3, 1, 1))

    def __init__(self):
        self._forms = {}

    def _block_form(self, k, symmetry):
        # U^t K U = K for the lower unit bidiagonal U; set-up only
        key = (k, symmetry)
        if key not in self._forms:
            K = construction.unipotent_block_form(PrimeField(self.P), k,
                                                  symmetry)
            self._forms[key] = _rows(K)
        return self._forms[key]

    def _jordan_gram(self, parts):
        """(J, K): unipotent Jordan matrix and a symmetric invariant
        non-degenerate Gram; equal even parts are paired hyperbolically."""
        blocks, grams = [], []
        evens = {}
        for k in parts:
            if k % 2:
                blocks.append(gen.unipotent_block(k))
                grams.append(self._block_form(k, SYM))
            else:
                evens[k] = evens.get(k, 0) + 1
        for k, m in sorted(evens.items(), reverse=True):
            X = self._block_form(k, SKEW)
            Xt = gen.transpose(X)
            for _ in range(m // 2):
                U = gen.unipotent_block(k)
                blocks.append(gen.block_diag([U, U]))
                zero = [[0] * k for _ in range(k)]
                grams.append([zx + x for zx, x in zip(zero, X)] +
                             [xt + zx for xt, zx in zip(Xt, zero)])
        return gen.block_diag(blocks), gen.block_diag(grams)

    def make(self, seed, cycle, tiny):
        p = self.P
        out = []
        for i, parts in enumerate(self.TINY if tiny else self.TYPES):
            rng = gen.rng_for(self.name, seed, cycle, i)
            J, K = self._jordan_gram(parts)
            J = [[x % p for x in r] for r in J]
            K = [[x % p for x in r] for r in K]
            T, ginv = gen.conjugate_fp(J, p, rng)
            B = gen.mat_mul(gen.mat_mul(gen.transpose(ginv), K, p), ginv, p)
            bad = gram_problems(T, B, p, INV, SYM)
            if bad:
                raise AssertionError(f"generated Gram fails {bad}")
            out.append({"p": p, "rows": T, "gram": B, "parts": parts})
        return out

    def call(self, inst):
        F = PrimeField(inst["p"])
        T = Matrix(F, inst["rows"], coerce=True)
        B = Matrix(F, inst["gram"], coerce=True)
        return {
            SYM: decision.decide_invariant_form(T, SYM),
            SKEW: decision.decide_invariant_form(T, SKEW),
            "real": decision.decide_real(T),
            "orthogonal": isometry.orthogonal_decomposition(T, B),
            "level": isometry.level_analysis(T, B),
        }

    def problems(self, inst, out):
        parts, n = inst["parts"], len(inst["rows"])
        bad = []
        for symmetry, known in ((SYM, corpus.symmetric_admissible(parts)),
                                (SKEW, corpus.skew_admissible(parts))):
            if out[symmetry].exists != known:
                bad.append(f"{symmetry} decision {out[symmetry].exists} on "
                           f"Jordan type {parts}")
        if not out["real"].is_real:
            bad.append("unipotent map reported not real")
        dims = sum(s.basis.ncols for s in out["orthogonal"].summands)
        if dims != n:
            bad.append(f"orthogonal summands span {dims} of {n}")
        level = out["level"]
        if not level.bound_satisfied:
            bad.append(f"level bound {level.bound_case} violated")
        if level.level != max(parts):
            bad.append(f"level {level.level} != largest part {max(parts)}")
        return bad

    def canonical(self, out):
        return {k: v.to_json() for k, v in out.items()}

    def routes(self, out):
        return []


WORKLOADS = {w.name: w for w in (FpConstruct, QConstruct, Selftest, FpAnalyze)}

