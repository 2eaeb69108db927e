"""Seeded benchmark of bilinv's exact decide/construct pipeline.

Run from the repository root:

    python3 bench/run.py --workload fp-construct --seed 1 --seconds 15 --trace 0

Workloads: fp-construct, q-construct, selftest, fp-analyze (see
bench/README.md).  One process, one caller, one instance at a time: a
closed loop with no threads and no worker processes.

--trace 0 times whole instances for --seconds seconds of library time,
stopping at the end of a cycle of the workload's instance shapes, and
prints the end-to-end metrics.  --trace 1 works on the fixed, seeded
first cycle: an untraced pass, a traced pass (spans around each layer's
public functions, giving self times and call counts), and two counting
passes over its first quarter (scalar field calls, Poly and Matrix
operators); it prints the per-layer metrics.  Either way every output is
re-checked with the benchmark's own code, and the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a report with the run digest, the construction
route histogram, the git commit, Python version, nproc and seed; the
report and the spans are also written to bench/results/.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter as Histogram
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 5
WARM_UP_SEED = 0         # one warm-up instance for every seed
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import bilinv; "
                "print(time.perf_counter() - t)")
MIN_CYCLES = 3           # medians over cycles need a few of them
COUNT_SHARE = 4          # counting passes cover the first 1/COUNT_SHARE
P90_MIN_SAMPLES = 100    # so that at least ten samples lie beyond p90

SELF_DUAL_ROUTES = ("trace-form", "trace-form-fallback", "block-oracle")
FALLBACK_ROUTES = ("trace-form-fallback", "block-oracle")
ROUTES = ("unipotent-block", "nilpotent-block", "standard-pair",
          "hyperbolic-pair") + SELF_DUAL_ROUTES


def load_library():
    """Import bilinv from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bilinv
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import bilinv from {src}: {exc}")
    if src.resolve() not in Path(bilinv.__file__).resolve().parents:
        raise SystemExit(f"bench: bilinv was imported from {bilinv.__file__}, "
                         f"not from {src}")


def import_seconds() -> float:
    """Median time to import bilinv in a fresh interpreter (one import
    per process, so it is repeated in child processes)."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(child.stdout))
    return statistics.median(times)


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class Outcome:
    """One instance: latency of the library calls, output, problems."""

    __slots__ = ("latency", "out", "problems", "digest")

    def __init__(self, wl, inst):
        start = time.perf_counter()
        try:
            self.out = wl.call(inst)
        except Exception as exc:        # any exception is a failure
            self.latency = time.perf_counter() - start
            self.out = None
            self.problems = [f"{type(exc).__name__}: {exc}"]
            self.digest = digest({"error": type(exc).__name__})
            return
        self.latency = time.perf_counter() - start
        try:
            self.problems = wl.problems(inst, self.out)
            self.digest = digest(wl.canonical(self.out))
        except Exception as exc:
            self.problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.digest = digest({"error": type(exc).__name__})


def run_pass(wl, instances, tracer=None):
    outcomes = []
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = i
        outcomes.append(Outcome(wl, inst))
    return outcomes


def route_histogram(wl, outcomes):
    hist = Histogram()
    for o in outcomes:
        if o.out is not None:
            for entry in wl.routes(o.out):
                route = entry.rsplit(":", 1)[1]
                base, _, extra = route.partition("+")
                hist[base] += 1
                if extra:
                    hist[extra] += 1
    return dict(sorted(hist.items()))


def setup(wl, seed, tiny):
    """Generate the first cycle and warm up, SETUP_REPEATS times; the
    set-up time is the median import plus the median repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        instances = wl.make(seed, 0, tiny)
        Outcome(wl, wl.make(WARM_UP_SEED, -1, True)[0])
        times.append(time.perf_counter() - start)
    return instances, import_seconds() + statistics.median(times)


def timed_run(wl, seed, seconds, tiny, first_cycle):
    """Closed loop over fresh cycles until `seconds` of library time and
    at least MIN_CYCLES cycles; returns the outcomes of each cycle."""
    cycles, busy, instances = [], 0.0, first_cycle
    gc.collect()
    while True:
        done = run_pass(wl, instances)
        cycles.append(done)
        busy += sum(o.latency for o in done)
        if busy >= seconds and len(cycles) >= MIN_CYCLES:
            return cycles
        instances = wl.make(seed, len(cycles), tiny)


def _latencies(outcomes):
    """Sorted latencies; a failed instance misses every limit (inf)."""
    return sorted(o.latency if not o.problems else math.inf
                  for o in outcomes)


def end_to_end(wl, args, first_cycle, setup_s, report):
    cycles = timed_run(wl, args.seed, args.seconds, args.tiny, first_cycle)
    outcomes = [o for c in cycles for o in c]
    again = Outcome(wl, first_cycle[0])
    problems = []
    if again.digest != cycles[0][0].digest:
        problems.append("second pass over instance 0 changed its output")
    failed = sum(1 for o in outcomes if o.problems) + len(problems)
    # per-cycle figures, then the median over cycles: one slow instance
    # (Q Grams with huge entries) or a slow spell on a shared machine
    # moves a minority of cycles, not the median.  A cycle's median
    # averages its two middle shapes, which keeps p50 from jumping
    # between the cost levels of different shapes.
    per_cycle = [sum(1 for o in c if not o.problems)
                 / sum(o.latency for o in c) for c in cycles]
    throughput = statistics.median(per_cycle)
    p50 = statistics.median(statistics.median(_latencies(c)) for c in cycles)
    lat = _latencies(outcomes)
    report.update(
        cycles=len(cycles), cycle_throughput=per_cycle, samples=len(outcomes),
        busy_s=sum(o.latency for o in outcomes),
        digest=digest([o.digest for o in cycles[0]]),
        routes=route_histogram(wl, cycles[0]),
        problems=problems + [p for o in outcomes for p in o.problems][:20])
    if len(lat) >= P90_MIN_SAMPLES:
        report["latency_p90_ms"] = 1e3 * lat[math.ceil(0.9 * len(lat)) - 1]
    metrics = {
        "throughput_inst_s": (throughput, "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return len(outcomes) + 1, failed, metrics


def per_layer(wl, args, trace_set, report):
    from tracing import Counter, Tracer, self_times
    start = time.perf_counter()
    plain = run_pass(wl, trace_set)
    plain_s = time.perf_counter() - start
    with Tracer() as tracer:
        start = time.perf_counter()
        traced = run_pass(wl, trace_set, tracer)
        traced_s = time.perf_counter() - start
    share = trace_set[:math.ceil(len(trace_set) / COUNT_SHARE)]
    counted = []
    for _ in range(2):
        with Counter() as counter:
            outs = run_pass(wl, share)
        counted.append((counter.counts, outs))

    problems = []
    reference = [o.digest for o in plain]
    if [o.digest for o in traced] != reference:
        problems.append("traced pass output differs from the untraced pass")
    for counts, outs in counted:
        if [o.digest for o in outs] != reference[:len(share)]:
            problems.append("counting pass output differs from the untraced "
                            "pass")
    if counted[0][0] != counted[1][0]:
        problems.append(f"counts differ between two counting passes: "
                        f"{counted[0][0]} vs {counted[1][0]}")
    all_runs = plain + traced + [o for _, outs in counted for o in outs]
    failed = sum(1 for o in all_runs if o.problems) + len(problems)

    spans = tracer.spans
    selfs = self_times(spans)

    def total(name):
        return sum((t for s, t in zip(spans, selfs) if s["name"] == name), 0.0)

    def calls(name, pred=lambda s: True):
        return sum(1 for s in spans if s["name"] == name and pred(s))

    routes = route_histogram(wl, traced)
    self_dual = sum(routes.get(r, 0) for r in SELF_DUAL_ROUTES)
    counts = counted[0][0]
    m = {
        "canonical.smith.calls": calls("canonical.smith"),
        "canonical.smith.tracked_calls": calls("canonical.smith",
                                               lambda s: s["tracked"]),
        "canonical.smith.self_s": total("canonical.smith"),
        "canonical.elementary_divisors.self_s":
            total("canonical.elementary_divisors"),
        "canonical.decomposition.self_s": total("canonical.decomposition"),
        "linalg.char_poly.calls": calls("linalg.char_poly"),
        "linalg.char_poly.self_s": total("linalg.char_poly"),
        "linalg.matmul.calls": counts["linalg.matmul.calls"],
        "poly.factor.calls": calls("poly.factor"),
        "poly.factor.self_s": total("poly.factor"),
        "poly.mul.calls": counts["poly.mul.calls"],
        "poly.divmod.calls": counts["poly.divmod.calls"],
        "poly.errors": calls("poly.factor", lambda s: s["error"]),
        "decision.decide.calls": calls("decision.decide"),
        "decision.decide.self_s": total("decision.decide"),
        "decision.decide_real.self_s": total("decision.decide_real"),
        "construction.assemble.self_s": total("construction.construct"),
        "construction.self_dual_blocks": self_dual,
        "construction.trace_form_ratio":
            routes.get("trace-form", 0) / self_dual if self_dual else 0.0,
        "construction.fallback_blocks": sum(routes.get(r, 0)
                                            for r in FALLBACK_ROUTES),
        "construction.errors": calls("construction.construct",
                                     lambda s: s["error"]),
        "certificates.verify.calls": calls("certificates.verify"),
        "certificates.verify.self_s": total("certificates.verify"),
        "oracle.solve.self_s": total("oracle.solve"),
        "oracle.search.self_s": total("oracle.search"),
        "oracle.fallback.calls": sum(
            1 for s in spans if s["name"].startswith("oracle.")
            and s["parent"] is not None
            and spans[s["parent"]]["name"] == "construction.construct"),
        "isometry.decompose.self_s": total("isometry.decompose"),
        "isometry.level.self_s": total("isometry.level"),
        "fields.ops": counts["fields.ops"],
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.instances": len(trace_set),
        "trace.count_instances": len(share),
    }
    for route in ROUTES + ("converter",):
        m[f"construction.route.{route}"] = routes.get(route, 0)
    metrics = {name: (value, "s" if name.endswith("_s") else
                      "ratio" if name.endswith("_ratio") else "count")
               for name, value in m.items()}
    report.update(
        samples=len(trace_set), untraced_s=plain_s, traced_s=traced_s,
        digest=digest(reference), routes=routes, counts=counts,
        problems=problems + [p for o in all_runs for p in o.problems][:20])
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(
        [dict(s, self_s=t) for s, t in zip(spans, selfs)]))
    return len(all_runs), failed, metrics


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instance sizes, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    load_library()
    args = parse_args(argv)
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]()
    first_cycle, setup_s = setup(wl, args.seed, args.tiny)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "tiny": args.tiny,
              "commit": git_commit(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "setup_s": setup_s}
    if args.trace:
        attempted, failed, metrics = per_layer(wl, args, first_cycle, report)
    else:
        attempted, failed, metrics = end_to_end(wl, args, first_cycle,
                                                setup_s, report)
    report["fail_ratio"] = failed / attempted
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
