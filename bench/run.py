"""Benchmark of the cycliccovers CLI, driven in-process.

    python3 bench/run.py --workload interior --seed 1 --seconds 20 --trace 0

Each op is a call of `cycliccovers.cli.main(argv)` with stdout captured (or,
for the character-class table, a library call), issued one after another
from one thread.  Every op is bracketed by units of the package-free
reference kernel in `refkernel.py`, and its time is scaled to reference
speed.  After the timed region every output is checked.  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per layer with --trace 1).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT_DIR = os.path.join(BENCH_DIR, "out")

import refkernel  # noqa: E402  (package-free, lives beside this file)

SETUP_SAMPLES = 9
SETUP_REF_UNITS = 24
SETUP_CODE = (
    "import sys; sys.path.insert(0, %r); "
    "import cycliccovers.cli as cli; cli.build_parser()" % SRC
)

PER_LAYER = (
    ("combinat.weighted_compositions", ("yielded", "self_ms")),
    ("branching.enumerate_admissible", ("calls", "self_ms")),
    ("branching.admissible_quotient_genus", ("calls", "rejected")),
    ("branching.canonical_datum", ("calls",)),
    ("branching.smooth_locus", ("calls", "self_ms")),
    ("sing_smooth.decompose_sing", ("self_ms",)),
    ("sing_smooth.classify", ("calls", "self_ms")),
    ("sing_smooth.container_info", ("calls", "self_ms")),
    ("stable_graphs.enumerate_graphs", ("self_ms",)),
    ("stable_graphs.check_graph", ("calls", "rejected", "self_ms")),
    ("stable_graphs.canonical_encoding", ("calls", "self_ms")),
    ("stable_graphs.canonical_form", ("calls", "self_ms")),
    ("stable_graphs.simplify", ("calls", "self_ms")),
    ("stable_graphs.smooth_node", ("calls",)),
    ("sing_stable.boundary_survey", ("self_ms",)),
    ("cover_algebra.branch_assignment", ("calls", "self_ms")),
    ("cover_algebra.irreducibility", ("calls", "self_ms")),
    ("cover_algebra.character_class", ("calls", "self_ms")),
    ("cli.main", ("calls", "self_ms")),
)
OUTPUT_METRICS = ("stable_graphs.classes_out", "sing_stable.components_out")


@dataclass
class Outcome:
    code: int = 0
    out: str = ""
    err: str = ""
    value: object = None
    error: str = ""  # uncaught exception: the op failed


def execute(req) -> Outcome:
    """Run one op; an uncaught exception makes it a failed op."""
    from cycliccovers import cli

    res = Outcome()
    if req.call is not None:
        try:
            res.value = req.call()
        except Exception:
            res.error = traceback.format_exc(limit=2)
        return res
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            res.code = cli.main(list(req.argv))
    except Exception as exc:
        res.error = "%s: %s" % (type(exc).__name__, exc)
    res.out, res.err = out.getvalue(), err.getvalue()
    return res


def measure_setup() -> tuple[float, float]:
    """Median (scaled, raw) seconds from a fresh interpreter to the package
    imported and the CLI parser built."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, check=True)  # warm-up: writes the bytecode caches
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        pre = refkernel.run(SETUP_REF_UNITS)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        t = time.perf_counter() - t0
        post = refkernel.run(SETUP_REF_UNITS)
        raw.append(t)
        scaled.append(t * 2 * SETUP_REF_UNITS * refkernel.UNIT_NOMINAL_S / (pre + post))
    return statistics.median(scaled), statistics.median(raw)


def timed_ops(reqs, tracer):
    """Run the ops with reference brackets; returns per-op records."""
    import workloads

    records = []
    for req in reqs:
        n = workloads.ref_units(req, refkernel.UNIT_NOMINAL_S)
        gc.collect()
        pre = refkernel.run(n)
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        outcome = execute(req)
        raw = time.perf_counter() - t0
        after = tracer.snapshot() if tracer else None
        post = refkernel.run(n)
        scale = 2 * n * refkernel.UNIT_NOMINAL_S / (pre + post)
        rec = {"req": req, "outcome": outcome, "raw_s": raw, "scale": scale,
               "scaled_s": raw * scale, "ref_units": n, "ref_s": (pre, post)}
        if tracer:
            rec["self_s"] = {k: (v - before.get(k, 0.0)) * scale
                             for k, v in after.items() if v != before.get(k, 0.0)}
        records.append(rec)
    return records


def run_checks(records, seed: int) -> tuple[list[str], int]:
    """(problems, failed ops).  Failed ops are those that raised."""
    import checks

    rng = random.Random("check:%d" % seed)
    problems, failed = [], 0
    for rec in records:
        req, outcome = rec["req"], rec["outcome"]
        if outcome.error:
            failed += 1
            if not req.known_fault:
                problems.append("%s: failed: %s" % (req.label(), outcome.error))
            continue
        try:
            checks.check(req, outcome, rng)
        except Exception as exc:  # a check that crashes is a failed check
            problems.append("%s: %s: %s" % (req.label(), type(exc).__name__, exc))
    # Repeated identical requests give byte-identical stdout: re-issue the
    # cheapest request of every kind.
    cheapest = {}
    for rec in records:
        req = rec["req"]
        if req.known_fault:
            continue
        if req.kind not in cheapest or req.nominal_s < cheapest[req.kind]["req"].nominal_s:
            cheapest[req.kind] = rec
    for rec in cheapest.values():
        again = execute(rec["req"])
        first = rec["outcome"]
        same = (again.code, again.out, again.error, repr(again.value)) == (
            first.code, first.out, first.error, repr(first.value))
        if not same:
            problems.append("%s: repeated request gave different output"
                            % rec["req"].label())
    return problems, failed


def end_to_end(records, setup) -> dict:
    scaled = [r["scaled_s"] for r in records]
    return {
        "setup_s": (setup[0], "s"),
        "op_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "wall_s": (sum(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(records, tracer) -> tuple[dict, dict]:
    """(metrics, self seconds by function) of a traced run."""
    self_s: dict[str, float] = {}
    for rec in records:
        for k, v in rec["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
    metrics = {}
    for name, kinds in PER_LAYER:
        for kind in kinds:
            if kind == "self_ms":
                metrics["%s.self_ms" % name] = (self_s.get(name, 0.0) * 1000, "ms")
            else:
                table = getattr(tracer, kind)
                metrics["%s.%s" % (name, kind)] = (table.get(name, 0), "count")
    for name in OUTPUT_METRICS:
        metrics[name] = (tracer.outputs.get(name, 0), "count")
    return metrics, self_s


def report_traced(workload: str, records, tracer) -> dict:
    """Print the per-layer metrics, the largest self times and the tracing
    overhead; write the span dump.  Returns the metrics."""
    metrics, self_s = per_layer(records, tracer)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        shown = "%d" % value if unit == "count" else "%.3f" % value
        print("%-*s %14s %s" % (width, name, shown, unit))
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
    total = sum(self_s.values())
    print("largest self times: " + ", ".join(
        "%s %.0f%%" % (k, 100 * v / total) for k, v in top))
    wall = sum(r["scaled_s"] for r in records)
    last = os.path.join(OUT_DIR, "%s.json" % workload)
    if os.path.isfile(last):
        with open(last, encoding="utf-8") as fh:
            untraced = json.load(fh)["metrics"]["wall_s"]["value"]
        print("tracing overhead: wall_s %.3f traced vs %.3f untraced (%s): %+.0f%%"
              % (wall, untraced, os.path.relpath(last, ROOT),
                 100 * (wall / untraced - 1)))
    else:
        print("tracing overhead: no untraced run of %s recorded yet" % workload)
    spans = os.path.join(OUT_DIR, "%s-spans.tsv" % workload)
    tracer.write_spans(spans)
    print("spans: %d written to %s, %d not kept"
          % (tracer.span_count(), os.path.relpath(spans, ROOT), tracer.spans_dropped))
    return metrics


def report_untraced(args, records, setup, summary, metrics) -> None:
    """Print the raw figures beside the scaled ones; write the raw result."""
    scaled = [r["scaled_s"] for r in records]
    raw = [r["raw_s"] for r in records]
    print("op time  scaled p50 %.2f ms  raw p50 %.2f ms  (%d samples)"
          % (statistics.median(scaled) * 1000, statistics.median(raw) * 1000,
             len(scaled)))
    print("wall     scaled %.3f s  raw %.3f s" % (sum(scaled), sum(raw)))
    print("setup    scaled %.4f s  raw %.4f s  (median of %d)"
          % (setup[0], setup[1], SETUP_SAMPLES))
    print("peak rss %.1f MB" % metrics["peak_rss_mb"][0])
    raw_out = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": sys.version.split()[0], **summary,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_raw_s": setup[1],
        "ops": [{"op": r["req"].label(), "raw_s": r["raw_s"], "scale": r["scale"],
                 "scaled_s": r["scaled_s"], "ref_units": r["ref_units"],
                 "ref_s": r["ref_s"], "error": r["outcome"].error}
                for r in records],
    }
    with open(os.path.join(OUT_DIR, "%s.json" % args.workload), "w",
              encoding="utf-8") as fh:
        json.dump(raw_out, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("interior", "boundary", "documents"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cycliccovers", "cli.py")) or \
            not os.path.isfile(os.path.join(TESTS, "oracles.py")):
        print("error: %s and %s must hold the package and its oracles"
              % (SRC, TESTS), file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, TESTS]
    import cycliccovers.cli  # noqa: F401  (imported before the timed region)
    import workloads
    import checks  # noqa: F401  (loads the oracles before the timed region)

    if refkernel.unit() != refkernel.UNIT_CHECKSUM:
        print("error: reference kernel checksum mismatch", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT_DIR, "docs", args.workload)
    os.makedirs(workdir, exist_ok=True)

    setup = (None, None) if args.trace else measure_setup()
    reqs, rounds = workloads.plan(args.workload, args.seed, args.seconds, workdir,
                                  refkernel.UNIT_NOMINAL_S)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t_start = time.perf_counter()
    try:
        records = timed_ops(reqs, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    measured = time.perf_counter() - t_start
    if not args.trace:
        e2e = end_to_end(records, setup)  # peak RSS read before the checks
    problems, failed = run_checks(records, args.seed)

    print("workload %s  seed %d  rounds %d  ops %d  failed %d  measured %.1f s"
          % (args.workload, args.seed, rounds, len(records), failed, measured))
    print("host speed (reference nominal / measured): median %.3f, min %.3f, max %.3f"
          % (statistics.median(r["scale"] for r in records),
             min(r["scale"] for r in records), max(r["scale"] for r in records)))
    for rec in records:
        if rec["outcome"].error:
            print("failed op: %s: %s" % (rec["req"].label(), rec["outcome"].error))
    for p in problems:
        print("CHECK FAILED: %s" % p)
    summary = {"attempted": len(records), "failed": failed}
    if args.trace:
        metrics = report_traced(args.workload, records, tracer)
    else:
        metrics = e2e
        report_untraced(args, records, setup, summary, metrics)
    print(json.dumps({
        "correct": not problems, **summary,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
