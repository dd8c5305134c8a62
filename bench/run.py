"""bvdomains benchmark: one seeded workload, run as a closed loop.

    python3 bench/run.py --workload dual_sweep --seed 1 --seconds 20 --trace 0

One client calls ``bvdomains.cli.main(argv)`` in-process for each generated
op and sends the next op only after the previous one returned.  Every op's
exit code and stdout are checked (see checks.py); a failed check or an
exception escaping ``cli.main`` counts as a failed op and the run goes on.

--trace 0 measures the end-to-end metrics with no instrumentation.  The
workload's pool of ops (see workloads.py), as many as its nominal rate fits
in a PASSES-th of --seconds, is run PASSES times in the seed's order, each
time by a fresh interpreter (worker.py), one after another.  A fresh
interpreter per pass keeps a cache that lives across calls from turning a
replay into a hit.

Op latencies are seconds at the reference speed.  The host's speed moves by
tens of percent within seconds and in phases that outlast a run.  Each pass
times worker.reference_kernel, exact Fraction arithmetic like the ops', every
REF_EVERY ops, and each op's wall time is scaled by REF_S over the median of
the kernel timings around it.  An op's latency is the median of its scaled
times over the passes; a minimum would pick whichever pass's scale erred low.
setup_s is wall time: start-up and imports do not slow with the kernel.
  ops_per_s    ops per second of summed op latency
  op_p50_s     median op latency (spec parsing and output included)
  op_p90_s     90th-percentile op latency (over workloads.MIN_OPS ops or more)
  setup_s      median over the passes of the time from starting the pass's
               interpreter to the end of its set-up, just before the first
               op: start-up, ``import bvdomains`` and ``cli.build_parser()``
  peak_rss_mb  largest peak resident set size of a pass
--trace 1 replays TRACE_OPS ops of the pool in this process, alternating
untraced and traced passes until --seconds is spent, and reports per-layer
shares of op time, exact work counts and the tracing overhead.  The spans go
to .bench_out/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

PASSES = 3
REF_S = 0.06  # about the reference kernel's time on the machine in record.json
REF_EVERY = 4
MAX_PASS_SECONDS = 45.0  # PASSES of them keep even a very slow host's run inside 180 s
TRACE_OPS = 24

# Per-layer time is reported as a share of traced op time: the host's speed
# drifts from run to run, and a share moves only when the layer's work does.
# Self time excludes child spans; "incl" shares are whole calls.
SELF_SHARES = (
    ("core.forward_subst_pct", "core.forward_subst"),
    ("core.compose_pct", "core.compose"),
    ("core.truncate_pct", "core.truncate"),
    ("core.dense_mul_pct", "core.dense_mul"),
    ("duals.assoc_pct", "duals.assoc"),
    ("duals.cond_self_pct", "duals.cond"),
    ("duals.cross_check_pct", "duals.cross_check"),
    ("matclass.transform_pct", "matclass.transform"),
    ("matclass.apply_pct", "matclass.apply"),
    ("spaces.membership_pct", "spaces.membership"),
    ("cli.parse_pct", "cli.parse"),
    ("cli.serialize_pct", "cli.serialize"),
    ("cli.main_self_pct", "cli.main"),
    ("verify.suite_pct", "verify.suite"),
)
INCL_SHARES = (
    ("duals.dual_test_pct", "duals.dual_test"),
    ("matclass.row_checks_pct", "matclass.row_checks"),
)
COUNTS = (
    ("core.entry_calls", "count"),
    ("core.entry_evals", "count"),
    ("core.forward_subst_evals", "count"),
    ("core.compose_evals", "count"),
    ("core.seq_calls", "count"),
    ("duals.assoc_entry_calls", "count"),
    ("cli.output_bytes", "bytes"),
    ("cli.max_den_bits", "bits"),
    ("verify.checks", "count"),
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "bvdomains" / "__init__.py").is_file():
        _fail(f"no bvdomains package under {SRC}")
    sys.path.insert(0, str(SRC))
    from bvdomains import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        _fail(f"imported bvdomains from {cli.__file__}, not from {SRC}")
    return cli


def run_op(main, argv, tracer=None):
    """Call cli.main once; returns (exit code or None, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.run_op(main, argv) if tracer else main(argv)
    except Exception as exc:  # a traceback escaping cli.main is a failed op
        code, error = None, f"{type(exc).__name__}: {exc}"
    except SystemExit as exc:  # argparse rejects an argv by exiting
        code = exc.code
    seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return code, out.getvalue(), error, seconds


class Run:
    """Attempted/failed tallies and the first few failure reasons."""

    def __init__(self, golden: list):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def op(self, main, index, argv, tracer=None):
        code, stdout, error, seconds = run_op(main, argv, tracer)
        self.attempted += 1
        if error is None:
            expected = self.golden[index] if index < len(self.golden) else None
            error = checks.check_output(argv, code, stdout, expected)
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"op {index} {argv[:2]}: {error}")
        return stdout, seconds


def load_golden(workload: str) -> list:
    """The stdout digests of the workload's pool ops, by pool index."""
    path = BENCH_DIR / "golden.json"
    if not path.is_file():
        return []
    return json.loads(path.read_text())["digests"].get(workload, [])


def _pass(workload, seed, count) -> dict:
    """One pass of the op stream in a fresh interpreter (see worker.py), with
    its set-up time added."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), str(count)],
        cwd=ROOT, capture_output=True, text=True, timeout=MAX_PASS_SECONDS + 15,
    )
    if proc.returncode != 0:
        _fail(f"worker failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["setup_done_at"] - started
    return result


def scaled_latencies(p: dict) -> list:
    """A pass's op latencies in seconds at the reference speed: each scaled
    by REF_S over the median of the two kernel timings before and the two
    after its group of REF_EVERY ops."""
    refs = p["references"]
    return [
        seconds * REF_S / statistics.median(refs[max(0, i // REF_EVERY - 1): i // REF_EVERY + 3])
        for i, seconds in enumerate(p["latencies"])
    ]


def measure(workload, seed, seconds, run):
    count = workloads.pass_ops(workload, seconds / PASSES)
    passes = [_pass(workload, seed, count) for _ in range(PASSES)]
    for p in passes:
        run.attempted += len(p["latencies"])
        run.failed += p["failed"]
        run.reasons.extend(p["reasons"][: 5 - len(run.reasons)])
    latencies = [statistics.median(times) for times in zip(*map(scaled_latencies, passes))]
    references = [t for p in passes for t in p["references"]]
    print(f"  reference kernel median {1000 * statistics.median(references):.4g} ms "
          f"over {len(references)} timings (REF_S {1000 * REF_S:g} ms)", file=sys.stderr)
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median([p["setup_s"] for p in passes]), "s"),
    }, len(latencies)


def traced_counts(tracer, ops, outputs) -> dict:
    """The deterministic counters of one traced pass."""
    counts = {name: tracer.counts[name] for name, _ in COUNTS}
    counts["cli.output_bytes"] = sum(len(out.encode()) for out in outputs)
    counts["cli.max_den_bits"] = max(checks.max_den_bits(argv, out) for argv, out in zip(ops, outputs))
    counts["verify.checks"] = sum(
        json.loads(out)["report"]["summary"]["total"]
        for argv, out in zip(ops, outputs) if argv[0] == "verify"
    )
    return counts


def trace(main, workload, seed, seconds, run):
    from tracing import ROOT_SPAN, Tracer  # imports bvdomains, so only after import_package

    ops = workloads.run_ops(workload, seed, TRACE_OPS)
    argvs = [argv for _, argv in ops]
    plain_s, traced_s, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain_s.append(sum(run.op(main, i, argv)[1] for i, argv in ops))
        with Tracer() as tracer:
            outputs = [run.op(main, i, argv, tracer)[0] for i, argv in ops]
        traced_s.append(tracer.incl_s[ROOT_SPAN])
        passes.append((tracer, traced_counts(tracer, argvs, outputs)))
        if time.perf_counter() - start >= 2 * MAX_PASS_SECONDS:
            break

    first, counts = passes[0]
    repeatable = all(c == counts for _, c in passes[1:])
    if not repeatable:
        run.reasons.append("traced passes disagree on the deterministic counters")
    total = sum(traced_s)
    metrics = {}
    for metric, span in SELF_SHARES:
        metrics[metric] = (100 * sum(t.self_s[span] for t, _ in passes) / total, "%")
    for metric, span in INCL_SHARES:
        metrics[metric] = (100 * sum(t.incl_s[span] for t, _ in passes) / total, "%")
    for name, unit in COUNTS:
        metrics[name] = (counts[name], unit)
    metrics["core.entry_hit_ratio"] = (1 - counts["core.entry_evals"] / counts["core.entry_calls"], "ratio")
    traced_rate = len(ops) / statistics.median(traced_s)
    plain_rate = len(ops) / statistics.median(plain_s)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_pct"] = (100 * (plain_rate / traced_rate - 1), "%")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload}-{seed}.json").write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "ops": argvs,
        "counts": counts,
        "self_s": dict(first.self_s),
        "incl_s": dict(first.incl_s),
        "spans": first.spans,
        "closure_spans": [[op, name, n, s] for (op, name), (n, s) in first.closure_spans.items()],
    }))
    return metrics, repeatable, len(passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    run = Run(load_golden(args.workload))
    if args.trace:
        metrics, correct, passes = trace(cli.main, args.workload, args.seed, args.seconds, run)
        label = f"{passes} untraced and {passes} traced passes of {TRACE_OPS} ops"
    else:
        metrics, count = measure(args.workload, args.seed, args.seconds, run)
        correct = True
        label = f"median of {PASSES} passes over {count} ops"
    correct = correct and run.failed == 0

    print(f"{args.workload} seed={args.seed} ({label})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"  {'fail_ratio':28} {run.failed / run.attempted:>14.6g} ({run.failed}/{run.attempted} ops)", file=sys.stderr)
    for reason in run.reasons:
        print(f"  FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
