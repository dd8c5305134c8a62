"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/spread.py --workload dual_sweep --seeds 1-10 [--json FILE]

The spread is the distance between the first and third quartile of the runs,
as a share of their median; BENCHMARK.json bounds every end-to-end metric.
Runs measure with tracing off and go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--json", help="append the per-run results to this JSON-lines file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.json:
            with open(args.json, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, "wall_s": wall, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            print(proc.stderr, file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed, {wall:.1f} s", file=sys.stderr)

    print(f"{args.workload}: {len(args.seeds)} runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound} {'OK' if spread < bound / 3 else 'WIDE'}"
        print(f"  {name:28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
