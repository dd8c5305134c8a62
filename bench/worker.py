"""One measuring pass of a workload in a fresh interpreter, for run.py.

    python3 bench/worker.py WORKLOAD SEED COUNT

Imports bvdomains and builds the CLI parser, then runs the pass's COUNT ops
(workloads.run_ops), checking each, and stops early only if a pass outlasts
run.MAX_PASS_SECONDS.  Before the first op and after every run.REF_EVERY ops it
times the reference kernel, which gauges the host's speed during the pass.
It prints one JSON object: the time.monotonic() reading at the end of its
set-up, the op latencies, the kernel's times, the failed count with the
first reasons, and this process's peak RSS.
"""

import gc
import json
import resource
import sys
import time
from fractions import Fraction

import run
import workloads


def reference_kernel(n: int = 40) -> Fraction:
    """Exact inverse of a fixed n x n lower-triangular Fraction matrix by
    forward substitution: the same kind of work as the benchmark's ops, in
    code that no change to bvdomains can speed up or slow down."""
    a = {(i, k): Fraction(k + 1, (i + 1) ** 2) + (i == k) for i in range(n) for k in range(i + 1)}
    inv = {}
    for j in range(n):
        for i in range(j, n):
            s = Fraction(i == j)
            for k in range(j, i):
                s -= a[i, k] * inv[k, j]
            inv[i, j] = s / a[i, i]
    return inv[n - 1, 0]


def time_reference() -> float:
    # Collection is off so that the heap the ops leave behind does not slow it.
    gc.disable()
    start = time.perf_counter()
    reference_kernel()
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


def main() -> int:
    workload, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    cli = run.import_package()
    cli.build_parser()
    tally = run.Run(run.load_golden(workload))
    latencies = []
    setup_done_at = time.monotonic()
    references = [time_reference()]
    for index, argv in workloads.run_ops(workload, seed, count):
        latencies.append(tally.op(cli.main, index, argv)[1])
        if len(latencies) % run.REF_EVERY == 0:
            references.append(time_reference())
        if time.monotonic() - setup_done_at >= run.MAX_PASS_SECONDS:
            break
    print(json.dumps({
        "setup_done_at": setup_done_at,
        "latencies": latencies,
        "references": references,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
