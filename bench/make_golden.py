"""Record bench/golden.json: the stdout digest of each of the first GOLDEN_OPS
ops of every workload's pool (workloads.POOL_SEED), by pool index.

    python3 bench/make_golden.py

Every op must pass its output check before its digest is recorded.  Rerun
only at a commit whose output is known to be right; later runs of the
benchmark compare their stdout against these digests byte for byte, whatever
their seed, since a seed only orders the pool.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads

GOLDEN_OPS = 100


def main() -> int:
    cli = run.import_package()
    digests: dict = {}
    for workload in workloads.WORKLOADS:
        row = []
        for argv in workloads.pool(workload, GOLDEN_OPS):
            code, stdout, error, _ = run.run_op(cli.main, argv)
            error = error or checks.check_output(argv, code, stdout)
            if error:
                print(f"{workload} {argv}: {error}", file=sys.stderr)
                return 1
            row.append(checks.digest(stdout))
        digests[workload] = row
        print(f"{workload}: {len(row)} ops", file=sys.stderr)

    lines = ["{", f'"ops": {GOLDEN_OPS},', f'"pool_seed": {workloads.POOL_SEED},', '"digests": {']
    for i, (workload, row) in enumerate(digests.items()):
        comma = "," if i < len(digests) - 1 else ""
        lines.append(f"{json.dumps(workload)}: {json.dumps(row)}{comma}")
    lines += ["}", "}"]
    (run.BENCH_DIR / "golden.json").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
