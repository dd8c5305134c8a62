"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

cli = run.import_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_same_seed_same_ops():
    for workload in workloads.WORKLOADS:
        first = workloads.run_ops(workload, 7, 60)
        assert first == workloads.run_ops(workload, 7, 60)
        other = workloads.run_ops(workload, 8, 60)
        assert other != first and sorted(other) == sorted(first)


def test_decks_keep_the_mix_balanced():
    kinds = [argv[argv.index("--kind") + 1] for argv in workloads.pool("dual_sweep", 30)]
    assert {kinds.count(k) for k in ("alpha", "beta", "gamma")} == {10}


def test_scaling_cancels_the_host_speed():
    quiet = {"latencies": [0.1, 0.2, 0.3, 0.4, 0.5], "references": [0.05, 0.06, 0.07]}
    slow = {key: [2 * t for t in values] for key, values in quiet.items()}
    assert run.scaled_latencies(quiet)[0] == pytest.approx(0.1 * run.REF_S / 0.06)
    assert run.scaled_latencies(slow) == pytest.approx(run.scaled_latencies(quiet))


def _traced_counts(ops):
    run_ = run.Run([])
    with Tracer() as tracer:
        outputs = [run_.op(cli.main, i, argv, tracer)[0] for i, argv in enumerate(ops)]
    assert run_.failed == 0, run_.reasons
    return run.traced_counts(tracer, ops, outputs), outputs


def test_traced_counters_repeat_exactly_and_output_is_unchanged():
    ops = [workloads.pool(w, 2)[1] for w in workloads.WORKLOADS]
    first, outputs = _traced_counts(ops)
    second, _ = _traced_counts(ops)
    assert first == second
    assert first["core.entry_evals"] > 0 and first["verify.checks"] > 0
    plain = [run.run_op(cli.main, argv)[1] for argv in ops]
    assert outputs == plain


def test_tracer_restores_the_package():
    before = (cli.Triangle.entry, cli.truncate, cli.duals.cond_l1_c)
    with Tracer():
        assert cli.truncate is not before[1]
    assert (cli.Triangle.entry, cli.truncate, cli.duals.cond_l1_c) == before


def _output(argv):
    code, stdout, error, _ = run.run_op(cli.main, argv)
    assert error is None and checks.check_output(argv, code, stdout) is None
    return stdout


def test_checker_rejects_corrupted_matrix():
    argv = ["matrix", "--spec", "cesaro", "--n", "4"]
    doc = json.loads(_output(argv))
    doc["entries"][1][3] = "1/7"  # above the diagonal
    assert "above the diagonal" in checks.check_output(argv, 0, json.dumps(doc))
    doc["entries"].pop()
    assert "4x4" in checks.check_output(argv, 0, json.dumps(doc))
    csv_argv = argv + ["--format", "csv"]
    csv = _output(csv_argv)
    assert checks.check_output(csv_argv, 0, csv.replace("1/2", "0.5")) is not None


def test_checker_rejects_failed_cross_check_and_verify():
    argv = ["dual", "--a", "harmonic", "--domain", '{"label": "R", "q": "e"}', "--kind", "beta", "--n", "8"]
    doc = json.loads(_output(argv))
    doc["report"]["cross_check"]["match"] = False
    assert "cross-check" in checks.check_output(argv, 0, json.dumps(doc))

    argv = ["verify", "--suite", "bases", "--n", "8"]
    doc = json.loads(_output(argv))
    doc["report"]["summary"]["failed"] = 1
    assert checks.check_output(argv, 0, json.dumps(doc)) is not None


def test_checker_rejects_exit_code_truncation_and_golden_mismatch():
    argv = ["membership", "--x", "e", "--space", "c", "--domain", "phi", "--n", "8"]
    out = _output(argv)
    assert checks.check_output(argv, 3, out) == "exit code 3"
    assert "unparseable" in checks.check_output(argv, 0, out[:-20])
    assert checks.check_output(argv, 0, out, checks.digest(out)) is None
    assert "golden" in checks.check_output(argv, 0, out + " ", checks.digest(out))


def test_golden_covers_a_pass():
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in workloads.WORKLOADS:
        assert len(run.load_golden(workload)) >= workloads.pass_ops(workload, seconds / run.PASSES)


def test_max_den_bits_skips_policy_constants():
    argv = ["membership", "--x", "e", "--space", "c", "--domain", "phi", "--n", "8"]
    assert checks.max_den_bits(argv, _output(argv)) == 1
    assert checks.max_den_bits(["matrix", "--format", "csv"], "1,0\n1/2,1/12") == 4
