"""Recorded mutants of the exact fast paths, and the runner that checks
each one dies.

A mutant is (module, source text, replacement, killing node ids): the
source text occurs exactly once in the module's file under src/
(tests/test_mutants.py checks that, so the table cannot go stale
silently), and the replacement breaks the code in a way the named tests
must see.  A mutant that survives is a missing check: add the check, do
not drop the mutant.  A mutant is retired only when its code is deleted.

    python tests/mutants.py

copies src/, tests/, pyproject.toml and README.md (which tests/test_cli.py
reads) into a temporary directory and runs every named test there once,
unmutated, which must pass.  It then applies each mutant in turn, runs
its node ids with ``-x`` and restores the module.  A mutant is killed
when its tests fail.  It exits 0 when every mutant is killed, 1 naming
each survivor, and 2 when the unmutated tests do not pass.  No bytecode
is written, so each run compiles the module as it is on disk.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_DEPTH = "tests/test_builders.py::test_the_riesz_pair_sums_are_the_reciprocals_of_the_fraction_sums_at_depth"
_CANONICAL = "tests/test_cli.py::test_every_tail_term_and_mean_weight_is_the_fraction_the_constructor_makes"
_FORWARD = "tests/test_core.py::test_forward_substitution_equals_the_fraction_loop_property"
_SCANS = "tests/test_duals.py::test_scans_equal_the_brute_force_statistics_property"

MUTANTS = (
    # the Riesz pair sums read q one index off
    (
        "bvdomains.builders",
        "_running(lambda k: self.q_at(k).as_integer_ratio(), _padd, (0, 1))",
        "_running(lambda k: self.q_at(k + 1).as_integer_ratio(), _padd, (0, 1))",
        (f"{_DEPTH}[2^k]", _CANONICAL),
    ),
    # q = 0 accepted as a Riesz weight
    (
        "bvdomains.builders",
        "if value.numerator <= 0:",
        "if value.numerator < 0:",
        (
            "tests/test_builders.py::test_riesz_rejects_nonpositive_weight",
            "tests/test_cli.py::test_the_riesz_pair_sums_and_their_oracle_name_the_same_invalid_q[0]",
        ),
    ),
    # the harmonic tail term 1/(k+1) built from an unreduced pair
    (
        "bvdomains.cli",
        '"harmonic": ((), lambda: lambda k: _coprime(1, k + 1), None),',
        '"harmonic": ((), lambda: lambda k: _coprime(2, 2 * (k + 1)), None),',
        (_CANONICAL, "tests/test_cli.py::test_parse_matrix_spec_variants"),
    ),
    # forward substitution: the diagonal's numerator from d's numerator
    (
        "bvdomains.core",
        "nums = [s * d.denominator for s in sums] + [den * d.denominator]",
        "nums = [s * d.denominator for s in sums] + [den * d.numerator]",
        (_FORWARD,),
    ),
    # forward substitution: the row divided by a gcd without its diagonal
    (
        "bvdomains.core",
        "g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)",
        "g = gcd(den, *nums[:-1]) if den > 0 else -gcd(den, *nums[:-1])",
        (_FORWARD,),
    ),
    # forward substitution: the products added instead of subtracted
    (
        "bvdomains.core",
        "sums[k] -= c * y",
        "sums[k] += c * y",
        (_FORWARD,),
    ),
    # forward substitution: a coefficient not scaled to the common lcm
    (
        "bvdomains.core",
        "c = coeffs[j] * (inv_den // rows[j][0])",
        "c = coeffs[j]",
        (_FORWARD,),
    ),
    # forward substitution: D without T's row denominator
    (
        "bvdomains.core",
        "den = t_den * inv_den",
        "den = inv_den",
        (_FORWARD,),
    ),
    # compose's row kernel: the first row below the band one off
    (
        "bvdomains.core",
        "i = k + width - lo",
        "i = k + width + 1 - lo",
        ("tests/test_core.py::test_compose_delta_cesaro_matches_dense_product",),
    ),
    # the pair sum left unreduced by a common factor 2
    (
        "bvdomains.core",
        "if g2 == 1:",
        "if g2 <= 2:",
        ("tests/test_core.py::test_kernels_equal_the_fraction_loops_on_named_triangles[sigma]",),
    ),
    # the sup-entry list path without the prefix minima of col
    (
        "bvdomains.duals",
        "best = max(best, abs(scale * highs[k] + r), abs(scale * lows[k] + r))",
        "best = max(best, abs(scale * highs[k] + r))",
        ("tests/test_duals.py::test_generator_statistics_equal_the_scans[G[alternating]-8]",),
    ),
    # the column limits' list window one row short
    (
        "bvdomains.duals",
        "slopes, rows, xs = w[half:], row[half:], col[:quarter]",
        "slopes, rows, xs = w[half + 1:], row[half + 1:], col[:quarter]",
        ("tests/test_duals.py::test_cond_l1_c_cases",),
    ),
    # the sup-entry scan puts a cell past the diagonal in its row's square
    (
        "bvdomains.duals",
        "            top = tops[max(row, k)]\n"
        "            if abs(p) * top[1] > top[0] * q:\n"
        "                tops[max(row, k)] = abs(p), q\n",
        "            top = tops[row]\n"
        "            if abs(p) * top[1] > top[0] * q:\n"
        "                tops[row] = abs(p), q\n",
        (_SCANS,),
    ),
    # the column-sum scan's checkpoint takes columns outside its square
    (
        "bvdomains.duals",
        "_pmax(sums[: row + 1])",
        "_pmax(sums)",
        (_SCANS,),
    ),
)


def module_path(root: Path, module: str) -> Path:
    """The source file of a dotted module name under root's src/."""
    return root / "src" / Path(*module.split(".")).with_suffix(".py")


def _run(tree: Path, node_ids) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def main() -> int:
    with tempfile.TemporaryDirectory() as temporary:
        tree = Path(temporary)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tree)
        every_id = sorted({node for *_, nodes in MUTANTS for node in nodes})
        baseline = _run(tree, every_id)
        if baseline.returncode != 0:
            print(baseline.stdout)
            print("the named tests do not pass on the unmutated code")
            return 2
        survivors = []
        for number, (module, text, replacement, nodes) in enumerate(MUTANTS, 1):
            path = module_path(tree, module)
            source = path.read_text()
            if source.count(text) != 1:
                print(f"mutant {number} ({module}): its source text does not occur exactly once")
                return 2
            path.write_text(source.replace(text, replacement))
            try:
                result = _run(tree, nodes)
            finally:
                path.write_text(source)
            killed = result.returncode == 1
            first = text.strip().splitlines()[0]
            print(f"mutant {number} ({module}: {first!r}): {'killed' if killed else 'SURVIVED'}")
            if not killed:
                if result.returncode != 0:
                    print(result.stdout)
                survivors.append(number)
        if survivors:
            print(f"surviving mutants: {', '.join(map(str, survivors))}")
            return 1
        print(f"all {len(MUTANTS)} mutants killed")
        return 0


if __name__ == "__main__":
    sys.exit(main())
