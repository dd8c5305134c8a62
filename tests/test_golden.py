"""Golden CLI corpus: fixed invocations with their exit code and stdout sha256.

The test replays every invocation in tests/golden/corpus.json in-process and
requires the same exit code and byte-identical stdout.  Regenerate the corpus,
only at a commit whose output is known to be right, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bvdomains.cli import main

CORPUS_PATH = Path(__file__).resolve().parent / "golden" / "corpus.json"

_PHI_BANDED = '{"kind": "banded", "rows": [["1"], ["-1/2", "1/2"], ["-1/6", "-1/6", "1/3"]]}'
_G = '{"label": "G", "u": {"tail": {"kind": "harmonic"}}, "v": "e"}'
_R_CONST = '{"label": "R", "q": {"tail": {"kind": "const", "c": "1"}}}'
_R_GEOM = '{"label": "R", "q": {"tail": {"kind": "geometric", "r": "2"}}}'

INVOCATIONS = [
    ["matrix", "--spec", "cesaro", "--n", "6"],
    ["matrix", "--spec", "cesaro", "--n", "5", "--format", "csv"],
    ["matrix", "--spec", "inverse_of(phi)", "--n", "6"],
    ["matrix", "--spec", "inverse_of(phi)", "--n", "6", "--format", "csv"],
    ["matrix", "--spec", '{"kind": "compose", "of": [{"kind": "delta"}, {"kind": "cesaro"}]}', "--n", "6"],
    ["matrix", "--spec", '{"kind": "sigma_riesz", "q": {"tail": {"kind": "geometric", "r": "2"}}}', "--n", "6"],
    ["matrix", "--spec", '{"kind": "gamma", "u": {"tail": {"kind": "harmonic"}}, "v": "e"}', "--n", "5"],
    ["matrix", "--spec", _PHI_BANDED, "--n", "4", "--format", "csv"],
    ["matrix", "--spec", "cesaro_inv", "--n", "5"],
    ["transform", "--matrix", "phi", "--x", "e", "--n", "8"],
    ["transform", "--matrix", "inverse_of(cesaro)", "--x", "harmonic", "--n", "8", "--format", "csv"],
    ["transform", "--matrix", _PHI_BANDED, "--x", '{"prefix": ["1", "-1/2", "1/3"]}', "--n", "6"],
    ["transform", "--matrix", '{"kind": "compose", "of": [{"kind": "delta"}, {"kind": "sum"}]}',
     "--x", '{"tail": {"kind": "geometric", "r": "-1/3"}}', "--n", "6"],
    ["membership", "--x", '{"tail": {"kind": "geometric", "r": "-1"}}', "--space", "bv", "--n", "16"],
    ["membership", "--x", "e", "--space", "l1", "--domain", "phi", "--n", "16"],
    ["membership", "--x", "harmonic", "--space", "bv0", "--n", "16"],
    ["membership", "--x", '{"tail": {"kind": "power", "p": 2}}', "--space", "l1", "--n", "16"],
    ["membership", "--x", '{"prefix": ["1", "2", "-3"]}', "--space", "cs", "--n", "8"],
    ["membership", "--x", '{"tail": {"kind": "unit", "j": 3}}', "--space", "c0",
     "--domain", "inverse_of(phi)", "--n", "12"],
    ["dual", "--a", "harmonic", "--domain", "C", "--kind", "beta", "--n", "16"],
    ["dual", "--a", "e", "--domain", _R_CONST, "--kind", "gamma", "--n", "16"],
    ["dual", "--a", '{"prefix": ["1", "2"], "tail": "zero"}', "--domain", "C", "--kind", "alpha", "--n", "16"],
    ["dual", "--a", '{"tail": {"kind": "power", "p": 2}}', "--domain", _G, "--kind", "beta", "--n", "12"],
    ["dual", "--a", "harmonic", "--domain", _R_GEOM, "--kind", "alpha", "--n", "8"],
    ["dual", "--a", '{"tail": {"kind": "geometric", "r": "1/2"}}', "--domain", _G, "--kind", "gamma", "--n", "8"],
    ["matclass", "--direction", "from_domain", "--matrix", '{"kind": "banded", "rows": [["1", "1"]]}',
     "--domain", "C", "--y", "linf", "--n", "16"],
    ["matclass", "--direction", "from_domain", "--matrix", _PHI_BANDED, "--domain", _G, "--y", "c", "--n", "8"],
    ["matclass", "--direction", "from_domain", "--matrix", '{"kind": "banded", "rows": [["1"], ["0", "1/2"]]}',
     "--domain", _R_GEOM, "--y", "l1", "--n", "8"],
    ["matclass", "--direction", "into_domain", "--matrix", "delta", "--domain", "C", "--y", "l1", "--n", "16"],
    ["matclass", "--direction", "into_domain", "--matrix", _PHI_BANDED, "--domain", _R_CONST, "--y", "l1", "--n", "8"],
    ["matclass", "--direction", "into_domain", "--matrix", "inverse_of(phi)", "--domain", _G, "--y", "l1", "--n", "8"],
    ["verify", "--suite", "identities", "--n", "8", "--seed", "7"],
    ["verify", "--suite", "bases", "--n", "8", "--seed", "7"],
    ["verify", "--suite", "duals", "--n", "8", "--seed", "7"],
    ["verify", "--suite", "matclass", "--n", "8", "--seed", "7"],
    ["verify", "--suite", "all", "--n", "8", "--seed", "1"],
]



def run(argv):
    """Exit code and stdout sha256 of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


CORPUS = json.loads(CORPUS_PATH.read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(CORPUS)])
def test_golden_replay(case):
    assert run(case["argv"]) == (case["exit"], case["sha256"])


def test_corpus_covers_every_subcommand():
    commands = {c["argv"][0] for c in CORPUS}
    assert commands == {"matrix", "transform", "membership", "dual", "matclass", "verify"}
    assert [c["argv"] for c in CORPUS] == INVOCATIONS


if __name__ == "__main__":
    entries = []
    for argv in INVOCATIONS:
        code, digest = run(argv)
        entries.append({"argv": argv, "exit": code, "sha256": digest})
    CORPUS_PATH.write_text(json.dumps(entries, indent=1) + "\n")
