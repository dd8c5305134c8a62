"""A check that fails on one case reports that case and stops drawing.

Each case below makes one randomized or indexed case of a check fail.  The
expected failing entries, report digests and next seeded draws were taken
from the hand-written loops these checks replaced, so the reports stay
byte-identical and the cases after the first failure still draw nothing.
"""

import hashlib
import json
import random

import pytest

from bvdomains import builders, duals, matclass, verify
from bvdomains.core import Seq, compose


def _fail_on_call(monkeypatch, module, name, index, wrong):
    """Replace module.name so that its call number index returns wrong(...)."""
    orig = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(None)
        return wrong(orig, *args) if len(calls) == index + 1 else orig(*args)

    monkeypatch.setattr(module, name, patched)


CASES = [
    (
        "bases",
        (verify, "apply", 3, lambda orig, t, x, n: [v + 1 for v in orig(t, x, n)]),
        {
            "name": "basis_application[C,k=3]",
            "status": "fail",
            "counterexample": {"position": [0], "expected": "0", "got": "1"},
        },
        "aa254f61136a4183ef0a444507414a6269b4884a5d363892fe81a29fe15713f6",
        190504374,
    ),
    (
        "duals",
        (duals, "closed_form_beta_matrix", 1, lambda orig, w, a: orig(w, Seq.constant(1))),
        None,  # the counterexample holds the whole cross-check; the digest covers it
        "ddb694de36e0b526f796e951d7bd57f081f62c28da227feb94d6b1d1673a3c6b",
        917457555,
    ),
    (
        "duals",
        (verify, "truncate", 1, lambda orig, m, n: orig(builders.delta(), n)),
        {
            "name": "condition_brute_force_agreement",
            "status": "fail",
            "counterexample": {"case": 1, "column_l1": ["2", "26/7"], "sup": ["1", "3"]},
        },
        "58f88b37a619adf6650aebb62558a61e04efaba5b71ecaefd575190ef5df3861",
        610242117,
    ),
    (
        "matclass",
        (matclass, "row_transform_E", 2, lambda orig, a, d: compose(a, d)),
        {
            "name": "transform_identity_E[C]",
            "status": "fail",
            "counterexample": {
                "position": [0],
                "expected": "-241/10",
                "got": "-282587/12600",
                "case": 2,
            },
        },
        "c6ef769f3c9241d18ceffc4b5f55a48bad230228402ce3d8d171982b5e27ab34",
        40542650,
    ),
]


@pytest.mark.parametrize("suite, patch, failing, digest, next_draw", CASES)
def test_first_failing_case_report(monkeypatch, suite, patch, failing, digest, next_draw):
    _fail_on_call(monkeypatch, *patch)
    rngs = []

    class Recorder(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(verify.random, "Random", Recorder)
    report = verify.run_suite(suite, 16, 3)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert len(failed) == 1
    if failing is not None:
        assert failed[0] == failing
        assert list(failed[0]["counterexample"]) == list(failing["counterexample"])
    else:
        assert failed[0]["name"] == "beta_cross_check[G,w=0]"
        assert list(failed[0]["counterexample"]) == ["case", "detail"]
        assert failed[0]["counterexample"]["case"] == 1
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == digest
    # the generator is where the reference loops left it: no case after the
    # failing one drew from it
    assert rngs[0].randint(0, 10**9) == next_draw
