"""Seeded generators for the benchmark workloads.

Each workload is an endless stream of bvdomains argv lists at a fixed
truncation depth N.  Every choice is dealt from a shuffled deck that is
reshuffled only once it is empty, so any stretch of the stream holds each
choice in nearly equal shares.  All specs are valid and bounded: the
benchmark measures success paths only.

A run measures one pool of ops: the first ops of the workload's stream for
POOL_SEED.  The run's --seed decides the order of the pool.  Op costs at one
N differ by up to a hundred times (a composed triangle against a delta),
and when each seed drew its own ops, the quartile spread over ten seeds of
the op mix alone reached 0.2 of the median or p90.  With one pool, runs
differ only by the host's speed.
"""

from __future__ import annotations

import itertools
import json
import random

DUAL_N = 48
MATRIX_N = 64
FROM_DOMAIN_N = 32
CLASS_N = 48
VERIFY_N = 16


class Deck:
    """Deals the items of a pool in seeded shuffled passes."""

    def __init__(self, rng: random.Random, pool):
        self._rng = rng
        self._pool = list(pool)
        self._hand: list = []

    def deal(self):
        if not self._hand:
            self._hand = self._pool[:]
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _tail(kind, **params) -> dict:
    return {"tail": {"kind": kind, **params}}


def _small_rat(rng: random.Random) -> str:
    num, den = rng.randint(-9, 9), rng.randint(1, 9)
    return f"{num}/{den}"


def _finite(rng: random.Random) -> dict:
    return {"prefix": [_small_rat(rng) for _ in range(rng.randint(1, 8))]}


# Sequences for the dual's a and a membership x: p <= 3 and |r| <= 1 keep the
# exact denominators small enough that every op stays well under a second.
_A_TAILS = (
    _tail("harmonic"),
    _tail("power", p=2),
    _tail("power", p=3),
    _tail("geometric", r="1/2"),
    _tail("geometric", r="-1/2"),
    _tail("geometric", r="2/3"),
    _tail("geometric", r="1"),
    _tail("geometric", r="-1"),
    _tail("const", c="1"),
    None,  # a random finitely supported prefix
)

# Positive weights for G(u, v).
_U_WEIGHTS = (_tail("harmonic"), _tail("power", p=2), _tail("geometric", r="1/2"))
_V_WEIGHTS = (_tail("const", c="1"), _tail("harmonic"), _tail("geometric", r="2"))


def _riesz_weights(n: int):
    """q = 1, 1/(k+1), k+1 (as a prefix through index n) and 2^k."""
    k_plus_1 = {"prefix": [str(k + 1) for k in range(n + 1)], "tail": {"kind": "const", "c": str(n + 2)}}
    return (_tail("const", c="1"), _tail("harmonic"), k_plus_1, _tail("geometric", r="2"))


def _domains(n: int) -> list:
    """C, four G weight pairs and the four R weights, as domain spec strings."""
    doms = ["C"]
    for u, v in zip(_U_WEIGHTS, _V_WEIGHTS):
        doms.append(_js({"label": "G", "u": u, "v": v}))
    doms.append(_js({"label": "G", "u": _U_WEIGHTS[0], "v": _V_WEIGHTS[2]}))
    for q in _riesz_weights(n):
        doms.append(_js({"label": "R", "q": q}))
    return doms


def _seq_spec(rng: random.Random, tail) -> str:
    return _js(_finite(rng) if tail is None else tail)


def dual_sweep(rng: random.Random):
    a_deck = Deck(rng, _A_TAILS)
    dom_deck = Deck(rng, _domains(DUAL_N))
    kind_deck = Deck(rng, ("alpha", "beta", "gamma"))
    while True:
        yield [
            "dual",
            "--a", _seq_spec(rng, a_deck.deal()),
            "--domain", dom_deck.deal(),
            "--kind", kind_deck.deal(),
            "--n", str(DUAL_N),
        ]


def _named_matrices(u_deck, v_deck, q_deck) -> tuple:
    """Factories of the named triangle specs, weights dealt from their decks:
    the single triangles, then the three composed domain matrices."""
    single = [
        lambda: {"kind": "delta"},
        lambda: {"kind": "sum"},
        lambda: {"kind": "cesaro"},
        lambda: {"kind": "cesaro_inv"},
        lambda: {"kind": "riesz", "q": q_deck.deal()},
        lambda: {"kind": "weighted", "u": u_deck.deal(), "v": v_deck.deal()},
    ]
    domain = [
        lambda: {"kind": "phi"},
        lambda: {"kind": "sigma_riesz", "q": q_deck.deal()},
        lambda: {"kind": "gamma", "u": u_deck.deal(), "v": v_deck.deal()},
    ]
    return single, domain


def matrix_dump(rng: random.Random):
    u_deck = Deck(rng, _U_WEIGHTS)
    v_deck = Deck(rng, _V_WEIGHTS)
    q_deck = Deck(rng, _riesz_weights(MATRIX_N))
    single, domain = _named_matrices(u_deck, v_deck, q_deck)
    # A quarter of the specs are cheap single triangles, half are the composed
    # domain matrices and a quarter are products of two single triangles, so
    # the median falls inside the middle band of costs and the p90 inside the
    # top one, not on a gap between them where the op mix would decide it.
    # Factors are never products themselves: a product of products costs
    # several times more, and a few of them in a run would decide its p90.
    # No inverse_of, so this workload never runs forward substitution.
    spec_deck = Deck(rng, single + domain * 4 + ["compose"] * 6)
    factor_deck = Deck(rng, single)
    op_deck = Deck(rng, ("matrix",) * 4 + ("transform",))
    format_deck = Deck(rng, ("json", "csv"))
    x_deck = Deck(rng, _A_TAILS)

    def spec() -> str:
        pick = spec_deck.deal()
        if pick == "compose":
            return _js({"kind": "compose", "of": [factor_deck.deal()(), factor_deck.deal()()]})
        return _js(pick())

    while True:
        if op_deck.deal() == "matrix":
            yield ["matrix", "--spec", spec(), "--n", str(MATRIX_N), "--format", format_deck.deal()]
        else:
            yield [
                "transform",
                "--matrix", spec(),
                "--x", _seq_spec(rng, x_deck.deal()),
                "--n", str(MATRIX_N),
                "--format", format_deck.deal(),
            ]


def _banded_rows(rng: random.Random) -> list:
    return [
        [_small_rat(rng) for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(1, 4))
    ]


def class_test(rng: random.Random):
    op_deck = Deck(rng, ("from_domain", "into_domain", "membership"))
    from_dom_deck = Deck(rng, _domains(FROM_DOMAIN_N))
    into_dom_deck = Deck(rng, _domains(CLASS_N))
    y_deck = Deck(rng, ("l1", "c", "linf"))
    b_deck = Deck(rng, ("sum", "cesaro", "delta", "cesaro_inv"))
    mem_domain_deck = Deck(rng, ("phi", "cesaro", "delta"))
    space_deck = Deck(rng, ("l1", "linf", "c", "c0", "cs", "bs", "bv", "bv0"))
    x_deck = Deck(rng, _A_TAILS)
    while True:
        op = op_deck.deal()
        if op == "from_domain":
            yield [
                "matclass", "--direction", "from_domain",
                "--matrix", _js({"kind": "banded", "rows": _banded_rows(rng)}),
                "--domain", from_dom_deck.deal(),
                "--y", y_deck.deal(),
                "--n", str(FROM_DOMAIN_N),
            ]
        elif op == "into_domain":
            yield [
                "matclass", "--direction", "into_domain",
                "--matrix", b_deck.deal(),
                "--domain", into_dom_deck.deal(),
                "--y", "l1",
                "--n", str(CLASS_N),
            ]
        else:
            yield [
                "membership",
                "--x", _seq_spec(rng, x_deck.deal()),
                "--space", space_deck.deal(),
                "--domain", mem_domain_deck.deal(),
                "--n", str(CLASS_N),
            ]


def self_check(rng: random.Random):
    suite_deck = Deck(rng, ("identities", "bases", "duals", "matclass"))
    while True:
        yield [
            "verify",
            "--suite", suite_deck.deal(),
            "--n", str(VERIFY_N),
            "--seed", str(rng.randrange(10**6)),
        ]


_GENERATORS = {
    "dual_sweep": dual_sweep,
    "matrix_dump": matrix_dump,
    "class_test": class_test,
    "self_check": self_check,
}
WORKLOADS = tuple(_GENERATORS)


POOL_SEED = 0
MIN_OPS = 40  # 4 latencies beyond p90
# Ops per second of summed op latency on the machine the benchmark was
# defined on (see record.json): they turn a pass's share of --seconds into an
# op count that does not depend on the host's speed during the run.
OPS_PER_S = {"dual_sweep": 5.0, "matrix_dump": 10.0, "class_test": 5.0, "self_check": 6.0}


def pool(workload: str, count: int) -> list:
    """The first COUNT ops of the workload's stream for POOL_SEED."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    stream = _GENERATORS[workload](random.Random(f"{workload}:{POOL_SEED}"))
    return list(itertools.islice(stream, count))


def pass_ops(workload: str, seconds: float) -> int:
    """How many ops a pass of SECONDS runs."""
    return max(MIN_OPS, round(seconds * OPS_PER_S[workload]))


def run_ops(workload: str, seed: int, count: int) -> list:
    """The (pool index, argv) pairs of a pass: the pool's first COUNT ops in
    an order shuffled by SEED."""
    pairs = list(enumerate(pool(workload, count)))
    random.Random(f"{workload}:order:{seed}").shuffle(pairs)
    return pairs
