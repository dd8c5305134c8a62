"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS line when
it succeeds (visible under ``pytest -s``); a failure shows up as an ordinary
pytest failure.  Everything is exact rational arithmetic, so every comparison
here is bit-exact equality, never a tolerance.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from bvdomains.core import (
    Seq,
    Triangle,
    apply,
    compose,
    dense_mul,
    identity,
    invert,
    transform_seq,
    truncate,
)
from bvdomains.builders import (
    RieszWeights,
    WeightPair,
    basis_column,
    cesaro,
    cesaro_domain,
    delta,
    gamma,
    phi,
    phi_closed_form,
    gamma_closed_form,
    riesz,
    riesz_domain,
    sigma_closed_form,
    sigma_riesz,
    weighted_domain,
    weighted_mean,
)
from bvdomains.duals import beta_assoc, cond_l1_l1, cond_l1_linf, dual_test
from bvdomains.matclass import (
    BandedMatrix,
    apply_general,
    class_test_from_domain,
)
from bvdomains.spaces import SpaceId, bvA_norm_prefix, bv_norm_prefix

N = 64

HARMONIC_PAIR = WeightPair(
    Seq(lambda n: F(1, n + 2)),
    Seq(lambda k: F(k + 1)),
)
GEOMETRIC_RIESZ = RieszWeights(Seq(lambda k: F(2**k)))

WEIGHT_PAIRS = (
    HARMONIC_PAIR,
    WeightPair(
        Seq(lambda n: F((-1) ** n, n + 1)),
        Seq(lambda k: F(1, k + 1)),
    ),
    WeightPair(
        Seq(lambda n: F(2, 2 * n + 1)),
        Seq(lambda k: F(k + 2, 2)),
    ),
)

STANDARD_DOMAINS = (
    cesaro_domain(),
    weighted_domain(HARMONIC_PAIR),
    riesz_domain(GEOMETRIC_RIESZ),
)


def _rand_rat(rng, lo=-6, hi=6, den=6):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _rand_nonzero(rng):
    while True:
        v = _rand_rat(rng)
        if v != 0:
            return v


def _rand_finite_seq(rng, max_support=8):
    size = rng.randint(1, max_support)
    values = [_rand_rat(rng) for _ in range(size)]
    values[rng.randrange(size)] = _rand_nonzero(rng)
    return Seq.from_values(values)


def _rand_banded(rng, rows=6, width=6):
    data = [
        [_rand_rat(rng) for _ in range(rng.randint(1, width))] for _ in range(rows)
    ]
    return BandedMatrix.from_rows(data)


def test_acceptance_1_inverse_identities():
    matrices = [
        delta(),
        cesaro(),
        weighted_mean(HARMONIC_PAIR),
        riesz(GEOMETRIC_RIESZ),
        phi(),
        gamma(HARMONIC_PAIR),
        sigma_riesz(GEOMETRIC_RIESZ),
    ]
    ident = truncate(identity(), N)
    start = time.perf_counter()
    for t in matrices:
        dense = truncate(t, N)
        dense_inv = truncate(invert(t), N)
        assert dense_mul(dense, dense_inv) == ident
        assert dense_mul(dense_inv, dense) == ident
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 (inverse identities at 64, {elapsed:.2f}s): PASS")


def test_acceptance_2_closed_forms():
    cases = [
        (phi(), phi_closed_form()),
        (gamma(HARMONIC_PAIR), gamma_closed_form(HARMONIC_PAIR)),
        (sigma_riesz(GEOMETRIC_RIESZ), sigma_closed_form(GEOMETRIC_RIESZ)),
    ]
    for composed, closed in cases:
        for n in range(N + 1):
            for k in range(n + 1):
                assert composed.entry(n, k) == closed.entry(n, k)
    assert phi().entry(5, 3) == F(-1, 30)
    print("ACCEPTANCE 2 (closed forms equal compositions up to 64): PASS")


def test_acceptance_3_specialization_collapse():
    means = [
        cesaro(),
        weighted_mean(WeightPair(Seq(lambda n: F(1, n + 1)), Seq.constant(1))),
        riesz(RieszWeights(Seq.constant(1))),
    ]
    for n in range(N + 1):
        for k in range(n + 1):
            v = means[0].entry(n, k)
            assert means[1].entry(n, k) == v
            assert means[2].entry(n, k) == v

    domains = [
        cesaro_domain(),
        weighted_domain(WeightPair(Seq(lambda n: F(1, n + 1)), Seq.constant(1))),
        riesz_domain(RieszWeights(Seq.constant(1))),
    ]
    sequences = [Seq.constant(1), Seq(lambda k: F(1, 2**k)), Seq.unit(3)]
    for a in sequences:
        for kind in ("alpha", "beta", "gamma"):
            reports = [
                json.dumps(dual_test(d.matrix, a, kind, N).to_dict())
                for d in domains
            ]
            assert reports[0] == reports[1] == reports[2]

    a_banded = BandedMatrix.from_rows([["1", "-1"], ["0", "1/2", "2"]])
    for y in (SpaceId.L1, SpaceId.C, SpaceId.LINF):
        blocks = [
            json.dumps(class_test_from_domain(a_banded, d, y, N).transformed_condition)
            for d in domains
        ]
        assert blocks[0] == blocks[1] == blocks[2]
    print("ACCEPTANCE 3 (Cesaro/weighted/Riesz specializations collapse): PASS")


def test_acceptance_4_basis_theorems():
    triangles = [phi(), gamma(HARMONIC_PAIR), sigma_riesz(GEOMETRIC_RIESZ)]
    for t in triangles:
        for k in range(32):
            got = apply(t, basis_column(t, k), N)
            assert got == [F(1) if i == k else F(0) for i in range(N)]

    rng = random.Random(4)
    for _ in range(20):
        t = triangles[rng.randrange(3)]
        x = _rand_finite_seq(rng)
        big_k = x.support_bound
        tx = transform_seq(t, x)
        cols = [basis_column(t, k) for k in range(big_k + 1)]
        for i in range(big_k + 1):
            recon = sum(tx(k) * cols[k](i) for k in range(big_k + 1))
            assert recon == x(i)
    print("ACCEPTANCE 4 (bases and 20 random reconstructions): PASS")


def test_acceptance_5_condition_oracles():
    rng = random.Random(5)
    for _ in range(20):
        m = _rand_banded(rng, rows=10, width=10)
        for size, got in cond_l1_l1(m, N):
            brute = max(
                sum(abs(m.entry(row, col)) for row in range(size))
                for col in range(size)
            )
            assert got == brute
        for size, got in cond_l1_linf(m, N):
            brute = max(
                abs(m.entry(row, col))
                for row in range(size)
                for col in range(size)
            )
            assert got == brute
    print("ACCEPTANCE 5 (condition statistics match dense brute force): PASS")


def test_acceptance_6_class_transform_identities():
    rng = random.Random(6)
    for _ in range(20):
        dom = STANDARD_DOMAINS[rng.randrange(3)]
        a = _rand_banded(rng)
        x = _rand_finite_seq(rng)
        e = compose(a, invert(dom.matrix))
        y = transform_seq(dom.matrix, x)
        assert apply_general(a, x, N) == apply_general(e, y, N)

        b = _rand_banded(rng)
        z = _rand_finite_seq(rng)
        f = compose(dom.matrix, b)
        bz = Seq.from_values(apply_general(b, z, N))
        assert apply_general(f, z, N) == apply(dom.matrix, bz, N)
    print("ACCEPTANCE 6 (Ax = E(domain x) and Fz = domain(Bz) on 0..63): PASS")


def test_acceptance_7_norm_facts():
    for n in (1, 7, 64):
        assert bv_norm_prefix(Seq.constant(1), n) == 1
        assert bv_norm_prefix(Seq.unit(0), n) == 2

    rng = random.Random(7)
    for _ in range(20):
        rows = [
            [_rand_rat(rng) for _ in range(i)] + [_rand_nonzero(rng)]
            for i in range(12)
        ]
        t = Triangle(
            lambda n, k, rows=rows: rows[n][k]
            if n < len(rows)
            else (F(1) if n == k else F(0)),
        )
        x = _rand_finite_seq(rng)
        ax = transform_seq(t, x)
        depth = rng.choice((4, 9, 12))
        assert bvA_norm_prefix(t, x, depth) == bv_norm_prefix(ax, depth)
    print("ACCEPTANCE 7 (norm facts and 20 random domain-norm cases): PASS")


def test_acceptance_8_dual_cross_checks():
    rng = random.Random(8)
    for pair in WEIGHT_PAIRS:
        dom = weighted_domain(pair)
        for _ in range(10):
            a = _rand_finite_seq(rng)
            report = dual_test(dom, a, "beta", N)
            assert report.cross_check is not None
            assert report.cross_check["match"] is True

    for dom in STANDARD_DOMAINS:
        for kind in ("alpha", "beta", "gamma"):
            a = _rand_finite_seq(rng)
            assert dual_test(dom, a, kind, N).verdict == "certified_in"
    print("ACCEPTANCE 8 (weighted-domain dual cross-checks at 64): PASS")


def test_acceptance_9_verify_determinism():
    cmd = [
        sys.executable,
        "-m",
        "bvdomains.cli",
        "verify",
        "--suite",
        "all",
        "--n",
        "64",
        "--seed",
        "7",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout
    print("ACCEPTANCE 9 (verify --suite all --n 64 --seed 7 deterministic): PASS")
