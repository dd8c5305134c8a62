"""A check that fails on one case reports that case and stops drawing.

Each case below makes one randomized or indexed case of a check fail.  The
expected failing entries, report digests and next seeded draws were taken
from the hand-written loops these checks replaced, so the reports stay
byte-identical and the cases after the first failure still draw nothing.
Those of the compose and structure-vs-scan cases were taken before compose
read the structure of a domain matrix or a domain inverse, and hold since;
the canonical-form case could not fail while that check read the Fraction
rather than its printed text, and its report was re-recorded when the check
began to show the printed text against the canonical one.  The cases of
the forward-substitution and condition-scan families were recorded before
those oracles became integer and support-bounded kernels, so they show that
the kernels report the same failures.  The cases of the dual coincidence,
beta-implies-gamma, apply-compose and Cesaro-coherence families were
recorded before compose multiplied the structures of two structured
triangles and built the dual matrices.
The cases of the inverse-identity-left, specialization, closed-form,
delta-step, basis-reconstruction and finite-support families were recorded
before the structure path of the condition statistics ran on integers.
The whole reports of the suites at N=16, the self_check benchmark size, are
pinned by their digests too.
"""

import hashlib
import json
import random

import pytest

from bvdomains import builders, duals, matclass, spaces, verify
from fractions import Fraction

from bvdomains.core import Seq, Triangle, compose, invert


def _fail_on_call(monkeypatch, module, name, index, wrong):
    """Replace module.name so that its call number index returns wrong(...)."""
    orig = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(None)
        return wrong(orig, *args) if len(calls) == index + 1 else orig(*args)

    monkeypatch.setattr(module, name, patched)


def _bump(dense, row, col):
    """dense with one added to its entry (row, col)."""
    values = [list(r) for r in dense]
    values[row][col] += 1
    return tuple(map(tuple, values))


def _nudge():
    """The identity triangle with 1/7 at (9, 4), a fault deep in the grid."""
    return Triangle(lambda n, k: Fraction(1, 7) if (n, k) == (9, 4) else Fraction(int(n == k)))


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
        # calls 0-4 are the E cases of the C domain: E of case 2 is A . domain
        (verify, "compose", 2, lambda orig, a, inverse: orig(a, invert(inverse))),
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
    (
        "identities",
        (verify, "dense_mul", 0, lambda orig, a, b: _bump(orig(a, b), 2, 5)),
        {
            "name": "inverse_identity_right[delta]",
            "status": "fail",
            "counterexample": {"position": [2, 5], "expected": "0", "got": "1"},
        },
        "d7cf49e2fc0409e25b7601b00ceaa444161c7a3d9c68651cca112445ff1a684f",
        278479249,
    ),
    (
        "bases",
        (
            verify,
            "invert",
            0,
            lambda orig, t: orig(builders.sigma_riesz(verify._unit_riesz_weights())),
        ),
        {
            "name": "riesz_basis_degeneracy",
            "status": "fail",
            "counterexample": {"position": [1, 1], "expected": "3/2", "got": "2"},
        },
        "20ea2d726136f6e0294c9bef0f5c619c692176ec44d3dc7f8395a82daa97d0a3",
        190504374,
    ),
    (
        "duals",
        (duals, "alpha_assoc", 0, lambda orig, t, a: orig(builders.cesaro(), a)),
        {
            "name": "alpha_assoc_phi_closed_form",
            "status": "fail",
            "counterexample": {"position": [1, 0], "expected": "-5/6", "got": "5/6"},
        },
        "2a23a304598155e9dc4ab97dc13100438dedb463ff46d0c8f0f53925320aeca1",
        454175622,
    ),
    (
        "matclass",
        # calls 5-9 are the F cases of the C domain: F of case 2 is B
        (verify, "compose", 7, lambda orig, d, b: b),
        {
            "name": "transform_identity_F[C]",
            "status": "fail",
            "counterexample": {
                "position": [1],
                "expected": "-2077/1260",
                "got": "-331/90",
                "case": 2,
            },
        },
        "95ab08bc49ba089344585c98ef1bf3081471e6c11b5be3692ed5c305ae94234a",
        40542650,
    ),
    (
        # compose(cesaro, sum) of the second pair runs as compose(sum, cesaro),
        # so its dense-product comparison fails and the products by phi and
        # its inverse never run
        "identities",
        (verify, "compose", 4, lambda orig, x, y: orig(y, x)),
        {
            "name": "compose_associativity",
            "status": "fail",
            "counterexample": {"position": [1, 0], "expected": "1", "got": "3/2"},
        },
        "6c150317607c90b1a27d8cd02bb3b92bf216c911ff61bc37dd22b8f1220cdbe9",
        278479249,
    ),
    (
        # call 32 is the statistics of the G domain's alpha matrix from its
        # structure, the third structure-vs-scan case
        "duals",
        (duals, "condition_stats", 32, lambda orig, kind, m, n: orig(kind, m, n - 4)),
        {
            "name": "condition_brute_force_agreement",
            "status": "fail",
            "counterexample": {"case": "generators", "domain": "G", "kind": "alpha"},
        },
        "246a6ead87203aecae5569edac771fddb331b80aabfe1c8a03bc29465f648e7d",
        454175622,
    ),
    (
        # phi(1, 1) = 1/2 printed as 2/4, which parses back to the same value
        # but is not in lowest terms
        "identities",
        (spaces, "fmt", 17, lambda orig, v: "2/4"),
        {
            "name": "rational_canonical_form",
            "status": "fail",
            "counterexample": {"position": [1, 1], "expected": "1/2", "got": "2/4"},
        },
        "c7709cf105deb70448376d63ca7d26a9cd2df271c92902f2d89c9298d38d9ab7",
        278479249,
    ),
    (
        # forward substitution inverts nudge . inverse(cesaro), so row 9 of
        # the result is cesaro's with its column 4 changed
        "identities",
        (verify, "_build_inverse", 1, lambda orig, t: orig(compose(_nudge(), t))),
        {
            "name": "inverse_involution[cesaro]",
            "status": "fail",
            "counterexample": {"position": [9, 4], "expected": "1/10", "got": "3/35"},
        },
        "9c01653f49dc147052a47da91c95edc0009ad41f96911a47d33f2fb5e00b72e8",
        278479249,
    ),
    (
        # the reference side inverts cesaro . nudge, whose row 9 takes 1/7 of
        # row 4 of the Cesaro inverse away
        "identities",
        (verify, "_build_inverse", 3, lambda orig, t: orig(compose(t, _nudge()))),
        {
            "name": "closed_form_cesaro_inverse",
            "status": "fail",
            "counterexample": {"position": [9, 3], "expected": "4/7", "got": "0"},
        },
        "35715a131287e2b85f177007fd26b97c6288698d3f2161933dc52a389b20f38e",
        278479249,
    ),
    (
        # the G domain's F = domain . inverse(domain) is scanned times nudge,
        # whose column 4 sums to 8/7 from the N=16 square on
        "matclass",
        (duals, "cond_l1_l1", 1, lambda orig, m, n: orig(compose(m, _nudge()), n)),
        {
            "name": "composition_sanity_F_identity[G]",
            "status": "fail",
            "counterexample": {
                "stats": [
                    {"index": 4, "value": "1"},
                    {"index": 8, "value": "1"},
                    {"index": 16, "value": "8/7"},
                ]
            },
        },
        "8f636703375989aa4b0bf6346fe0d6b0aba38b997c550950be9f192cf6708657",
        522467575,
    ),
    (
        # the beta report of the unit Riesz domain is taken of 2a, so it no
        # longer equals the Cesaro domain's
        "duals",
        (duals, "beta_assoc", 20, lambda orig, t, a: orig(t, Seq(lambda k: 2 * a(k)))),
        {"name": "riesz_cesaro_dual_coincidence", "status": "fail", "counterexample": None},
        "453adda9d4aad5f5d61c3e74bd380454e244d32991eb010c269896f556a62f46",
        454175622,
    ),
    (
        # the beta test of e0 reads a copy that drops the support bound, so
        # its verdict comes from the beta matrix's statistics, likely_in,
        # while the gamma test still certifies e0
        "duals",
        (duals, "dual_test", 18, lambda orig, t, a, kind, n: orig(t, Seq(lambda k: a(k)), kind, n)),
        {
            "name": "beta_implies_gamma[e0]",
            "status": "fail",
            "counterexample": {"beta": "likely_in", "gamma": "certified_in"},
        },
        "0c0037b7f2e6493d96070c2e56f78f15c64e74f751f13b743361f89b9074d079",
        454175622,
    ),
    (
        # the composed side multiplies delta by cesaro . cesaro, a product of
        # two structured triangles, instead of by cesaro
        "identities",
        (verify, "compose", 11, lambda orig, x, y: orig(x, orig(y, builders.cesaro()))),
        {
            "name": "apply_compose_coherence",
            "status": "fail",
            "counterexample": {"position": [1], "expected": "-11/24", "got": "-11/12"},
        },
        "b11dc3ec8910afa697826484a91dc1366fb324e54affc1e8d0833c9346eb8674",
        278479249,
    ),
    (
        # E of the unit Riesz domain is taken of A . cesaro instead of A: calls
        # 0-2 are the F of the composition sanity checks and 3-5 the E of the
        # Cesaro coherence check
        "matclass",
        (
            matclass,
            "compose",
            5,
            lambda orig, a, inverse: orig(compose(a, builders.cesaro()), inverse),
        ),
        {
            "name": "cesaro_coherence_across_domains",
            "status": "fail",
            "counterexample": {
                "blocks": [
                    {
                        "target": "linf",
                        "sup_entry": [
                            {"index": 4, "value": "54/5"},
                            {"index": 8, "value": "23"},
                            {"index": 16, "value": "23"},
                        ],
                        "verdict": "likely_out",
                    },
                    {
                        "target": "linf",
                        "sup_entry": [
                            {"index": 4, "value": "54/5"},
                            {"index": 8, "value": "23"},
                            {"index": 16, "value": "23"},
                        ],
                        "verdict": "likely_out",
                    },
                    {
                        "target": "linf",
                        "sup_entry": [
                            {"index": 4, "value": "547/90"},
                            {"index": 8, "value": "8"},
                            {"index": 16, "value": "8"},
                        ],
                        "verdict": "likely_in",
                    },
                ]
            },
        },
        "168e592770a3ee8965f1424057c1232770e0308f1e06d55bc00dd190864a5422",
        522467575,
    ),
    (
        "identities",
        (verify, "dense_mul", 3, lambda orig, a, b: _bump(orig(a, b), 6, 6)),
        {
            "name": "inverse_identity_left[cesaro]",
            "status": "fail",
            "counterexample": {"position": [6, 6], "expected": "1", "got": "2"},
        },
        "0a8085e7115f5e70816795e6ab0fc694e8cb9bdf94122da85b87caae4806b6f5",
        278479249,
    ),
    (
        # the weights of the specialized mean double v_5
        "identities",
        (
            verify,
            "_cesaro_weight_pair",
            0,
            lambda orig: builders.WeightPair(
                Seq(lambda n: Fraction(1, n + 1)), Seq(lambda k: Fraction(1 + (k == 5)))
            ),
        ),
        {
            "name": "specialization_weighted_to_cesaro",
            "status": "fail",
            "counterexample": {"position": [5, 5], "expected": "1/6", "got": "1/3"},
        },
        "33598e47d741961c1a1070e566449d15527246af8fe4ed0485b896b9487a6ac0",
        278479249,
    ),
    (
        # the Riesz weights double q_7, so every Q_n from n = 7 on is one more
        "identities",
        (
            verify,
            "_unit_riesz_weights",
            0,
            lambda orig: builders.RieszWeights(Seq(lambda k: Fraction(1 + (k == 7)))),
        ),
        {
            "name": "specialization_riesz_to_cesaro",
            "status": "fail",
            "counterexample": {"position": [7, 0], "expected": "1/8", "got": "1/9"},
        },
        "b9e2ae0b82d40f9ee21543afbff445babd622e1f995fc13c6c36eef79bb8e371",
        278479249,
    ),
    (
        "identities",
        (builders, "phi_closed_form", 0, lambda orig: compose(orig(), _nudge())),
        {
            "name": "closed_form_phi",
            "status": "fail",
            "counterexample": {"position": [9, 4], "expected": "-1/90", "got": "1/315"},
        },
        "f3ca1b72f7755aa69be87e9584005c260228d6e5c0709f4533e55a5a197da773",
        278479249,
    ),
    (
        # the closed form reads v with v_3 doubled
        "identities",
        (
            builders,
            "gamma_closed_form",
            0,
            lambda orig, w: orig(builders.WeightPair(w.u, Seq(lambda k: w.v(k) * (1 + (k == 3))))),
        ),
        {
            "name": "closed_form_gamma",
            "status": "fail",
            "counterexample": {"position": [3, 3], "expected": "4/5", "got": "8/5"},
        },
        "840bba89a5507cf136be2b8c0d9dfba689553ea759350f70a7042d29e5f27474",
        278479249,
    ),
    (
        "identities",
        (builders, "sigma_closed_form", 0, lambda orig, r: orig(verify._unit_riesz_weights())),
        {
            "name": "closed_form_sigma",
            "status": "fail",
            "counterexample": {"position": [1, 0], "expected": "-2/3", "got": "-1/2"},
        },
        "d478a0c806506c1e401bffef8983b113647d0caeb55be2c6e7e03b60d5b9e5b6",
        278479249,
    ),
    (
        # calls 0-23 are the basis_application cases, 8 per domain
        "bases",
        (builders, "basis_column", 24, lambda orig, t, k: orig(t, k + 1)),
        {
            "name": "delta_basis_step_shape",
            "status": "fail",
            "counterexample": {"position": [3], "expected": "1", "got": "0"},
        },
        "c0e0faaf838a4bf1ddb6335db81e65d3445c7bea6d2811cfed4cdef62a96f734",
        190504374,
    ),
    (
        # call 31 is the third reconstruction of the G domain; its last two
        # cases draw nothing, the R domain's five still do
        "bases",
        (verify, "apply", 31, lambda orig, t, x, n: [2 * v for v in orig(t, x, n)]),
        {
            "name": "basis_reconstruction[G,case=2]",
            "status": "fail",
            "counterexample": {"position": [0], "expected": "-7/6", "got": "-7/3"},
        },
        "00d45f7c80e277282604557ae7067b41a670169439c317b86fdcc480b38d43cc",
        64510957,
    ),
    (
        # the alpha test of the R domain reads a copy of a that drops the
        # support bound, so its verdict comes from the column l1 sums
        "duals",
        (duals, "dual_test", 15, lambda orig, t, a, kind, n: orig(t, Seq(lambda k: a(k)), kind, n)),
        {
            "name": "finite_support_certified[R,alpha]",
            "status": "fail",
            "counterexample": {"verdict": "likely_in"},
        },
        "3886de6a9d9ad7d6ec9c313458a430de5ade61b8b7c4ac02e912040aa6e3ada9",
        454175622,
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
        assert list(failed[0]["counterexample"] or ()) == list(failing["counterexample"] or ())
    else:
        assert failed[0]["name"] == "beta_cross_check[G,w=0]"
        assert list(failed[0]["counterexample"]) == ["case", "detail"]
        assert failed[0]["counterexample"]["case"] == 1
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == digest
    # the generator is where the reference loops left it: no case after the
    # failing one drew from it
    assert rngs[0].randint(0, 10**9) == next_draw


def test_grid_equal_reports_a_mismatch_before_a_raising_cell():
    # rows are compared whole, but a cell that raises later in a row must not
    # hide the row's earlier mismatch, and one that raises first still raises
    def got(bad, raising):
        def cell(row, col):
            if (row, col) == raising:
                raise ZeroDivisionError("cell")
            return Fraction(row + col) + ((row, col) == bad)
        return cell

    expected = lambda row, col: Fraction(row + col)
    result = verify._grid_equal("g", expected, got((2, 0), (2, 1)), 4)
    assert not result.passed
    assert result.counterexample == {"position": [2, 0], "expected": "2", "got": "3"}
    with pytest.raises(ZeroDivisionError):
        verify._grid_equal("g", expected, got((2, 1), (2, 0)), 4)
    assert verify._grid_equal("g", expected, got(None, None), 4, square=True).passed
    result = verify._grid_equal("g", expected, got((1, 3), None), 4, square=True)
    assert result.counterexample["position"] == [1, 3]
    # the same when the expected side raises
    result = verify._grid_equal("g", got(None, (2, 1)), got((2, 0), None), 4)
    assert result.counterexample == {"position": [2, 0], "expected": "2", "got": "3"}
    with pytest.raises(ZeroDivisionError):
        verify._grid_equal("g", got(None, (2, 0)), got((2, 1), None), 4)


SUITE_DIGESTS = {
    ("identities", 0): "77736565cadd61affd539c7246f5274c46ec78e7172accf9a80b06abbea4a49f",
    ("bases", 0): "44a89d8de49dfdeb32b5502a6d940645c876689fc4479c0764afed5135337622",
    ("duals", 0): "ae8ad6575984b517e413d8f139162336283b08746e4ff08bcf0c87a87e470751",
    ("matclass", 0): "556096788fadb152fe6e6d6b8839467e629abf72ab0ef720ab896df569efa0ff",
    ("all", 0): "38dd6d1fa2af6b04831d2f180231240410ed8d48e70312141aae88a3b1bc34ee",
    ("identities", 1): "4bac2719272e6354b7e9fb83dd562fe9e2b86b9a85423d4c228b2a0cb289d851",
    ("bases", 1): "db25b3b4658fd4a467e58a5c8efd3f4f9f3939bc0f6b2f0fa293d28b329f5271",
    ("duals", 1): "6f85864ed55129b59c1e55d53daa6d95011782ed222c0e513248ad6e824832ab",
    ("matclass", 1): "b5b271c881a8e85dcdb5cca10a454b9f3f26619a086d1ce044b49683d295e966",
    ("all", 1): "f8f1fbc2728755f469f9a4ff8dea360e08194a041283a7bc6e79ced5ad229cc8",
    ("identities", 2): "b280faba1c2c2b9360fbaa048c81af9f1e262e35f3a2196c979aebef84371036",
    ("bases", 2): "712730638f11ac2d83383c65694f2c87257f1d1101de29046be65296f74384a2",
    ("duals", 2): "e984deae7a4752592abe153da619be807c0d76b52e1af37ba1002566a7e2566e",
    ("matclass", 2): "fd17a374f7b85187a8ce5e779f55a100b6516fb25c235f1562dbac06c6ca3705",
    ("all", 2): "1d797037e19865ca3d0082c880490ea328bfdef68c73084590904bef40b9da49",
}


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'x'"):
        verify.run_suite("x", 16, 0)


@pytest.mark.parametrize("suite", verify.SUITES)
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_suite_report_digest_at_self_check_size(suite, seed):
    report = verify.run_suite(suite, 16, seed)
    assert report["summary"]["failed"] == 0
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert digest == SUITE_DIGESTS[suite, seed]
