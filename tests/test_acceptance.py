"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; all arithmetic is exact, so "tolerance"
means an exact rational bound or literal equality.
"""

import random
import time
from fractions import Fraction

from mvdelta import corpus, decide, terms
from mvdelta.carriers import (
    CHANG,
    ChangElem,
    FiniteChain,
    ProductAlg,
    Q01_CARRIER,
    halving_witness,
    is_infinitesimal,
    maximal_ideals,
    radical,
)
from mvdelta.goodseq import gamma_of_xi, xi_chain_iso
from mvdelta.plfunc import (
    PL_CARRIER,
    archimedean_certificate,
    increasing_approx,
    isbell_reconstruct,
    pl_const,
    pl_identity,
    pl_leq,
    pl_neg,
    pl_nfold,
    pl_scale,
    pl_tent,
    random_fnseq,
    random_plfunc,
    uniform_dist,
)
from mvdelta.rationals import Q01
from mvdelta.spectrum import (
    chang_eta,
    delta_preserved,
    enumerate_homs,
    epsilon_finite,
    eta,
    halving_preserved,
    point_evaluation_hom,
    precompose_hom,
)
from oracles import brute_force_homs

FINITE_TEST_ALGEBRAS = [
    FiniteChain(1),
    FiniteChain(2),
    FiniteChain(3),
    FiniteChain(4),
    FiniteChain(6),
    ProductAlg((FiniteChain(2), FiniteChain(2))),
    ProductAlg((FiniteChain(2), FiniteChain(3))),
    ProductAlg((FiniteChain(1), FiniteChain(1), FiniteChain(1))),
]


def _holds_on(carrier, law, assignment) -> bool:
    lv = terms.evaluate(law.lhs, assignment, carrier)
    rv = terms.evaluate(law.rhs, assignment, carrier)
    return carrier.eq(lv, rv) if law.relation == "eq" else carrier.leq(lv, rv)


def test_criterion_1_decision_engine_completeness():
    laws = corpus.decision_corpus()
    started = time.monotonic()
    for law in laws:
        verdict = decide.decide(law.lhs, law.rhs, law.relation)
        assert isinstance(verdict, decide.Valid), f"{law.name}: {verdict}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
    print(
        f"PASS criterion 1: {len(laws)} corpus laws decided Valid exactly "
        f"in {elapsed:.2f}s"
    )


def test_criterion_2_soundness_cross_check():
    laws = corpus.decision_corpus()
    for law in laws:
        cx = decide.sample_falsify(
            law.lhs, law.rhs, law.relation, trials=10_000, seed=20260809
        )
        assert cx is None, f"{law.name} violated at {cx}"
    bad = corpus.non_theorems()
    assert len(bad) == 20
    for law in bad:
        verdict = decide.decide(law.lhs, law.rhs, law.relation)
        assert isinstance(verdict, decide.Counterexample), law.name
        lv = terms.evaluate(law.lhs, verdict.assignment, Q01_CARRIER)
        rv = terms.evaluate(law.rhs, verdict.assignment, Q01_CARRIER)
        assert (lv, rv) == (verdict.lhs_value, verdict.rhs_value), law.name
        violated = (lv != rv) if law.relation == "eq" else (not lv <= rv)
        assert violated, law.name
    print(
        f"PASS criterion 2: 10^4 samples x {len(laws)} laws clean; "
        f"20 non-theorems refuted with exact replays"
    )


def test_criterion_3_chang_radical_closed_form():
    rad = radical(CHANG)
    assert rad.kind == "closed-form"
    for k in range(0, 1001):
        assert rad.contains(CHANG, ChangElem(0, k))
        assert not rad.contains(CHANG, ChangElem(1, -k))

    def oracle_multiples_stay_small(x, upto=8) -> bool:
        return all(CHANG.leq(CHANG.nfold(n, x), CHANG.neg(x)) for n in range(1, upto + 1))

    for k in range(0, 1001):
        low, high = ChangElem(0, k), ChangElem(1, -k)
        cert_low = is_infinitesimal(CHANG, low)
        cert_high = is_infinitesimal(CHANG, high)
        if k == 0:
            assert not cert_low.verdict  # zero is excluded by definition
        else:
            assert cert_low.verdict and oracle_multiples_stay_small(low)
        assert not cert_high.verdict
        assert not oracle_multiples_stay_small(high, upto=cert_high.failing_n)
    assert halving_witness(ChangElem(0, 1)) is None
    assert halving_witness(ChangElem(0, 2)) == ChangElem(0, 1)
    print(
        "PASS criterion 3: Chang radical = {(0,k) : k >= 0}; infinitesimal "
        "test agrees for |offset| <= 1000; halving witnesses exact"
    )


def _criterion_4_laws():
    keep = (
        "axiom_a",
        "halving_commutes_delta",
        "halving_as_zero_prefix",
        "zero_tail_below",
        "head_tail_split",
        "halving_sub",
        "half_one_self_dual",
        "halving_below",
        "halving_monotone",
        "half_square_zero",
    )
    return [l for l in corpus.delta_laws(2, 4) if l.name.startswith(keep)]


def test_criterion_4_delta_axioms_on_function_carrier():
    laws = _criterion_4_laws()
    rng = random.Random(20260809)
    instantiations = 1000
    for law in laws:
        code, (lhs, rhs), _ = terms.compile_core((terms.expand(law.lhs), terms.expand(law.rhs)))
        variables = terms.program_vars(code)
        for _ in range(instantiations):
            assignment = {v: random_plfunc(rng, max_interior=2, depth=4) for v in variables}
            values = terms.run(code, assignment, PL_CARRIER)
            lv, rv = values[lhs], values[rhs]
            if law.relation == "eq":
                assert lv == rv, (law.name, assignment)
            else:
                assert pl_leq(lv, rv), (law.name, assignment)
    print(
        f"PASS criterion 4: {len(laws)} delta laws hold exactly on "
        f"{instantiations} random piecewise-linear instantiations each"
    )


def test_criterion_5_reconstruction_error_bound():
    targets = {
        "identity": pl_identity(),
        "reflection": pl_neg(pl_identity()),
        "tent": pl_tent(),
        "third": pl_const(Fraction(1, 3)),
    }
    for name, target in targets.items():
        half = pl_scale(Q01(1, 2), target)
        for n in range(1, 9):
            stages = increasing_approx(half, n)
            result = isbell_reconstruct(stages)
            error = uniform_dist(result, half)
            assert error <= Fraction(1, 2**n), (name, n, error)
    print(
        "PASS criterion 5: reconstruction error <= 2^-n for n <= 8 on "
        "{identity, reflection, tent, constant 1/3}"
    )


def test_criterion_6_good_sequence_round_trips():
    for n in range(1, 7):
        iso = xi_chain_iso(n, 2 * n)
        assert iso.ok, n
        # Window holds the multiples of 1/n up to 2n: 2n^2 + 1 sequences.
        assert iso.sequences == 2 * n * n + 1
        report = gamma_of_xi(FiniteChain(n))
        assert report.ok and report.window_classes == n + 1
    assert gamma_of_xi(FiniteChain(1)).window_classes == 2
    print(
        "PASS criterion 6: sum-of-entries isomorphism and unit-interval "
        "round trip confirmed for chains up to n = 6 (two-element case: 2 elements)"
    )


def test_criterion_7_spectrum_instances():
    both = ProductAlg((FiniteChain(2), FiniteChain(3)))
    homs = enumerate_homs(both)
    maxes = maximal_ideals(both)
    assert len(homs) == 2 and len(maxes) == 2
    assert {h.kernel() for h in homs} == set(maxes)
    assert [h.table for h in homs] == [h.table for h in brute_force_homs(both)]

    for K in FINITE_TEST_ALGEBRAS:
        found = brute_force_homs(K)
        ideals = maximal_ideals(K)
        assert len(found) == len(ideals), K.spec
        assert {h.kernel() for h in found} == set(ideals), K.spec

    for size in range(1, 6):
        factors = [FiniteChain(2 + (i % 3)) for i in range(size)]
        assert epsilon_finite(factors).bijective, size

    for K in FINITE_TEST_ALGEBRAS:
        report = eta(K)
        assert report.injective == report.radical_trivial, K.spec
    _, _, chang_injective = chang_eta()
    assert not chang_injective  # radical is nontrivial, matching the closed form
    assert radical(CHANG).elements is None
    print(
        "PASS criterion 7: 2 homs with matching kernels on the 2x3 product; "
        "one hom per maximal ideal everywhere; point-kernel bijection for "
        "|X| <= 5; evaluation-map injectivity tracks semisimplicity"
    )


def test_criterion_8_delta_preservation_of_homomorphisms():
    rng = random.Random(20260809)
    checks = 0
    for _ in range(250):
        seq = random_fnseq(rng, max_prefix=3, max_interior=2, depth=4)
        point = Fraction(rng.randint(0, 64), 64)
        h = point_evaluation_hom(point)
        assert delta_preserved(h, PL_CARRIER, Q01_CARRIER, seq.prefix, seq.tail)
        f = random_plfunc(rng, max_interior=2, depth=4)
        for n in range(1, 5):
            assert halving_preserved(h, PL_CARRIER, Q01_CARRIER, f, n)
        checks += 1
    for _ in range(250):
        seq = random_fnseq(rng, max_prefix=2, max_interior=2, depth=3)
        phi = random_plfunc(rng, max_interior=2, depth=3)
        h = precompose_hom(phi)
        assert delta_preserved(h, PL_CARRIER, PL_CARRIER, seq.prefix, seq.tail)
        f = random_plfunc(rng, max_interior=2, depth=3)
        for n in range(1, 5):
            assert halving_preserved(h, PL_CARRIER, PL_CARRIER, f, n)
        checks += 1
    assert checks == 500
    print(
        "PASS criterion 8: 500 seeded homomorphism checks commute with the "
        "averaging operation and with halvings up to depth 4, exactly"
    )


def test_criterion_9_archimedean_witnesses():
    rng = random.Random(20260809)
    confirmed = 0
    while confirmed < 500:
        f = random_plfunc(rng, max_interior=3, depth=5)
        if f.is_zero():
            continue
        n = archimedean_certificate(f)
        assert n is not None
        assert not pl_leq(pl_nfold(n, f), pl_neg(f))
        confirmed += 1
    print(
        "PASS criterion 9: 500 seeded nonzero functions certified "
        "non-infinitesimal with verified multiples"
    )
