import random
from fractions import Fraction

import pytest

from mvdelta.carriers import (
    CHANG,
    CarrierError,
    ChangElem,
    FiniteChain,
    ProductAlg,
    Q01_CARRIER,
    maximal_ideals,
    radical,
)
from mvdelta.plfunc import PL_CARRIER, pl_precompose, random_fnseq, random_plfunc
from mvdelta.rationals import Q01
from mvdelta.spectrum import (
    chang_eta,
    delta_preserved,
    enumerate_homs,
    epsilon_finite,
    eta,
    halving_preserved,
    holder_hom,
    point_evaluation_hom,
    precompose_hom,
    preimage_ideal,
    spectrum,
    v_of,
)
from oracles import brute_force_homs

L23 = ProductAlg((FiniteChain(2), FiniteChain(3)))

FINITE_CORPUS = [
    FiniteChain(1),
    FiniteChain(2),
    FiniteChain(3),
    FiniteChain(4),
    ProductAlg((FiniteChain(2), FiniteChain(2))),
    L23,
    ProductAlg((FiniteChain(1), FiniteChain(1), FiniteChain(1))),
]


def test_chain_has_single_hom_the_inclusion():
    for n in (1, 2, 3, 5):
        K = FiniteChain(n)
        homs = enumerate_homs(K)
        assert len(homs) == 1
        (h,) = homs
        assert all(h.table[k] == Q01(k, n) for k in K.elements())
        # The image is the proper subalgebra of multiples of 1/n, not all of [0,1].
        assert h.image() == {Q01(k, n) for k in range(n + 1)}


def test_product_homs_are_projections():
    homs = enumerate_homs(L23)
    assert len(homs) == 2
    kernels = {h.kernel() for h in homs}
    assert kernels == set(maximal_ideals(L23))
    tables = {tuple(sorted((k, v) for k, v in h.table.items())) for h in homs}
    proj0 = tuple(sorted((t, Q01(t[0], 2)) for t in L23.elements()))
    proj1 = tuple(sorted((t, Q01(t[1], 3)) for t in L23.elements()))
    assert tables == {proj0, proj1}


def test_brute_force_oracle_agrees():
    for K in FINITE_CORPUS:
        via_ideals = enumerate_homs(K)
        via_search = brute_force_homs(K)
        assert [h.table for h in via_ideals] == [h.table for h in via_search], K.spec


def test_exactly_one_hom_per_maximal_ideal():
    for K in FINITE_CORPUS:
        homs = brute_force_homs(K)
        maxes = maximal_ideals(K)
        assert len(homs) == len(maxes), K.spec
        assert sorted(map(sorted, (h.kernel() for h in homs))) == sorted(
            map(sorted, maxes)
        ), K.spec


def test_trivial_algebra_has_no_homs():
    assert enumerate_homs(FiniteChain(0)) == []
    assert brute_force_homs(FiniteChain(0)) == []


def test_holder_hom_rejects_improper_ideal():
    K = FiniteChain(2)
    with pytest.raises(CarrierError):
        holder_hom(K, frozenset(K.elements()))


def test_v_of_examples():
    assert v_of(L23, [L23.zero()]) == maximal_ideals(L23)
    assert v_of(L23, [(2, 3)]) == []  # the top element is in no proper ideal
    hits = v_of(L23, [(1, 0)])
    assert len(hits) == 1
    assert (1, 0) in hits[0]


def test_spectrum_result_shape():
    result = spectrum(L23)
    assert len(result.ideals) == len(result.homs) == 2
    for ideal, hom in zip(result.ideals, result.homs):
        assert hom.kernel() == ideal
    # V(0) is everything, V(whole algebra) is empty.
    assert tuple(range(2)) in result.closed_sets
    assert () in result.closed_sets
    # Basis sets are closed sets; closed sets are intersections of basis sets.
    closed = set(result.closed_sets)
    basis = set(result.basis)
    assert basis <= closed
    whole = tuple(range(len(result.ideals)))
    for c in closed:
        if c == whole:
            continue
        generators = [b for b in basis if set(c) <= set(b)]
        meet = set(whole)
        for b in generators:
            meet &= set(b)
        assert meet == set(c)


def test_stone_topology_discrete_on_finite_algebras():
    for K in FINITE_CORPUS:
        result = spectrum(K)
        for i in range(len(result.ideals)):
            assert (i,) in result.basis, K.spec


def test_max_functoriality_along_concrete_homs():
    # Concrete homomorphisms between finite carriers: preimages of maximal
    # ideals must be maximal.
    l2, l4 = FiniteChain(2), FiniteChain(4)
    cases = []
    # Projections of the product onto its factors.
    cases.append((L23, FiniteChain(2), {t: t[0] for t in L23.elements()}))
    cases.append((L23, FiniteChain(3), {t: t[1] for t in L23.elements()}))
    # Subalgebra inclusion of the three-element chain in the five-element one.
    cases.append((l2, l4, {k: 2 * k for k in l2.elements()}))
    # Diagonal embedding.
    diag = ProductAlg((FiniteChain(3), FiniteChain(3)))
    cases.append((FiniteChain(3), diag, {k: (k, k) for k in FiniteChain(3).elements()}))
    for source, target, table in cases:
        # Sanity: the table really is a homomorphism.
        for x in source.elements():
            assert table[source.neg(x)] == target.neg(table[x])
            for y in source.elements():
                assert table[source.oplus(x, y)] == target.oplus(table[x], table[y])
        source_max = maximal_ideals(source)
        for m in maximal_ideals(target):
            assert preimage_ideal(table, m) in source_max


def test_eta_injective_iff_semisimple():
    for K in FINITE_CORPUS + [FiniteChain(0)]:
        report = eta(K)
        assert report.injective == report.radical_trivial or len(K.elements()) == 1
        assert report.kernel == radical(K).elements
    hom, kernel_desc, injective = chang_eta()
    assert not injective
    assert hom(ChangElem(0, 41)) == Q01(0)
    assert hom(ChangElem(1, -3)) == Q01(1)
    assert "radical" in kernel_desc
    # The level map is a homomorphism on sampled pairs.
    samples = [ChangElem(0, k) for k in range(4)] + [ChangElem(1, -k) for k in range(4)]
    for x in samples:
        assert hom(CHANG.neg(x)) == Q01(1 - hom(x))
        for y in samples:
            assert hom(CHANG.oplus(x, y)) == Q01(min(hom(x) + hom(y), 1))


def test_eta_surjectivity_onto_hom_product():
    report = eta(L23)
    assert report.injective and report.surjective_onto_hom_product
    assert len(set(report.values.values())) == 12


def test_epsilon_finite_bijection():
    assert epsilon_finite([FiniteChain(4)] * 3).bijective
    assert epsilon_finite([FiniteChain(2)]).bijective
    assert epsilon_finite([FiniteChain(2), FiniteChain(3)]).bijective
    for size in range(1, 6):
        assert epsilon_finite([FiniteChain(2)] * size).bijective
    with pytest.raises(CarrierError):
        epsilon_finite([FiniteChain(2), CHANG])


def test_point_evaluation_commutes_with_delta():
    rng = random.Random(13)
    for _ in range(30):
        seq = random_fnseq(rng)
        point = Fraction(rng.randint(0, 16), 16)
        h = point_evaluation_hom(point)
        assert delta_preserved(h, PL_CARRIER, Q01_CARRIER, seq.prefix, seq.tail)
        f = random_plfunc(rng)
        for n in range(1, 5):
            assert halving_preserved(h, PL_CARRIER, Q01_CARRIER, f, n)


def test_precompose_commutes_with_delta():
    rng = random.Random(17)
    for _ in range(20):
        seq = random_fnseq(rng)
        phi = random_plfunc(rng)
        h = precompose_hom(phi)
        assert delta_preserved(h, PL_CARRIER, PL_CARRIER, seq.prefix, seq.tail)
        f = random_plfunc(rng)
        for n in range(1, 5):
            assert halving_preserved(h, PL_CARRIER, PL_CARRIER, f, n)


def test_identity_hom_preserves_delta():
    rng = random.Random(19)
    seq = random_fnseq(rng)
    assert delta_preserved(lambda f: f, PL_CARRIER, PL_CARRIER, seq.prefix, seq.tail)


def test_point_evaluation_at_non_dyadic_point():
    rng = random.Random(29)
    h = point_evaluation_hom(Fraction(1, 3))
    for _ in range(10):
        seq = random_fnseq(rng)
        assert delta_preserved(h, PL_CARRIER, Q01_CARRIER, seq.prefix, seq.tail)
        f = random_plfunc(rng)
        assert h(f) == f.eval_at(Fraction(1, 3))


def test_precompose_then_evaluate_preserves_delta():
    rng = random.Random(21)
    for _ in range(10):
        seq = random_fnseq(rng)
        phi = random_plfunc(rng)
        point = Fraction(rng.randint(0, 8), 8)

        def composed(f):
            return pl_precompose(f, phi).eval_at(point)

        assert delta_preserved(composed, PL_CARRIER, Q01_CARRIER, seq.prefix, seq.tail)
