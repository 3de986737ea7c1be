import gc
import itertools
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction

import pytest

from mvdelta import carriers
from mvdelta.carriers import (
    CHANG,
    CarrierError,
    ChangElem,
    FiniteChain,
    ProductAlg,
    Q01_CARRIER,
    carrier_from_spec,
    enumerate_ideals,
    is_ideal,
    is_infinitesimal,
    maximal_ideals,
    principal_ideal,
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
from oracles import FiniteByTables, WrongSum, brute_force_homs, is_rank_hom

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


def test_rank_check_rejects_swapped_ranks():
    # The oracle's rank check, which FiniteByTables.holder_hom relies on.
    for K in (FiniteChain(4), L23):
        tables = K.tables
        for h in enumerate_homs(K):
            m = len(h.image()) - 1
            rank = [int(h.table[x] * m) for x in tables.elements]
            assert is_rank_hom(tables, rank, m), K.spec
            for i in range(len(rank)):
                for j in range(i):
                    if rank[i] != rank[j]:
                        swapped = list(rank)
                        swapped[i], swapped[j] = rank[j], rank[i]
                        assert not is_rank_hom(tables, swapped, m), (K.spec, i, j)


@pytest.mark.parametrize(
    "routine", [spectrum, eta, carriers.radical], ids=["spectrum", "eta", "radical"]
)
@pytest.mark.parametrize("n", [2, 3])
def test_chain_check_rejects_every_wrong_oplus_entry(routine, n):
    # Every single-entry corruption of the chain's oplus, alone and as a
    # factor: the per-chain check runs on the chain's own oplus.
    for x in range(n + 1):
        for y in range(n + 1):
            for wrong in set(range(n + 1)) - {min(x + y, n)}:
                chain = WrongSum(n, x, y, wrong)
                for carrier in (chain, ProductAlg((FiniteChain(2), chain))):
                    with pytest.raises(AssertionError):
                        routine(carrier)


# Every finite carrier the tests build, up to the 1,024 elements the table
# budget admits, with nested products and trivial factors.
ORACLE_SPECS = [f"chain:{n}" for n in range(9)] + [
    "prod(chain:1,chain:1)",
    "prod(chain:1,chain:2)",
    "prod(chain:2,chain:1)",
    "prod(chain:1,chain:3)",
    "prod(chain:3,chain:1)",
    "prod(chain:2,chain:2)",
    "prod(chain:2,chain:3)",
    "prod(chain:1,chain:1,chain:1)",
    "prod(chain:1,chain:1,chain:2)",
    "prod(chain:2,chain:3,chain:4)",
    "prod(chain:4,chain:4,chain:4)",
    "prod(chain:0,chain:2)",
    "prod(chain:4)",
    "prod(chain:1,prod(chain:2,chain:2))",
    "prod(chain:1,prod(chain:0,prod(chain:2)),chain:1)",
    "prod(chain:2,chain:2,chain:2,chain:2,chain:2)",
    "prod(chain:1,chain:511)",
    "chain:1023",
]


def _hom_items(homs) -> list[list]:
    return [list(h.table.items()) for h in homs]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_factor_wise_layer_matches_table_oracle(spec):
    oracle = FiniteByTables(carrier_from_spec(spec))
    got, want = spectrum(carrier_from_spec(spec)), oracle.spectrum()
    assert got.ideals == want.ideals
    assert _hom_items(got.homs) == _hom_items(want.homs)
    assert (got.closed_sets, got.basis) == (want.closed_sets, want.basis)
    assert radical(carrier_from_spec(spec)) == oracle.radical()
    got, want = eta(carrier_from_spec(spec)), oracle.eta()
    assert got == want and list(got.values.items()) == list(want.values.items())

    K = carrier_from_spec(spec)
    ideals = enumerate_ideals(K)
    assert ideals == oracle.ideals() and maximal_ideals(K) == oracle.maximal_ideals()
    elems = K.elements()
    # Every element of the smaller carriers; a stride through the larger.
    sample = elems if len(elems) <= 250 else elems[::7] + elems[-1:]
    for a in sample:
        assert principal_ideal(K, a) == oracle.principal_ideal(a), a
        for bound in (None, 0, 1, 2, 3):
            assert is_infinitesimal(K, a, bound) == oracle.is_infinitesimal(a, bound), (a, bound)
    if len(elems) <= 8:
        sizes = range(len(elems) + 1)
        subsets = [frozenset(c) for r in sizes for c in itertools.combinations(elems, r)]
    else:  # each ideal, and each with one of a few elements taken out or put in
        few = elems[:3] + elems[-3:]
        subsets = [*ideals, *(i - {a} for i in ideals for a in few)]
        subsets += [i | {a} for i in ideals for a in few]
    for subset in subsets:
        assert is_ideal(K, subset) == oracle.is_ideal(subset), subset


@dataclass(frozen=True)
class LaxOrder(FiniteChain):
    """A chain whose order holds between any two elements."""

    def leq(self, x, y):
        self._check(x), self._check(y)
        return True


@pytest.mark.parametrize(
    "routine", [spectrum, eta, carriers.radical], ids=["spectrum", "eta", "radical"]
)
def test_radical_cross_check_reads_the_chains_own_order(routine):
    # The sums are right, but under this order every multiple stays below
    # neg(x): bounded multiples would make every element infinitesimal.
    for carrier in (LaxOrder(2), ProductAlg((FiniteChain(2), LaxOrder(3)))):
        with pytest.raises(AssertionError, match="radical cross-check failed"):
            routine(carrier)


def _carriers_within(carrier):
    yield carrier
    for factor in getattr(carrier, "factors", ()):
        yield from _carriers_within(factor)


@pytest.mark.parametrize(
    "routine",
    [
        spectrum,
        carriers.radical,
        eta,
        maximal_ideals,
        enumerate_ideals,
        lambda K: epsilon_finite(K.factors),
        lambda K: [principal_ideal(K, a) for a in K.elements()],
        lambda K: [is_infinitesimal(K, a) for a in K.elements()],
        lambda K: is_ideal(K, frozenset(K.elements())),
    ],
    ids=["spectrum", "radical", "eta", "maximal_ideals", "enumerate_ideals", "epsilon_finite",
         "principal_ideal", "is_infinitesimal", "is_ideal"],
)
def test_finite_routines_leave_the_tables_unbuilt(routine):
    carrier = ProductAlg((FiniteChain(2), FiniteChain(0), FiniteChain(3)))
    routine(carrier)
    assert all("tables" not in vars(c) for c in _carriers_within(carrier))


def _count_oplus(monkeypatch, cls) -> list[int]:
    calls = [0]
    oplus = cls.oplus

    def counted(self, x, y):
        calls[0] += 1
        return oplus(self, x, y)

    monkeypatch.setattr(cls, "oplus", counted)
    return calls


@pytest.mark.parametrize(
    "routine", [spectrum, eta, carriers.radical], ids=["spectrum", "eta", "radical"]
)
def test_finite_routines_tabulate_oplus_once(monkeypatch, routine):
    product_calls = _count_oplus(monkeypatch, ProductAlg)
    chain_calls = _count_oplus(monkeypatch, FiniteChain)
    routine(carrier_from_spec("prod(chain:2,chain:3)"))
    # The product's oplus is never called; each chain factor's is read
    # once, by the check of that chain.
    assert product_calls[0] == 0
    assert chain_calls[0] <= 3**2 + 4**2 == 25


def test_one_carrier_is_listed_and_checked_once_across_routines(monkeypatch):
    chain_calls = _count_oplus(monkeypatch, FiniteChain)
    listed, calls = ProductAlg.elements, []

    def counted(self):
        calls.append(self.spec)
        return listed(self)

    monkeypatch.setattr(ProductAlg, "elements", counted)
    carrier = carrier_from_spec("prod(chain:2,chain:3)")
    for routine in (spectrum, eta, carriers.radical, maximal_ideals, enumerate_ideals):
        routine(carrier)
    principal_ideal(carrier, (1, 2))
    is_infinitesimal(carrier, (1, 2))
    assert calls == ["prod(chain:2,chain:3)"]
    # The checks of chain:2 and chain:3, once each; is_infinitesimal adds
    # its own multiples: 1/2 + 1/2 in chain:2, none in chain:3, where 2/3
    # already exceeds its negation.
    assert chain_calls[0] == 3**2 + 4**2 + 1


@pytest.mark.parametrize(
    "spec", ["chain:3", "prod(chain:2,chain:3)", "prod(chain:1,prod(chain:2))"]
)
def test_a_carrier_is_freed_without_the_cycle_collector(spec):
    # The chain factors a carrier keeps refer to no carrier, so dropping
    # the last reference frees it at once, not at some full collection.
    carrier = carrier_from_spec(spec)
    for routine in (spectrum, eta, carriers.radical):
        routine(carrier)
    principal_ideal(carrier, carrier.zero())
    ref = weakref.ref(carrier)
    gc.disable()
    try:
        del carrier
        assert ref() is None
    finally:
        gc.enable()


def test_equal_carriers_build_their_own_tables(monkeypatch):
    calls = _count_oplus(monkeypatch, FiniteChain)
    first = carrier_from_spec("prod(chain:2,chain:3)")
    second = carrier_from_spec("prod(chain:2,chain:3)")
    assert first == second and first is not second
    spectrum(first)
    built_once = calls[0]
    assert built_once > 0
    spectrum(second)
    assert calls[0] == 2 * built_once
    assert first.tables is not second.tables


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
