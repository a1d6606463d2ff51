"""Pair-prime cache and the exhaustive subset search."""

import itertools
import math
import multiprocessing

import pytest

from eulab.factor import factor_rational
from eulab.search import (
    MAX_TABLE_ELEMENT, PairPrimeCache, _row_table, _slice, run_search,
)

from oracles import brute_force_search, pair_primes_naive


@pytest.fixture(scope="module")
def cache60():
    return PairPrimeCache(60)


class TestPairPrimeCache:
    def test_prime_indexing_is_dense_and_increasing(self, cache60):
        assert cache60.primes == tuple(sorted(set(cache60.primes)))
        flat = {i for idx in cache60.pair_indices.values() for i in idx}
        assert flat == set(range(len(cache60.primes)))

    def test_indices_match_direct_factorization(self, cache60):
        for a, b in itertools.combinations(range(1, 61), 2):
            v = a * a + a * b + b * b
            expect = tuple(p for p, _ in factor_rational(v).factors)
            got = tuple(cache60.primes[i] for i in cache60.indices(a, b))
            assert got == expect

    @pytest.mark.parametrize("m", [*range(2, 61), 400])
    def test_matches_naive_oracle(self, m):
        naive = {(a, b): pair_primes_naive(a, b)
                 for a in range(1, m) for b in range(a + 1, m + 1)}
        primes = tuple(sorted({p for ps in naive.values() for p in ps}))
        index = {p: i for i, p in enumerate(primes)}
        cache = PairPrimeCache(m)
        assert cache.primes == primes
        assert cache.pair_indices == {
            ab: tuple(index[p] for p in ps) for ab, ps in naive.items()}

    def test_ignores_sieve_limit(self, monkeypatch):
        default = PairPrimeCache(100)
        monkeypatch.setenv("EULAB_SIEVE_LIMIT", "2")
        limited = PairPrimeCache(100)
        assert limited.primes == default.primes
        assert limited.pair_indices == default.pair_indices

    def test_indices_ignore_argument_order(self, cache60):
        assert cache60.indices(7, 3) == cache60.indices(3, 7)

    def test_omega_examples(self, cache60):
        assert cache60.omega_of_set([1, 2, 3]) == 3
        assert cache60.omega_of_set([1, 2, 4, 8]) == 4
        assert cache60.omega_of_set([5]) == 0

    def test_validation(self, cache60):
        with pytest.raises(ValueError):
            cache60.indices(4, 4)
        with pytest.raises(ValueError):
            cache60.omega_of_set([0, 3])
        with pytest.raises(ValueError):
            cache60.omega_of_set([1, 61])
        with pytest.raises(ValueError):
            PairPrimeCache(MAX_TABLE_ELEMENT + 1)


class TestRunSearch:
    @pytest.mark.parametrize("k,m,primitive", [
        (3, 40, False), (3, 60, True), (4, 25, False), (2, 30, True),
    ])
    def test_matches_brute_force(self, cache60, k, m, primitive):
        best, witnesses = brute_force_search(k, m, primitive, cache=cache60)
        result = run_search(cache60, k, m, primitive_only=primitive,
                            all_witnesses=True)
        assert result.minimum == best
        assert list(result.witnesses) == witnesses
        assert result.witness_count == len(witnesses)
        first = run_search(cache60, k, m, primitive_only=primitive)
        assert first.minimum == best
        assert list(first.witnesses) == witnesses[:1]

    def test_first_witness_mode(self, cache60):
        full = run_search(cache60, 3, 40, all_witnesses=True)
        first = run_search(cache60, 3, 40)
        assert first.witness_count == 1
        assert first.witnesses == full.witnesses[:1]
        assert first.minimum == full.minimum

    @pytest.mark.parametrize("all_witnesses", [True, False])
    def test_workers_agree(self, cache60, all_witnesses):
        one = run_search(cache60, 3, 50, primitive_only=True,
                         all_witnesses=all_witnesses, workers=1)
        four = run_search(cache60, 3, 50, primitive_only=True,
                          all_witnesses=all_witnesses, workers=4)
        assert one.minimum == four.minimum
        assert one.witnesses == four.witnesses
        assert one.witness_count == four.witness_count

    def test_slice_enumerates_sets_within_ceiling(self, cache60):
        # a slice returns exactly the sets rooted at its first elements
        # whose omega is within the ceiling, in order; the first of them
        # in first-witness mode
        best, _ = brute_force_search(3, 40, True, cache=cache60)
        pm = _row_table(cache60, 40)
        for firsts in (range(1, 41, 2), range(2, 41, 2)):
            for ceiling in (best - 1, best, best + 1):
                expect = [s for s in itertools.combinations(range(1, 41), 3)
                          if s[0] in firsts and math.gcd(*s) == 1
                          and cache60.omega_of_set(s) <= ceiling]
                found, nodes = _slice(pm, 40, 3, firsts, ceiling, True, True)
                assert found == expect
                assert nodes > 0
                found, _ = _slice(pm, 40, 3, firsts, ceiling, True, False)
                assert found == expect[:1]

    def test_nodes_do_not_depend_on_timing(self, cache60):
        # shapes where a shared incumbent made the counts vary run to run
        one = run_search(cache60, 4, 40, primitive_only=True,
                         all_witnesses=True, workers=1)
        four = run_search(cache60, 4, 40, primitive_only=True,
                          all_witnesses=True, workers=4)
        assert one.nodes_visited == four.nodes_visited
        runs = [run_search(cache60, 5, 30, primitive_only=True, workers=2)
                for _ in range(2)]
        assert runs[0].nodes_visited == runs[1].nodes_visited

    def test_workers_capped_at_first_elements(self, cache60, monkeypatch):
        # only max - k + 1 = 3 first elements can start a 3-set of 1..5
        fork = multiprocessing.get_context("fork")
        sizes = []

        class Spy:
            def Pool(self, processes):
                sizes.append(processes)
                return fork.Pool(processes)

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: Spy())
        eight = run_search(cache60, 3, 5, workers=8)
        assert sizes and max(sizes) <= 3
        one = run_search(cache60, 3, 5, workers=1)
        assert (eight.minimum, eight.witnesses, eight.witness_count) == (
            one.minimum, one.witnesses, one.witness_count)

    def test_smaller_max_element_reuses_cache(self, cache60):
        direct = PairPrimeCache(20)
        a = run_search(cache60, 3, 20, all_witnesses=True)
        b = run_search(direct, 3, 20, all_witnesses=True)
        assert a.minimum == b.minimum
        # witnesses are element tuples, comparable across caches
        assert a.witnesses == b.witnesses

    def test_monotone_in_k(self, cache60):
        by_k = [run_search(cache60, k, 30).minimum for k in (2, 3, 4, 5)]
        assert by_k == sorted(by_k)

    def test_primitive_filters_scaled_sets(self, cache60):
        # every witness must have coprime elements overall
        result = run_search(cache60, 4, 40, primitive_only=True,
                            all_witnesses=True)
        for w in result.witnesses:
            assert math.gcd(*w) == 1

    def test_nodes_and_seconds_reported(self, cache60):
        result = run_search(cache60, 3, 30)
        assert result.nodes_visited > 0
        assert result.seconds >= 0.0

    def test_validation(self, cache60):
        with pytest.raises(ValueError):
            run_search(cache60, 1, 30)
        with pytest.raises(ValueError):
            run_search(cache60, 3, 100)
        with pytest.raises(ValueError):
            run_search(cache60, 3, 30, workers=0)
