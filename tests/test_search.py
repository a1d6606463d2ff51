"""Pair-prime cache and the exhaustive subset search."""

import collections
import functools
import itertools
import math
import multiprocessing
import operator
import random
from array import array

import pytest

from eulab.factor import factor_rational
from eulab.search import (
    MAX_TABLE_ELEMENT, PRIME_TYPECODE, PairPrimeCache, _row_table, _slice,
    run_search,
)

from oracles import (
    brute_force_search, omega_naive, pair_primes_naive, unpacked_rows,
)


_brute_force = functools.cache(brute_force_search)


@pytest.fixture(scope="module")
def cache60():
    return PairPrimeCache(60)


@pytest.fixture(scope="module")
def cache400():
    return PairPrimeCache(400)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools run_search starts during the test."""
    fork = multiprocessing.get_context("fork")
    sizes = []

    class Spy:
        def Pool(self, processes):
            sizes.append(processes)
            return fork.Pool(processes)

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: Spy())
    return sizes


class TestPairPrimeCache:
    def test_indices_match_direct_factorization(self, cache60):
        rows = unpacked_rows(cache60)
        for a, b in itertools.combinations(range(1, 61), 2):
            v = a * a + a * b + b * b
            expect = [p for p, _ in factor_rational(v).factors]
            assert rows[a - 1][b - a - 1] == expect

    @pytest.mark.parametrize("m", [*range(2, 61), 400])
    def test_matches_naive_oracle(self, m):
        cache = PairPrimeCache(m)
        # the offsets of each row start at 0 and end at its last prime
        for ps, o in zip(cache.primes, cache.offsets):
            assert o[0] == 0 and o[-1] == len(ps)
        assert unpacked_rows(cache) == [
            [list(pair_primes_naive(a, b)) for b in range(a + 1, m + 1)]
            for a in range(1, m)]

    def test_typecode_holds_every_pair_value(self):
        # every prime and offset is below 3 * MAX_TABLE_ELEMENT^2
        top = 3 * MAX_TABLE_ELEMENT ** 2
        assert array(PRIME_TYPECODE, [top])[0] == top

    def test_omega_examples(self, cache60):
        # omega of a set from the row table: its masks ORed, plus the
        # primes of a single pair value
        pm, sc = _row_table(cache60, 60)

        def omega(s):
            ab = list(itertools.combinations(s, 2))
            mask = functools.reduce(operator.or_, (pm[a][b] for a, b in ab))
            return mask.bit_count() + sum(sc[a][b] for a, b in ab)

        assert omega([1, 2, 3]) == 3
        assert omega([1, 2, 4, 8]) == 4

    def test_validation(self):
        for m in (1, MAX_TABLE_ELEMENT + 1):
            with pytest.raises(ValueError):
                PairPrimeCache(m)


class TestRowTable:
    @pytest.mark.parametrize("cache_name,top", [
        ("cache60", 20), ("cache60", 41), ("cache60", 60),
        ("cache400", 60), ("cache400", 151),
    ])
    def test_masks_and_counts_match_naive(self, request, cache_name, top):
        # primes of two or more pairs in range get one bit each, most
        # frequent first and ties by prime; a prime of one pair is counted
        cache = request.getfixturevalue(cache_name)
        pm, sc = _row_table(cache, top)
        pairs = list(itertools.combinations(range(1, top + 1), 2))
        freq = collections.Counter(
            p for a, b in pairs for p in pair_primes_naive(a, b))
        shared = sorted((p for p, n in freq.items() if n > 1),
                        key=lambda p: (-freq[p], p))
        bit = {p: j for j, p in enumerate(shared)}
        for a, b in pairs:
            ps = pair_primes_naive(a, b)
            assert pm[a][b].bit_count() + sc[a][b] == len(ps)
            assert pm[a][b] == sum(1 << bit[p] for p in ps if p in bit)
            assert sc[a][b] == sum(p not in bit for p in ps)
        rng = random.Random(f"row-table:{cache_name}:{top}")
        for _ in range(300):
            s = sorted(rng.sample(range(1, top + 1), rng.randint(3, 6)))
            ab = list(itertools.combinations(s, 2))
            mask = functools.reduce(operator.or_, (pm[a][b] for a, b in ab))
            singles = sum(sc[a][b] for a, b in ab)
            assert mask.bit_count() + singles == omega_naive(s)

    def test_index_is_local_to_range(self, cache400):
        # a search read from a larger table walks the same tree
        big = run_search(cache400, 4, 40, primitive_only=True,
                         all_witnesses=True)
        small = run_search(PairPrimeCache(40), 4, 40, primitive_only=True,
                           all_witnesses=True)
        assert big.witnesses == small.witnesses
        assert big.nodes_visited == small.nodes_visited

    def test_benchmark_rows_walk_pinned_tree(self):
        # the benchmark's search rows: minima as published, node counts
        # pinned so that a change to the walk shows, the same at one
        # worker (as the benchmark runs) as at two and three
        cache = PairPrimeCache(360)
        rows = [(3, 140, True, 3, 416_551), (4, 72, True, 4, 98_793),
                (5, 44, True, 5, 79_058), (6, 36, True, 6, 64_565),
                (4, 150, False, 4, 523_391), (5, 90, False, 5, 189_420),
                (7, 64, False, 7, 562_217), (8, 36, True, 9, 332_867)]
        for k, m, all_witnesses, minimum, nodes in rows:
            for workers in (1, 2, 3):
                result = run_search(cache, k, m, primitive_only=True,
                                    all_witnesses=all_witnesses,
                                    workers=workers)
                assert (result.minimum, result.nodes_visited) == (
                    minimum, nodes), (k, m, workers)


class TestRunSearch:
    @pytest.mark.parametrize("k,m,primitive", [
        (3, 40, False), (3, 60, True), (4, 25, False), (2, 30, True),
    ])
    def test_matches_brute_force(self, cache60, k, m, primitive):
        best, witnesses = brute_force_search(k, m, primitive)
        result = run_search(cache60, k, m, primitive_only=primitive,
                            all_witnesses=True)
        assert result.minimum == best
        assert list(result.witnesses) == witnesses
        assert result.witness_count == len(witnesses)
        first = run_search(cache60, k, m, primitive_only=primitive)
        assert first.minimum == best
        assert list(first.witnesses) == witnesses[:1]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("k,m,primitive", [
        (2, 40, False), (3, 40, True), (3, 36, False), (4, 28, True),
        (4, 24, False), (5, 20, True), (5, 18, False),
    ])
    def test_single_pass_matches_brute_force(self, cache60, k, m, primitive,
                                             workers):
        # element 1's walk, then the seeded walks of the other first
        # elements, in process or on 2 or 3 workers
        best, witnesses = _brute_force(k, m, primitive)
        for all_witnesses in (True, False):
            result = run_search(cache60, k, m, primitive_only=primitive,
                                all_witnesses=all_witnesses, workers=workers)
            assert result.minimum == best
            assert list(result.witnesses) == (
                witnesses if all_witnesses else witnesses[:1])

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

    @pytest.mark.parametrize("k,m,primitive", [
        (3, 40, True), (3, 30, False), (4, 24, True), (2, 20, False),
    ])
    def test_slice_finds_its_own_minimum(self, cache60, k, m, primitive):
        # a walk returns the least omega of the sets whose least element
        # is first and every set attaining it in order, or the first of
        # them in first-witness mode, whenever that omega is below its
        # seed; at a seed equal to it, all-witness mode still lists the
        # ties and first-witness mode keeps no set
        table = _row_table(cache60, m)
        sets = [s for s in itertools.combinations(range(1, m + 1), k)
                if not primitive or math.gcd(*s) == 1]
        for first in (1, 2, 3, m // 2, m - k + 1):
            mine = [s for s in sets if s[0] == first]
            if not mine:
                continue
            best = min(omega_naive(s) for s in mine)
            expect = [s for s in mine if omega_naive(s) == best]
            for seed in (10 * k * k, best + 1):
                got = _slice(*table, m, k, first, seed, primitive, True)
                assert got[:2] == (best, expect)
                assert got[2] >= m - first
                assert _slice(*table, m, k, first, seed, primitive,
                              False)[:2] == (best, expect[:1])
            assert _slice(*table, m, k, first, best, primitive,
                          True)[:2] == (best, expect)
            assert _slice(*table, m, k, first, best, primitive,
                          False)[:2] == (best, [])

    @pytest.mark.parametrize("all_witnesses", [True, False])
    def test_seed_below_every_set_keeps_the_seed(self, cache60,
                                                 all_witnesses):
        # a walk seeded below every set it can reach returns the seed and
        # no set; at seed 0 no pair passes the root, so its tests are all
        # the nodes counted
        m, k = 20, 3
        table = _row_table(cache60, m)
        for first in (1, 5, m - k + 1):
            best = min(omega_naive(s) for s in itertools.combinations(
                range(first, m + 1), k) if s[0] == first)
            for seed in (0, best - 1):
                got = _slice(*table, m, k, first, seed, False, all_witnesses)
                assert got[:2] == (seed, [])
                assert got[2] >= m - first
            assert _slice(*table, m, k, first, 0, False,
                          all_witnesses)[2] == m - first

    def test_slice_leaf_scans_past_its_first_hit(self):
        # A hand-made table over 1..4 with three primes and no singles:
        # omega(1, 2, 3) = 3, omega(1, 2, 4) = 1, omega(1, 3, 4) = 2.
        # The leaf below (1, 2) holds the candidates 3 and 4.  Its first
        # set lowers best to 3, and the later one to 1.  A leaf that
        # stopped at its first set would go on with best = 3 and keep
        # (1, 3, 4) with omega 2.
        p0, p1, p2 = 0b001, 0b010, 0b100
        pm = [[0] * 5 for _ in range(5)]
        sc = [[0] * 5 for _ in range(5)]
        pm[1][2] = pm[1][4] = pm[2][4] = pm[3][4] = p0
        pm[1][3] = p1
        pm[2][3] = p2
        for all_witnesses in (True, False):
            # seeded at 4, above the table's three primes
            assert _slice(pm, sc, 4, 3, 1, 4, False, all_witnesses)[:2] == (
                1, [(1, 2, 4)])

    def test_nodes_do_not_depend_on_timing(self, cache60):
        # shapes where a shared incumbent made the counts vary run to run;
        # every task's seed is element 1's minimum, so nodes repeat and
        # do not depend on the worker count, in both modes
        for all_witnesses, (k, m) in itertools.product(
                (True, False), ((4, 40), (5, 30))):
            runs = [run_search(cache60, k, m, primitive_only=True,
                               all_witnesses=all_witnesses, workers=w)
                    for w in (1, 1, 4, 4)]
            assert len({(r.minimum, r.witnesses, r.nodes_visited)
                        for r in runs}) == 1

    @pytest.mark.parametrize("primitive", [True, False])
    @pytest.mark.parametrize("all_witnesses", [True, False])
    def test_minimum_without_element_1(self, cache60, primitive,
                                       all_witnesses):
        # at k = 5, M = 12 the first witness (3, 4, 6, 9, 12) lacks 1, so
        # the tasks after it prune against element 1's higher minimum;
        # results still match brute force, and nodes do not depend on
        # the worker count
        best, witnesses = _brute_force(5, 12, primitive)
        assert witnesses[0][0] > 1
        runs = [run_search(cache60, 5, 12, primitive_only=primitive,
                           all_witnesses=all_witnesses, workers=w)
                for w in (1, 2, 3)]
        for r in runs:
            assert r.minimum == best
            assert list(r.witnesses) == (
                witnesses if all_witnesses else witnesses[:1])
        assert len({r.nodes_visited for r in runs}) == 1

    def test_workers_capped_at_first_elements(self, cache60, pool_sizes):
        # after element 1, only max - k = 2 first elements can start a
        # 3-set of 1..5, one task each
        eight = run_search(cache60, 3, 5, workers=8)
        assert pool_sizes == [2]
        one = run_search(cache60, 3, 5, workers=1)
        assert (eight.minimum, eight.witnesses, eight.witness_count,
                eight.nodes_visited) == (one.minimum, one.witnesses,
                                         one.witness_count, one.nodes_visited)

    def test_k_equal_to_max_walks_element_1_alone(self, cache60,
                                                  pool_sizes):
        # {1..max} is the only k-set; no task follows element 1, and no
        # pool is started
        runs = [run_search(cache60, 6, 6, all_witnesses=True, workers=w)
                for w in (1, 2)]
        assert pool_sizes == []
        assert [r.witnesses for r in runs] == [((1, 2, 3, 4, 5, 6),)] * 2
        assert runs[0].minimum == runs[1].minimum == omega_naive(range(1, 7))
        assert runs[0].nodes_visited == runs[1].nodes_visited

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
