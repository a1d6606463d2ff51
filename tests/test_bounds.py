"""Colorings, control constants, set splits, and the randomized verifiers."""

import math
import random
from collections import defaultdict
from fractions import Fraction
from types import SimpleNamespace

import pytest

import eulab.bounds as bounds
from eulab.core import (
    EInt, LAMBDA, ONE, OMEGA, ResidueRing, UNITS, ZERO, divides, valuation,
)
from eulab.bounds import (
    BoundReport, SplitRecord, ZeroFactorError, c_constants, coset_split,
    phi, random_eint_set, random_int_set, run_trials,
    three_coloring, uv_coloring, valuation_split, verify_cor1, verify_cor2,
    verify_erdos_turan, verify_rho_minus1, verify_t1, verify_t2,
    _above_log, _neighbors, _rho_parts, _three_group, _unit_ranks, _uv_group,
    _uv_split,
)
from oracles import (
    _canonical_of_norm, _trial_division_primes, control_exponent,
    n_product_omega, reduced_representatives, three_coloring_greedy,
)

MINUS_ONE = EInt(-1, 0)

SMALL_ODD_PRIMES = [LAMBDA, EInt(3, 1), EInt(3, 2), EInt(4, 1), EInt(5, 0)]


def _rank(ring, r):
    """The enumeration position of the reduced residue r."""
    return r.a * ring.d2 + r.b


def _assert_any_order(ring, want, group):
    """group(rank, memo) gives want[r] for the rank of every residue r,
    queried in a shuffled order, once each with a fresh memo and then all
    sharing one memo: a walk whose answer depends on what an earlier query
    left in the memo fails the second pass.  Both kinds of rank-keyed
    store are run: a defaultdict and a byte table of the ring's size, each
    answering 0xFF for a rank not colored yet."""
    want = {_rank(ring, r): value for r, value in want.items()}
    shuffled = list(want)
    random.Random(len(want)).shuffle(shuffled)
    for fresh in (lambda: defaultdict(lambda: 0xFF),
                  lambda: bytearray(b"\xff") * ring.size):
        for j in shuffled:
            assert group(j, fresh()) == want[j], j
        memo = fresh()
        assert {j: group(j, memo) for j in shuffled} == want


def _uv_oracle(ring):
    """The +- rule on EInts, in enumeration order: the first of each pair
    met in enumeration order takes group 0."""
    want = {}
    for r in reduced_representatives(ring):
        if r not in want:
            want[r] = 0
            want[ring.reduce(-r)] = 1
    return {r: want[r] for r in reduced_representatives(ring)}


class TestUvColoring:
    @pytest.mark.parametrize("pi", SMALL_ODD_PRIMES)
    @pytest.mark.parametrize("k", [1, 2])
    def test_partitions_and_separates(self, pi, k):
        if pi == EInt(5, 0) and k == 2:
            return  # ring of size 625 adds nothing here
        col = uv_coloring(pi, k)
        reduced = reduced_representatives(col.ring)
        assert set(col.assignment) == set(reduced)
        for r in reduced:
            assert col.assignment[r] + col.assignment[col.ring.reduce(-r)] == 1
        sizes = [0, 0]
        for g in col.assignment.values():
            sizes[g] += 1
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("pi", SMALL_ODD_PRIMES)
    def test_lazy_matches_eager(self, pi):
        col = uv_coloring(pi, 1)
        ring = col.ring
        want = _uv_oracle(ring)
        # the assignment iterates in enumeration order
        assert list(col.assignment.items()) == list(want.items())
        # the closed-form rule keeps no memo, so the memo goes unused
        _assert_any_order(ring, want, lambda j, memo: _uv_group(ring, j))

    @pytest.mark.parametrize("pi", SMALL_ODD_PRIMES)
    def test_walk_reduces_one_neighbor_per_step(self, pi):
        # the uv rule finds the rank of its one neighbor, -r, in any order:
        # n - j on a cyclic ring, with no reduction, and one reduce_pair of
        # (-a, -b) on the box of 5
        ring = ResidueRing(pi)
        assert (ring.d1 == 1) == (pi != EInt(5, 0))
        calls = []
        counting = SimpleNamespace(
            d1=ring.d1, d2=ring.d2, size=ring.size,
            reduce_pair=lambda a, b: (calls.append((a, b)),
                                      ring.reduce_pair(a, b))[1])
        want = _uv_oracle(ring)
        keys = list(want)
        random.Random(str(pi)).shuffle(keys)
        for r in keys:
            calls.clear()
            assert _uv_group(counting, _rank(ring, r)) == want[r], r
            assert calls == ([] if ring.d1 == 1 else [(-r.a, -r.b)]), r

    def test_rejects_even_norm_and_units(self):
        with pytest.raises(ValueError):
            uv_coloring(EInt(2, 0))
        with pytest.raises(ValueError):
            uv_coloring(ONE)

    def test_rejects_exponent_zero(self):
        with pytest.raises(ValueError, match="^exponent must be positive$"):
            uv_coloring(LAMBDA, 0)


@pytest.mark.parametrize("pi,k", [
    (LAMBDA, 1), (LAMBDA, 2), (LAMBDA, 3),
    (EInt(2, 0), 1), (EInt(2, 0), 2),
    (EInt(3, 1), 1), (EInt(3, 1), 2),
    (EInt(9, 5), 1),  # split, norm 61
])
def test_prime_power_units_match_gcd_oracle(pi, k):
    ring = ResidueRing(pi ** k)
    assert list(_unit_ranks(ring, pi)) == \
        [_rank(ring, r) for r in reduced_representatives(ring)]


def test_colorings_reject_non_primes():
    # 7 = (3,1)(3,2) and 3 + 3*omega = 3 * (1 + omega) are not prime
    for x in (EInt(7, 0), EInt(3, 3)):
        with pytest.raises(ValueError):
            uv_coloring(x)
        with pytest.raises(ValueError):
            three_coloring(x, OMEGA)


def _canonical_primes(norm_bound):
    """Canonical primes of E with norm up to norm_bound: norm p for a
    rational prime p other than 2 mod 3, norm q^2 for q = 2 mod 3."""
    out = []
    for n in range(2, norm_bound + 1):
        (p, *rest) = _trial_division_primes(n)
        if rest:
            continue
        if (n == p and p % 3 != 2) or (n == p * p and p % 3 == 2):
            out.extend(_canonical_of_norm(n))
    return out


def _oracle_cases(norm_bound=150, ring_bound=3000):
    """(pi, rho0, delta) for every canonical prime of norm up to
    norm_bound: rho0 = omega gives delta 0 (1 + omega is a unit), and
    rho0 = -1 + u*pi^delta gives delta = 1, 2 while pi^(delta+1) has at
    most ring_bound residues."""
    cases = []
    for index, pi in enumerate(_canonical_primes(norm_bound)):
        rho0s = [(OMEGA, 0)]
        for delta in (1, 2):
            if pi.norm() ** (delta + 1) <= ring_bound:
                rho0s.append(
                    (UNITS[(index + delta) % 6] * pi ** delta - ONE, delta))
        cases += [pytest.param(pi, rho0, delta, id=f"{pi}:{rho0}")
                  for rho0, delta in rho0s]
    return cases


class TestThreeColoring:
    # (prime, rho0) pairs with a spread of deltas
    CASES = [
        (LAMBDA, OMEGA),              # delta 0
        (LAMBDA, ONE + OMEGA),        # 1 + rho0 = 2 + omega = lambda, delta 1
        (LAMBDA, EInt(2, 0)),         # 1 + 2 = 3, delta 2
        (EInt(3, 1), EInt(2, 1)),     # delta 1: 1 + (2+omega) = 3 + omega = pi
        (EInt(3, 1), ONE),            # delta 0
        (EInt(2, 0), OMEGA),          # even-norm prime is fine here
    ]

    @pytest.mark.parametrize("pi,rho0", CASES)
    def test_defining_property(self, pi, rho0):
        col = three_coloring(pi, rho0)
        ring = col.ring
        reduced = reduced_representatives(ring)
        assert set(col.assignment) == set(reduced)
        assert ring.modulus == pi ** (col.delta + 1)
        assert col.delta == valuation(pi, ONE + rho0)
        for r in reduced:
            n = ring.reduce(-rho0 * r)
            assert col.assignment[r] != col.assignment[n]

    @pytest.mark.parametrize("pi,rho0", CASES)
    def test_lazy_matches_eager(self, pi, rho0):
        _, modulus, want = three_coloring_greedy(pi, rho0)
        ring = ResidueRing(modulus)
        mults = _neighbors(ring, rho0)
        products = (-rho0, -ring.inverse(rho0))
        if ring.d1 == 1:
            # the rank rule: the product by -rho0 (-rho0^-1) multiplies
            # ranks by the first (second) multiplier
            for r in want:
                for m, x in zip(mults, products):
                    assert _rank(ring, ring.reduce(x * r)) == \
                        _rank(ring, r) * m % ring.size, r
        else:
            assert mults == tuple((y.a, y.b) for y in map(ring.reduce,
                                                          products))
        _assert_any_order(ring, want, lambda j, memo:
                          _three_group(ring, *mults, (j,), memo))

    @pytest.mark.parametrize("pi,rho0,delta", _oracle_cases())
    def test_matches_greedy_oracle(self, pi, rho0, delta):
        col = three_coloring(pi, rho0)
        want_delta, modulus, assignment = three_coloring_greedy(pi, rho0)
        assert col.delta == want_delta == delta
        assert col.ring.modulus == modulus
        assert list(col.assignment.items()) == list(assignment.items())

    def test_rejects_bad_rho0(self):
        not_prime = "coloring needs a non-unit prime"
        minus_one = "rho0 = -1 has no finite delta"
        not_coprime = "rho0 must be coprime to the prime"
        for pi, rho0, message in [
                (EInt(7, 0), OMEGA, not_prime),
                (EInt(7, 0), MINUS_ONE, not_prime),
                (LAMBDA, ZERO, not_coprime),
                (LAMBDA, MINUS_ONE, minus_one),
                (LAMBDA, LAMBDA, not_coprime),
                (EInt(3, 1), OMEGA * EInt(3, 1), not_coprime),
                # -pi^gamma leaves rho0 / pi^gamma = -1, but is not coprime
                (LAMBDA, -LAMBDA ** 2, not_coprime)]:
            with pytest.raises(ValueError) as info:
                three_coloring(pi, rho0)
            assert str(info.value) == message, (pi, rho0)


class TestBoxRings:
    """The moduli with a common factor in their coordinates keep the pair
    walk (d1 > 1): the inert 5 and 11, and lambda^2 and lambda^3, where
    3 = -omega^2 lambda^2 divides both coordinates."""

    CASES = [(EInt(5, 0), 1), (EInt(11, 0), 1), (LAMBDA, 2), (LAMBDA, 3)]

    @pytest.mark.parametrize("pi,k", CASES)
    def test_uv_coloring(self, pi, k):
        col = uv_coloring(pi, k)
        ring = col.ring
        assert ring.d1 > 1
        want = _uv_oracle(ring)
        assert list(col.assignment.items()) == list(want.items())
        _assert_any_order(ring, want, lambda j, memo: _uv_group(ring, j))

    @pytest.mark.parametrize("pi,k", CASES)
    def test_three_coloring(self, pi, k):
        # 1 + rho0 = pi^(k-1) puts delta = k - 1, so the ring is mod pi^k
        rho0 = OMEGA if k == 1 else pi ** (k - 1) - ONE
        col = three_coloring(pi, rho0)
        ring = col.ring
        delta, modulus, want = three_coloring_greedy(pi, rho0)
        assert ring.d1 > 1 and ring.modulus == modulus == pi ** k
        assert (col.delta, list(col.assignment.items())) == \
            (delta, list(want.items()))
        mults = _neighbors(ring, rho0)
        _assert_any_order(ring, want, lambda j, memo:
                          _three_group(ring, *mults, (j,), memo))


class TestColoringView:
    @pytest.mark.parametrize("pi", [LAMBDA, EInt(3, 1), EInt(5, 0)])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kind", ["uv", "three"])
    def test_read_only_view_over_the_table(self, pi, k, kind):
        if kind == "uv":
            col = uv_coloring(pi, k)
            ring = col.ring
            want = _uv_oracle(ring)
        else:
            # rho0 = omega gives delta 0, rho0 = pi - 1 delta 1: the
            # ring is mod pi^k either way
            rho0 = OMEGA if k == 1 else pi - ONE
            col = three_coloring(pi, rho0)
            ring = col.ring
            want = three_coloring_greedy(pi, rho0)[2]
        view = col.assignment
        assert ring.modulus == pi ** k
        assert dict(view) == want
        assert list(view.keys()) == list(want)
        assert list(view.values()) == list(want.values())
        assert len(view) == len(want) == len(reduced_representatives(ring))
        r = next(iter(want))
        unreduced = r + ring.modulus
        # zero, a non-unit residue (zero itself when k = 1), an unreduced
        # unit and a key that is no EInt
        for key in (ZERO, ring.reduce(pi), unreduced, (r.a, r.b)):
            assert key not in view
            assert view.get(key) is None
            with pytest.raises(KeyError):
                view[key]
        assert r in view and view.get(r) == view[r] == want[r]
        assert col.group_of(unreduced) == want[r]
        with pytest.raises(KeyError):
            col.group_of(pi)
        with pytest.raises(TypeError):
            view[r] = 1 - view[r]
        assert dict(view) == want


class TestRhoConstants:
    def test_omega_has_trivial_constants(self):
        c = c_constants(OMEGA)
        assert c.primes == ()
        assert c.c_rho == ONE
        assert (c.tau, c.threshold) == (6, 38)
        assert c.bound_constant == pytest.approx(math.log(38) / math.log(3))

    def test_minus_omega(self):
        c = c_constants(-OMEGA)
        assert c.c_rho == LAMBDA
        assert (c.tau, c.threshold) == (12, 146)
        (pc,) = c.primes
        assert (pc.pi, pc.gamma, pc.delta, pc.c) == (LAMBDA, 0, 1, 1)

    def test_rho_one(self):
        c = c_constants(ONE)
        assert c.c_rho == EInt(2, 0)
        assert (c.tau, c.threshold) == (12, 146)

    def test_one_plus_two_omega(self):
        c = c_constants(EInt(1, 2))
        assert c.c_rho == EInt(6, 6)
        assert (c.tau, c.threshold) == (36, 1298)
        by_pi = {pc.pi: pc for pc in c.primes}
        assert by_pi[LAMBDA].c == 2
        assert by_pi[EInt(2, 0)].c == 1

    def test_special_power_rho(self):
        # rho = -lambda^2 exactly: the lambda entry carries gamma only
        c = c_constants(-(LAMBDA ** 2))
        by_pi = {pc.pi: pc for pc in c.primes}
        assert by_pi[LAMBDA].delta is None
        assert by_pi[LAMBDA].c == 2

    def test_rejects_zero_and_minus_one(self):
        with pytest.raises(ValueError):
            c_constants(ZERO)
        with pytest.raises(ValueError):
            c_constants(MINUS_ONE)

    def test_c_matches_oracle_on_every_small_prime(self):
        # c(pi, rho) >= 1 for a listed prime and 0 for any other
        primes = _canonical_primes(150)
        for rho in (OMEGA, -OMEGA, EInt(2, 1), EInt(1, 2), EInt(-2, -1),
                    EInt(2, 0), EInt(3, 0)):
            listed = {pc.pi: pc.c for pc in c_constants(rho).primes}
            assert set(listed) <= set(primes)
            assert all(c >= 1 for c in listed.values())
            for pi in primes:
                assert listed.get(pi, 0) == control_exponent(pi, rho), \
                    (rho, pi)


class TestRhoParts:
    def test_shortcut_agrees_with_valuations(self):
        # the same (gamma, rho0, delta) whether or not the norm shortcut
        # (N(pi) dividing neither N(rho) nor N(1 + rho)) fires
        fired = {True: 0, False: 0}
        for pi in _canonical_primes(50):
            npi = pi.norm()
            for a in range(-9, 10):
                for b in range(-9, 10):
                    rho = EInt(a, b)
                    if rho.is_zero():
                        continue
                    gamma = valuation(pi, rho)
                    rho0 = rho // pi ** gamma
                    delta = (None if rho0 == MINUS_ONE
                             else valuation(pi, ONE + rho0))
                    assert _rho_parts(pi, rho) == (gamma, rho0, delta)
                    fired[bool(rho.norm() % npi
                               and (ONE + rho).norm() % npi)] += 1
        assert fired[True] and fired[False]


def _random_sets(seed, count, size, coord_range):
    rng = random.Random(seed)
    return [random_eint_set(rng, size, coord_range) for _ in range(count)]


class TestCosetSplit:
    RHOS = [OMEGA, -OMEGA, EInt(2, 1), EInt(1, 2), EInt(-2, -1)]

    def test_guarantee_on_seeded_sets(self):
        for trial, elements in enumerate(_random_sets(4101, 20, 12, 30)):
            rho = self.RHOS[trial % len(self.RHOS)]
            for pi in (LAMBDA, EInt(3, 1)):
                gamma = valuation(pi, rho)
                rho0 = rho
                for _ in range(gamma):
                    rho0 = rho0 // pi
                if rho0 == MINUS_ONE:
                    continue
                kept, record = coset_split(elements, pi, rho)
                assert record.rule == "lemma2"
                assert len(kept) * 3 >= len(set(elements))
                assert record.sizes[record.kept] == len(kept)
                c = control_exponent(pi, rho)
                for a in kept:
                    for b in kept:
                        f = a + rho * b
                        if f.is_zero():
                            assert a.is_zero() and b.is_zero()
                            continue
                        drop = valuation(pi, f) - c
                        if drop <= 0:
                            continue
                        power = pi ** drop
                        assert a.is_zero() or divides(power, a)
                        assert b.is_zero() or divides(power, b)

    # (pi, rho) with (gamma, delta) = (0,0), (0,1), (0,2), (1,0), (1,0),
    # (0,1)
    ORACLE_CASES = [
        (LAMBDA, OMEGA),              # 1 + omega is a unit
        (LAMBDA, ONE + OMEGA),        # 1 + rho = lambda
        (LAMBDA, EInt(2, 0)),         # 1 + rho = 3 = -omega^2 lambda^2
        (LAMBDA, LAMBDA * OMEGA),     # rho0 = omega
        (EInt(3, 1), EInt(3, 1)),     # rho0 = 1, 1 + rho0 = 2
        (EInt(3, 1), EInt(2, 1)),     # 1 + rho = (3,1)
    ]

    @pytest.mark.parametrize("pi,rho", ORACLE_CASES)
    def test_matches_eager_coloring(self, pi, rho):
        gamma = valuation(pi, rho)
        rho0 = rho // pi ** gamma
        col = three_coloring(pi, rho0)
        rng = random.Random(f"coset:{pi}:{rho}")
        for trial in range(12):
            base = random_eint_set(rng, rng.randint(1, 15), 25)
            extra = [pi ** rng.randint(1, 3) * x for x in base[:4]]
            elements = set(base) | set(extra)
            if trial % 2 == 0:
                elements.add(ZERO)
            buckets = [[], [], []]
            for a in sorted(elements, key=lambda x: (x.norm(), x.a, x.b)):
                if a.is_zero():
                    buckets[0].append(a)
                    continue
                a0 = a // pi ** valuation(pi, a)
                buckets[col.group_of(a0)].append(a)
            sizes = tuple(len(b) for b in buckets)
            kept, record = coset_split(elements, pi, rho)
            assert record == SplitRecord(pi, "lemma2", sizes,
                                         sizes.index(max(sizes)))
            assert kept == tuple(buckets[record.kept])

    def test_zero_goes_to_bucket_zero(self):
        kept, record = coset_split([ZERO, ONE], LAMBDA, OMEGA)
        assert sum(record.sizes) == 2

    def test_rejects_power_rho(self):
        power = "-rho is a power of the prime; use valuation_split"
        for pi, rho, message in [
                (LAMBDA, -LAMBDA, power),
                (LAMBDA, -LAMBDA ** 3, power),
                (EInt(3, 1), MINUS_ONE, power),
                # rho = 0 and a unit or zero prime reach valuation,
                # which rejects them
                (LAMBDA, ZERO, "valuation of zero is undefined"),
                (ONE, OMEGA, "valuation needs a non-unit modulus"),
                (ZERO, OMEGA, "valuation needs a non-unit modulus")]:
            with pytest.raises(ValueError) as info:
                coset_split([ONE, OMEGA], pi, rho)
            assert str(info.value) == message, (pi, rho)


class TestUvSplit:
    # 11 = 2 mod 3 is inert like 5: E/(11) is the 11 x 11 box, so the uv
    # rule orders pairs by both coordinates
    @pytest.mark.parametrize("pi", SMALL_ODD_PRIMES + [EInt(11, 0)])
    def test_matches_eager_coloring(self, pi):
        col = uv_coloring(pi)
        assert dict(col.assignment) == _uv_oracle(col.ring)
        rng = random.Random(f"uv:{pi}")
        for _ in range(12):
            base = random_eint_set(rng, rng.randint(1, 15), 25)
            extra = [pi ** rng.randint(1, 3) * x for x in base[:4]]
            elements = sorted((set(base) | set(extra)) - {ZERO},
                              key=lambda x: (x.norm(), x.a, x.b))
            buckets = [[], []]
            for a in elements:
                a0 = a // pi ** valuation(pi, a)
                buckets[col.group_of(a0)].append(a)
            sizes = tuple(len(b) for b in buckets)
            kept, record = _uv_split(elements, pi)
            assert record == SplitRecord(pi, "uv", sizes,
                                         sizes.index(max(sizes)))
            assert kept == tuple(buckets[record.kept])


def _one_hot(groups, kept):
    return tuple(int(g == kept) for g in range(groups))


class TestOneElementSplits:
    """A one-element set skips the bucket pass: its record must still be
    the one the eager coloring's buckets give, for a unit r, for pi*r
    (whose unit part is r) and for zero (bucket 0)."""

    # (pi, rho): gamma = delta = 0 (the cyclic shortcut where pi allows
    # it), delta = 1 (1 + rho = u*pi) and gamma = 1, on cyclic rings and
    # on the boxes of the inert 2 and 5
    CASES = [(pi, rho) for index, pi in enumerate(
        [LAMBDA, EInt(3, 1), EInt(3, 2), EInt(2, 0), EInt(5, 0)])
        for rho in (OMEGA, UNITS[index + 1] * pi - ONE, pi * OMEGA)]

    @pytest.mark.parametrize("pi,rho", CASES)
    def test_coset_split(self, pi, rho):
        gamma = valuation(pi, rho)
        col = three_coloring(pi, rho // pi ** gamma)
        assert col.delta == (rho != OMEGA and gamma == 0)
        for r, group in list(col.assignment.items()) + [(ZERO, 0)]:
            for a in {r, pi * r}:
                kept, record = coset_split([a], pi, rho)
                assert kept == (a,)
                assert record == SplitRecord(pi, "lemma2",
                                             _one_hot(3, group), group), a

    @pytest.mark.parametrize("pi", SMALL_ODD_PRIMES)
    def test_uv_split(self, pi):
        col = uv_coloring(pi)
        for r, group in list(col.assignment.items()) + [(ZERO, 0)]:
            for a in {r, pi * r}:
                kept, record = _uv_split((a,), pi)
                assert kept == (a,)
                assert record == SplitRecord(pi, "uv", _one_hot(2, group),
                                             group), a


class TestValuationSplit:
    def test_rejects_gamma_zero(self):
        with pytest.raises(ValueError,
                           match="^gamma must be a positive integer$"):
            valuation_split([ONE, EInt(2, 0)], LAMBDA, gamma=0)

    def test_guarantee_on_seeded_sets(self):
        theta, gamma = LAMBDA, 2
        rho = -(theta ** gamma)
        for elements in _random_sets(777, 25, 14, 40):
            kept, record = valuation_split(elements, theta, gamma)
            assert record.rule == "lemma4"
            assert len(kept) * 2 >= len(set(elements))
            for a in kept:
                for b in kept:
                    f = a + rho * b
                    if f.is_zero():
                        assert a.is_zero() and b.is_zero()
                        continue
                    drop = valuation(theta, f) - gamma
                    if drop <= 0:
                        continue
                    power = theta ** drop
                    assert a.is_zero() or divides(power, a)
                    assert b.is_zero() or divides(power, b)

    def test_no_exact_gap_within_bucket(self):
        elements = [LAMBDA ** k for k in range(6)]
        kept, _ = valuation_split(elements, LAMBDA, 1)
        vals = sorted(valuation(LAMBDA, a) for a in kept)
        for x in vals:
            assert x + 1 not in vals


class TestPhi:
    def test_example(self):
        x = EInt(1, 0)
        assert phi(2 * x, x, OMEGA) == EInt(2, 1)

    def test_diagonal(self):
        a = EInt(5, 3)
        assert phi(a, a, OMEGA) == ONE + OMEGA

    def test_scale_invariant(self):
        a, b, s = EInt(4, 1), EInt(2, 5), EInt(3, 1)
        assert phi(s * a, s * b, OMEGA) == phi(a, b, OMEGA)


class TestVerifiers:
    def test_t1_small(self):
        report = verify_t1([ONE, OMEGA, EInt(2, 0)])
        assert report.theorem == "t1"
        assert report.omega == 1
        assert report.witness_primes == (LAMBDA,)
        assert report.comparison == ">"
        assert report.passed

    def test_t1_zero_factor_flag(self):
        report = verify_t1([ONE, MINUS_ONE, EInt(2, 0)])
        assert report.flagged_zero_factor
        assert report.omega is None
        assert report.passed
        assert report.to_json_dict()["omega"] == "infinite"

    def test_t2_routes_rho_one_to_t1(self):
        elements = [ONE, OMEGA, EInt(2, 0)]
        assert verify_t2(elements, ONE).theorem == "t1"
        assert verify_t2(elements, ONE, general=True).theorem == "t2"

    def test_t2_rejects_zero_and_minus_one(self):
        with pytest.raises(ValueError):
            verify_t2([ONE, OMEGA], ZERO)
        with pytest.raises(ValueError):
            verify_t2([ONE, OMEGA], MINUS_ONE)

    def test_t2_small(self):
        report = verify_t2([ONE, EInt(2, 0), EInt(3, 0)], OMEGA)
        assert report.theorem == "t2"
        assert report.rho == OMEGA
        assert report.passed  # bound is negative for tiny sets

    def test_cor1_value_set(self):
        report = verify_cor1([1, 2, 3])
        # 1-2+4=3, 1-3+9=7, 4-6+9=7
        assert report.omega == 2
        assert report.witness_primes == (3, 7)

    def test_cor2_constant(self):
        report = verify_cor2([1, 2])
        assert report.bound == pytest.approx(
            (math.log(2) - math.log(146)) / (2 * math.log(3)))

    def test_rho_minus1_nonstrict(self):
        report = verify_rho_minus1([ZERO, ONE])
        assert report.comparison == ">="
        assert report.omega == 0 and report.bound == 0.0
        assert report.passed

    def test_erdos_turan_threshold_case(self):
        # {1,3,5} meets k=1 with omega exactly k+1 = 2, so >= is essential
        report = verify_erdos_turan([1, 3, 5])
        assert report.omega == 2
        assert report.bound == 2.0
        assert report.comparison == ">="
        assert report.passed

    def test_erdos_turan_matches_factor_rational_oracle(self):
        # the sieved pair sums against one factor_rational call per sum,
        # across sieve-settled values and cofactors past the sieve bound
        rng = random.Random(2024)
        for top in (60, 2000, 10**5, 10**9, 10**12, 10**17):
            for _ in range(5):
                size = rng.randint(2, min(48, top))
                values = rng.sample(range(1, top + 1), size)
                report = verify_erdos_turan(values, seed=top)
                elements = tuple(sorted(values))
                omega, primes, flagged = n_product_omega(
                    a + b for i, a in enumerate(elements)
                    for b in elements[i + 1:])
                k = 0
                while 3 * 2 ** k <= size:
                    k += 1
                assert report == BoundReport(
                    "erdos_turan", None, top, elements, omega, float(k + 1),
                    ">=", omega >= k + 1, flagged, primes), elements

    def test_erdos_turan_first_overflowing_sum_is_named(self):
        with pytest.raises(ValueError) as info:
            verify_erdos_turan([5, 2**62, 2**62 + 7, 2**62 + 9])
        assert str(info.value) == (f"{2**63 + 7} is beyond the declared "
                                   "64-bit input range")

    def test_erdos_turan_k_ladder(self):
        assert verify_erdos_turan([1, 2]).bound == 1.0
        assert verify_erdos_turan(range(1, 7)).bound == 3.0
        assert verify_erdos_turan(range(1, 13)).bound == 4.0

    def test_positive_set_validation(self):
        with pytest.raises(ValueError):
            verify_cor1([0, 1])
        with pytest.raises(ValueError,
                           match="^need at least two distinct values$"):
            verify_cor1([5, 5])
        with pytest.raises(ValueError):
            verify_t1([ONE])

    @pytest.mark.parametrize("verify", [verify_cor1, verify_cor2,
                                        verify_erdos_turan])
    def test_integers_only(self, verify):
        # no float, numeric string or bool is taken as a value
        for values in ([1.5, 2, 3], [2.0, 3], ["7", 2, 3], [True, 2, 3]):
            with pytest.raises(ValueError):
                verify(values)


# (family, scale, base, exponents j): log_base(scale * base^j / scale) is
# exactly j, and at each of these sizes below 2^63 (t2 below 10^8) the
# float bound of a report evaluates below j.  For t1 the size compared
# is |A| - 1.
EXACT_THRESHOLDS = [
    ("t1", 18, 2, (20,)),
    ("t2-38", 38, 3, (2, 4, 7, 10)),
    ("t2-146", 146, 3, (2, 4, 7, 10, 11)),
    ("t2-326", 326, 3, (2, 3, 5, 6, 8)),
    ("t2-578", 578, 3, (1, 4, 5, 7, 8)),
    ("cor1", 38, 9, (1, 2, 5, 7, 10, 13, 15, 16)),
    ("cor2", 146, 9, (1, 2, 5, 7, 10, 13, 15, 16)),
]


class TestExactVerdicts:
    @pytest.mark.parametrize("family,scale,base,exponents", EXACT_THRESHOLDS,
                             ids=[row[0] for row in EXACT_THRESHOLDS])
    def test_integer_rule_at_thresholds(self, family, scale, base,
                                        exponents):
        # omega > log_base(size / scale) against a Fraction oracle, at
        # each threshold size and its neighbours
        for j in exponents:
            size = scale * base ** j
            assert not _above_log(j, scale, base, size)
            for n in (size - 1, size, size + 1):
                for omega in (j - 1, j, j + 1):
                    assert _above_log(omega, scale, base, n) == (
                        Fraction(n, scale) < Fraction(base) ** omega), (
                        family, n, omega)
        assert _above_log(None, scale, base, scale * base ** exponents[0])

    @pytest.mark.parametrize("theorem,size,j", [
        ("t1", 18 * 2 + 1, 1), ("t1", 18 * 2 ** 5 + 1, 5),
        ("t2", 38 * 9, 2), ("t2", 146 * 9, 2),
        ("cor1", 38 * 9, 1), ("cor2", 146 * 9, 1),
    ])
    def test_verifiers_decide_on_integers(self, monkeypatch, theorem, size,
                                          j):
        # omega is set by hand: a set whose omega equals an exact bound is
        # a counterexample to the strict inequality and must not pass
        omega = {}
        monkeypatch.setattr(bounds, "_e_pair_omega",
                            lambda *args, **kw: (omega["n"], (), False))
        monkeypatch.setattr(bounds, "pair_form_primes",
                            lambda *args: tuple(range(omega["n"])))
        rho = OMEGA if size == 38 * 9 else EInt(1, 1)

        def verdict(n_elements, n_omega):
            omega["n"] = n_omega
            eints = [EInt(i, 0) for i in range(n_elements)]
            ints = range(1, n_elements + 1)
            report = {"t1": lambda: verify_t1(eints),
                      "t2": lambda: verify_t2(eints, rho),
                      "cor1": lambda: verify_cor1(ints),
                      "cor2": lambda: verify_cor2(ints)}[theorem]()
            assert report.omega == n_omega
            return report

        at = verdict(size, j)
        assert math.isclose(at.bound, j)
        assert not at.passed
        assert verdict(size, j + 1).passed
        assert verdict(size - 1, j).passed
        assert not verdict(size + 1, j).passed


class TestTrials:
    def test_seeds_echoed_and_deterministic(self):
        a = run_trials("t1", 3, 8, 25, seed=11)
        b = run_trials("t1", 3, 8, 25, seed=11)
        assert [r.seed for r in a] == ["11:0", "11:1", "11:2"]
        assert a == b
        assert all(r.passed for r in a)

    def test_all_theorems_pass_smoke(self):
        for theorem in ("t1", "rho_minus1"):
            for r in run_trials(theorem, 5, 10, 30, seed=5):
                assert r.passed
        for theorem in ("cor1", "cor2", "erdos_turan"):
            for r in run_trials(theorem, 5, 10, 50, seed=5):
                assert r.passed
        for r in run_trials("t2", 5, 10, 30, seed=5, rho=OMEGA):
            assert r.passed

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            run_trials("t3", 1, 5, 10, seed=0)

    @pytest.mark.parametrize("theorem", ["t1", "cor1", "cor2", "rho_minus1",
                                         "erdos_turan"])
    @pytest.mark.parametrize("extra", [dict(rho=OMEGA), dict(general=True)],
                             ids=["rho", "general"])
    def test_only_t2_takes_rho_or_general(self, monkeypatch, theorem, extra):
        def no_draw(*args):
            raise AssertionError("a set was drawn")

        monkeypatch.setattr(bounds, "random_eint_set", no_draw)
        monkeypatch.setattr(bounds, "random_int_set", no_draw)
        with pytest.raises(ValueError) as exc:
            run_trials(theorem, 1, 5, 10, 3, **extra)
        assert str(exc.value) == f"{theorem} takes neither rho nor general"

    @pytest.mark.parametrize("general", [False, True])
    def test_t2_needs_rho(self, general):
        with pytest.raises(ValueError) as exc:
            run_trials("t2", 1, 5, 10, 3, general=general)
        assert str(exc.value) == "t2 needs a rho"

    def test_int_set_requires_room(self):
        with pytest.raises(ValueError):
            random_int_set(random.Random(0), 10, 5)

    def test_eint_set_requires_room(self):
        assert len(random_eint_set(random.Random(0), 25, 2)) == 25
        with pytest.raises(ValueError):
            random_eint_set(random.Random(0), 26, 2)

    @pytest.mark.parametrize("trials,size", [(0, 5), (-1, 5), (3, 1),
                                             (3, -2)])
    def test_rejects_empty_trials(self, trials, size):
        with pytest.raises(ValueError):
            run_trials("t1", trials, size, 10, seed=0)
