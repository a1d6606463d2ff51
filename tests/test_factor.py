import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab.core import EInt, LAMBDA, ZERO, gcd
from eulab.factor import (
    _roots_x2_x_1, classify_prime, factor_e, factor_rational, is_prime,
    omega_e, omega_n, pair_form_primes, prime_pi, sieve_limit, sieve_primes,
    split_prime, tau_e,
)
from oracles import enumerate_divisors, gcd_by_factoring, pair_primes_naive


def test_factor_rational_examples():
    f = factor_rational(28)
    assert f.sign == 1
    assert f.factors == ((2, 2), (7, 1))
    f = factor_rational(-12)
    assert f.sign == -1
    assert f.factors == ((2, 2), (3, 1))
    assert factor_rational(1).factors == ()
    assert factor_rational(-1).sign == -1


def test_factor_rational_zero_rejected():
    with pytest.raises(ValueError):
        factor_rational(0)
    with pytest.raises(ValueError):
        factor_rational(2**63)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
def test_factor_rational_roundtrip(n):
    f = factor_rational(n)
    assert f.value() == n
    for p, e in f.factors:
        assert is_prime(p) and e >= 1


def test_factor_rational_large_semiprime():
    p, q = 999999937, 999999893  # both prime, product near 1e18
    f = factor_rational(p * q)
    assert f.factors == ((q, 1), (p, 1))


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize("primes", [
    (100003, 100019),
    (1000003, 1000033),
    (999999893, 999999937),
    (3, 5, 7, 1000003, 1000033),
    # cofactors beyond the trial-division bound that are prime powers or
    # have three prime factors
    (65537, 65537),
    (65537, 65537, 65537),
    (65537, 65537, 1000003),
    (65537, 65539, 65543),
])
def test_factor_rational_large_cofactors(primes):
    n = math.prod(primes)
    f = factor_rational(n)
    assert f.value() == n
    assert f.factors == tuple((p, primes.count(p)) for p in sorted(set(primes)))
    for p, _ in f.factors:
        assert is_prime(p) and _is_prime_by_trial_division(p)


def test_is_prime_matches_sieve():
    primes = set(sieve_primes())
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randrange(2, 10**6)
        assert is_prime(n) == (n in primes)


def test_prime_pi():
    assert prime_pi(1) == 0
    assert prime_pi(2) == 1
    assert prime_pi(10) == 4
    assert prime_pi(14.2) == 6
    with pytest.raises(ValueError):
        prime_pi(-1)


def test_sieve_limit_env_override(monkeypatch):
    monkeypatch.setenv("EULAB_SIEVE_LIMIT", "1000")
    assert sieve_limit() == 1000
    assert prime_pi(997) == 168
    with pytest.raises(ValueError):
        prime_pi(10**5)
    monkeypatch.delenv("EULAB_SIEVE_LIMIT")
    assert sieve_limit() == 10**6


def test_classify_prime():
    assert classify_prime(3) == "ramified"
    assert classify_prime(7) == "split"
    assert classify_prime(2) == "inert"
    assert classify_prime(5) == "inert"
    assert classify_prime(13) == "split"
    with pytest.raises(ValueError):
        classify_prime(6)


def test_split_prime():
    pi = split_prime(7)
    assert pi.norm() == 7
    assert pi.is_canonical()
    pi = split_prime(13)
    assert pi.norm() == 13
    with pytest.raises(ValueError):
        split_prime(5)


def test_factor_e_examples():
    f = factor_e(EInt(3, 0))
    assert f.unit == EInt(0, -1)
    assert f.factors == ((LAMBDA, 2),)

    f = factor_e(EInt(7, 0))
    assert f.unit == EInt(0, -1)
    assert f.factors == ((EInt(3, 1), 1), (EInt(3, 2), 1))

    f = factor_e(EInt(0, 1))
    assert f.unit == EInt(0, 1)
    assert f.factors == ()


def test_factor_e_sorted_and_canonical():
    x = EInt(6, 0) * EInt(3, 1)
    f = factor_e(x)
    keys = [(p.norm(), p.a, p.b) for p, _ in f.factors]
    assert keys == sorted(keys)
    for p, e in f.factors:
        assert p.is_canonical()
        assert e >= 1


def test_factor_e_errors():
    with pytest.raises(ValueError):
        factor_e(ZERO)
    with pytest.raises(ValueError):
        factor_e(EInt(2**62, 0))  # norm beyond the 64-bit range


@given(st.builds(EInt, st.integers(-400, 400), st.integers(-400, 400)).filter(
    lambda x: not x.is_zero()))
@settings(max_examples=200, deadline=None)
def test_factor_e_roundtrip(x):
    f = factor_e(x)
    assert f.value() == x
    assert f.unit.is_unit()


def test_omega_examples():
    assert omega_e(EInt(6, 0)) == 2
    assert omega_e(EInt(1, 0)) == 0
    assert omega_n(1729) == 3
    assert omega_n(1) == 0


def test_tau_examples():
    assert tau_e(EInt(1, 0)) == 6
    assert tau_e(EInt(2, 1)) == 12
    assert tau_e(EInt(6, 0)) == 36


def test_tau_against_divisor_enumeration():
    rng = random.Random(20260819)
    samples = 0
    while samples < 25:
        x = EInt(rng.randrange(-60, 61), rng.randrange(-60, 61))
        if x.is_zero() or x.norm() > 10**4:
            continue
        samples += 1
        assert tau_e(x) == len(enumerate_divisors(x))


def test_gcd_against_factorizations():
    rng = random.Random(99)
    for _ in range(60):
        x = EInt(rng.randrange(-300, 301), rng.randrange(-300, 301))
        y = EInt(rng.randrange(-300, 301), rng.randrange(-300, 301))
        if x.is_zero() or y.is_zero():
            continue
        assert gcd(x, y) == gcd_by_factoring(x, y)


def test_omega_additive_on_coprime_products():
    x = EInt(3, 1)   # norm 7
    y = EInt(4, 1)   # norm 13
    assert gcd(x, y).is_unit()
    assert omega_e(x * y) == omega_e(x) + omega_e(y)


def test_roots_x2_x_1_by_brute_force():
    for p in sieve_primes()[:60]:
        roots = {x for x in range(p) if (x * x + x + 1) % p == 0}
        assert set(_roots_x2_x_1(p)) == roots, p


def naive_pair_form_primes(elements, s):
    return tuple(sorted(set().union(*(
        pair_primes_naive(a, b, s)
        for a, b in itertools.combinations(elements, 2)))))


class TestPairFormPrimes:
    @pytest.mark.parametrize("s", [1, -1])
    def test_all_pairs_up_to_60(self, s):
        elements = tuple(range(1, 61))
        assert pair_form_primes(elements, s) == \
            naive_pair_form_primes(elements, s)
        for a, b in itertools.combinations(elements, 2):
            assert pair_form_primes((a, b), s) == pair_primes_naive(a, b, s)

    @pytest.mark.parametrize("s", [1, -1])
    def test_random_sets_up_to_2000(self, s):
        rng = random.Random(2000 + s)
        for size in (2, 3, 5, 8, 13, 21, 34):
            elements = tuple(sorted(rng.sample(range(1, 2001), size)))
            assert pair_form_primes(elements, s) == \
                naive_pair_form_primes(elements, s), elements

    @pytest.mark.parametrize("s", [1, -1])
    @pytest.mark.parametrize("elements", [
        (2, 4, 6, 8, 16, 32, 64, 1024),     # p = 2 divides a and b; 4 | value
        (3, 6, 9, 27, 81, 12, 243, 1998),   # p = 3 dividing both elements
        (7, 14, 21, 49, 98, 343, 686),      # p = 7 dividing both, and p^2
        (1, 4, 7, 10, 13, 1999),            # one class mod 3: 3 | a^2+ab+b^2
        (1, 2, 4, 5, 7, 8, 2000),           # b = -a mod 3: 3 | a^2-ab+b^2
        (1, 2), (1, 3), (2, 3),             # values 3, 7, 13 (and 3, 7, 7)
    ])
    def test_edge_sets(self, elements, s):
        elements = tuple(sorted(elements))
        assert pair_form_primes(elements, s) == \
            naive_pair_form_primes(elements, s)

    @pytest.mark.parametrize("s", [1, -1])
    def test_small_sieve_limit_falls_back(self, monkeypatch, s):
        # With primes only up to 50 sieved, most cofactors are settled by
        # is_prime or split by factor_rational instead of the sieve.
        monkeypatch.setenv("EULAB_SIEVE_LIMIT", "50")
        rng = random.Random(50 + s)
        for size in (4, 12, 30):
            elements = tuple(sorted(rng.sample(range(1, 2001), size)))
            assert pair_form_primes(elements, s) == \
                naive_pair_form_primes(elements, s), elements

    @pytest.mark.parametrize("s", [1, -1])
    def test_large_values_match_factor_rational(self, s):
        elements = (1234567891, 1699999993, 1700000000, 1700000001)
        expected = sorted({
            p for a, b in itertools.combinations(elements, 2)
            for p, _ in factor_rational(a * a + s * a * b + b * b).factors})
        assert pair_form_primes(elements, s) == tuple(expected)

    @pytest.mark.parametrize("s", [1, -1])
    def test_first_overflowing_value_is_named(self, s):
        elements = (1, 2, 3, 4000000000, 5000000000)
        first = 1 + s * 4000000000 + 4000000000 ** 2
        with pytest.raises(ValueError) as info:
            pair_form_primes(elements, s)
        assert str(info.value) == \
            f"{first} is beyond the declared 64-bit input range"

    def test_fewer_than_two_elements(self):
        assert pair_form_primes((), 1) == ()
        assert pair_form_primes((5,), -1) == ()
