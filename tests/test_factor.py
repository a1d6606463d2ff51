import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab import factor
from eulab.core import (
    EInt, LAMBDA, OMEGA, ONE, UNITS, ZERO, divides, gcd, valuation,
)
from eulab.factor import (
    INT64_MAX, _primes_above, _roots_x2_x_1, _sieve, factor_e,
    factor_rational, is_prime, omega_e, pair_e_primes, pair_form_primes,
    prime_pi, sieve_primes, tau_e,
)
from eulab.search import MAX_TABLE_ELEMENT
from oracles import (
    PAIR_FORM_VALUES, _canonical_of_norm, _e_value_primes,
    _trial_division_primes, cyclotomic_at_2, e_pair_primes_naive,
    enumerate_divisors, gcd_by_factoring, pair_primes_naive,
    primes_above_by_gcd,
)


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
    # cofactors beyond 65536 that are prime powers or have three prime
    # factors
    (65537, 65537),
    (65537, 65537, 65537),
    (65537, 65537, 1000003),
    (65537, 65539, 65543),
    # a 64-bit semiprime with no factor in the prime table
    (2147483647, 4294967291),
])
def test_factor_rational_large_cofactors(primes):
    n = math.prod(primes)
    f = factor_rational(n)
    assert f.value() == n
    assert f.factors == tuple((p, primes.count(p)) for p in sorted(set(primes)))
    for p, _ in f.factors:
        assert is_prime(p) and _is_prime_by_trial_division(p)


def _factors_by_trial_division(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# p^2 and p*q with p just below and q just above sqrt(p*q), around the
# end of a shortened table of the primes up to 50, around 3000, the end
# of the table at 4093 and 65536; prime cofactors settled by p^2 > m with
# and without small factors in front.
EDGE_VALUES = [
    2, 4, 49, 47 * 47, 53 * 53, 47 * 53, 43 * 47, 53 * 59, 2 * 53 * 59,
    2999 * 2999, 3001 * 3001, 2999 * 3001, 2729 * 2731, 3001 * 3011,
    6 * 3001 * 3011, 4091 * 4093, 4093 * 4093, 4099 * 4099, 4093 * 4099,
    6 * 4093 * 4099, 30 * 65521, 65521 * 65521, 65537 * 65537,
    65521 * 65537, 3 * 65519 * 65521, 2**20 * 1000003, 999983 * 1000003,
    2 * 3 * 5 * 7 * 11 * 13, 7**12, 9973 * 9973 * 9967,
]


@pytest.mark.parametrize("bound", [None, 50])
def test_factor_rational_matches_trial_division(monkeypatch, bound):
    # The uncached body, so each value goes through the table in force;
    # with the primes up to 50 only, most cofactors are left to
    # _factor_hard.
    if bound is not None:
        monkeypatch.setattr(factor, "sieve_primes",
                            lambda: factor._sieve(bound))
    raw = factor_rational.__wrapped__
    rng = random.Random(f"edge:{bound}")
    values = EDGE_VALUES + [rng.randrange(2, 2 * 10**5) for _ in range(300)]
    for n in values:
        assert raw(n).factors == _factors_by_trial_division(n), n
        assert raw(-n).factors == raw(n).factors and raw(-n).sign == -1


def test_is_prime_matches_sieve():
    primes = set(_sieve(10**6))
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randrange(2, 10**6)
        assert is_prime(n) == (n in primes)


# Each psi_k, the least strong pseudoprime to the first k prime bases, with
# the largest prime below it (found with an independent primality test).
# psi_12 = 399165290221 * 798330580441 fools the twelve bases 2..37.
PSI_AND_PRIME_BELOW = [
    (2047, 2039),
    (1373653, 1373639),
    (25326001, 25325981),
    (3215031751, 3215031749),
    (2152302898747, 2152302898729),
    (3474749660383, 3474749660329),
    (341550071728321, 341550071728289),
    (3825123056546413051, 3825123056546412979),
    (318665857834031151167461, 318665857834031151167441),
    (3317044064679887385961981, 3317044064679887385961813),
]


@pytest.mark.parametrize("psi,prime", PSI_AND_PRIME_BELOW)
def test_is_prime_at_pseudoprime_thresholds(psi, prime):
    if psi < PSI_AND_PRIME_BELOW[-1][0]:
        assert not is_prime(psi)
    else:
        with pytest.raises(ValueError, match="deterministic only below"):
            is_prime(psi)
    assert is_prime(prime)
    assert not any(is_prime(n) for n in range(prime + 1, psi))
    if prime < 4 * 10**12:
        assert _is_prime_by_trial_division(prime)


def test_is_prime_matches_trial_division_on_a_seeded_sample():
    rng = random.Random(24)
    values = [rng.randrange(2, 10 ** rng.randrange(2, 11)) for _ in range(600)]
    values += [psi + d for psi, _ in PSI_AND_PRIME_BELOW[:4]
               for d in range(-30, 31)]
    for n in values:
        assert is_prime(n) == _is_prime_by_trial_division(n), n


# _factor_hard hands _brent_split even composites when a pair sieve
# stopped before 2, which a set of two elements (one pair) always does
@pytest.mark.parametrize("n", [
    4, 6, 8, 12, 16, 36, 64, 210, 900, 1024,
    2**60, 2**40 + 2**61, 5**20 + 5**21, *(2**k for k in range(2, 63)),
])
def test_brent_split_even_composites(n):
    d = factor._brent_split(n)
    assert 1 < d < n and n % d == 0


def test_prime_pi():
    assert prime_pi(1) == 0
    assert prime_pi(2) == 1
    assert prime_pi(10) == 4
    assert prime_pi(14.2) == 6
    assert prime_pi(997) == 168
    assert prime_pi(4093) == 564
    with pytest.raises(ValueError):
        prime_pi(-1)
    with pytest.raises(ValueError):
        prime_pi(4094)
    with pytest.raises(ValueError):
        prime_pi(65537)


def test_sieve_primes_end_at_4093():
    # One table serves every reader: it ends at the last prime below
    # _PAIR_SIEVE_BOUND, and it reaches isqrt(3 * MAX_TABLE_ELEMENT^2), so
    # a PairPrimeCache cofactor left after the table is 1 or a prime.
    primes = sieve_primes()
    assert primes[-1] == 4093
    assert primes[-1] >= math.isqrt(3 * MAX_TABLE_ELEMENT ** 2)
    assert primes == _sieve(factor._PAIR_SIEVE_BOUND)
    assert primes == [p for p in range(2, factor._PAIR_SIEVE_BOUND + 1)
                      if _is_prime_by_trial_division(p)]


def test_split_prime_pairs_match_norm_oracle():
    # 3, every split p < 10^4 and a few near 10^6: _primes_above(p) lists
    # the canonical elements of norm p, one per root w of x^2 + x + 1 mod
    # p, and each divides w - omega, so it maps omega to w.
    near_million = [p for p in _sieve(10**6 + 200)
                    if p > 10**6 - 200 and p % 3 == 1]
    assert len(near_million) >= 5
    for p in [3] + [p for p in _sieve(10**4) if p % 3 == 1] + near_million:
        above = _primes_above(p)
        assert tuple(w for _, w in above) == _roots_x2_x_1(p), p
        assert len(above) == len(_canonical_of_norm(p)), p
        assert {pi for pi, _ in above} == set(_canonical_of_norm(p)), p
        for pi, w in above:
            assert divides(pi, EInt(w, -1)), (p, w)
        assert above == primes_above_by_gcd(p, _roots_x2_x_1(p)), p


def test_split_primes_by_reduction_match_gcd_at_64_bits():
    # The lattice reduction names the same primes as the Euclidean gcd
    # for split p near 10^12 and just below 2^62, the sizes of the prime
    # cofactors _factor_hard hands to pair_e_primes.
    for top in (10**12, 2**62):
        ps = [p for p in range(top - 1, top - 4000, -1)
              if p % 6 == 1 and is_prime(p)][:25]
        assert len(ps) == 25, top
        for p in ps:
            above = _primes_above(p)
            assert above == primes_above_by_gcd(p, _roots_x2_x_1(p)), p
            assert all(pi.norm() == p for pi, _ in above), p


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


def test_factor_e_mixed_conjugate_powers():
    # u * pi^a * pibar^b * lambda^c * 2^d * 5^e over the two primes above
    # 7, 13 and a split prime near 10^6: factor_e divides out each prime
    # above p while it divides, whatever the exponents of the conjugates,
    # on coordinates far past the +-400 of the roundtrip property.
    big = next(p for p in range(10**6, 10**6 + 200)
               if p % 3 == 1 and is_prime(p))
    rng = random.Random(20261019)
    two, five = EInt(2, 0), EInt(5, 0)
    checked = widest = 0
    for p in (7, 13, big):
        pi, pibar = (q for q, _ in _primes_above(p))
        for a, b in itertools.product(range(5), repeat=2):
            c, d, e = rng.randrange(4), rng.randrange(3), rng.randrange(3)
            if p ** (a + b) * 3**c * 4**d * 25**e > INT64_MAX:
                c = d = e = 0
                if p ** (a + b) > INT64_MAX:
                    continue
            x = (UNITS[rng.randrange(6)] * pi**a * pibar**b * LAMBDA**c
                 * two**d * five**e)
            f = factor_e(x)
            want = {pi: a, pibar: b, LAMBDA: c, two: d, five: e}
            assert dict(f.factors) == {q: k for q, k in want.items() if k}, x
            for q, k in f.factors:
                assert valuation(q, x) == k, (x, q)
            assert {q for q, _ in f.factors} == _e_value_primes(x), x
            assert f.value() == x
            checked += 1
            widest = max(widest, abs(x.a), abs(x.b))
    assert checked >= 55 and widest > 10**6


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
    assert factor_rational(1729).omega == 3
    assert factor_rational(1).omega == 0


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


def naive_pair_form_primes(elements, form):
    return tuple(sorted(set().union(*(
        pair_primes_naive(a, b, form)
        for a, b in itertools.combinations(elements, 2)))))


# every pair form; a quadratic form's id is the sign s of its middle term
# in a^2 + s*a*b + b^2, and SEED_OFFSET gives each form its own draws
FORMS = [pytest.param("plus", id="1"), pytest.param("minus", id="-1"), "sum"]
SEED_OFFSET = {"plus": 1, "minus": -1, "sum": 0}


def factor_rational_union(values):
    """The distinct primes of the values, one factor_rational call each."""
    return tuple(sorted({p for v in values
                         for p, _ in factor_rational(v).factors}))


class TestPairFormPrimes:
    @pytest.mark.parametrize("form", FORMS)
    def test_all_pairs_up_to_60(self, form):
        elements = tuple(range(1, 61))
        assert pair_form_primes(elements, form) == \
            naive_pair_form_primes(elements, form)
        for a, b in itertools.combinations(elements, 2):
            assert pair_form_primes((a, b), form) == \
                pair_primes_naive(a, b, form)

    @pytest.mark.parametrize("form", FORMS)
    def test_random_sets_up_to_2000(self, form):
        rng = random.Random(2000 + SEED_OFFSET[form])
        for size in (2, 3, 5, 8, 13, 21, 34):
            elements = tuple(sorted(rng.sample(range(1, 2001), size)))
            assert pair_form_primes(elements, form) == \
                naive_pair_form_primes(elements, form), elements

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("elements", [
        (2, 4, 6, 8, 16, 32, 64, 1024),     # p = 2 divides a and b; 4 | value
        (3, 6, 9, 27, 81, 12, 243, 1998),   # p = 3 dividing both elements
        (7, 14, 21, 49, 98, 343, 686),      # p = 7 dividing both, and p^2
        (1, 4, 7, 10, 13, 1999),            # one class mod 3: 3 | a^2+ab+b^2
        (1, 2, 4, 5, 7, 8, 2000),           # b = -a mod 3: 3 | a^2-ab+b^2
        (1, 2), (1, 3), (2, 3),             # values 3, 7, 13 (and 3, 7, 7)
        (1, 2, 5, 10),                      # two multiples of the inert 5
        (1, 2, 3, 4, 6, 121),               # 11^2 divides 121 alone
        (*range(1, 48), 1010, 2019),        # 1, 1010, 2019: one class mod
                                            # 1009, above the set size
    ])
    def test_edge_sets(self, elements, form):
        elements = tuple(sorted(elements))
        assert pair_form_primes(elements, form) == \
            naive_pair_form_primes(elements, form)

    @pytest.mark.parametrize("form", FORMS)
    def test_small_sieve_limit_falls_back(self, monkeypatch, form):
        # With primes only up to 50 sieved, most cofactors are settled by
        # is_prime or split by _factor_hard instead of the sieve.
        monkeypatch.setattr(factor, "_PAIR_SIEVE_BOUND", 50)
        rng = random.Random(50 + SEED_OFFSET[form])
        for size in (4, 12, 30):
            elements = tuple(sorted(rng.sample(range(1, 2001), size)))
            assert pair_form_primes(elements, form) == \
                naive_pair_form_primes(elements, form), elements

    @pytest.mark.parametrize("form", FORMS)
    def test_large_values_match_factor_rational(self, form):
        elements = (1234567891, 1699999993, 1700000000, 1700000001)
        value = PAIR_FORM_VALUES[form]
        assert pair_form_primes(elements, form) == factor_rational_union(
            value(a, b) for a, b in itertools.combinations(elements, 2))

    def test_sums_up_to_10_17_match_factor_rational(self):
        # sums up to 2 * 10^17 leave cofactors far above the sieve bound
        # squared, for is_prime and Brent's splitter
        rng = random.Random(17)
        for top in (10**6, 10**9, 10**12, 10**15, 10**17):
            for size in (2, 5, 9):
                elements = tuple(sorted(rng.sample(range(1, top + 1), size)))
                assert pair_form_primes(elements, "sum") == \
                    factor_rational_union(
                        a + b for a, b in itertools.combinations(elements, 2)
                    ), elements

    @pytest.mark.parametrize("form", FORMS)
    def test_first_overflowing_value_is_named(self, form):
        # a quadratic form overflows first at (1, 4000000000), the sum at
        # (2^62 + 1, 2^62 + 3)
        elements = (1, 2, 3, 4000000000, 5000000000, 2**62 + 1, 2**62 + 3)
        value = PAIR_FORM_VALUES[form]
        first = next(v for a, b in itertools.combinations(elements, 2)
                     if (v := value(a, b)) > INT64_MAX)
        with pytest.raises(ValueError) as info:
            pair_form_primes(elements, form)
        assert str(info.value) == \
            f"{first} is beyond the declared 64-bit input range"

    # one pair stops the sieve before 2: _factor_hard splits the whole
    # value, even composites and prime powers included
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("elements", [
        (2**20, 2**21), (5**8, 5**9), (2**10 * 3**5, 2**11 * 3**6),
        (720720, 1441440), (1, 2**30 - 1),
    ])
    def test_two_highly_composite_values(self, elements, form):
        value = PAIR_FORM_VALUES[form]
        assert pair_form_primes(elements, form) == \
            factor_rational_union([value(*elements)])

    @pytest.mark.parametrize("elements", [
        (1, 2**60 - 1), (2**40, 2**61), (5**20, 5**21),
    ])
    def test_two_highly_composite_sums(self, elements):
        assert pair_form_primes(elements, "sum") == \
            factor_rational_union([sum(elements)])

    # For i < j and e = j - i the pair value of 2^i and 2^j is
    # 4^i (2^(3e) - 1)/(2^e - 1), the product of Phi_3d(2) over the d | e
    # with 3d not dividing e, Phi_3e(2) among them; so the set 1, 2, ...,
    # 2^(k-1) has the primes of Phi_3e(2) for e = 1..k-1, and 2 from the
    # pair (2, 4).  The cofactors left past the sieve, which stops at the
    # number of pairs, reach _factor_hard.
    @pytest.mark.parametrize("k", range(3, 20))
    def test_powers_of_two_match_cyclotomic_values(self, k):
        want = {2}.union(*(_trial_division_primes(cyclotomic_at_2(3 * e))
                           for e in range(1, k)))
        assert pair_form_primes(tuple(2 ** i for i in range(k)), "plus") \
            == tuple(sorted(want))

    # Sets dense in multiples of 3 (the p = 3 join, whose one t = 1/t
    # makes the rule symmetric) and of 5 (no root of x^2 + x + 1, so the
    # quadratic forms join class 0 alone)
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("step", [3, 5])
    def test_dense_multiples_match_naive(self, form, step):
        rng = random.Random(step * 10 + SEED_OFFSET[form])
        elements = tuple(sorted(
            rng.sample(range(step, 1501, step), 50)
            + rng.sample([v for v in range(1, 1501) if v % step], 14)))
        assert pair_form_primes(elements, form) == \
            naive_pair_form_primes(elements, form)

    # At p = 3 (every form) and p = 5 (the sum's t = -1, and the class 0
    # join of the quadratic forms) the relation is symmetric: the join
    # reads only i < j and lists each pair p divides exactly once.
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("p", [3, 5])
    def test_symmetric_join_lists_each_pair_once(self, monkeypatch, form,
                                                 p):
        elements = tuple(sorted((*range(15, 301, 15), 1, 2, 3, 4, 5, 7,
                                 10, 11, 13)))
        seen = {}
        real = factor._sieve_pairs

        def spy(vals, n, residues):
            seen["residues"] = residues
            return real(vals, n, residues)

        monkeypatch.setattr(factor, "_sieve_pairs", spy)
        pair_form_primes(elements, form)
        pairs = list(itertools.combinations(range(len(elements)), 2))
        base = [pairs.index((i, i + 1)) - i - 1
                for i in range(len(elements))[:-1]] + [0]
        [(label, keys, targets, mirror)] = seen["residues"](p)
        assert label == p and mirror is None
        ks = factor._joined(keys, targets, base, mirror)
        value = PAIR_FORM_VALUES[form]
        assert sorted(ks) == [
            k for k, (i, j) in enumerate(pairs)
            if value(elements[i], elements[j]) % p == 0]

    def test_fewer_than_two_elements(self):
        assert pair_form_primes((), "plus") == ()
        assert pair_form_primes((5,), "minus") == ()
        assert pair_form_primes((5,), "sum") == ()

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="unknown pair form"):
            pair_form_primes((1, 2), 1)


class TestJoined:
    # three elements: the pairs (0, 1), (0, 2), (1, 2) sit at 0, 1, 2, and
    # akeys[i] == bkeys[j] for (0, 1), (0, 2), (1, 0) and (2, 1)
    BASE = [-1, 0, 0]
    AKEYS = [1, 2, 1]
    BKEYS = [2, 1, 1]

    @pytest.mark.parametrize("mirror, want", [
        (None, [0, 1]),         # symmetric: the pairs i < j alone
        (0, [0, 0, 1, 2]),      # (1, 0) on (0, 1), (2, 1) on (1, 2)
        (3, [0, 1, 3, 5]),      # the mirrored half: (1, 0) at 3, (2, 1) at 5
    ])
    def test_placement(self, mirror, want):
        assert sorted(factor._joined(self.AKEYS, self.BKEYS, self.BASE,
                                     mirror)) == want

    def test_no_shared_key(self):
        assert factor._joined([0, 1, 2], [3, 4, 5], self.BASE, 0) == []

    @pytest.mark.parametrize("placement", ["none", "same", "mirrored"])
    def test_random_keys_match_the_layout(self, placement):
        rng = random.Random(len(placement))
        for n in range(2, 12):
            pairs = list(itertools.combinations(range(n), 2))
            index = {pair: k for k, pair in enumerate(pairs)}
            base = [index[i, i + 1] - i - 1 for i in range(n - 1)] + [0]
            mirror = {"none": None, "same": 0, "mirrored": len(pairs)}[
                placement]
            akeys = [rng.randrange(3) for _ in range(n)]
            bkeys = [rng.randrange(3) for _ in range(n)]
            want = []
            for i, j in itertools.permutations(range(n), 2):
                if akeys[i] != bkeys[j]:
                    continue
                if i < j:
                    want.append(index[i, j])
                elif mirror is not None:
                    want.append(mirror + index[j, i])
            assert sorted(factor._joined(akeys, bkeys, base, mirror)) == \
                sorted(want)


def factor_e_union(elements, rho):
    """The primes of a + rho*b over the pairs a != b, from factor_e per
    value."""
    primes = {pi for a, b in itertools.permutations(elements, 2)
              for pi, _ in factor_e(a + rho * b).factors}
    return tuple(sorted(primes, key=ekey))


def ekey(x):
    return x.norm(), x.a, x.b


def has_zero_pair(elements, rho):
    return any((a + rho * b).is_zero()
               for a, b in itertools.permutations(elements, 2))


def eint_set(rng, size, coord, scale=ONE, avoid=None):
    """size distinct multiples of scale with coordinates up to coord
    before scaling, sorted; with avoid = rho, no pair value a + rho*b,
    a != b, is zero."""
    out = []
    while len(out) < size:
        x = scale * EInt(rng.randint(-coord, coord),
                         rng.randint(-coord, coord))
        if x not in out and not (
                avoid and has_zero_pair(out + [x], avoid)):
            out.append(x)
    return tuple(sorted(out, key=ekey))


# every product runs over the pairs a != b; pair_e_primes sieves only
# i < j for the additive and difference products (rho = 1, -1), whose
# mirrored pairs have associate values, and every i != j for the others
E_PAIR_RHOS = [ONE, EInt(-1, 0), OMEGA, -OMEGA, LAMBDA, -LAMBDA]
E_PAIR_IDS = ["1", "-1", "omega", "-omega", "2,1", "-2,-1"]


class TestPairEPrimes:
    def check(self, elements, rho):
        primes, zero = pair_e_primes(elements, rho)
        assert zero is None
        assert primes == e_pair_primes_naive(elements, rho, True)
        assert primes == factor_e_union(elements, rho)

    @pytest.mark.parametrize("rho", E_PAIR_RHOS, ids=E_PAIR_IDS)
    def test_random_sets(self, rho):
        rng = random.Random(f"pair-e:{rho}")
        for size in (2, 3, 5, 8, 13, 21, 34):
            for coord in (4, 40, 300):
                self.check(eint_set(rng, size, coord, avoid=rho), rho)

    @pytest.mark.parametrize("rho", [EInt(2, 0), EInt(-3, 0)],
                             ids=["2", "-3"])
    def test_rational_rho_takes_every_pair(self, rho):
        # a rational rho other than 1 and -1 still has a + rho*b and
        # b + rho*a apart, so every i != j is sieved
        rng = random.Random(f"pair-e:{rho}")
        for size in (2, 5, 13):
            self.check(eint_set(rng, size, 40, avoid=rho), rho)

    @pytest.mark.parametrize("rho", E_PAIR_RHOS, ids=E_PAIR_IDS)
    @pytest.mark.parametrize("scale", [
        LAMBDA,            # 3 | N of every value: lambda divides each one
        EInt(2, 0),        # the inert 2 divides both coordinates
        EInt(5, 0),        # the inert 5 divides both coordinates
        EInt(7, 0),        # 7 | x: both primes above 7 divide each value
        EInt(3, 1),        # one prime above 7 divides each value
        # primes past the sieve table, left in composite norm cofactors:
        EInt(4099, 0),     # both primes above the split 4099 divide
        EInt(4221, 256),   # pi^2 for pi = (65,2) above 4099
        EInt(4127, 0),     # the inert 4127 divides both coordinates
    ], ids=["lambda", "2", "5", "7", "3,1", "4099", "4221,256", "4127"])
    def test_common_factor(self, rho, scale):
        rng = random.Random(f"pair-e:{rho}:{scale}")
        self.check(eint_set(rng, 12, 6, scale, avoid=rho), rho)

    @pytest.mark.parametrize("rho", E_PAIR_RHOS, ids=E_PAIR_IDS)
    def test_norms_below_9(self, rho):
        # every value has norm 1, 3, 4 or 7: the sieve holds at most the
        # prime 2, and a cofactor 3 must still give lambda
        small = (ZERO, *UNITS, LAMBDA, -LAMBDA)
        checked = 0
        for size in (2, 3):
            for elements in itertools.combinations(small, size):
                elements = tuple(sorted(elements, key=ekey))
                if has_zero_pair(elements, rho):
                    continue
                top = max((a + rho * b).norm() for a in elements
                          for b in elements if a != b)
                if top < 9:
                    self.check(elements, rho)
                    checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("rho", E_PAIR_RHOS, ids=E_PAIR_IDS)
    def test_small_sieve_limit_falls_back(self, monkeypatch, rho):
        # With primes only up to 50 sieved, most cofactors are split by
        # _factor_hard.
        monkeypatch.setattr(factor, "_PAIR_SIEVE_BOUND", 50)
        rng = random.Random(f"pair-e-50:{rho}")
        for size in (4, 12, 25):
            self.check(eint_set(rng, size, 1000, avoid=rho), rho)

    @pytest.mark.parametrize("rho", E_PAIR_RHOS, ids=E_PAIR_IDS)
    def test_coordinates_near_2_30(self, rho):
        # cofactors far beyond the sieve bound go to _factor_hard
        rng = random.Random(f"pair-e-big:{rho}")
        top = 2**30
        elements = tuple(sorted(
            {EInt(top - rng.randrange(1000), rng.randrange(2**28))
             for _ in range(6)}, key=ekey))
        assert all((a + rho * b).norm() < 2**63 for a in elements
                   for b in elements)
        primes, zero = pair_e_primes(elements, rho)
        assert zero is None
        assert primes == factor_e_union(elements, rho)
        assert primes[-1].norm() > 4096 ** 2

    @pytest.mark.parametrize("rho", E_PAIR_RHOS, ids=E_PAIR_IDS)
    def test_first_zero_pair_is_returned(self, rho):
        rng = random.Random(f"pair-e-zero:{rho}")
        found = 0
        for _ in range(300):
            elements = eint_set(rng, 12, 4)
            # the first zero pair (a, b), a != b, in index order; for
            # rho = 1 its mirror comes later
            zeros = [(a, b) for a, b in itertools.permutations(elements, 2)
                     if (a + rho * b).is_zero()]
            got = pair_e_primes(elements, rho)
            assert got == (((), zeros[0]) if zeros else
                           (e_pair_primes_naive(elements, rho, True), None))
            found += bool(zeros)
        # rho = -1 has no zero pair; the others meet one in most sets
        assert found >= 50 or rho == EInt(-1, 0)

    @pytest.mark.parametrize("elements,rho,error", [
        # an oversized norm before a zero pair
        (["1,0", "-7,0", "7,0", f"{2**32},0"], "1,0",
         "norm exceeds the 64-bit rational factorization range"),
        # a coordinate overflow in the sum before a zero pair
        (["1,0", "-7,0", "7,0", f"{2**63 - 1},0"], "1,0",
         "coordinate out of 64-bit range: (9223372036854775808,0)"),
        # overflow in rho*b, then in the sum, then a zero pair at (1, 0)
        (["-1,-1", "-1,0", f"{2**62},{-2**62}"], "0,1",
         "coordinate out of 64-bit range: "
         "(4611686018427387904,9223372036854775808)"),
        (["0,1", "1,1", f"{2**63 - 1},0"], "0,1",
         "coordinate out of 64-bit range: (0,9223372036854775808)"),
        (["0,1", "1,1", f"{2**33},0"], "0,1",
         "norm exceeds the 64-bit rational factorization range"),
    ])
    def test_first_out_of_range_pair_raises(self, elements, rho, error):
        elements = tuple(sorted(map(EInt.parse, elements), key=ekey))
        with pytest.raises((ValueError, OverflowError)) as info:
            pair_e_primes(elements, EInt.parse(rho))
        assert str(info.value) == error

    def test_rho_b_out_of_range_with_small_sum(self):
        # rho*b = 2^63 overflows although a + rho*b = 1 fits
        elements = (EInt(-(2**63 - 1), 0), EInt(2**62, 0))
        with pytest.raises(OverflowError) as info:
            pair_e_primes(elements, EInt(2, 0))
        assert str(info.value) == \
            "coordinate out of 64-bit range: (9223372036854775808,0)"

    # (M, 0) puts widest = 2M on either side of 3 * widest^2 <= 2^63 - 1:
    # below it the zero pairs are looked up by coordinates at once; above
    # it the norms come first, and the pairs are replayed only when a norm
    # is above 2^63 - 1 (M = 3.1e9).  Each way the first zero pair in pair
    # order decides, which is not the first one met when reading by b
    @pytest.mark.parametrize("rho", [ONE, OMEGA], ids=["1", "omega"])
    @pytest.mark.parametrize("far", [876706528, 876706529, 3_100_000_000],
                             ids=["lookup", "norms-first", "replay"])
    def test_first_zero_pair_on_both_sides_of_the_norm_line(self, rho, far):
        assert (3 * (2 * far) ** 2 <= INT64_MAX) == (far == 876706528)
        elements = tuple(sorted(
            [EInt(1, 0), EInt(-1, 0), EInt(0, 1), EInt(0, -1), EInt(2, 1),
             EInt(-2, -1), EInt(1, 1), EInt(-1, -1), EInt(far, 0)],
            key=ekey))
        values = [(a, b, a + rho * b)
                  for a, b in itertools.permutations(elements, 2)]
        assert (max(v.norm() for _, _, v in values) > INT64_MAX) == \
            (far == 3_100_000_000)
        zeros = [(a, b) for a, b, v in values if v.is_zero()]
        assert len(zeros) > 1
        assert pair_e_primes(elements, rho) == ((), zeros[0])

    def test_unordered_zero_pair_needs_a_before_b(self):
        # (0,-1) + omega*(1,0) = 0 is the pair (1, 0), whose index pair is
        # not i < j: at rho = omega every i != j is sieved
        elements = (EInt(1, 0), EInt(0, -1))
        assert pair_e_primes(elements, OMEGA) == \
            ((), (EInt(0, -1), EInt(1, 0)))

    def test_zero_pair_before_out_of_range_pair(self):
        elements = (EInt(1, 0), EInt(1, 1), EInt(2**62, -2**62))
        assert pair_e_primes(elements, OMEGA) == \
            ((), (EInt(1, 0), EInt(1, 1)))

    def test_fewer_than_two_elements(self):
        assert pair_e_primes((), ONE) == ((), None)
        assert pair_e_primes((LAMBDA,), OMEGA) == ((), None)
