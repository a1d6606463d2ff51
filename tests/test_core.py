"""Ring arithmetic: units, canonical associates, Euclidean structure,
residue rings.  Example values are frozen from an independent six-associate
enumeration oracle (see _canonical_by_enumeration below)."""

import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab.core import (
    COORD_BOUND, EInt, LAMBDA, OMEGA, ONE, UNITS, ZERO, ResidueRing,
    divides, exact_div, gcd, valuation,
)
from eulab.core import _strip, _xgcd
from oracles import (
    canonical_by_scan, reduced_representatives, representatives,
    strip_by_division,
)

coords = st.integers(min_value=-200, max_value=200)
eints = st.builds(EInt, coords, coords)
nonzero_eints = eints.filter(lambda x: not x.is_zero())


def embed(x: EInt) -> complex:
    """Independent complex-plane embedding used as the geometry oracle."""
    return complex(x.a - x.b / 2.0, x.b * math.sqrt(3.0) / 2.0)


def _canonical_by_enumeration(x: EInt) -> tuple[EInt, EInt]:
    """Oracle: pick the associate with argument in [0, 60) degrees using
    floating-point angles, independently of the integer predicate."""
    best = None
    for u in UNITS:
        y = x * u
        ang = math.degrees(math.atan2(embed(y).imag, embed(y).real)) % 360.0
        if ang < 60.0 - 1e-9:
            assert best is None, "two associates in the same sector"
            best = (y, u)
    assert best is not None
    return best


# ---------------------------------------------------------------- units

def test_units_are_powers_of_one_plus_omega():
    base = EInt(1, 1)
    acc = ONE
    for u in UNITS:
        assert acc == u
        acc = acc * base
    assert acc == ONE  # order six


# ----------------------------------------------------- norm and conjugate

def test_norm_examples():
    assert EInt(2, 1).norm() == 3
    assert EInt(1, 0).norm() == 1
    assert EInt(0, 0).norm() == 0


def test_conj_example():
    assert EInt(2, 1).conj() == EInt(1, -1)


@given(eints, eints)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(eints)
def test_conj_is_ring_involution(x):
    assert x.conj().conj() == x
    assert x.conj().norm() == x.norm()


@given(eints, eints)
def test_conj_distributes(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


def test_mul_matches_complex_embedding():
    for x in [EInt(3, -2), EInt(0, 5), EInt(-7, 11)]:
        for y in [EInt(2, 1), EInt(-1, -1), EInt(4, -3)]:
            got = embed(x * y)
            want = embed(x) * embed(y)
            assert abs(got - want) < 1e-9


# ------------------------------------------------------------- canonical

def test_is_canonical_examples():
    assert EInt(1, 0).is_canonical()
    assert not EInt(1, 1).is_canonical()  # argument exactly 60 degrees
    assert EInt(2, 1).is_canonical()
    assert not ZERO.is_canonical()


def test_canonical_associate_example():
    y, u = EInt(1, -1).canonical_associate()
    assert y == EInt(2, 1)
    assert u == EInt(1, 1)
    assert u * EInt(1, -1) == y


@given(nonzero_eints)
def test_canonical_associate_matches_angle_oracle(x):
    assert x.canonical_associate() == _canonical_by_enumeration(x)


@given(nonzero_eints)
def test_exactly_one_canonical_associate(x):
    flags = [(x * u).is_canonical() for u in UNITS]
    assert sum(flags) == 1


def _outcome(call):
    """call()'s value, or the type and message of its OverflowError."""
    try:
        return call()
    except OverflowError as exc:
        return type(exc), str(exc)


def _scan_sector(x: EInt) -> int:
    return -UNITS.index(canonical_by_scan(x)[1]) % 6


def test_canonical_associate_and_sector_match_scan_on_box():
    for a in range(-30, 31):
        for b in range(-30, 31):
            if a or b:
                x = EInt(a, b)
                assert x.canonical_associate() == canonical_by_scan(x)
                assert x.sector_index() == _scan_sector(x)


def test_canonical_associate_matches_scan_at_the_64_bit_edge():
    """Near the coordinate bound a turn may leave the range; the turn and
    the scan then raise the same OverflowError."""
    rng = random.Random(2026)
    edge = [COORD_BOUND - k for k in range(4)]
    pool = edge + [-c for c in edge] + [0, 1, -1, 2, -2]
    raised = 0
    for _ in range(4000):
        a, b = (rng.choice(pool) if rng.random() < 0.5
                else rng.randint(-COORD_BOUND, COORD_BOUND) for _ in "ab")
        if a == b == 0:
            continue
        x = EInt(a, b)
        got = _outcome(x.canonical_associate)
        assert got == _outcome(lambda: canonical_by_scan(x))
        assert _outcome(x.sector_index) == _outcome(lambda: _scan_sector(x))
        raised += got[0] is OverflowError
    assert raised > 100
    # the first turn leaves the range: at once for (M, -M), four turns
    # before the canonical sector for (-M, M), where the scan raised too
    for x, turned in ((EInt(COORD_BOUND, -COORD_BOUND),
                       (2 * COORD_BOUND, COORD_BOUND)),
                      (EInt(-COORD_BOUND, COORD_BOUND),
                       (-2 * COORD_BOUND, -COORD_BOUND))):
        assert _outcome(x.canonical_associate) == (
            OverflowError, "coordinate out of 64-bit range: "
            f"({turned[0]},{turned[1]})")


def test_canonical_associate_of_zero_raises():
    with pytest.raises(ValueError):
        ZERO.canonical_associate()


# --------------------------------------------------------------- sectors

def test_sector_examples():
    assert EInt(1, 0).sector_index() == 0
    assert EInt(0, 1).sector_index() == 2
    assert EInt(1, 1).sector_index() == 1


@given(nonzero_eints)
def test_sector_matches_angle(x):
    ang = math.degrees(math.atan2(embed(x).imag, embed(x).real)) % 360.0
    k = ang / 60.0
    # Lattice points sit exactly on sector rays only when the float is a
    # hair from an integer; snap those before flooring.
    if abs(k - round(k)) < 1e-9:
        k = round(k)
    assert x.sector_index() == int(k) % 6


@given(nonzero_eints, nonzero_eints)
def test_same_sector_sum_grows(x, y):
    """Within one sector the norm of a sum exceeds both summands' norms."""
    if x.sector_index() == y.sector_index():
        s = x + y
        assert s.norm() > max(x.norm(), y.norm())


@pytest.mark.parametrize("call,error,message", [
    (lambda: ResidueRing(ZERO), ValueError, "modulus must be nonzero"),
    (lambda: divides(ZERO, ONE), ZeroDivisionError, "divisibility by zero"),
    (lambda: exact_div(ONE, ZERO), ZeroDivisionError, "division by zero"),
    (lambda: ZERO.sector_index(), ValueError, "zero has no sector"),
], ids=["ResidueRing", "divides", "exact_div", "sector_index"])
def test_zero_rejected_by_name(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


# ------------------------------------------------------------- divmod/gcd

def test_divmod_example():
    q, r = divmod(EInt(7, 0), EInt(2, 1))
    assert EInt(7, 0) == q * EInt(2, 1) + r
    assert r.norm() <= 2


def test_divmod_tie_rounds_toward_minus_infinity():
    # 3/2 has omega-coordinates (1.5, 0): the tie must go to 1, not 2.
    q, r = divmod(EInt(3, 0), EInt(2, 0))
    assert q == EInt(1, 0)
    assert r == EInt(1, 0)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(EInt(1, 0), ZERO)


@given(eints, nonzero_eints)
def test_divmod_remainder_bound(x, y):
    q, r = divmod(x, y)
    assert x == q * y + r
    assert 4 * r.norm() <= 3 * y.norm()


def test_divmod_and_gcd_at_the_coordinate_bound():
    # q*y leaves the 64-bit range here although q and r both fit, so the
    # identity is checked on plain integers.
    x, y = EInt(-COORD_BOUND, COORD_BOUND), EInt(9, 5)
    q, r = divmod(x, y)
    assert (q, r) == (EInt(151202820276307800, 2116839483868309202),
                      EInt(3, -1))
    assert (q.a * y.a - q.b * y.b + r.a,
            q.a * y.b + y.a * q.b - q.b * y.b + r.b) == (x.a, x.b)
    assert 4 * r.norm() <= 3 * y.norm()
    g = gcd(x, y)
    assert divides(g, x) and divides(g, y)


def test_gcd_example():
    x = EInt(2, 1) * EInt(3, 1)
    y = EInt(2, 1) * EInt(2, 0)
    assert gcd(x, y) == EInt(2, 1)


def test_gcd_zero_cases():
    assert gcd(EInt(1, -1), ZERO) == EInt(2, 1)
    with pytest.raises(ValueError):
        gcd(ZERO, ZERO)


@given(nonzero_eints, nonzero_eints)
def test_gcd_divides_both_and_is_canonical(x, y):
    g = gcd(x, y)
    assert g.is_canonical()
    assert divides(g, x) and divides(g, y)


@given(nonzero_eints, nonzero_eints, nonzero_eints)
@settings(max_examples=50)
def test_gcd_absorbs_common_factor(x, y, z):
    g = gcd(x * z, y * z)
    assert divides(z, g) or divides(z.canonical_associate()[0], g)


def test_hypothesis_runs_are_derandomized():
    """conftest's profile fixes every test's seed, and a test's own
    @settings keeps its example count."""
    assert settings.default.derandomize
    own = test_gcd_absorbs_common_factor._hypothesis_internal_use_settings
    assert own.derandomize and own.max_examples == 50


# ------------------------------------------------------- exact divisibility

@given(eints, nonzero_eints)
def test_exact_div_roundtrip(x, d):
    assert divides(d, x * d)
    assert exact_div(x * d, d) == x


def test_exact_div_rejects_non_divisor():
    assert not divides(EInt(2, 0), EInt(1, 0))
    with pytest.raises(ValueError):
        exact_div(EInt(1, 0), EInt(2, 0))


def test_valuation():
    x = EInt(2, 1) ** 3 * EInt(3, 1)
    assert valuation(EInt(2, 1), x) == 3
    assert valuation(EInt(3, 1), x) == 1
    assert valuation(EInt(2, 0), x) == 0


def _small_primes() -> list[EInt]:
    """The canonical primes of norm at most 50: norm a rational prime, or
    an inert rational prime q = 2 mod 3 itself."""
    out = [EInt(2, 0), EInt(5, 0)]
    for a in range(1, 9):
        for b in range(0, a):
            n = EInt(a, b).norm()
            if 1 < n <= 50 and all(n % d for d in range(2, math.isqrt(n) + 1)):
                out.append(EInt(a, b))
    return out


def test_small_primes_cover_norms_up_to_50():
    norms = sorted(pi.norm() for pi in _small_primes())
    assert norms == [3, 4, 7, 7, 13, 13, 19, 19, 25, 31, 31, 37, 37, 43, 43]


STRIP_MODULI = _small_primes() + [LAMBDA ** 2, EInt(3, 1) ** 2,
                                   EInt(2, 0) ** 2]


@pytest.mark.parametrize("pi", STRIP_MODULI, ids=str)
def test_strip_matches_division_loop(pi):
    """Every x in a box, and pi^k times a smaller box, against the loop of
    divides and exact_div without a norm test."""
    xs = [EInt(a, b) for a in range(-15, 16) for b in range(-15, 16)]
    xs += [pi ** k * EInt(a, b) for k in range(1, 5)
           for a in range(-3, 4) for b in range(-3, 4)]
    for x in xs:
        if not x.is_zero():
            want = strip_by_division(pi, x)
            assert _strip(pi, x) == want
            assert valuation(pi, x) == want[0]


@pytest.mark.parametrize("pi", [p for p in _small_primes()
                                if p.conj().canonical_associate()[0] != p],
                         ids=str)
def test_strip_norm_test_passes_but_prime_does_not_divide(pi):
    """x = conj(pi) * k: N(pi) | N(x) but pi does not divide x, so the norm
    test alone would count a step."""
    for k in (ONE, OMEGA, EInt(-2, 0), EInt(1, -1), pi ** 2):
        x = pi.conj() * k
        v = 2 if k == pi ** 2 else 0
        assert x.norm() % pi.norm() == 0
        assert _strip(pi, x) == (v, pi.conj() * k // pi ** v)
        assert valuation(pi, x) == v


@pytest.mark.parametrize("pi,x,message", [
    (EInt(2, 1), ZERO, "valuation of zero is undefined"),
    (ZERO, ZERO, "valuation of zero is undefined"),
    (ZERO, EInt(3, 1), "valuation needs a non-unit modulus"),
] + [(u, EInt(3, 1), "valuation needs a non-unit modulus") for u in UNITS],
    ids=str)
def test_strip_and_valuation_errors(pi, x, message):
    for call in (_strip, valuation, strip_by_division):
        with pytest.raises(ValueError) as exc:
            call(pi, x)
        assert str(exc.value) == message


# ------------------------------------------------------------ residue ring

def test_ring_rectangle_example():
    ring = ResidueRing(EInt(2, 0))
    assert ring.size == 4
    assert (ring.d1, ring.d2) == (2, 2)
    assert ring.reduce(EInt(3, 2)) == EInt(1, 0)


def test_ring_size_equals_norm():
    for mu in [EInt(2, 1), EInt(3, 1), EInt(5, 0), EInt(4, 1), EInt(-3, 7)]:
        ring = ResidueRing(mu)
        reps = representatives(ring)
        assert len(reps) == mu.norm() == ring.size
        assert len(set(reps)) == ring.size


@given(st.builds(EInt, st.integers(-9, 9), st.integers(-9, 9)).filter(
    lambda m: not m.is_zero()), eints, eints)
@settings(max_examples=100)
def test_reduce_is_idempotent_ring_map(mu, x, y):
    ring = ResidueRing(mu)
    rx = ring.reduce(x)
    assert ring.reduce(rx) == rx
    assert divides(mu, x - rx)
    assert ring.reduce(x + y) == ring.reduce(rx + ring.reduce(y))
    assert ring.reduce(x * y) == ring.reduce(rx * ring.reduce(y))


def test_reduced_residue_count_is_multiplicative_like():
    # E/(2+omega) is the field with 3 elements: two reduced residues.
    ring = ResidueRing(EInt(2, 1))
    assert len(reduced_representatives(ring)) == 2
    # mod (2,0)^2 = (4,0): norm 16, reduced residues 16 - 4 = 12.
    ring = ResidueRing(EInt(4, 0))
    assert len(reduced_representatives(ring)) == 12


def test_mod_inverse():
    ring = ResidueRing(EInt(3, 1))
    one = ring.reduce(ONE)
    for r in reduced_representatives(ring):
        inv = ring.inverse(r)
        assert ring.reduce(r * inv) == one
    with pytest.raises(ValueError):
        ResidueRing(EInt(4, 0)).inverse(EInt(2, 0))


def _inverse_by_xgcd(ring, x):
    """Oracle: the reduced inverse from the extended Euclidean gcd in E."""
    g, s, _ = _xgcd(x, ring.modulus)
    assert g.is_unit()
    return ring.reduce(s * g.conj())


PI31 = EInt(3, 1)  # split prime of norm 7


@pytest.mark.parametrize("modulus", [
    LAMBDA, LAMBDA ** 3, PI31, PI31 ** 2, EInt(2, 0), EInt(4, 0),
    EInt(9, 5), EInt(7, 0),  # 7 = (3,1)(3,2) is composite
])
def test_inverse_matches_xgcd_oracle(modulus):
    ring = ResidueRing(modulus)
    one = ring.reduce(ONE)
    reduced = reduced_representatives(ring)
    assert reduced
    for r in reduced:
        inv = ring.inverse(r)
        assert inv == _inverse_by_xgcd(ring, r)
        assert ring.reduce(r * inv) == one


@pytest.mark.parametrize("k", [1, 2])
def test_inverse_fallback_when_norms_share_a_prime(k):
    # N(conj(pi)) = N(pi) = 7, yet conj(pi) is coprime to pi since 7 splits
    ring = ResidueRing(PI31 ** k)
    x = PI31.conj()
    assert math.gcd(x.norm(), ring.size) != 1
    inv = ring.inverse(x)
    assert inv == _inverse_by_xgcd(ring, x)
    assert ring.reduce(x * inv) == ring.reduce(ONE)


def test_inverse_of_unreduced_and_large_inputs():
    # The norm-based inverse reduces its product on raw coordinates, so
    # coordinates near the 64-bit bound are fine; the Euclidean oracle would overflow
    # on them and is given the reduced residue instead.
    ring = ResidueRing(EInt(9, 5))
    for x in (EInt(2**62 + 1, -(2**61)), EInt(-COORD_BOUND, COORD_BOUND),
              EInt(-5, 17)):
        r = ring.reduce(x)
        assert ring.inverse(x) == ring.inverse(r) == _inverse_by_xgcd(ring, r)
        assert ring.reduce(r * ring.inverse(r)) == ring.reduce(ONE)


def test_inverse_mod_unit_is_zero():
    ring = ResidueRing(OMEGA)
    for x in (ZERO, ONE, EInt(5, 3), PI31):
        assert ring.inverse(x) == ZERO == _inverse_by_xgcd(ring, x)


@pytest.mark.parametrize("modulus,x", [
    (EInt(4, 0), EInt(2, 0)), (PI31, PI31), (PI31 ** 2, PI31 * OMEGA),
    (EInt(7, 0), EInt(3, 2)), (LAMBDA ** 3, ZERO),
])
def test_inverse_rejects_non_invertible(modulus, x):
    with pytest.raises(ValueError, match=rf"^{x} is not invertible mod "
                                         rf"{modulus}$"):
        ResidueRing(modulus).inverse(x)


def test_positions_follow_enumeration_order():
    ring = ResidueRing(EInt(3, 1))
    reps = representatives(ring)
    pairs = [(r.a, r.b) for r in reps]
    assert pairs == sorted(pairs)
    assert all(ring.reduce(r) == r for r in reps)


# ---------------------------------------------------------------- overflow

def test_coordinate_overflow_detected():
    big = EInt(2**62, 0)
    with pytest.raises(OverflowError):
        _ = big * big
    EInt(COORD_BOUND, -COORD_BOUND)  # boundary is representable
    with pytest.raises(OverflowError):
        EInt(COORD_BOUND + 1, 0)


def test_overflow_on_construction_and_product():
    for a, b in [(COORD_BOUND + 1, 0), (0, -COORD_BOUND - 1), (2**70, 2**70)]:
        with pytest.raises(OverflowError):
            EInt(a, b)
    x = EInt(2**32, 0)
    with pytest.raises(OverflowError):
        _ = x * x


# ---------------------------------------------------------------- contract

def test_fields_are_immutable():
    x = EInt(3, -4)
    for name in ("a", "b"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.c = 1
    assert (x.a, x.b) == (3, -4)


@given(eints)
def test_hash_is_tuple_hash(x):
    assert hash(x) == hash((x.a, x.b))
    y = EInt(x.a, x.b)
    assert y == x and hash(y) == hash(x)


def test_not_equal_to_other_types():
    assert EInt(1, 2) != (1, 2)
    assert EInt(3, 0) != 3
    assert not EInt(3, 0) == 3
    assert EInt(1, 2) != EInt(2, 1)


def test_pickle_and_copy_round_trip():
    x = EInt(-7, 2**62)
    copies = [pickle.loads(pickle.dumps(x, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(x), copy.deepcopy(x)]
    for y in copies:
        assert type(y) is EInt and y == x
    assert copy.deepcopy({x: [x]}) == {x: [x]}


def test_repr_and_str():
    assert repr(EInt(-3, 12)) == "EInt(-3, 12)"
    assert str(EInt(-3, 12)) == "-3,12"
    assert repr([ZERO, OMEGA]) == "[EInt(0, 0), EInt(0, 1)]"


def test_parse_and_str_roundtrip():
    assert EInt.parse("0,-1") == EInt(0, -1)
    assert str(EInt(-3, 12)) == "-3,12"
    assert EInt.parse(str(EInt(7, -9))) == EInt(7, -9)
    with pytest.raises(ValueError):
        EInt.parse("1;2")
    with pytest.raises(ValueError):
        EInt.parse("1")


def test_lambda_squared_is_associated_to_three():
    sq = LAMBDA * LAMBDA
    y, _ = sq.canonical_associate()
    three, _ = EInt(3, 0).canonical_associate()
    assert y == three


def test_pow_matches_repeated_multiplication():
    x = EInt(2, -1)
    acc = ONE
    for n in range(8):
        assert x ** n == acc
        acc = acc * x
    with pytest.raises(ValueError):
        x ** -1
