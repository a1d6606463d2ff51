"""Prime factorization over Z and over E, with the counting functions
omega (distinct primes) and tau (divisors, associates counted separately).

One table of the primes up to 4096 serves every routine.  Rational
factorization trial-divides by it and leaves the cofactor to one routine,
_factor_hard, which settles a value as prime once the primes below its
square root are known absent, and otherwise runs a Miller-Rabin base set
sized to the value (deterministic below about 3.3e24, far beyond 64-bit
inputs) and Brent's cycle-finding splitter.
Factorization in E rides on the rational factorization of the norm: 3
ramifies onto (2,1), primes 2 mod 3 stay prime, and primes 1 mod 3 split
into a conjugate pair, gcd(p, w - omega) for the two roots w of
x^2 + x + 1 mod p.

The primes of a product of pair values over the pairs of a set are
sieved along residue progressions, as the quadratic sieve walks them
(Pomerance 1982), rather than factored value by value: pair_form_primes
for "plus", a^2 + a*b + b^2, "minus", a^2 - a*b + b^2, and "sum", a + b,
and pair_e_primes for a + rho*b over a != b in E, where each prime above
a sieve prime maps E onto its residue field.  A prime divides a pair's
value exactly when a residue of a equals a residue of b, so one join
(_joined) lists the pairs it divides, bucketing only the residues of a
that some b shares.  One loop, _sieve_pairs, runs every sieve with one
value layout, the pairs i < j and then, for the ordered E product, their
mirrors (j, i), and one stop rule; each sieve supplies its residues per
prime, each saying where a match with i > j lands, and hands the
cofactors the sieve cannot settle to _factor_hard.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from typing import Callable, Iterable, Iterator, Sequence

from eulab.core import COORD_BOUND, EInt, _ekey, _strip

INT64_MAX = 2**63 - 1

# The prime table ends at the last prime below this bound, 4093; the
# search's pair table reads it up to isqrt(3 * 2000^2) = 3464, and the
# pair sieves (_sieve_pairs) at most up to 4096.  Beyond the bound,
# bucketing the set once per prime costs more than testing the cofactors
# left: a full sieve to isqrt of the largest pair value made sets of 30
# to 100 values up to 10^5 or 10^6 four to thirteen times slower than
# factoring each pair value.
_PAIR_SIEVE_BOUND = 4096


@cache
def sieve_primes() -> list[int]:
    """The primes up to _PAIR_SIEVE_BOUND, the last of them 4093."""
    return _sieve(_PAIR_SIEVE_BOUND)


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def _roots_x2_x_1(p: int) -> tuple[int, ...]:
    """The roots of x^2 + x + 1 mod the prime p: 1 for p = 3, the two
    primitive cube roots of unity for p = 1 (mod 3), none otherwise."""
    if p == 3:
        return (1,)
    if p % 3 != 1:
        return ()
    for g in itertools.count(2):
        r = pow(g, (p - 1) // 3, p)
        if r != 1:
            return (r, r * r % p)


@lru_cache(maxsize=4096)
def _primes_above(p: int) -> tuple[tuple[EInt, int], ...]:
    """The canonical primes above the prime p = 3 or p = 1 (mod 3) as
    pairs (pi, w), one per root w of x^2 + x + 1 mod p in the order of
    _roots_x2_x_1(p): pi divides w - omega, so w is the residue of omega
    modulo pi.  The multiples of pi are the lattice of x + y*omega with
    x + y*w = 0 (mod p), and pi is its shortest nonzero vector: the
    Gauss-Lagrange reduction of the basis (p, 0), (-w, 1) under the norm
    x^2 - xy + y^2.  For p = 1 mod 3 the second root w^2 = -1 - w has
    w^2 - omega = -conj(w - omega) mod p, so its prime is the conjugate
    of the first.  EInt.canonical_associate names both."""
    roots = _roots_x2_x_1(p)
    # u = (a, b) is kept no longer than v = (c, d); m is the norm of u
    a, b, c, d = -roots[0], 1, p, 0
    m = a * a - a + 1
    while True:
        # v - q*u with q the nearest integer to <u, v> / N(u), where
        # 2<u, v> = 2ac + 2bd - ad - bc
        q = (2 * (a * c + b * d) - a * d - b * c + m) // (2 * m)
        c, d = c - q * a, d - q * b
        n = c * c - c * d + d * d
        if n >= m:
            break
        a, b, c, d, m = c, d, a, b, n
    if m != p:
        raise AssertionError(f"shortest vector {a},{b} above {p} has "
                             f"norm {m}")
    pi = EInt(a, b).canonical_associate()[0]
    return tuple(zip((pi, pi.conj().canonical_associate()[0]), roots))


def prime_pi(x: float) -> int:
    """Number of rational primes not exceeding x, for 0 <= x < 4094:
    the prime table of sieve_primes() ends at 4093."""
    if x < 0:
        raise ValueError("prime_pi needs a nonnegative argument")
    n = math.floor(x)
    primes = sieve_primes()
    if n > primes[-1]:
        raise ValueError(f"prime_pi argument {x} exceeds the prime table "
                         f"bound {primes[-1]}")
    return bisect_right(primes, n)


# Miller-Rabin on the first k primes as bases is deterministic below psi_k,
# the least strong pseudoprime to all of them (Jaeschke 1993; Sorenson and
# Webster 2017, "Strong pseudoprimes to twelve prime bases").  Each entry
# is (psi_k, k); psi_8 = psi_7 and psi_11 = psi_10 = psi_9, so 8, 10 and 11
# bases never pay.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMITS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
              (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
              (3825123056546413051, 9), (318665857834031151167461, 12),
              (3317044064679887385961981, 13))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < psi_13 = 3317044064679887385961981
    (about 3.3e24), with as few prime bases as the size of n allows; n at
    or above psi_13 raises ValueError.  Every value the package factors is
    below 2^63."""
    if n < 2:
        return False
    for psi, count in _MR_LIMITS:
        if n < psi:
            break
    else:
        raise ValueError(f"is_prime is deterministic only below {psi}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:count]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_split(n: int) -> int:
    """A nontrivial factor of composite n, odd or even: _factor_hard
    passes even values when a pair sieve stopped before 2."""
    for c in range(1, 128):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
    raise ArithmeticError(f"cycle splitter failed on {n}")


@dataclass(frozen=True)
class RationalFactorization:
    sign: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), increasing prime

    def value(self) -> int:
        return self.sign * reduce(lambda acc, pe: acc * pe[0] ** pe[1], self.factors, 1)

    @property
    def omega(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class EFactorization:
    unit: EInt
    factors: tuple[tuple[EInt, int], ...]  # (canonical prime, exponent)

    def value(self) -> EInt:
        return reduce(lambda acc, pe: acc * pe[0] ** pe[1], self.factors, self.unit)

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def tau(self) -> int:
        """Divisor count with all six unit multiples distinct."""
        return 6 * reduce(lambda acc, pe: acc * (pe[1] + 1), self.factors, 1)


@lru_cache(maxsize=1 << 16)
def factor_rational(n: int) -> RationalFactorization:
    if n == 0:
        raise ValueError("cannot factor zero")
    if abs(n) > INT64_MAX:
        raise ValueError(f"{n} is beyond the declared 64-bit input range")
    sign = 1 if n > 0 else -1
    m = abs(n)
    counts: dict[int, int] = {}
    for p in sieve_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            counts[p] = e
    # m has no prime factor below p, the last prime tried
    _factor_hard(m, counts, p)
    return RationalFactorization(sign, tuple(sorted(counts.items())))


def _factor_hard(m: int, counts: dict[int, int], bound: int) -> None:
    """Accumulate the prime factors of m, which has no prime factor below
    bound, into counts.  A value below bound^2 is then 1 or a prime; any
    other goes to is_prime and, if composite, to Brent's splitter, whose
    parts keep the same property."""
    stack = [m]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if v < bound * bound or is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        d = _brent_split(v)
        stack.append(d)
        stack.append(v // d)


def _joined(akeys: Sequence[int], bkeys: Sequence[int], base: Sequence[int],
            mirror: int | None) -> list[int]:
    """The indices of the pairs (i, j), i != j, with akeys[i] == bkeys[j]:
    base[i] + j for i < j, and mirror + base[j] + i for i > j, or no index
    for i > j when mirror is None.  Only the keys met on both sides can
    match: the a elements are bucketed by the keys the b side holds, and
    each b element whose key has a bucket reads it."""
    targets = set(bkeys)
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(akeys):
        if c in targets:
            classes.setdefault(c, []).append(i)
    if not classes:
        return []
    if mirror is None:
        return [base[i] + j for j, c in enumerate(bkeys) if c in classes
                for i in classes[c] if i < j]
    return [base[i] + j if i < j else mirror + base[j] + i
            for j, c in enumerate(bkeys) if c in classes
            for i in classes[c] if i != j]


def _sieve_pairs(vals: list[int], n: int,
                 residues: Callable[[int], Iterable[tuple]],
                 ) -> tuple[list, int]:
    """Sieve in place the values vals of the pairs of n elements: the
    pairs i < j in the order of itertools.combinations, then, for an
    ordered product, their mirrors (j, i) in the same order.  For each
    sieve prime p, residues(p) yields (label, keys, targets, mirror): the
    label, p or a prime of E above it, divides the value of the pair
    (i, j) exactly when keys[i] == targets[j], and mirror says where
    _joined places a match with i > j: nowhere (None) when the relation
    is symmetric, as the pair i < j matches too; on the value of the
    pair (j, i) (0) when the match reads the relation reversed; on the
    mirrored half (the number of pairs i < j) for an ordered product.
    Each label that hits is recorded once, and p is divided out
    completely of each value hit.  Returns the labels in sieve order and
    a bound below which no value left has a prime factor."""
    # vals[k] belongs to the pair (i, j), i < j, with k = base[i] + j
    base = [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]
    # Every prime up to settled is sieved.  A prime p divides about 2/p of
    # the pair values, so past the number of pairs it would hit fewer than
    # two on average, and bucketing the set for it costs more than
    # factoring the cofactors it would shrink: verify_t1 on 3 elements with
    # coordinates near 1000 took 2.1 ms with the sieve to isqrt of the
    # largest norm against 0.3 ms with one factor_e call per pair (2 vCPUs,
    # Python 3.11).
    settled = min(math.isqrt(max(vals)), _PAIR_SIEVE_BOUND, len(vals))
    primes = sieve_primes()
    labels: dict = {}
    for p in primes[:bisect_right(primes, settled)]:
        hits: set[int] = set()
        for label, keys, targets, mirror in residues(p):
            ks = _joined(keys, targets, base, mirror)
            if ks:
                labels[label] = None
                hits.update(ks)
        for k in hits:
            v = vals[k] // p
            while v % p == 0:
                v //= p
            vals[k] = v
    return list(labels), settled + 1


def pair_form_primes(elements: Sequence[int], form: str) -> tuple[int, ...]:
    """The distinct primes of the product of a pair form over the pairs of
    the distinct positive integers elements, in increasing order.  The
    form is "plus" for a^2 + a*b + b^2, "minus" for a^2 - a*b + b^2 and
    "sum" for a + b.

    The pair values are sieved by _sieve_pairs; the form gives the rule:
    p divides the value of (a, b) exactly when b = t*a (mod p) for a t in
    T, or p divides both when T is empty.  For a + b, T = {-1}; for
    a^2 + s*a*b + b^2, s = +-1, T holds s*r for each root r of
    x^2 + x + 1 mod p.  T is closed under t -> 1/t, so one join of t*a
    against b reads T: a reversed match lands on the same pair's value
    when T = {t, 1/t}, and a lone t = 1/t (the sum, and p = 3) is
    symmetric.  Each distinct cofactor left over goes to _factor_hard,
    which records it as prime when every prime up to its square root was
    sieved.

    A pair value above INT64_MAX raises the ValueError factor_rational
    would raise, naming the first such value in pair order (i < j).
    """
    pairs = itertools.combinations(elements, 2)
    if form == "sum":
        vals = [a + b for a, b in pairs]
    elif form in ("plus", "minus"):
        s = 1 if form == "plus" else -1
        vals = [a * a + s * a * b + b * b for a, b in pairs]
    else:
        raise ValueError(f"unknown pair form {form!r}; expected plus, "
                         "minus or sum")
    if not vals:
        return ()
    if max(vals) > INT64_MAX:
        first = next(v for v in vals if v > INT64_MAX)
        raise ValueError(f"{first} is beyond the declared 64-bit input range")

    def residues(p: int) -> Iterable[tuple]:
        keys = [a % p for a in elements]
        ts = (-1,) if form == "sum" else [s * r for r in _roots_x2_x_1(p)]
        if ts:
            return ((p, [ts[0] * c % p for c in keys], keys,
                     0 if len(ts) == 2 else None),)
        if keys.count(0) > 1:
            # a class -1 matches nothing: class 0 joins class 0 alone
            return ((p, keys, [-1 if c else 0 for c in keys], None),)
        return ()

    found, bound = _sieve_pairs(vals, len(elements), residues)
    large: dict[int, int] = {}
    for v in set(vals):
        _factor_hard(v, large, bound)
    return tuple(found) + tuple(sorted(large))


def _pair_norms(first: Sequence[tuple[int, int]],
                second: Sequence[tuple[int, int]]) -> Iterator[list[int]]:
    """The norms of the sums first[i] + second[j] over the pairs i < j,
    in the order of itertools.combinations, one list per i."""
    # N((x, y) + (u, v)) = N(x, y) + N(u, v) + x*(2u - v) + y*(2v - u)
    terms = [(u * u - u * v + v * v, 2 * u - v, 2 * v - u)
             for u, v in second]
    for i, (x, y) in enumerate(first):
        na = x * x - x * y + y * y
        yield [na + nb + x * gx + y * gy for nb, gx, gy in terms[i + 1:]]


def pair_e_primes(elements: Sequence[EInt], rho: EInt,
                  ) -> tuple[tuple[EInt, ...], tuple[EInt, EInt] | None]:
    """The distinct canonical primes of the product of a + rho*b over
    a = elements[i], b = elements[j], i != j, sorted by (norm, a, b).
    Pair order is lexicographic in (i, j).  For rho = 1 or -1, where (j, i)
    has a value associate to that of (i, j), only i < j is sieved;
    otherwise the mirrors (j, i) are sieved after the pairs i < j.

    Returns (primes, None), or ((), (a, b)) for the first pair in pair
    order whose value is zero.  When a value with a coordinate beyond 64
    bits (in rho*b or in the sum) or a norm above INT64_MAX comes first,
    evaluating that pair as a + rho*b, or factoring it, raises the
    OverflowError or ValueError of EInt and factor_e.  When a value may
    leave that range (3 * widest^2 > INT64_MAX, widest bounding the
    coordinates of a plus those of rho*b), the norms are built first, and
    the pairs are replayed in pair order if one does.  Otherwise the zero
    pairs are looked up by the coordinates of -rho*b before any norm is
    built.

    The pair norms are sieved by _sieve_pairs.  Each prime pi above a
    sieve prime p gives a ring map h onto E/(pi): for p = 3 or p = 1 mod
    3, omega goes to the root w of x^2 + x + 1 mod p that names
    pi = gcd(p, w - omega), and an inert p keeps both coordinates mod p.
    pi | a + rho*b exactly when h(a) = h(-rho*b), the latter read off the
    coordinates of rho*b already at hand.  A norm cofactor m > 1 left
    over is prime when the sieved primes reach isqrt(m): then it is 3
    (only when 3 was not sieved) or a split prime q, and a residue test
    mod q against the first root of x^2 + x + 1 picks the prime above q
    that divides the value.  Any other cofactor is split by _factor_hard;
    of each prime q it yields, q itself divides the value when q = 2 mod
    3, and otherwise each prime above q whose root passes the residue
    test does.  A prime cofactor q is skipped once both primes above it
    are picked.  Each prime so picked is named once, after the pairs.
    No EInt is built per pair.
    """
    n = len(elements)
    if n < 2:
        return (), None
    coords = [(x.a, x.b) for x in elements]
    r1, r2 = rho.a, rho.b
    twisted = [(r1 * x - r2 * y, r1 * y + r2 * x - r2 * y) for x, y in coords]
    ordered = (r1, r2) not in ((1, 0), (-1, 0))
    # _sieve_pairs' layout: the pairs i < j of each half, whose values are
    # first[i] + second[j].  The mirror (j, i) of a pair i < j has the
    # value coords[j] + twisted[i], so the mirrored half swaps the sides.
    halves = ((coords, twisted), (twisted, coords))[:1 + ordered]

    def layout_norms() -> list[int]:
        return reduce(list.__iadd__, itertools.chain.from_iterable(
            itertools.starmap(_pair_norms, halves)), [])

    # every pair value has coordinates within widest, so a norm of at most
    # 3 * widest^2
    widest = (max(max(abs(x), abs(y)) for x, y in coords)
              + max(max(abs(u), abs(v)) for u, v in twisted))
    norms: list[int] | None = None
    if 3 * widest * widest > INT64_MAX:
        # a value may leave the range: only the exact norms tell
        norms = layout_norms()
        if widest > COORD_BOUND or max(norms) > INT64_MAX:
            # Replay the pairs exactly: the first zero, overflowing or
            # oversized value in pair order decides; if none, fall through.
            lex = itertools.permutations if ordered else itertools.combinations
            for i, j in lex(range(n), 2):
                value = elements[i] + rho * elements[j]
                if value.is_zero():
                    return (), (elements[i], elements[j])
                if value.norm() > INT64_MAX:
                    factor_e(value)
    # a + rho*b = 0 exactly when a has the coordinates of -rho*b; the
    # elements are distinct, so each rho*b meets at most one a
    index = {c: i for i, c in enumerate(coords)}
    zeros = [(i, j) for j, (u, v) in enumerate(twisted)
             if (i := index.get((-u, -v))) is not None
             and (i < j or ordered and i != j)]
    if zeros:
        i, j = min(zeros)
        return (), (elements[i], elements[j])
    if norms is None:
        norms = layout_norms()

    # for rho = -1, -rho*b is b: a join inside each residue class
    same = (r1, r2) == (-1, 0)
    # a match with i > j lands on the mirrored half, after the pairs i < j
    mirror = n * (n - 1) // 2 if ordered else None

    def residues(p: int) -> Iterable[tuple]:
        if p % 3 == 2:
            # E/(p) = F_p[omega]; the residue (c0, c1) is coded c0 + p*c1
            keys = [x % p + p * (y % p) for x, y in coords]
            return ((EInt(p, 0), keys, keys if same else
                     [-u % p + p * (-v % p) for u, v in twisted], mirror),)
        out = []
        for pi, w in _primes_above(p):
            keys = [(x + y * w) % p for x, y in coords]
            out.append((pi, keys, keys if same else
                        [-(u + v * w) % p for u, v in twisted], mirror))
        return out

    found, bound = _sieve_pairs(norms, n, residues)
    layout = itertools.chain.from_iterable(
        itertools.combinations(zip(first, second), 2)
        for first, second in halves)
    # named[q] has bit k set for the k-th prime of _primes_above(q), whose
    # root w has x + y*w = 0 mod q; exactly one prime above a prime
    # cofactor q divides the value, so the first root's test settles k,
    # and once both are named (3) the pairs left with cofactor q add none
    named: dict[int, int] = {}
    bound2 = bound * bound
    for (((x, y), _), (_, (u, v))), m in itertools.compress(
            zip(layout, norms), [m > 1 for m in norms]):
        if named.get(m) == 3:
            continue
        x += u
        y += v
        if m < bound2:
            w = _primes_above(m)[0][1]
            named[m] = named.get(m, 0) | 1 << ((x + y * w) % m != 0)
            continue
        qs: dict[int, int] = {}
        _factor_hard(m, qs, bound)
        for q in qs:
            if q % 3 == 2:
                found.append(EInt(q, 0))
            else:
                for k, (_, w) in enumerate(_primes_above(q)):
                    if (x + y * w) % q == 0:
                        named[q] = named.get(q, 0) | 1 << k
    # newest first: a call can meet more primes than the cache of
    # _primes_above holds, and the least recently used leave it first
    found.extend(pi for q, bits in reversed(named.items())
                 for k, (pi, _) in enumerate(_primes_above(q))
                 if bits >> k & 1)
    return tuple(sorted(set(found), key=_ekey)), None


@lru_cache(maxsize=1 << 16)
def factor_e(x: EInt) -> EFactorization:
    """Factor x into canonical primes times a unit.

    Route through the rational factorization of the norm: each rational
    prime p is divided out as its canonical primes above it, p itself when
    p = 2 mod 3, each as often as it divides (core's _strip), and whatever
    is left over must be a unit.
    """
    if x.is_zero():
        raise ValueError("cannot factor zero")
    n = x.norm()
    if n > INT64_MAX:
        raise ValueError("norm exceeds the 64-bit rational factorization range")
    out: list[tuple[EInt, int]] = []
    rem = x
    for p, _ in factor_rational(n).factors:
        above = ([EInt(p, 0)] if p % 3 == 2
                 else [pi for pi, _ in _primes_above(p)])
        for pi in above:
            k, rem = _strip(pi, rem)
            if k:
                out.append((pi, k))
    if not rem.is_unit():
        raise AssertionError(f"non-unit remainder {rem} after factoring {x}")
    out.sort(key=lambda pe: _ekey(pe[0]))
    return EFactorization(rem, tuple(out))


def omega_e(x: EInt) -> int:
    return factor_e(x).omega


def tau_e(x: EInt) -> int:
    return factor_e(x).tau


__all__ = [
    "INT64_MAX", "RationalFactorization", "EFactorization", "sieve_primes",
    "prime_pi", "is_prime",
    "factor_rational", "pair_form_primes", "pair_e_primes",
    "factor_e", "omega_e", "tau_e",
]
