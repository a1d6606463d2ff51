"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately naive: brute-force enumerations and
from-scratch recomputations that do not reuse the library's own logic
beyond basic ring arithmetic.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

from eulab.core import EInt, divides


def enumerate_divisors(x: EInt) -> list[EInt]:
    """Every divisor of x (unit multiples counted separately) by scanning
    the coordinate box that must contain them: N(d) <= N(x) forces
    a^2 + b^2 <= 2 N(x)."""
    n = x.norm()
    bound = math.isqrt(2 * n) + 1
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 and b == 0:
                continue
            d = EInt(a, b)
            nd = d.norm()
            if nd <= n and n % nd == 0 and divides(d, x):
                out.append(d)
    return out


def gcd_by_factoring(x: EInt, y: EInt):
    """gcd from the two factorizations: shared primes at min exponent."""
    from eulab.factor import factor_e

    fx = dict(factor_e(x).factors)
    fy = dict(factor_e(y).factors)
    g = EInt(1, 0)
    for p, e in fx.items():
        if p in fy:
            g = g * p ** min(e, fy[p])
    return g.canonical_associate()[0]


@functools.cache
def pair_primes_naive(a: int, b: int, s: int = 1) -> tuple[int, ...]:
    """The distinct primes of a^2 + s*a*b + b^2 (s = 1 or -1),
    increasing, by trial division; shares no code with eulab."""
    n = a * a + s * a * b + b * b
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def omega_naive(elements) -> int:
    """omega of the pair product of a set, from pair_primes_naive."""
    pairs = combinations(sorted(set(elements)), 2)
    return len(set().union(*(pair_primes_naive(a, b) for a, b in pairs)))


def brute_force_search(k: int, max_element: int, primitive_only: bool):
    """Full enumeration reference for the subset search (small M only);
    omega comes from omega_naive, not from the searcher's pair table."""
    best = None
    witnesses: list[tuple[int, ...]] = []
    for s in combinations(range(1, max_element + 1), k):
        if primitive_only and math.gcd(*s) != 1:
            continue
        om = omega_naive(s)
        if best is None or om < best:
            best = om
            witnesses = [s]
        elif om == best:
            witnesses.append(s)
    return best, sorted(witnesses)
