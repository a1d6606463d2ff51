"""Exact arithmetic written for the benchmark's output checks.

Nothing here imports eulab: the checks must not share code with the
program they judge.  Eisenstein integers are plain tuples (a, b) meaning
a + b*w with w^2 + w + 1 = 0, the same basis the program's text format
"a,b" uses.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Deterministic Miller-Rabin: the first twelve primes as bases decide
# every n below 3.3e24, far above the 64-bit values the benchmark meets.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if flags[i]]


_SMALL_PRIMES = primes_upto(1000)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # the first four bases already decide every n below 3.2e9
    for a in _MR_BASES[:4] if n < 3_215_031_751 else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int) -> int:
    """A proper factor of the odd composite n (Pollard rho, Floyd cycle
    detection with batched gcds)."""
    for c in range(1, 200):
        x = y = 2
        d = 1
        while d == 1:
            q = 1
            for _ in range(64):
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            d = math.gcd(q, n)
        if d != n:
            return d
        # the batch overshot: replay this c one step at a time
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"no factor found for {n}")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_split(m)
            stack += [d, m // d]
    return tuple(sorted(out.items()))


# --------------------------------------------------------------------------
# Eisenstein integers as (a, b) tuples
# --------------------------------------------------------------------------

ONE = (1, 0)
# powers of 1 + w, each a 60-degree rotation
UNITS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
LAMBDA = (2, 1)


def parse(text: str) -> tuple[int, int]:
    a, b = text.split(",")
    return int(a), int(b)


def fmt(x: tuple[int, int]) -> str:
    return f"{x[0]},{x[1]}"


def norm(x) -> int:
    a, b = x
    return a * a - a * b + b * b


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def neg(x):
    return -x[0], -x[1]


def mul(x, y):
    a1, b1 = x
    a2, b2 = y
    return a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2


def power(x, e: int):
    out = ONE
    for _ in range(e):
        out = mul(out, x)
    return out


def quotient(x, d):
    """x / d when d divides x, else None."""
    a, b = x
    c, e = d
    # x * conj(d), with conj(c + e w) = (c - e) - e w
    na = a * (c - e) + b * e
    nb = b * c - a * e
    n = c * c - c * e + e * e
    if na % n or nb % n:
        return None
    return na // n, nb // n


def divides(d, x) -> bool:
    return quotient(x, d) is not None


def valuation(p, x) -> int:
    if x == (0, 0):
        raise ValueError("valuation of zero")
    v = 0
    while True:
        q = quotient(x, p)
        if q is None:
            return v
        x = q
        v += 1


def is_canonical(x) -> bool:
    """Argument in [0, 60) degrees: b >= 0 and a > b on the (1, w) basis."""
    return x[1] >= 0 and x[0] > x[1]


def canonical(x):
    for u in UNITS:
        y = mul(x, u)
        if is_canonical(y):
            return y
    raise ValueError("zero has no canonical associate")


def sector(x) -> int:
    """k such that the argument of x lies in [60k, 60k + 60) degrees."""
    for k in range(6):
        if is_canonical(mul(x, UNITS[(6 - k) % 6])):
            return k
    raise ValueError("zero has no sector")


def ekey(x):
    return norm(x), x[0], x[1]


@lru_cache(maxsize=None)
def primes_above(p: int) -> tuple[tuple[int, int], ...]:
    """Canonical Eisenstein primes above the rational prime p."""
    if p == 3:
        return (LAMBDA,)
    if p % 3 == 2:
        return ((p, 0),)
    # p = a^2 - a b + b^2: solve for a given b by the quadratic formula
    for b in range(1, math.isqrt(4 * p // 3) + 2):
        disc = 4 * p - 3 * b * b
        if disc < 0:
            break
        r = math.isqrt(disc)
        if r * r == disc and (b + r) % 2 == 0:
            pi = canonical(((b + r) // 2, b))
            other = canonical((pi[0] - pi[1], -pi[1]))
            return tuple(sorted({pi, other}, key=ekey))
    raise ArithmeticError(f"no element of norm {p}")


def is_eisenstein_prime(x) -> bool:
    n = norm(x)
    if is_prime(n):
        return True
    r = math.isqrt(n)
    return r * r == n and is_prime(r) and r % 3 == 2


def factor_e(x) -> dict:
    """Canonical prime -> exponent for nonzero x."""
    if x == (0, 0):
        raise ValueError("cannot factor zero")
    out = {}
    rest = x
    for p, _ in factorize(norm(x)):
        for pi in primes_above(p):
            v = valuation(pi, rest)
            if v:
                out[pi] = v
                for _ in range(v):
                    rest = quotient(rest, pi)
    if norm(rest) != 1:
        raise ArithmeticError(f"non-unit cofactor {rest} of {x}")
    return out


class Ideal:
    """Residues modulo the principal ideal (mu), reduced to a canonical box.

    The ideal is the lattice spanned by mu and w*mu in Z^2; a basis with
    one vector on the second axis, (g, c) and (0, N/g), gives every
    class exactly one representative with 0 <= a < g and 0 <= b < N/g.
    """

    def __init__(self, mu) -> None:
        a, b = mu
        n = norm(mu)
        # w*mu = (-b, a - b); combine the first coordinates a and -b
        g, s, t = _xgcd(a, -b)
        self.g = g
        self.h = n // g
        self.c = (s * b + t * (a - b)) % self.h

    def reduce(self, x):
        k, a = divmod(x[0], self.g)
        return a, (x[1] - k * self.c) % self.h


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0
