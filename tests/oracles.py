"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately naive: brute-force enumerations and
from-scratch recomputations that do not reuse the library's own logic
beyond basic ring arithmetic.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations

from eulab.core import UNITS, EInt, ResidueRing, divides, exact_div, gcd


def canonical_by_scan(x: EInt) -> tuple[EInt, EInt]:
    """(y, u) with y = u * x canonical, by scanning the six unit multiples
    of x in rotation order for the one with b >= 0 and a > b."""
    if x.is_zero():
        raise ValueError("zero has no canonical associate")
    for u in UNITS:
        y = x * u
        if y.is_canonical():
            return y, u
    raise AssertionError("unreachable: some associate is canonical")


def strip_by_division(pi: EInt, x: EInt) -> tuple[int, EInt]:
    """(v, x / pi^v) for the largest v with pi^v | x, by dividing x by pi
    while divides(pi, x) holds, with no norm test; nonzero x and non-unit
    nonzero pi, rejected with valuation's messages."""
    if x.is_zero():
        raise ValueError("valuation of zero is undefined")
    if pi.norm() <= 1:
        raise ValueError("valuation needs a non-unit modulus")
    v = 0
    while divides(pi, x):
        x = exact_div(x, pi)
        v += 1
    return v, x


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


def is_reduced_residue(ring: ResidueRing, x: EInt) -> bool:
    """Whether x is invertible mod ring.modulus, i.e. gcd(x, modulus) is
    a unit."""
    if ring.reduce(x).is_zero():
        return ring.modulus.is_unit()
    return gcd(x, ring.modulus).is_unit()


def representatives(ring: ResidueRing) -> list[EInt]:
    """Every representative of ring in enumeration order: i + j*omega over
    the box 0 <= i < d1, 0 <= j < d2, i major."""
    return [EInt(i, j) for i in range(ring.d1) for j in range(ring.d2)]


def reduced_representatives(ring: ResidueRing) -> list[EInt]:
    """The invertible representatives of ring, in enumeration order, by
    the Euclidean gcd of each with the modulus."""
    return [r for r in representatives(ring) if is_reduced_residue(ring, r)]


def three_coloring_greedy(pi: EInt, rho0: EInt):
    """(delta, modulus, assignment) of the greedy 3-coloring mod
    pi^(delta+1), delta = v(1 + rho0), on EInts: each reduced
    representative in enumeration order takes the least group not used by
    -rho0*r or -rho0^(-1)*r.  The inverse is found by scanning the ring."""
    one = EInt(1, 0)
    delta = strip_by_division(pi, one + rho0)[0]
    ring = ResidueRing(pi ** (delta + 1))
    reduce = ring.reduce
    units = reduced_representatives(ring)
    inverse = next(s for s in units if reduce(rho0 * s) == reduce(one))
    neg = reduce(-rho0)
    neg_inv = reduce(-inverse)
    assignment: dict[EInt, int] = {}
    for r in units:
        g1 = assignment.get(reduce(neg * r))
        g2 = assignment.get(reduce(neg_inv * r))
        c = 0
        while c == g1 or c == g2:
            c += 1
        assignment[r] = c
    return delta, ring.modulus, assignment


def control_exponent(pi: EInt, rho: EInt) -> int:
    """c(pi, rho) = gamma + v(1 + rho0) for nonzero rho = pi^gamma * rho0,
    from valuations alone: pi^gamma * (1 + rho0) = pi^gamma + rho, so c is
    v(pi^gamma + rho), or gamma when that sum is zero (rho0 = -1)."""
    gamma = strip_by_division(pi, rho)[0]
    shifted = pi ** gamma + rho
    return gamma if shifted.is_zero() else strip_by_division(pi, shifted)[0]


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


def primes_above_by_gcd(p: int, roots: tuple[int, ...]) -> tuple:
    """The canonical primes above p = 3 or p = 1 (mod 3) paired with the
    roots w of x^2 + x + 1 mod p: the Euclidean gcd(p, w - omega) in E for
    the first root and its conjugate for the second."""
    pi = gcd(EInt(p, 0), EInt(roots[0], -1))
    return tuple(zip((pi, pi.conj().canonical_associate()[0]), roots))


def _power_of_prime(x: EInt) -> tuple[EInt, int] | None:
    """(theta, gamma) when x is exactly a positive power of a canonical
    prime, unit part included, from the factorization of x; otherwise
    None.  For x = -rho this names the prime of refine_t2's Lemma 4
    split."""
    from eulab.factor import factor_e

    if x.is_zero() or x.is_unit():
        return None
    f = factor_e(x)
    if f.unit == EInt(1, 0) and len(f.factors) == 1:
        return f.factors[0]
    return None


def _trial_division_primes(n: int) -> list[int]:
    """The distinct primes of n > 0, increasing, by trial division."""
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
    return out


def leibniz_determinant(rows) -> int:
    """The determinant of a square integer matrix by the Leibniz formula:
    the signed sum over every permutation, each sign counted from the
    inversions of the permutation."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def cyclotomic_at_2(n: int) -> int:
    """Phi_n(2), the n-th cyclotomic polynomial at 2, as the exact Moebius
    product of (2^d - 1)^mu(n/d) over the divisors d of n, with mu by
    trial division."""
    num = den = 1
    for d in range(1, n + 1):
        if n % d:
            continue
        m = n // d
        primes = _trial_division_primes(m)
        if math.prod(primes) != m:
            continue  # mu(m) = 0
        if len(primes) % 2:
            den *= 2 ** d - 1
        else:
            num *= 2 ** d - 1
    q, r = divmod(num, den)
    assert r == 0
    return q


# the value of each pair form of factor.pair_form_primes
PAIR_FORM_VALUES = {
    "plus": lambda a, b: a * a + a * b + b * b,
    "minus": lambda a, b: a * a - a * b + b * b,
    "sum": lambda a, b: a + b,
}


@functools.cache
def pair_primes_naive(a: int, b: int, form: str = "plus") -> tuple[int, ...]:
    """The distinct primes of the pair value of form ("plus",
    a^2 + a*b + b^2; "minus", a^2 - a*b + b^2; "sum", a + b), increasing,
    by trial division; shares no code with eulab."""
    return tuple(_trial_division_primes(PAIR_FORM_VALUES[form](a, b)))


def n_product_omega(values) -> tuple[int | None, tuple, bool]:
    """(omega, primes, flagged) of the product of values, one
    factor_rational call per value: (None, (), True) once a value is zero.
    The reference for verify_erdos_turan's sieved pair sums."""
    from eulab.factor import factor_rational

    primes: set[int] = set()
    for v in values:
        if v == 0:
            return None, (), True
        for p, _ in factor_rational(v).factors:
            primes.add(p)
    return len(primes), tuple(sorted(primes)), False


@functools.cache
def _canonical_of_norm(n: int) -> tuple[EInt, ...]:
    """The canonical elements (0 <= b < a) of norm n, by a scan over a:
    a^2 - a*b + b^2 = n has the roots b = (a +- sqrt(4n - 3a^2)) / 2."""
    out = []
    a = 1
    while 3 * a * a <= 4 * n:
        d = 4 * n - 3 * a * a
        r = math.isqrt(d)
        if r * r == d:
            for twice_b in sorted({a - r, a + r}):
                if twice_b % 2 == 0 and 0 <= twice_b // 2 < a:
                    out.append(EInt(a, twice_b // 2))
        a += 1
    return tuple(out)


@functools.cache
def _e_value_primes(x: EInt) -> frozenset:
    """The canonical primes dividing nonzero x: for each rational prime p
    of its norm, the elements of norm p that divide x, or, when p is
    inert and has none, the elements of norm p^2 that divide x."""
    out = set()
    for p in _trial_division_primes(x.norm()):
        found = [d for d in _canonical_of_norm(p) if divides(d, x)]
        if not found:
            found = [d for d in _canonical_of_norm(p * p) if divides(d, x)]
        assert found, (x, p)
        out.update(found)
    return frozenset(out)


def e_pair_primes_naive(elements, rho: EInt, ordered: bool) -> tuple:
    """The distinct canonical primes of the product of a + rho*b over the
    pairs i != j of elements when ordered, which is the E pair product,
    and over i < j otherwise, which gives the same primes only when
    rho = 1 or -1 (mirrored pairs have associate values); sorted by
    (norm, a, b).  Shares no code with factor_e.  Values must be nonzero."""
    out = set()
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            if j > i or (ordered and j != i):
                out |= _e_value_primes(a + rho * b)
    return tuple(sorted(out, key=lambda x: (x.norm(), x.a, x.b)))


def unpacked_rows(cache) -> list[list[list[int]]]:
    """The pair table of a PairPrimeCache as nested lists: [a - 1][b - a - 1]
    is the list of primes of the pair (a, b), cut from the packed row
    a - 1 at its offsets."""
    return [[list(ps[o[i]:o[i + 1]]) for i in range(len(o) - 1)]
            for ps, o in zip(cache.primes, cache.offsets)]


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


def validate_output(subcommand: str, out: dict) -> None:
    """Check the documented shape of a subcommand's JSON output."""
    def need(keys):
        missing = [k for k in keys if k not in out]
        if missing:
            raise ValueError(f"{subcommand} output missing {missing}")

    if subcommand == "factor":
        need(["factors"])
        variant = ("n", "sign") if "n" in out else ("e", "unit")
        need(variant)
        for entry in out["factors"]:
            if set(entry) != {"p", "e"} or not isinstance(entry["e"], int):
                raise ValueError("factor entries must be {p, e}")
    elif subcommand == "omega-e":
        need(["e", "omega"])
    elif subcommand == "tau":
        need(["e", "tau"])
    elif subcommand == "crho":
        need(["rho", "c_rho", "tau", "threshold", "bound_constant", "primes"])
        for entry in out["primes"]:
            if set(entry) != {"pi", "gamma", "delta", "c"}:
                raise ValueError("crho prime entries must be {pi, gamma, delta, c}")
    elif subcommand == "verify":
        need(["theorem", "rho", "reports", "all_passed"])
        for r in out["reports"]:
            for key in ("theorem", "seed", "size", "set", "omega", "bound",
                        "comparison", "passed", "flagged_zero_factor",
                        "witness_primes"):
                if key not in r:
                    raise ValueError(f"verify report missing {key!r}")
            if r["comparison"] not in (">", ">="):
                raise ValueError("bad comparison")
    elif subcommand == "refine":
        need(["mode", "rho", "initial", "sector", "steps", "snapshots",
              "final", "checks"])
        for s in out["steps"]:
            if s["rule"] not in ("uv", "lemma2", "lemma4"):
                raise ValueError(f"bad rule {s['rule']!r}")
    elif subcommand == "search":
        need(["k", "max", "minimum", "witness_count", "witnesses",
              "nodes_visited", "seconds"])
        if out["witness_count"] != len(out["witnesses"]):
            raise ValueError("witness_count disagrees with witnesses")
    elif subcommand == "polyprod":
        need(["n", "size_a", "size_b", "omega", "independence"])
    else:
        raise ValueError(f"unknown subcommand {subcommand!r}")
