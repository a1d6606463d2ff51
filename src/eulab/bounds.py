"""Lower bounds on distinct-prime counts of pairwise products, and the
constructive set-refinement machinery behind them.

Two families of statements are covered.  The additive family looks at
products of a+b over distinct pairs from a finite subset of E; the general
family at a + rho*b for a fixed multiplier rho.  Each bound comes with a
refinement procedure that repeatedly shrinks the set through residue
colorings, one prime at a time, until sums (or twisted sums) inherit
divisibility from their summands; verifiers then check the published
inequalities on randomized sets.

Color assignments are defined by a greedy pass over ring representatives in
enumeration order, kept by rank, a residue's enumeration position.  On a
cyclic ring (core.ResidueRing, d1 = 1: split primes, their powers, and
lambda) the product by y multiplies ranks by _scale(y); on the boxes of
inert primes and of lambda^k, k >= 2, pairs are reduced with reduce_pair.
No EInt is built per residue.  The uv (+-) rule has a closed form,
_uv_group: a residue takes group 0 when it enumerates before its negative
(rank j before n - j on a cyclic ring).  The 3-group rule needs the
greedy walk _three_group over _neighbors.  A residue's greedy color depends
only on neighbors that enumerate earlier, so the one walk serves both
uses: splitting a set asks it for the colors of a handful of residues,
replaying their earlier dependency chains on demand, and a whole coloring
asks it for every unit in enumeration order, where it never has to
recurse.  A whole coloring is a byte table, one byte per residue, and
reads EInt keys through a view of it.  The test suite checks both rules,
queried in any order, against EInt-based oracles.

The uv, Lemma 2 (coset) and Lemma 4 (valuation) splits share one bucket
routine, _split (a one-element set, the usual case late in a chain,
skips the bucket pass), and both chains one loop, _chain; refine_t2 takes
its Lemma 4 prime and every control exponent from one c_constants(rho).
_rho_parts alone writes rho = pi^gamma * rho0 at a prime and takes
delta = v(1 + rho0), for c_constants, coset_split and three_coloring.
Those parts, and the unit parts a / pi^v(a) the splits bucket
(_unit_rank), come from core's one pi-power strip, _strip.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from collections.abc import Mapping
from itertools import combinations, permutations
from typing import Iterable, Iterator, NamedTuple, Sequence

from eulab.core import (
    EInt, ONE, ResidueRing, _ekey, _Record, _strip, divides, exact_div, gcd,
    valuation,
)
from eulab.factor import (
    factor_e, is_prime, pair_e_primes, pair_form_primes, prime_pi,
)

MINUS_ONE = EInt(-1, 0)


class ZeroFactorError(ValueError):
    """A pair produced a zero factor, so the product has no prime data."""


def _sorted_set(elements: Iterable[EInt]) -> tuple[EInt, ...]:
    elements = tuple(elements)  # most splits in a chain see one element
    if len(elements) == 1:
        return elements
    return tuple(sorted(set(elements), key=_ekey))


def _distinct_set(elements: Iterable[EInt]) -> tuple[EInt, ...]:
    """_sorted_set for the E-set bounds and chains, which need a pair."""
    elements = _sorted_set(elements)
    if len(elements) < 2:
        raise ValueError("need at least two distinct elements")
    return elements


# --------------------------------------------------------------------------
# colorings
# --------------------------------------------------------------------------

class Coloring:
    """A group assignment for the reduced residues of a prime-power ring.

    table holds one byte per residue of the ring's box: the group of the
    reduced residue (a, b) at its rank a*d2 + b, and 0xFF for a non-unit.
    assignment is a read-only Mapping[EInt, int] view over it, which
    iterates in rank (enumeration) order.
    """

    __slots__ = ("ring", "prime", "groups", "assignment", "delta")

    def __init__(self, ring: ResidueRing, prime: EInt, groups: int,
                 table: bytearray, delta: int | None = None) -> None:
        self.ring = ring
        self.prime = prime
        self.groups = groups
        self.assignment = _Assignment(ring, table)
        self.delta = delta

    def group_of(self, x: EInt) -> int:
        return self.assignment[self.ring.reduce(x)]


class _Assignment(Mapping):
    """The EInt-keyed view of a Coloring's table.  A key that is not a
    reduced unit of the ring raises KeyError."""

    __slots__ = ("_d1", "_d2", "_table")

    def __init__(self, ring: ResidueRing, table: bytearray) -> None:
        self._d1 = ring.d1
        self._d2 = ring.d2
        self._table = bytes(table)

    def __getitem__(self, x: EInt) -> int:
        if x.__class__ is EInt and 0 <= x.a < self._d1 and 0 <= x.b < self._d2:
            c = self._table[x.a * self._d2 + x.b]
            if c != 0xFF:
                return c
        raise KeyError(x)

    def __len__(self) -> int:
        return len(self._table) - self._table.count(0xFF)

    def __iter__(self) -> Iterator[EInt]:
        d2 = self._d2
        return (EInt(r // d2, r % d2)
                for r, c in enumerate(self._table) if c != 0xFF)


def _is_prime_e(pi: EInt) -> bool:
    """Whether pi is a prime of E: its norm is a rational prime (3 or
    1 mod 3), or pi is associated to an inert rational prime q, whose
    norm is q^2."""
    n = pi.norm()
    q = math.isqrt(n)
    return is_prime(n) or (q * q == n and q % 3 == 2 and is_prime(q))


def _unit_ranks(ring: ResidueRing, pi: EInt) -> Iterable[int]:
    """The ranks of the units of ring = E/(pi^k) for a prime pi, in order:
    on a cyclic ring those prime to N(pi), on a box the pairs with some
    coordinate of (i + j w) * conj(pi) not a multiple of N(pi) (core's
    conj-product test), with no EInt or Euclidean gcd per residue."""
    pa, pb = pi.a, pi.b
    n = pa * pa - pa * pb + pb * pb
    if ring.d1 == 1:
        return (j for j in range(ring.size) if j % n)
    d2 = ring.d2
    return (i * d2 + j for i in range(ring.d1) for j in range(d2)
            if (i * pa - i * pb + j * pb) % n or (j * pa - i * pb) % n)


def uv_coloring(pi: EInt, k: int = 1) -> Coloring:
    """Two groups on the reduced residues mod pi^k with r and -r separated
    by _uv_group.

    Needs a prime pi of odd norm so that r = -r cannot happen.
    """
    if pi.norm() % 2 == 0 or not _is_prime_e(pi):
        raise ValueError("uv coloring needs a prime of odd norm")
    if k < 1:
        raise ValueError("exponent must be positive")
    ring = ResidueRing(pi ** k)
    table = bytearray(b"\xff") * ring.size
    for j in _unit_ranks(ring, pi):
        table[j] = _uv_group(ring, j)
    return Coloring(ring, pi, 2, table)


def _uv_group(ring: ResidueRing, j: int) -> int:
    """The uv group of the unit of rank j: 0 when it enumerates before its
    negative, else 1.  This is the greedy pass of the +- rule in closed
    form: the one neighbor of r is -r, so the first of the two takes
    group 0 and the other group 1.  -r has rank n - j on a cyclic ring."""
    if ring.d1 == 1:
        return 0 if j < ring.size - j else 1
    d2 = ring.d2
    a, b = ring.reduce_pair(-(j // d2), -(j % d2))
    return 0 if j < a * d2 + b else 1


def _rho_parts(pi: EInt, rho: EInt) -> tuple[int, EInt, int | None]:
    """(gamma, rho0, delta) for nonzero rho: gamma = v(rho), rho0 =
    rho / pi^gamma, and delta = v(1 + rho0), or None when rho0 = -1.
    Both come from core's strip, whose norm test settles v = 0 without
    dividing and which rejects a unit or zero pi."""
    gamma, rho0 = _strip(pi, rho)
    if rho0 == MINUS_ONE:
        return gamma, rho0, None
    return gamma, rho0, _strip(pi, ONE + rho0)[0]


def _neighbors(ring: ResidueRing, rho0: EInt) -> tuple:
    """-rho0 and -rho0^(-1) for a unit rho0 of ring, the multipliers of
    the 3-group rule, as _three_group applies them to ranks: on a cyclic
    ring t = _scale(-rho0) and t^(-1) mod n, on a box reduced pairs."""
    n = ring.size
    if ring.d1 == 1:
        t = -ring._scale(rho0) % n
        return t, pow(t, -1, n)
    inv = ring.inverse(rho0)
    return (ring.reduce_pair(-rho0.a, -rho0.b),
            ring.reduce_pair(-inv.a, -inv.b))


def three_coloring(pi: EInt, rho0: EInt) -> Coloring:
    """Three groups mod pi^(delta+1), delta = v(1 + rho0), such that r and
    -rho0*r never share a group.

    Greedy in enumeration order: each residue takes the least group not
    already used by -rho0*r or -rho0^(-1)*r.  Both neighbors are excluded
    so the separating edge is respected from whichever side is colored
    second; a residue never collides with itself because that would force
    pi^(delta+1) | 1 + rho0.

    The pass is _three_group given every unit rank in order: each earlier
    neighbor already has its group then, so the walk never recurses.  Its
    memo is the Coloring's byte table, filled in place; no EInt is built
    per residue.
    """
    if not _is_prime_e(pi):
        raise ValueError("coloring needs a non-unit prime")
    # gamma goes first, as delta is None for every -pi^gamma; zero, whose
    # valuation is infinite (None here), is not coprime either
    gamma, _, delta = (_rho_parts(pi, rho0) if not rho0.is_zero()
                       else (None, rho0, 0))
    if gamma != 0:
        raise ValueError("rho0 must be coprime to the prime")
    if delta is None:
        raise ValueError("rho0 = -1 has no finite delta")
    ring = ResidueRing(pi ** (delta + 1) if delta else pi)
    neg, neg_inv = _neighbors(ring, rho0)
    table = bytearray(b"\xff") * ring.size
    _three_group(ring, neg, neg_inv, _unit_ranks(ring, pi), table)
    return Coloring(ring, pi, 3, table, delta=delta)


def _three_group(ring: ResidueRing, neg, neg_inv, ranks: Iterable[int],
                 memo: bytearray | defaultdict[int, int]) -> int:
    """Colors each unit rank of ranks in turn under three_coloring's rule,
    for neg, neg_inv = _neighbors(ring, rho0), and returns the greedy
    group of the last.  memo maps a rank to its group and answers 0xFF
    for a rank not colored yet: a coloring's byte table, or a defaultdict
    where the ring is too large for one.  A group depends only on the
    groups of the neighbors (the products with neg and neg_inv) that rank
    below it.  The walk keeps a stack of ranks: the top finds its two
    neighbors, on a cyclic ring as rank products and on a box by reducing
    pair products with ring.reduce_pair, pushes the earlier ones the memo
    lacks, and once none is missing takes the least group they leave
    free.  A rank pushed twice is colored again to the same group."""
    cyclic, n, d2, reduce_pair = (ring.d1 == 1, ring.size, ring.d2,
                                  ring.reduce_pair)
    for j in ranks:
        c = memo[j]
        stack = [j] if c == 0xFF else []
        while stack:
            j = stack[-1]
            if cyclic:
                r1, r2 = j * neg % n, j * neg_inv % n
            else:
                (a, b), (na, nb), (ia, ib) = divmod(j, d2), neg, neg_inv
                # (a + b w)(ma + mb w) with w^2 = -1 - w
                a1, b1 = reduce_pair(a * na - b * nb,
                                     a * nb + na * b - b * nb)
                a2, b2 = reduce_pair(a * ia - b * ib,
                                     a * ib + ia * b - b * ib)
                r1, r2 = a1 * d2 + b1, a2 * d2 + b2
            # -1 stands for a later neighbor, which leaves every group free
            g1 = memo[r1] if r1 < j else -1
            g2 = memo[r2] if r2 < j else -1
            if g1 == 0xFF or g2 == 0xFF:
                if g1 == 0xFF:
                    stack.append(r1)
                if g2 == 0xFF:
                    stack.append(r2)
                continue
            c = 0
            while c == g1 or c == g2:
                c += 1
            memo[j] = c
            stack.pop()
    return c


# --------------------------------------------------------------------------
# the constants attached to a multiplier rho
# --------------------------------------------------------------------------

class PrimeConstant(NamedTuple):
    pi: EInt
    gamma: int           # v_pi(rho)
    delta: int | None    # v_pi(1 + rho/pi^gamma); None when rho = -pi^gamma
    c: int               # gamma + delta, or gamma in the special case


class RhoConstants(NamedTuple):
    rho: EInt
    primes: tuple[PrimeConstant, ...]
    c_rho: EInt          # product of pi^c over the listed primes
    tau: int             # divisor count of c_rho, unit multiples distinct
    threshold: int       # tau^2 + 2
    bound_constant: float


def c_constants(rho: EInt) -> RhoConstants:
    """Per-prime control exponents for the multiplier rho.

    For every canonical prime dividing rho*(1+rho): gamma is the valuation
    in rho, and after stripping it either the cofactor is exactly -1 (then
    the prime controls with plain gamma) or delta more powers divide
    1 + cofactor.  The product of pi^c bounds every twisted quotient
    phi(a, b) a refined set can produce.
    """
    if rho.is_zero() or rho == MINUS_ONE:
        raise ValueError("rho must avoid 0 and -1")
    product = rho * (ONE + rho)
    constants: list[PrimeConstant] = []
    c_rho = ONE
    tau = 6
    if not product.is_unit():
        for pi, _ in factor_e(product).factors:
            gamma, _, delta = _rho_parts(pi, rho)
            c = gamma + (delta or 0)
            constants.append(PrimeConstant(pi, gamma, delta, c))
            c_rho = c_rho * pi ** c
            tau *= c + 1
    threshold = tau * tau + 2
    return RhoConstants(rho, tuple(constants), c_rho, tau, threshold,
                        math.log(threshold) / math.log(3))


# --------------------------------------------------------------------------
# set splits
# --------------------------------------------------------------------------

class SplitRecord(NamedTuple):
    prime: EInt
    rule: str                  # "uv" | "lemma2" | "lemma4"
    sizes: tuple[int, ...]     # bucket sizes, index = group
    kept: int                  # index of the retained bucket


def _split(elements: Sequence[EInt], prime: EInt, rule: str, groups: int,
           group) -> tuple[tuple[EInt, ...], SplitRecord]:
    """Bucket elements into groups buckets by group(a), zero into bucket
    0, and keep the fullest bucket, the first of equals.  A one-element
    set is its own fullest bucket, with one-hot sizes."""
    if len(elements) == 1:
        kept = 0 if elements[0].is_zero() else group(elements[0])
        sizes = (0,) * kept + (1,) + (0,) * (groups - 1 - kept)
        return tuple(elements), SplitRecord(prime, rule, sizes, kept)
    buckets: list[list[EInt]] = [[] for _ in range(groups)]
    for a in elements:
        buckets[0 if a.is_zero() else group(a)].append(a)
    sizes = tuple(len(b) for b in buckets)
    kept = sizes.index(max(sizes))
    return tuple(buckets[kept]), SplitRecord(prime, rule, sizes, kept)


def _unit_rank(ring: ResidueRing, pi: EInt, a: EInt) -> int:
    """The rank of the unit part a / pi^v(a) of a nonzero a.  On a
    cyclic ring a is its own unit part when its rank is prime to n; any
    other a is stripped by core's _strip."""
    if ring.d1 == 1:
        j = (a.b - a.a * ring.c) % ring.size
        if math.gcd(j, ring.size) == 1:
            return j
    a = _strip(pi, a)[1]
    i, j = ring.reduce_pair(a.a, a.b)
    return i * ring.d2 + j


def coset_split(elements: Iterable[EInt], pi: EInt, rho: EInt,
                ) -> tuple[tuple[EInt, ...], SplitRecord]:
    """Retain at least a third of the set so that pi-divisibility of
    a + rho*b transfers to a and b, up to the control exponent c(pi, rho).

    Each element is bucketed by the greedy 3-group of its unit part
    a0 = a / pi^v(a) mod pi^(delta+1).  Zero, which has no unit part, can
    go anywhere; group 0 by convention.  On a cyclic ring mod pi, rho and
    1 + rho units there say gamma = delta = 0 with no strip; a zero or
    unit pi, and rho = 0, reach _rho_parts, which rejects them.
    """
    elements = _sorted_set(elements)
    ring, rho0 = (None if pi.is_zero() else ResidueRing(pi)), rho
    if ring is None or ring.d1 > 1 or ring._scale(rho) in (0, ring.size - 1):
        _, rho0, delta = _rho_parts(pi, rho)
        if delta is None:
            raise ValueError(
                "-rho is a power of the prime; use valuation_split")
        if delta:
            ring = ResidueRing(pi ** (delta + 1))
    neg, neg_inv = _neighbors(ring, rho0)
    memo = defaultdict((0xFF).__index__)  # 0xFF: not colored yet
    return _split(elements, pi, "lemma2", 3, lambda a: _three_group(
        ring, neg, neg_inv, (_unit_rank(ring, pi, a),), memo))


def valuation_split(elements: Iterable[EInt], theta: EInt, gamma: int,
                    ) -> tuple[tuple[EInt, ...], SplitRecord]:
    """Retain at least half of the set so that no two members have
    theta-valuations exactly gamma apart; used when rho = -theta^gamma.

    Bucketing by the parity of floor(v / gamma) forbids a same-bucket gap
    of exactly gamma: adding gamma to v increments floor(v / gamma).  Zero
    has no valuation and may sit in either bucket.
    """
    if gamma < 1:
        raise ValueError("gamma must be a positive integer")
    return _split(_sorted_set(elements), theta, "lemma4", 2,
                  lambda a: (valuation(theta, a) // gamma) & 1)


def _uv_split(elements: Sequence[EInt], pi: EInt,
              ) -> tuple[tuple[EInt, ...], SplitRecord]:
    """Halve a zero-free set so that same-bucket unit parts never sum to a
    multiple of pi; all elements keep v(a+b) = min(v(a), v(b)).  Each is
    bucketed by the uv group (_uv_group) of its unit part mod pi."""
    ring = ResidueRing(pi)
    return _split(elements, pi, "uv", 2,
                  lambda a: _uv_group(ring, _unit_rank(ring, pi, a)))


# --------------------------------------------------------------------------
# refinement traces
# --------------------------------------------------------------------------

class RefinementTrace(_Record):
    """A refinement chain and its final checks; equality and hash ignore
    the checks."""

    __slots__ = ("mode", "rho", "initial", "sector", "snapshots", "steps",
                 "checks")
    mode: str                                  # "t1" | "t2"
    rho: EInt | None                           # None in additive mode
    initial: tuple[EInt, ...]
    sector: int | None
    snapshots: tuple[tuple[EInt, ...], ...]    # A0, A1, ..., As
    steps: tuple[SplitRecord, ...]
    checks: dict

    def __init__(self, mode: str, rho: EInt | None,
                 initial: tuple[EInt, ...], sector: int | None,
                 snapshots: tuple[tuple[EInt, ...], ...],
                 steps: tuple[SplitRecord, ...], checks: dict) -> None:
        _Record.__init__(self, mode, rho, initial, sector, snapshots, steps,
                         checks)

    def _key(self) -> tuple:
        return self._values()[:-1]

    @property
    def final(self) -> tuple[EInt, ...]:
        return self.snapshots[-1]


def phi(a: EInt, b: EInt, rho: EInt) -> EInt:
    """The twisted quotient a/g + rho*(b/g), g = gcd(a, b)."""
    g = gcd(a, b)
    return exact_div(a, g) + rho * exact_div(b, g)


def _chain(current: tuple[EInt, ...], primes: Sequence[EInt], split):
    """(snapshots, steps): A0 = current, then split once per prime."""
    snapshots = [current]
    steps = []
    for pi in primes:
        current, record = split(current, pi)
        snapshots.append(current)
        steps.append(record)
    return tuple(snapshots), tuple(steps)


def refine_t1(elements: Iterable[EInt]) -> RefinementTrace:
    """Shrink a set until additive pairs inherit valuations exactly.

    Pipeline: drop zero, keep the fullest of the six sectors (at least
    (|A|-1)/6 elements, and no two remaining elements can cancel), then
    halve once per odd-norm prime of the full pair-sum product.  On the
    final set, v(a+b) = min(v(a), v(b)) holds for every listed prime:
    equal valuations would need unit parts summing into the prime, which
    the uv buckets forbid, and unequal ones carry for free.

    The primes of the pair-sum product are sieved over the whole set
    (pair_e_primes) rather than factored pair by pair.  The first zero
    pair sum raises ZeroFactorError naming that pair.
    """
    initial = _distinct_set(elements)
    primes, zero = pair_e_primes(initial, ONE)
    if zero is not None:
        raise ZeroFactorError(
            f"zero factor from pair ({zero[0]}) + ({zero[1]})")
    primes = [pi for pi in primes if pi.norm() % 2]
    sectors: dict[int, list[EInt]] = {}
    for a in initial:
        if a.is_zero():
            continue
        sectors.setdefault(a.sector_index(), []).append(a)
    sector = min(sectors, key=lambda k: (-len(sectors[k]), k))
    snapshots, steps = _chain(tuple(sectors[sector]), primes, _uv_split)
    ok = True
    pairs = 0
    final = snapshots[-1]
    for pi in primes:
        for a, b in combinations(final, 2):
            pairs += 1
            want = min(valuation(pi, a), valuation(pi, b))
            if valuation(pi, a + b) != want:
                ok = False
    checks = {"valuation_transfer_ok": ok, "pairs_checked": pairs,
              "primes_checked": len(primes)}
    return RefinementTrace("t1", None, initial, sector, snapshots, steps,
                           checks)


def refine_t2(elements: Iterable[EInt], rho: EInt) -> RefinementTrace:
    """Shrink a set until pi | a + rho*b transfers to a and b up to the
    control exponent c(pi, rho), for every prime of the pair product.

    Ordered pairs matter since a + rho*b is asymmetric.  Primes whose
    power is exactly -rho use the valuation-parity split; all others use
    the residue-coset split.  The final set also satisfies the divisor
    collapse: every phi(a, b) divides c(rho), so at most tau(c(rho))
    distinct values occur.

    The primes of the pair product are sieved over the whole set
    (pair_e_primes); the first zero twisted sum raises ZeroFactorError
    naming that pair.  The transfer check on the final set still factors
    each of its twisted sums with factor_e.
    """
    if rho.is_zero() or rho == MINUS_ONE:
        raise ValueError("rho must avoid 0 and -1")
    initial = _distinct_set(elements)
    primes, zero = pair_e_primes(initial, rho)
    if zero is not None:
        raise ZeroFactorError(
            f"zero factor from pair ({zero[0]}) + rho*({zero[1]})")
    constants = c_constants(rho)
    listed = {pc.pi: pc for pc in constants.primes}
    # delta is None only for the prime theta with rho = -theta^gamma; most
    # rho have none, and then no prime of the chain is looked up
    lemma4 = {pc.pi: pc.gamma for pc in constants.primes if pc.delta is None}

    def split(current, pi):
        if lemma4 and pi in lemma4:
            return valuation_split(current, pi, lemma4[pi])
        return coset_split(current, pi, rho)

    snapshots, steps = _chain(initial, primes, split)
    final = snapshots[-1]
    transfer_ok = True
    pairs = 0
    for a, b in permutations(final, 2):
        pairs += 1
        for pi, u in factor_e(a + rho * b).factors:
            drop = u - (listed[pi].c if pi in listed else 0)
            if drop <= 0:
                continue
            power = pi ** drop
            if not (a.is_zero() or divides(power, a)) or \
                    not (b.is_zero() or divides(power, b)):
                transfer_ok = False
    phis: set[EInt] = set()
    all_divide = True
    for a in final:
        for b in final:
            if a.is_zero() and b.is_zero():
                continue
            value = phi(a, b, rho)
            phis.add(value)
            if value.is_zero() or not divides(value, constants.c_rho):
                all_divide = False
    checks = {
        "divisibility_transfer_ok": transfer_ok,
        "pairs_checked": pairs,
        "primes_checked": len(primes),
        "phi_value_count": len(phis),
        "tau_bound": constants.tau,
        "phi_count_within_bound": len(phis) <= constants.tau,
        "phi_all_divide_c_rho": all_divide,
    }
    return RefinementTrace("t2", rho, initial, None, snapshots, steps,
                           checks)


# --------------------------------------------------------------------------
# randomized bound verification
# --------------------------------------------------------------------------

class BoundReport(NamedTuple):
    theorem: str
    rho: EInt | None
    seed: object
    elements: tuple
    omega: int | None          # None means a zero factor made it infinite
    bound: float
    comparison: str            # ">" or ">="
    passed: bool
    flagged_zero_factor: bool
    witness_primes: tuple

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "rho": None if self.rho is None else str(self.rho),
            "seed": self.seed,
            "size": len(self.elements),
            "set": [str(x) if isinstance(x, EInt) else x for x in self.elements],
            "omega": "infinite" if self.omega is None else self.omega,
            "bound": self.bound,
            "comparison": self.comparison,
            "passed": self.passed,
            "flagged_zero_factor": self.flagged_zero_factor,
            "witness_primes": [str(p) if isinstance(p, EInt) else p
                               for p in self.witness_primes],
        }


def _above_log(omega: int | None, scale: int, base: int, size: int) -> bool:
    """Whether omega > log_base(size / scale), decided on integers as
    scale * base^omega > size; an infinite omega (None) passes.  The
    float bound of a report is only shown: at an exact threshold such as
    size = 38 * 9 it evaluates a hair below the integer it equals."""
    return omega is None or scale * base ** omega > size


def _e_pair_omega(elements: Sequence[EInt], rho: EInt,
                  ) -> tuple[int | None, tuple, bool]:
    primes, zero = pair_e_primes(elements, rho)
    if zero is not None:
        return None, (), True
    return len(primes), primes, False


def verify_t1(elements: Iterable[EInt], seed: object = None) -> BoundReport:
    """omega_E of the pair-sum product against (log(|A|-1) - log 18)/log 2.

    The pair sums are sieved over the whole set (pair_e_primes) rather
    than factored one by one; a cofactor the sieve primes cannot settle
    is split into rational primes.  A zero pair sum is flagged."""
    elements = _distinct_set(elements)
    omega, primes, flagged = _e_pair_omega(elements, ONE)
    bound = (math.log(len(elements) - 1) - math.log(18)) / math.log(2)
    return BoundReport("t1", None, seed, elements, omega, bound, ">",
                       _above_log(omega, 18, 2, len(elements) - 1),
                       flagged, primes)


def verify_t2(elements: Iterable[EInt], rho: EInt, seed: object = None,
              general: bool = False) -> BoundReport:
    """omega_E of the a + rho*b product against log|A|/log 3 minus the
    rho-specific constant.  rho = 1 falls back to the additive bound
    unless general=True forces this machinery.  The pair values over
    a != b are sieved as in verify_t1."""
    if rho.is_zero():
        raise ValueError("rho = 0 is rejected")
    if rho == MINUS_ONE:
        raise ValueError("rho = -1 is a counting bound; use verify_rho_minus1")
    if rho == ONE and not general:
        return verify_t1(elements, seed=seed)
    elements = _distinct_set(elements)
    constants = c_constants(rho)
    omega, primes, flagged = _e_pair_omega(elements, rho)
    bound = (math.log(len(elements)) - math.log(constants.threshold)) / math.log(3)
    return BoundReport("t2", rho, seed, elements, omega, bound, ">",
                       _above_log(omega, constants.threshold, 3,
                                  len(elements)),
                       flagged, primes)


def _verify_cor(theorem: str, form: str, scale: int, values: Iterable[int],
                seed: object) -> BoundReport:
    """omega of the product of a pair form over distinct positive pairs
    against (log|A| - log scale)/(2 log 3).

    The pair values are sieved along the root progressions of
    x^2 + x + 1 rather than factored one by one (pair_form_primes); a
    cofactor the sieve primes cannot settle is split into rational
    primes.  No pair value is zero, so nothing is flagged."""
    elements = _positive_set(values)
    primes = pair_form_primes(elements, form)
    bound = (math.log(len(elements)) - math.log(scale)) / (2 * math.log(3))
    return BoundReport(theorem, None, seed, elements, len(primes), bound,
                       ">", _above_log(len(primes), scale, 9, len(elements)),
                       False, primes)


def verify_cor1(values: Iterable[int], seed: object = None) -> BoundReport:
    """Corollary 1: a^2 - a*b + b^2 with the constant 38 (_verify_cor)."""
    return _verify_cor("cor1", "minus", 38, values, seed)


def verify_cor2(values: Iterable[int], seed: object = None) -> BoundReport:
    """Corollary 2: a^2 + a*b + b^2 with the constant 146 (_verify_cor)."""
    return _verify_cor("cor2", "plus", 146, values, seed)


def verify_rho_minus1(elements: Iterable[EInt], seed: object = None) -> BoundReport:
    """omega_E of the difference product is at least the number of rational
    primes p with p^2 < |A|: each such prime pins two set members to a
    common residue class by pigeonhole.  The differences are sieved as in
    verify_t1, with rho = -1."""
    elements = _distinct_set(elements)
    omega, primes, flagged = _e_pair_omega(elements, MINUS_ONE)
    count = prime_pi(math.isqrt(len(elements) - 1))
    return BoundReport("rho_minus1", MINUS_ONE, seed, elements, omega,
                       float(count), ">=", omega is None or omega >= count,
                       flagged, primes)


def verify_erdos_turan(values: Iterable[int], seed: object = None) -> BoundReport:
    """omega of the pairwise-sum product of positive integers is at least
    k+1 once |A| reaches 3 * 2^(k-1).

    The pair sums are sieved along a = -b (mod p) rather than factored one
    by one (pair_form_primes).  No sum of positive integers is zero, so
    nothing is flagged."""
    elements = _positive_set(values)
    k = 0
    while 3 * 2 ** k <= len(elements):
        k += 1
    # now k = largest exponent with 3*2^(k-1) <= |A| (0 when |A| = 2)
    primes = pair_form_primes(elements, "sum")
    return BoundReport("erdos_turan", None, seed, elements, len(primes),
                       float(k + 1), ">=", len(primes) >= k + 1, False,
                       primes)


def _positive_set(values: Iterable[int]) -> tuple[int, ...]:
    values = tuple(values)
    if any(type(v) is not int for v in values):
        raise ValueError("values must be positive integers")
    elements = tuple(sorted(set(values)))
    if len(elements) < 2:
        raise ValueError("need at least two distinct values")
    if elements[0] < 1:
        raise ValueError("values must be positive integers")
    return elements


# --------------------------------------------------------------------------
# randomized trial plumbing shared by the CLI and the acceptance suite
# --------------------------------------------------------------------------

def random_eint_set(rng: random.Random, size: int, coord_range: int,
                    ) -> tuple[EInt, ...]:
    if coord_range < 0 or size > (2 * coord_range + 1) ** 2:
        raise ValueError("range too small for the requested set size")
    out: set[EInt] = set()
    while len(out) < size:
        out.add(EInt(rng.randint(-coord_range, coord_range),
                     rng.randint(-coord_range, coord_range)))
    return _sorted_set(out)


def random_int_set(rng: random.Random, size: int, max_value: int,
                   ) -> tuple[int, ...]:
    if max_value < size:
        raise ValueError("range too small for the requested set size")
    return tuple(sorted(rng.sample(range(1, max_value + 1), size)))


# theorem -> (element kind, check).  A check is called as
# check(elements, seed, rho, general); only t2 reads rho and general.  The
# lambdas look each verify_* up when called, so rebinding one is honoured.
VERIFIERS = {
    "t1": ("eint", lambda xs, seed, rho, general: verify_t1(xs, seed)),
    "t2": ("eint", lambda xs, seed, rho, general:
           verify_t2(xs, rho, seed, general)),
    "cor1": ("int", lambda xs, seed, rho, general: verify_cor1(xs, seed)),
    "cor2": ("int", lambda xs, seed, rho, general: verify_cor2(xs, seed)),
    "rho_minus1": ("eint", lambda xs, seed, rho, general:
                   verify_rho_minus1(xs, seed)),
    "erdos_turan": ("int", lambda xs, seed, rho, general:
                    verify_erdos_turan(xs, seed)),
}
THEOREMS = tuple(VERIFIERS)


def run_trials(theorem: str, trials: int, size: int, coord_range: int,
               seed: int, rho: EInt | None = None, general: bool = False,
               ) -> list[BoundReport]:
    if theorem not in VERIFIERS:
        raise ValueError(f"unknown bound {theorem!r}")
    if theorem == "t2":
        if rho is None:
            raise ValueError("t2 needs a rho")
    elif rho is not None or general:
        raise ValueError(f"{theorem} takes neither rho nor general")
    if trials < 1:
        raise ValueError("trials must be positive")
    if size < 2:
        raise ValueError("size must be at least 2")
    kind, check = VERIFIERS[theorem]
    draw = random_eint_set if kind == "eint" else random_int_set
    reports = []
    for t in range(trials):
        trial_seed = f"{seed}:{t}"
        elements = draw(random.Random(trial_seed), size, coord_range)
        reports.append(check(elements, trial_seed, rho, general))
    return reports


__all__ = [
    "Coloring", "uv_coloring", "three_coloring", "PrimeConstant",
    "RhoConstants", "c_constants", "SplitRecord",
    "coset_split", "valuation_split", "RefinementTrace", "refine_t1",
    "refine_t2", "phi", "BoundReport", "verify_t1", "verify_t2",
    "verify_cor1", "verify_cor2", "verify_rho_minus1", "verify_erdos_turan",
    "random_eint_set", "random_int_set", "run_trials", "THEOREMS",
    "VERIFIERS", "ZeroFactorError",
]
