"""Exhaustive minimization of omega over pair products of integer sets.

For a k-element set S of integers from {1..M} let omega(S) count the
distinct rational primes dividing the product of a^2 + a*b + b^2 over all
pairs from S.  The searcher finds min omega(S) and can enumerate every
witness attaining it.

The bound is the plain monotonicity of omega: growing a set never removes
primes.  The search walks the k-sets once, in lexicographic order, with
an incumbent best that only falls: a partial set whose union of pair
primes already exceeds best is cut, and each set found below best lowers
it.  A node carries its candidate next elements together with the union
each would give; a child only filters its parent's list against the
current best, and a node with fewer candidates than elements still
needed is cut (candidate-set branch and bound, Carraghan & Pardalos
1990).

The pair table is line-sieved rather than factored pair by pair: in row
a, a prime p divides a^2 + a*b + b^2 along the progressions b = a*r
(mod p), r a root of x^2 + x + 1 mod p, or b = 0 (mod p) when p | a, as
the quadratic sieve walks root progressions (Pomerance 1982).  The
table keeps each pair's primes as the sieve leaves them, increasing, but
packs every row (by first element) into two flat typed arrays, the
concatenated primes and the offsets where each pair starts, so it holds
no Python object per pair.  For a search the pairs' primes become int
bitmasks, unioned with | and counted with bit_count() as in bit-parallel
clique search (San Segundo et al. 2011): primes shared by two or more
pairs in range take one bit each, most frequent first, and a prime of a
single pair is kept as a per-pair count, since it joins a union exactly
when its pair is chosen.  Workers are forked processes that split the
first elements, each with its own incumbent, and share nothing but the
read-only row table, so node counts do not depend on timing.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from eulab.factor import _roots_x2_x_1, sieve_primes

MAX_TABLE_ELEMENT = 2000
# An unsigned int, 32 bits wide on every platform CPython supports (the
# tests check it), holds every pair value below
# 3 * MAX_TABLE_ELEMENT^2 = 12,000,000 and so every prime and every row
# offset of the pair table.
PRIME_TYPECODE = "I"


class PairPrimeCache:
    """Prime sets of a^2 + a*b + b^2 for all 1 <= a < b <= max_element.

    Row a - 1 holds the pairs (a, b) for b = a + 1..max_element in order,
    packed into two flat arrays of PRIME_TYPECODE: primes[a - 1] is the
    concatenation of the pairs' increasing prime lists, and the primes of
    the pair (a, b) are primes[a - 1][o[i]:o[i + 1]] for
    o = offsets[a - 1] and i = b - a - 1.  A smaller max_element reads
    offset prefixes of the same rows.

    The table is line-sieved row by row.  In row a a prime p divides
    a^2 + a*b + b^2 exactly when b = 0 (mod p) if p | a, and otherwise when
    b = a*r (mod p) for a root r of x^2 + x + 1 mod p; such roots exist
    only for p = 3 and p = 1 (mod 3).  The sieve primes run to
    isqrt(3 * max_element^2), so the cofactor left after dividing them out
    of a pair value, which is below 3 * max_element^2, is 1 or a prime.
    """

    def __init__(self, max_element: int) -> None:
        if not 2 <= max_element <= MAX_TABLE_ELEMENT:
            raise ValueError(
                f"max_element must be in 2..{MAX_TABLE_ELEMENT}")
        self.max_element = max_element
        m = max_element
        primes = sieve_primes()
        roots = [(p, _roots_x2_x_1(p))
                 for p in primes[:bisect_right(primes, math.isqrt(3 * m * m))]]
        self.primes: list[array] = []
        self.offsets: list[array] = []
        for a in range(1, m):
            # Primes are appended in increasing order, and a prime
            # cofactor exceeds every sieve prime, so each list is sorted.
            # The per-pair lists live only until their row is packed.
            n = m - a
            vals = [a * a + a * b + b * b for b in range(a + 1, m + 1)]
            row: list[list[int]] = [[] for _ in range(n)]
            for p, rs in roots:
                starts = (0,) if a % p == 0 else [a * r for r in rs]
                for c in starts:
                    for i in range((c - a - 1) % p, n, p):
                        v = vals[i] // p
                        while v % p == 0:
                            v //= p
                        vals[i] = v
                        row[i].append(p)
            for v, ps in zip(vals, row):
                if v > 1:
                    ps.append(v)
            self.offsets.append(array(PRIME_TYPECODE, itertools.accumulate(
                map(len, row), initial=0)))
            self.primes.append(array(PRIME_TYPECODE,
                                     itertools.chain.from_iterable(row)))


@dataclass(frozen=True)
class SearchResult:
    k: int
    max_element: int
    primitive_only: bool
    all_witnesses: bool
    minimum: int
    witness_count: int
    witnesses: tuple[tuple[int, ...], ...]
    nodes_visited: int
    seconds: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "max": self.max_element,
            "minimum": self.minimum,
            "witness_count": self.witness_count,
            "witnesses": [list(w) for w in self.witnesses],
            "nodes_visited": self.nodes_visited,
            "seconds": self.seconds,
        }


def _row_table(cache: PairPrimeCache, max_element: int,
               ) -> tuple[list[list[int]], list[list[int]]]:
    """(pm, sc) for the pairs a < b <= max_element: pm[a][b] is an int
    mask of the pair's primes that divide two or more pair values in
    that range, sc[a][b] the number of its primes that divide no other.

    Masks number primes locally, most frequent first (ties by the
    smaller prime), so the primes most unions share take the low bits.
    A prime of a single pair value joins a union exactly when its pair
    is chosen, so it needs no bit: it is counted with the pair."""
    m = max_element
    # rows[a - 1] is (primes, offsets) of row a; its pairs (a, b) with
    # b <= m end at offset m - a
    rows = list(zip(cache.primes[:m - 1], cache.offsets))
    freq = collections.Counter(itertools.chain.from_iterable(
        ps[:o[m - a]] for a, (ps, o) in enumerate(rows, 1)))
    shared = sorted((p for p, n in freq.items() if n > 1),
                    key=lambda p: (-freq[p], p))
    bit = {p: j for j, p in enumerate(shared)}
    pm = [[0] * (m + 1) for _ in range(m + 1)]
    sc = [[0] * (m + 1) for _ in range(m + 1)]
    for a, (ps, o) in enumerate(rows, 1):
        for i, b in enumerate(range(a + 1, m + 1)):
            mask = singles = 0
            for p in ps[o[i]:o[i + 1]]:
                if p in bit:
                    mask |= 1 << bit[p]
                else:
                    singles += 1
            pm[a][b] = mask
            sc[a][b] = singles
    return pm, sc


def _slice(pm, sc, max_element: int, k: int, firsts: Sequence[int],
           primitive_only: bool, all_witnesses: bool,
           ) -> tuple[int, list[tuple[int, ...]], int]:
    """Branch and bound over the k-sets rooted at the given first
    elements, with an incumbent best that only falls.  pm and sc are the
    masks and single-pair counts of _row_table.  Returns (best, sets,
    nodes): best is the least omega of the slice's sets and sets lists,
    in lexicographic order, every set attaining it, or only the first
    without all_witnesses.

    A node holds the single-pair count base of the chosen elements and
    candidates (e, U_e, d_e): U_e is the mask of the union for
    elems + [e] and d_e the single-pair count of e's pairs with elems,
    so elems + [e] has U_e.bit_count() + base + d_e primes.  Choosing e
    keeps (f, U_e | U_f | pm[e][f], d_f + sc[e][f]) for each later
    candidate f still within the current limit: best with all_witnesses,
    which keeps ties, else best - 1, which keeps only strictly better
    sets, so the set kept last is the first at the slice's minimum.  A
    node left with fewer candidates than elements still needed is cut.
    A leaf scans all its candidates, since best may have fallen after
    its list was built and a later candidate may still lower it.  Each
    mask tested against the limit counts as one node."""
    nodes = 0
    # above any omega: each of the k(k-1)/2 pair values is below 3M^2
    # and has fewer distinct primes than bits
    best = k * (k - 1) // 2 * (3 * max_element * max_element).bit_length() + 1
    slack = 0 if all_witnesses else 1
    found: list[tuple[int, ...]] = []
    gcd = math.gcd
    elems: list[int] = []

    def extend(cands: list, need: int, base: int,
               starts: Sequence[int] | None = None) -> None:
        """Choose the remaining need elements from cands, the first of
        them at the indices starts when given, else at any index."""
        nonlocal nodes, best
        if need == 1:
            g = gcd(*elems)
            for e, u, du in cands:
                if primitive_only and gcd(g, e) != 1:
                    continue
                omega = u.bit_count() + base + du
                if omega < best:
                    best = omega
                    found.clear()
                elif omega > best - slack:
                    continue
                found.append((*elems, e))
            return
        for i in range(len(cands) - need + 1) if starts is None else starts:
            e, u, du = cands[i]
            row = pm[e]
            srow = sc[e]
            room = best - slack - (base + du)
            later = cands[i + 1:]
            nodes += len(later)
            child = [(f, m, d) for f, uf, df in later
                     if (m := u | uf | row[f]).bit_count()
                     + (d := df + srow[f]) <= room]
            if len(child) < need - 1:
                continue
            elems.append(e)
            extend(child, need - 1, base + du)
            elems.pop()

    # the root: every element with an empty union, the first chosen
    # only among firsts (an empty firsts walks nothing)
    extend([(e, 0, 0) for e in range(1, max_element + 1)], k, 0,
           starts=[a - 1 for a in firsts])
    return best, found, nodes


# The row table, inherited read-only by forked workers.
_FORK: dict = {}


def _entry(args):
    return _slice(*_FORK["table"], *args)


def check_search(k: int, max_element: int, workers: int) -> None:
    """Reject a search shape that run_search or PairPrimeCache would
    refuse, before a caller spends time building the pair table for it."""
    if not 2 <= k <= max_element:
        raise ValueError("k must be in 2..max_element")
    if max_element > MAX_TABLE_ELEMENT:
        raise ValueError(f"max_element must be in 2..{MAX_TABLE_ELEMENT}")
    if workers < 1:
        raise ValueError("workers must be positive")


def run_search(cache: PairPrimeCache, k: int, max_element: int | None = None,
               *, primitive_only: bool = False, all_witnesses: bool = False,
               workers: int = 1) -> SearchResult:
    """Minimum omega over k-subsets of {1..max_element}, with witnesses.

    A cache built for a larger table can serve any smaller max_element.
    With all_witnesses the full list of minimum sets is returned in
    lexicographic order; otherwise only the lexicographically first.
    The first elements are split over the workers, and each slice is
    searched in one pass with its own falling incumbent (_slice); the
    minimum is the least of the slices' minima, and the witnesses are
    the merged lists of the slices that reach it.  Workers are capped at
    the max_element - k + 1 first elements that can start a k-set.
    Results never depend on the worker count.  nodes_visited does in
    both modes, since a slice prunes only against its own incumbent, but
    it never depends on timing.
    """
    if max_element is None:
        max_element = cache.max_element
    if max_element > cache.max_element:
        raise ValueError("cache too small for the requested max_element")
    check_search(k, max_element, workers)
    starts = max_element - k + 1
    workers = min(workers, starts)
    if workers > 1:
        # Imported here, as only a run that forks workers needs it.
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1

    start = time.perf_counter()
    slices = [range(w + 1, starts + 1, workers) for w in range(workers)]
    with contextlib.ExitStack() as stack:
        _FORK["table"] = _row_table(cache, max_element)
        stack.callback(_FORK.clear)
        mapper = map
        if workers > 1:
            mapper = stack.enter_context(
                multiprocessing.get_context("fork").Pool(workers)).map
        parts = list(mapper(_entry, [
            (max_element, k, s, primitive_only, all_witnesses)
            for s in slices]))
    minimum = min(best for best, _, _ in parts)
    witnesses = sorted(w for best, sets, _ in parts if best == minimum
                       for w in sets)
    nodes = sum(n for _, _, n in parts)

    if not all_witnesses:
        witnesses = witnesses[:1]
    seconds = time.perf_counter() - start
    return SearchResult(
        k=k, max_element=max_element, primitive_only=primitive_only,
        all_witnesses=all_witnesses, minimum=minimum,
        witness_count=len(witnesses), witnesses=tuple(witnesses),
        nodes_visited=nodes, seconds=seconds)


__all__ = ["MAX_TABLE_ELEMENT", "PRIME_TYPECODE", "PairPrimeCache",
           "SearchResult", "check_search", "run_search"]
