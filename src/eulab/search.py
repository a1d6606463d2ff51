"""Exhaustive minimization of omega over pair products of integer sets.

For a k-element set S of integers from {1..M} let omega(S) count the
distinct rational primes dividing the product of a^2 + a*b + b^2 over all
pairs from S.  The searcher finds min omega(S) by branch and bound and can
enumerate every witness attaining it.

The bound is the plain monotonicity of omega: growing a set never removes
primes.  A depth-first scan over ascending tuples carries the union of
pair primes seen so far and abandons a branch as soon as that union
exceeds a ceiling.  One pass does the whole job: the ceiling is the best
complete set known, and every complete set tying it is kept until a
better one resets the list (branch and bound with an incumbent that
collects ties, Carraghan & Pardalos 1990).  In first-witness mode the
ceiling sits one below the best, so only strictly better sets are sought
once a witness is in hand.

Prime sets per pair are kept as tuples of dense indices into the sorted
prime list; a 2000-element table would need tens of thousands of bits per
mask, so the hot loop unions small frozensets instead of big integers.
Workers are forked processes sharing the pair table copy-on-write and a
locked incumbent, which each polls every 2048 nodes to tighten its own
ceiling; node counts therefore depend on their timing, the results do
not.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from eulab.factor import factor_rational

MAX_TABLE_ELEMENT = 2000
_BIG = 1 << 30


class PairPrimeCache:
    """Factorizations of a^2 + a*b + b^2 for all 1 <= a < b <= max_element.

    primes holds every rational prime that divides some pair value, in
    increasing order; a prime's position is its dense index.  indices(a, b)
    is the sorted tuple of indices for one pair, and pair_mask packs it
    into an integer bitmask on demand.
    """

    def __init__(self, max_element: int) -> None:
        if not 2 <= max_element <= MAX_TABLE_ELEMENT:
            raise ValueError(
                f"max_element must be in 2..{MAX_TABLE_ELEMENT}")
        self.max_element = max_element
        pair_primes: dict[tuple[int, int], tuple[int, ...]] = {}
        seen: set[int] = set()
        for a in range(1, max_element):
            for b in range(a + 1, max_element + 1):
                ps = tuple(p for p, _ in
                           factor_rational(a * a + a * b + b * b).factors)
                pair_primes[(a, b)] = ps
                seen.update(ps)
        self.primes: tuple[int, ...] = tuple(sorted(seen))
        index = {p: i for i, p in enumerate(self.primes)}
        self.pair_indices: dict[tuple[int, int], tuple[int, ...]] = {
            ab: tuple(index[p] for p in ps)
            for ab, ps in pair_primes.items()}

    def _key(self, a: int, b: int) -> tuple[int, int]:
        if a == b:
            raise ValueError("pair needs two distinct elements")
        if not (1 <= a <= self.max_element and 1 <= b <= self.max_element):
            raise ValueError(f"elements must lie in 1..{self.max_element}")
        return (a, b) if a < b else (b, a)

    def indices(self, a: int, b: int) -> tuple[int, ...]:
        return self.pair_indices[self._key(a, b)]

    def pair_mask(self, a: int, b: int) -> int:
        mask = 0
        for i in self.pair_indices[self._key(a, b)]:
            mask |= 1 << i
        return mask

    def omega_of_set(self, elements: Iterable[int]) -> int:
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("empty set")
        if elems[0] < 1 or elems[-1] > self.max_element:
            raise ValueError(f"elements must lie in 1..{self.max_element}")
        out: set[int] = set()
        for i, a in enumerate(elems):
            for b in elems[i + 1:]:
                out.update(self.pair_indices[(a, b)])
        return len(out)


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
               ) -> list[list[frozenset]]:
    """pm[a][b] = frozenset of prime indices of the pair (a, b), a < b."""
    empty = frozenset()
    pm = [[empty] * (max_element + 1) for _ in range(max_element + 1)]
    for (a, b), idx in cache.pair_indices.items():
        if b <= max_element:
            pm[a][b] = frozenset(idx)
    return pm


def _slice(pm, max_element: int, k: int, firsts: Sequence[int], shared,
           primitive_only: bool, all_witnesses: bool,
           ) -> tuple[int, list[tuple[int, ...]], int]:
    """Branch and bound over the subtrees rooted at the given first
    elements.  Returns (best omega of a complete set seen here, the sets
    that reached it, nodes).  With all_witnesses every such set is kept;
    otherwise only the lexicographically first of this slice.

    A node is cut once its union exceeds min(shared incumbent, best - slack),
    slack being 1 in first-witness mode, where ties with the slice's own
    best are no longer wanted.  The shared value alone never cuts a tie:
    another slice holding the minimum must not hide this slice's
    lexicographically smaller witness."""
    nodes = 0
    best = _BIG
    found: list[tuple[int, ...]] = []
    slack = 0 if all_witnesses else 1
    ceiling = _BIG
    gcd = math.gcd
    elems: list[int] = []

    def extend(mask, last: int, depth: int) -> None:
        nonlocal nodes, best, ceiling
        rows = [pm[x] for x in elems]
        leaf = depth + 1 == k
        for e in range(last + 1, max_element - (k - depth - 1) + 1):
            nodes += 1
            if nodes & 2047 == 0:
                ceiling = min(shared.value, best - slack)
            m = mask
            for row in rows:
                m = m | row[e]
            pc = len(m)
            if pc > ceiling:
                continue
            if leaf:
                if primitive_only and gcd(*elems, e) != 1:
                    continue
                if pc < best:
                    best = pc
                    found.clear()
                    with shared.get_lock():
                        if pc < shared.value:
                            shared.value = pc
                        ceiling = min(shared.value, best - slack)
                found.append((*elems, e))
            else:
                elems.append(e)
                extend(m, e, depth + 1)
                elems.pop()

    empty = frozenset()
    for a in firsts:
        nodes += 1
        elems[:] = [a]
        extend(empty, a, 1)
    return best, found, nodes


# State inherited by forked workers: the row table is large and read-only,
# the incumbent is a locked shared integer.
_FORK: dict = {}


def _entry(args):
    firsts, max_element, k, primitive_only, all_witnesses = args
    return _slice(_FORK["pm"], max_element, k, firsts, _FORK["inc"],
                  primitive_only, all_witnesses)


def run_search(cache: PairPrimeCache, k: int, max_element: int | None = None,
               *, primitive_only: bool = False, all_witnesses: bool = False,
               workers: int = 1) -> SearchResult:
    """Minimum omega over k-subsets of {1..max_element}, with witnesses.

    A cache built for a larger table can serve any smaller max_element.
    With all_witnesses the full list of minimum sets is returned in
    lexicographic order; otherwise only the lexicographically first.
    The tree is walked once: each worker runs a branch and bound over
    its own first elements, keeping the sets that tie its best so far.
    minimum, witnesses and witness_count do not depend on the worker
    count.  nodes_visited is exact at workers=1; with more workers it
    depends on when each one sees the others' incumbent.
    """
    if max_element is None:
        max_element = cache.max_element
    if max_element > cache.max_element:
        raise ValueError("cache too small for the requested max_element")
    if not 2 <= k <= max_element:
        raise ValueError("k must be in 2..max_element")
    if workers < 1:
        raise ValueError("workers must be positive")
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        workers = 1

    start = time.perf_counter()
    pm = _row_table(cache, max_element)
    slices = [list(range(w + 1, max_element + 1, workers))
              for w in range(workers)]

    if workers == 1:
        parts = [_slice(pm, max_element, k, slices[0],
                        multiprocessing.Value("q", _BIG), primitive_only,
                        all_witnesses)]
    else:
        ctx = multiprocessing.get_context("fork")
        _FORK["pm"] = pm
        _FORK["inc"] = ctx.Value("q", _BIG)
        try:
            with ctx.Pool(workers) as pool:
                parts = pool.map(_entry, [
                    (s, max_element, k, primitive_only, all_witnesses)
                    for s in slices])
        finally:
            _FORK.clear()

    minimum = min(best for best, _, _ in parts)
    witnesses = sorted(w for best, found, _ in parts if best == minimum
                       for w in found)
    if not all_witnesses:
        witnesses = witnesses[:1]
    seconds = time.perf_counter() - start
    return SearchResult(
        k=k, max_element=max_element, primitive_only=primitive_only,
        all_witnesses=all_witnesses, minimum=minimum,
        witness_count=len(witnesses), witnesses=tuple(witnesses),
        nodes_visited=sum(n for _, _, n in parts), seconds=seconds)


__all__ = ["MAX_TABLE_ELEMENT", "PairPrimeCache", "SearchResult",
           "run_search"]
