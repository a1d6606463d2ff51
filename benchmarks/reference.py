"""Recompute the search workload's rows without eulab.

Usage: python3 benchmarks/reference.py

Writes benchmarks/reference_search.json.

For every k the search workload draws rows for (see ROW_SHAPES in
workloads.py) this enumerates, with its own pair factoring and its own
branch and bound, every primitive k-subset of {1..M} whose pair values
a^2 + ab + b^2 share the fewest distinct primes, at the largest M any
row with that k allows.  The minimum does not change below that M as
long as the pinned witness fits, so the witnesses for a smaller M are
exactly the stored ones whose largest element is at most M.

The enumeration is ceiling driven: for c = 1, 2, ... it lists every
k-set whose pair primes number at most c, and the first c that yields a
set is the minimum.  Each node keeps the candidates whose pair primes
with the chosen elements still fit under c, so children only filter
their parent's list.  Takes about two seconds on one core.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from arith import factorize  # noqa: E402
from workloads import ROW_SHAPES  # noqa: E402


def pair_masks(m: int) -> list[list[int]]:
    """masks[a][b]: bitmask of the primes dividing a^2 + ab + b^2."""
    bit: dict[int, int] = {}
    masks = [[0] * (m + 1) for _ in range(m + 1)]
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            mask = 0
            for p, _ in factorize(a * a + a * b + b * b):
                mask |= 1 << bit.setdefault(p, len(bit))
            masks[a][b] = masks[b][a] = mask
    return masks


def sets_within(masks, m: int, k: int, ceiling: int) -> list[tuple]:
    """Every primitive k-subset of 1..m with at most `ceiling` pair primes."""
    out = []

    def grow(chosen, mask, cands):
        # cands: (element, union of its pair primes with every chosen one)
        if len(chosen) == k:
            if math.gcd(*chosen) == 1:
                out.append(tuple(chosen))
            return
        need = k - len(chosen)
        for i, (e, with_e) in enumerate(cands):
            if len(cands) - i < need:
                break
            new_mask = mask | with_e
            row = masks[e]
            nxt = []
            for f, with_f in cands[i + 1:]:
                u = with_f | row[f]
                if (new_mask | u).bit_count() <= ceiling:
                    nxt.append((f, u))
            if len(nxt) >= need - 1:
                chosen.append(e)
                grow(chosen, new_mask, nxt)
                chosen.pop()

    grow([], 0, [(e, 0) for e in range(1, m + 1)])
    return out


def solve(k: int, m: int) -> tuple[int, list[tuple]]:
    masks = pair_masks(m)
    ceiling = 0
    while True:
        ceiling += 1
        found = sets_within(masks, m, k, ceiling)
        if found:
            return ceiling, sorted(found)


def main() -> int:
    highest: dict[int, int] = {}
    for k, _low, high, _all in ROW_SHAPES:
        highest[k] = max(high, highest.get(k, 0))
    rows = []
    for k, high in sorted(highest.items()):
        start = time.perf_counter()
        minimum, witnesses = solve(k, high)
        print(f"k={k} M={high}: minimum {minimum}, {len(witnesses)} "
              f"witnesses, {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
        rows.append({"k": k, "max": high, "minimum": minimum,
                     "witnesses": [list(w) for w in witnesses]})
    text = json.dumps({"rows": rows}, separators=(",", ":"))
    (HERE / "reference_search.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
