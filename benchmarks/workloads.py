"""Seeded inputs for the three workloads.

build(workload, seed, folder) returns the session plan: the shared set-up
and the list of operations every session of a run performs, in order.
Files the CLI reads (set files, polynomial specs) are written to folder.
The same seed always yields the same plan.  Sizes are fixed per workload
and only the drawn values move with the seed, so the work per session
varies little between seeds; that keeps the run-to-run spread of the
end-to-end times small.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import arith

WORKLOADS = ("search", "verify", "refine")

# ---------------------------------------------------------------- search --

# The pair table every search session builds once; its build is set-up.
PAIR_TABLE_M = 360
# Minimum omega for k = 3..8 as published; each row's window lies above
# the largest element of the pinned witness, so the minimum holds there.
PINNED_MINIMA = {3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 9}
# (k, lowest M, highest M, all witnesses); each session draws M uniformly
# from the window.  Windows are narrow and the steep rows fixed, so the
# nodes visited move by about 1% between seeds: per unit of M they grow
# 2.4% (k=3), 5.4% and 2.5% (k=4 all and first), 4.7% (k=5 first),
# 9-14% for the rest.
ROW_SHAPES = (
    (3, 140, 141, True),    # witness-heavy: ~2,300 minimum sets
    (4, 72, 73, True),
    (5, 44, 44, True),
    (6, 36, 36, True),
    (4, 150, 151, False),   # first witness only, the CLI default
    (5, 90, 91, False),
    (7, 64, 64, False),
    (8, 36, 36, True),      # minimum 9 exceeds k
)


def _search_plan(rng: random.Random) -> dict:
    ops = [{"op": "search", "k": k, "max": rng.randint(lo, hi),
            "all": all_witnesses}
           for k, lo, hi, all_witnesses in ROW_SHAPES]
    return {"pair_table": PAIR_TABLE_M, "ops": ops}


# ---------------------------------------------------------------- verify --

VERIFY_SIZES = (50, 100, 150, 200)
# token, coordinate range (Eisenstein sets) or largest value (integers),
# trials; one trial of cor1 and cor2 costs about as much as two of the
# others, so three sessions fit in a 30-second run
VERIFY_JOBS = (("t1", 60, 2), ("t2", 60, 2), ("cor1", 2000, 1),
               ("cor2", 2000, 1), ("rho-minus1", 60, 2))
T2_RHO = "0,1"
ERDOS_TURAN_TRIALS = 25
ERDOS_TURAN_RANGE = 100_000
POLYPROD_SPECS = 4
INT64_MAX = 2**63 - 1


def _polyprod_input(rng: random.Random) -> tuple[dict, list[int], list[int]]:
    """A spec and sets whose largest value lies just below 2^63."""
    n = rng.choice((3, 4))
    r = [rng.randint(1, 9) for _ in range(n)]
    m = [rng.randint(1, 4) for _ in range(n - 1)]
    b_size = 2 * n - 2
    b_set = sorted(rng.sample(range(2, 400), b_size))

    def f(x: int, y: int) -> int:
        return (r[n - 1] * y ** (n - 1)
                + sum(r[i] * x ** m[i] * y ** i for i in range(n - 1)))

    # the largest x with f(x, max B) inside the 64-bit range
    lo, hi = 1, 2**63
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if f(mid, b_set[-1]) <= INT64_MAX:
            lo = mid
        else:
            hi = mid - 1
    a_set = sorted(rng.sample(range(lo // 2, lo + 1), b_size + 2))
    return {"n": n, "r": r, "m": m}, a_set, b_set


def _verify_plan(rng: random.Random, seed: int, folder: Path) -> dict:
    ops = []
    for token, coord, trials in VERIFY_JOBS:
        for size in VERIFY_SIZES:
            argv = ["verify", token, "--trials", str(trials),
                    "--size", str(size), "--range", str(coord),
                    "--seed", str(seed * 1000 + len(ops))]
            if token == "t2":
                argv += ["--rho", T2_RHO]
            ops.append({"op": "cli", "argv": argv})
    for k in range(1, 5):
        ops.append({"op": "cli", "argv": [
            "verify", "erdos-turan", "--trials", str(ERDOS_TURAN_TRIALS),
            "--size", str(3 * 2 ** (k - 1)),
            "--range", str(ERDOS_TURAN_RANGE),
            "--seed", str(seed * 1000 + len(ops))]})
    for i in range(POLYPROD_SPECS):
        spec, a_set, b_set = _polyprod_input(rng)
        poly = folder / f"poly{i}.json"
        poly.write_text(json.dumps(spec))
        set_a = _write_lines(folder / f"poly{i}_a.txt", a_set)
        set_b = _write_lines(folder / f"poly{i}_b.txt", b_set)
        ops.append({"op": "cli", "argv": [
            "polyprod", "--poly", str(poly), "--set-a", str(set_a),
            "--set-b", str(set_b), "--check-independence"],
            "spec": spec, "a": a_set, "b": b_set})
    return {"pair_table": None, "ops": ops}


# ---------------------------------------------------------------- refine --

# None is the additive chain; the rest are the multipliers rho.  -rho is
# the prime power (2,1) for rho = -2,-1, which brings in lemma4 splits.
REFINE_RHOS = (None, "0,-1", "2,1", "-2,-1")
REFINE_RANDOM_SETS = 4
REFINE_SIZE = 60
REFINE_COORD = 100
COLORING_NORM_BOUND = 70


def _zero_factor(elements, rho) -> bool:
    """Whether some pair gives a zero factor: a + b (additive chain) or
    a + rho*b over ordered pairs."""
    seen = set(elements)
    for b in elements:
        partner = arith.neg(b) if rho is None else arith.neg(arith.mul(rho, b))
        if partner in seen and partner != b:
            return True
    return False


def _random_refine_set(rng: random.Random, rho) -> list:
    out: set = set()
    while len(out) < REFINE_SIZE:
        x = (rng.randint(-REFINE_COORD, REFINE_COORD),
             rng.randint(-REFINE_COORD, REFINE_COORD))
        if x != (0, 0) and not _zero_factor(list(out) + [x], rho):
            out.add(x)
    return sorted(out)


def _few_prime_set(rng: random.Random, rho) -> list:
    """Small sets built from the primes 2 and (2,1) whose refinement keeps
    two elements, so the transfer checks on the final set are not vacuous.

    Additive chain: u*2^k*{1, 3, 5}.  Odd-norm primes of the pair sums
    reduce to (2,1); it separates 1 from 5 and keeps 3 with one of them.
    rho = 0,-1 and 2,1: {x, -x} with x = u*2^k.  Both twisted sums are x
    times a unit, so 2 is the only prime and x, -x share a residue mod 2.
    rho = -2,-1 has no such family (x + rho*(-x) brings in (3,1)), and
    takes u*2^k*{1, 3, 5} as a few-prime set for its lemma4 split.
    """
    u = arith.UNITS[rng.randrange(6)]
    if rho in ((0, -1), (2, 1)):
        x = arith.mul(u, (2 ** rng.randint(1, 3), 0))
        return sorted((x, arith.neg(x)))
    scale = arith.mul(u, (2 ** rng.randint(0, 3), 0))
    return sorted(arith.mul(scale, (c, 0)) for c in (1, 3, 5))


def coloring_primes() -> list:
    """Canonical primes with norm up to COLORING_NORM_BOUND."""
    out = []
    for a in range(1, COLORING_NORM_BOUND + 1):
        for b in range(a):
            x = (a, b)
            if arith.norm(x) <= COLORING_NORM_BOUND and \
                    arith.is_eisenstein_prime(x):
                out.append(x)
    return sorted(out, key=arith.ekey)


def _refine_plan(rng: random.Random, folder: Path) -> dict:
    ops = []
    for rho_text in REFINE_RHOS:
        rho = None if rho_text is None else arith.parse(rho_text)
        sets = [_random_refine_set(rng, rho)
                for _ in range(REFINE_RANDOM_SETS)]
        sets += [_few_prime_set(rng, rho) for _ in range(2)]
        for elements in sets:
            path = _write_lines(folder / f"refine{len(ops)}.txt",
                                [arith.fmt(x) for x in elements])
            argv = ["refine", "--set", str(path)]
            if rho_text is not None:
                argv += ["--rho", rho_text]
            ops.append({"op": "cli", "argv": argv,
                        "set": [arith.fmt(x) for x in elements],
                        "rho": rho_text})
    for pi in coloring_primes():
        if arith.norm(pi) % 2:
            ops.append({"op": "uv_coloring", "pi": arith.fmt(pi)})
        # delta = 0: a unit other than -1 with 1 + rho0 a unit
        rho0 = rng.choice(((0, 1), (-1, -1)))
        ops.append({"op": "three_coloring", "pi": arith.fmt(pi),
                    "rho0": arith.fmt(rho0)})
        # delta = 1: 1 + rho0 = pi * u for a unit u
        u = arith.UNITS[rng.randrange(6)]
        rho0 = arith.add((-1, 0), arith.mul(pi, u))
        ops.append({"op": "three_coloring", "pi": arith.fmt(pi),
                    "rho0": arith.fmt(rho0)})
    return {"pair_table": None, "ops": ops}


def _write_lines(path: Path, values) -> Path:
    path.write_text("".join(f"{v}\n" for v in values))
    return path


def build(workload: str, seed: int, folder: Path) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        return _search_plan(rng)
    if workload == "verify":
        return _verify_plan(rng, seed, folder)
    if workload == "refine":
        return _refine_plan(rng, folder)
    raise ValueError(f"unknown workload {workload!r}")
