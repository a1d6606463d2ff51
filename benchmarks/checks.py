"""Independent checks of every operation's output.

Each check takes the operation from the plan and the raw result the
session recorded, and returns a list of problems; an empty list means
the output passed.  The checks recompute what they need with arith.py
and judge the output by a certificate or a property the method must
have, never by comparison with an earlier output of the program.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import arith
from workloads import PINNED_MINIMA

REFERENCE = Path(__file__).resolve().parent / "reference_search.json"

# threshold tau^2 + 2 of c(rho) for the t2 multiplier, as published
T2_THRESHOLDS = {"0,1": 38}


def _f12(value: float) -> float:
    """The CLI's rounding of real-valued fields to 12 significant digits."""
    return float(f"{value:.12g}")


def load_reference() -> dict:
    rows = json.loads(REFERENCE.read_text())["rows"]
    return {row["k"]: row for row in rows}


# ---------------------------------------------------------------- search --

def check_search(op: dict, rec: dict, reference: dict) -> list[str]:
    k, m = op["k"], op["max"]
    ref = reference.get(k)
    if ref is None or ref["max"] < m:
        return [f"no reference row covers k={k} M={m}"]
    expected = [w for w in ref["witnesses"] if w[-1] <= m]
    problems = []
    if not expected:
        problems.append(f"reference has no witness for k={k} M={m}")
    if ref["minimum"] != PINNED_MINIMA[k]:
        problems.append(f"reference minimum {ref['minimum']} for k={k} "
                        f"differs from the pinned {PINNED_MINIMA[k]}")
    if rec["minimum"] != ref["minimum"]:
        problems.append(f"k={k} M={m}: minimum {rec['minimum']}, "
                        f"reference {ref['minimum']}")
    want = expected if op["all"] else expected[:1]
    if rec["witnesses"] != want:
        problems.append(f"k={k} M={m}: {len(rec['witnesses'])} witnesses "
                        f"differ from the {len(want)} of the reference")
    if rec["witness_count"] != len(rec["witnesses"]):
        problems.append(f"k={k} M={m}: witness_count "
                        f"{rec['witness_count']} != {len(rec['witnesses'])}")
    return problems


# ---------------------------------------------------------------- verify --

def _integer_support_problems(values, primes) -> list[str]:
    """The primes must be exactly the prime support of prod(values).

    A value v has at most one prime factor above isqrt(max value), so
    after dividing out the small witnesses what is left must be 1 or a
    witness itself.  `seen` collects every small witness that divided.
    """
    bound = math.isqrt(max(values))
    small = math.prod(p for p in primes if p <= bound)
    large = {p for p in primes if p > bound}
    unused_large = set(large)
    seen = 1
    for v in values:
        g = math.gcd(v, small % v)
        seen = seen * g // math.gcd(seen, g)
        while g > 1:
            v //= g
            g = math.gcd(v, g)
        if v in large:
            unused_large.discard(v)
        elif v != 1:
            return [f"cofactor {v} left after dividing out the witnesses"]
    unused = sorted(unused_large) + [p for p in primes
                                     if p <= bound and seen % p]
    return [f"witness {p} divides no pair value" for p in unused[:3]]


def _eisenstein_support_problems(values, primes) -> list[str]:
    above: dict[int, list] = {}
    for pi in primes:
        n = arith.norm(pi)
        p = n if arith.is_prime(n) else math.isqrt(n)
        above.setdefault(p, []).append(pi)
    used = set()
    for f in values:
        rest = f
        for p, _ in arith.factorize(arith.norm(f)):
            for pi in above.get(p, ()):
                q = arith.quotient(rest, pi)
                if q is not None:
                    used.add(pi)
                while q is not None:
                    rest = q
                    q = arith.quotient(rest, pi)
        if arith.norm(rest) != 1:
            return [f"pair value {arith.fmt(f)} keeps the non-unit "
                    f"{arith.fmt(rest)} after dividing out the witnesses"]
    return [f"witness {arith.fmt(pi)} divides no pair value"
            for pi in primes if pi not in used][:3]


def _pair_values(theorem: str, elements, rho):
    pairs = list(combinations(elements, 2))
    if theorem == "t1":
        return [arith.add(a, b) for a, b in pairs]
    if theorem == "rho_minus1":
        return [arith.add(a, arith.neg(b)) for a, b in pairs]
    if theorem == "t2":
        return [arith.add(a, arith.mul(rho, b))
                for a in elements for b in elements if a != b]
    if theorem == "cor1":
        return [a * a - a * b + b * b for a, b in pairs]
    if theorem == "cor2":
        return [a * a + a * b + b * b for a, b in pairs]
    return [a + b for a, b in pairs]       # erdos_turan


def _closed_form(theorem: str, n: int, rho_text) -> tuple[float, str]:
    if theorem == "t1":
        return (math.log(n - 1) - math.log(18)) / math.log(2), ">"
    if theorem == "t2":
        threshold = T2_THRESHOLDS[rho_text]
        return (math.log(n) - math.log(threshold)) / math.log(3), ">"
    if theorem in ("cor1", "cor2"):
        const = 38 if theorem == "cor1" else 146
        return (math.log(n) - math.log(const)) / (2 * math.log(3)), ">"
    if theorem == "rho_minus1":
        return float(len(arith.primes_upto(math.isqrt(n - 1)))), ">="
    k = 0
    while 3 * 2 ** k <= n:
        k += 1
    return float(k + 1), ">="


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_verify(op: dict, rec: dict) -> list[str]:
    argv = op["argv"]
    token = argv[1]
    theorem = token.replace("-", "_")
    eisenstein = token in ("t1", "t2", "rho-minus1")
    size = int(_argv_value(argv, "--size"))
    coord = int(_argv_value(argv, "--range"))
    trials = int(_argv_value(argv, "--trials"))
    rho_text = _argv_value(argv, "--rho")
    rho = arith.parse(rho_text) if rho_text else None
    out = json.loads(rec["stdout"])
    problems = []
    if len(out["reports"]) != trials:
        problems.append(f"{len(out['reports'])} reports for {trials} trials")
    for report in out["reports"]:
        where = f"{token} seed {report['seed']}"
        if report["theorem"] != theorem:
            problems.append(f"{where}: theorem {report['theorem']}")
        raw = report["set"]
        elements = [arith.parse(x) for x in raw] if eisenstein else raw
        if len(set(elements)) != size or report["size"] != size:
            problems.append(f"{where}: set of {len(set(elements))} "
                            f"distinct elements, size {size} asked")
        if eisenstein:
            if any(max(abs(a), abs(b)) > coord for a, b in elements):
                problems.append(f"{where}: element outside the range")
            witnesses = [arith.parse(x) for x in report["witness_primes"]]
            bad = [x for x in witnesses if not arith.is_canonical(x)
                   or not arith.is_eisenstein_prime(x)]
        else:
            if any(not 1 <= x <= coord for x in elements):
                problems.append(f"{where}: element outside the range")
            witnesses = report["witness_primes"]
            bad = [x for x in witnesses if not arith.is_prime(x)]
        if bad:
            problems.append(f"{where}: witnesses {bad[:3]} are not "
                            "canonical primes")
        if len(set(witnesses)) != len(witnesses):
            problems.append(f"{where}: repeated witness primes")
        values = _pair_values(theorem, elements, rho)
        zero = (0, 0) if eisenstein else 0
        if report["flagged_zero_factor"]:
            if zero not in values:
                problems.append(f"{where}: zero factor flagged, none exists")
            if report["omega"] != "infinite" or witnesses:
                problems.append(f"{where}: flagged set reports primes")
            omega_ok = report["passed"] is True
        else:
            if zero in values:
                problems.append(f"{where}: zero factor not flagged")
                continue
            if report["omega"] != len(witnesses):
                problems.append(f"{where}: omega {report['omega']} for "
                                f"{len(witnesses)} witnesses")
            support = (_eisenstein_support_problems if eisenstein
                       else _integer_support_problems)
            problems += [f"{where}: {p}" for p in support(values, witnesses)]
            bound, comparison = _closed_form(theorem, size, rho_text)
            if report["bound"] != _f12(bound) or \
                    report["comparison"] != comparison:
                problems.append(f"{where}: bound {report['bound']} "
                                f"{report['comparison']}, closed form "
                                f"{_f12(bound)} {comparison}")
            passed = (len(witnesses) > bound if comparison == ">"
                      else len(witnesses) >= bound)
            omega_ok = report["passed"] == passed
        if not omega_ok:
            problems.append(f"{where}: passed={report['passed']} "
                            "disagrees with the comparison")
    all_passed = all(r["passed"] for r in out["reports"])
    if out["all_passed"] != all_passed or rec["code"] != (0 if all_passed
                                                          else 1):
        problems.append(f"all_passed {out['all_passed']} with exit code "
                        f"{rec['code']}")
    return problems


# -------------------------------------------------------------- polyprod --

def check_polyprod(op: dict, rec: dict) -> list[str]:
    spec, a_set, b_set = op["spec"], op["a"], op["b"]
    n, r, m = spec["n"], spec["r"], spec["m"]
    out = json.loads(rec["stdout"])
    primes = set()
    for x in a_set:
        for y in b_set:
            v = r[n - 1] * y ** (n - 1) + sum(r[i] * x ** m[i] * y ** i
                                              for i in range(n - 1))
            primes.update(p for p, _ in arith.factorize(v))
    problems = []
    if rec["code"] != 0:
        problems.append(f"exit code {rec['code']}")
    if (out["size_a"], out["size_b"]) != (len(a_set), len(b_set)):
        problems.append("set sizes differ from the input")
    if out["omega"] != len(primes):
        problems.append(f"omega {out['omega']}, recount {len(primes)}")
    ind = out["independence"] or {}
    subsets = math.comb(len(b_set) + 1, n)
    if ind.get("independent") is not True or \
            ind.get("subsets_checked") != subsets or \
            ind.get("singular_subset") is not None:
        problems.append(f"independence {ind}, expected all {subsets} "
                        "subsets nonsingular")
    return problems


# ---------------------------------------------------------------- refine --

def _c_exponent(pi, rho) -> int:
    gamma = arith.valuation(pi, rho)
    rho0 = rho
    for _ in range(gamma):
        rho0 = arith.quotient(rho0, pi)
    if rho0 == (-1, 0):
        return gamma
    return gamma + arith.valuation(pi, arith.add((1, 0), rho0))


def _prime_power(x):
    """(theta, gamma) when x = theta^gamma for a canonical prime theta."""
    f = arith.factor_e(x)
    if len(f) == 1:
        (theta, gamma), = f.items()
        if arith.power(theta, gamma) == x:
            return theta, gamma
    return None


def check_refine(op: dict, rec: dict) -> list[str]:
    if rec["code"] != 0:
        return [f"exit code {rec['code']}"]
    out = json.loads(rec["stdout"])
    rho = None if op["rho"] is None else arith.parse(op["rho"])
    given = sorted({arith.parse(x) for x in op["set"]}, key=arith.ekey)
    initial = [arith.parse(x) for x in out["initial"]]
    snaps = [[arith.parse(x) for x in s] for s in out["snapshots"]]
    final = [arith.parse(x) for x in out["final"]]
    problems = []
    if initial != given:
        problems.append("initial set differs from the input")
    if out["mode"] != ("t1" if rho is None else "t2"):
        problems.append(f"mode {out['mode']}")

    # nesting and bucket floors
    chain = [set(initial)] + [set(s) for s in snaps]
    if any(not b <= a for a, b in zip(chain, chain[1:])):
        problems.append("snapshots are not nested")
    if final != snaps[-1] or len(out["steps"]) != len(snaps) - 1:
        problems.append("final set or step count disagrees with snapshots")
    for step, before, after in zip(out["steps"], snaps, snaps[1:]):
        sizes, kept = step["sizes"], step["kept"]
        third = step["rule"] == "lemma2"
        if sum(sizes) != len(before) or sizes[kept] != len(after) or \
                len(sizes) != (3 if third else 2):
            problems.append(f"step at {step['prime']}: sizes {sizes} "
                            f"for {len(before)} -> {len(after)}")
        elif (3 if third else 2) * sizes[kept] < sum(sizes):
            problems.append(f"step at {step['prime']}: kept {sizes[kept]} "
                            f"of {sum(sizes)} breaks the floor")

    # the primes each chain must split at, recomputed
    if rho is None:
        values = [arith.add(a, b) for a, b in combinations(initial, 2)]
    else:
        values = [arith.add(a, arith.mul(rho, b))
                  for a in initial for b in initial if a != b]
    primes = set()
    for f in values:
        primes.update(arith.factor_e(f))
    if rho is None:
        primes = {p for p in primes if arith.norm(p) % 2}
    primes = sorted(primes, key=arith.ekey)
    if [arith.parse(s["prime"]) for s in out["steps"]] != primes:
        problems.append("split primes differ from the pair product's")

    if rho is None:
        problems += _check_sector(initial, snaps[0], out["sector"])
        if any(s["rule"] != "uv" for s in out["steps"]):
            problems.append("additive chain uses a rule other than uv")
        for pi in primes:
            for a, b in combinations(final, 2):
                va, vb = arith.valuation(pi, a), arith.valuation(pi, b)
                if arith.valuation(pi, arith.add(a, b)) != min(va, vb):
                    problems.append(f"v_{arith.fmt(pi)}({arith.fmt(a)} + "
                                    f"{arith.fmt(b)}) is not the minimum")
        flags = ("valuation_transfer_ok",)
    else:
        special = _prime_power(arith.neg(rho))
        for step in out["steps"]:
            want = ("lemma4" if special and arith.parse(step["prime"])
                    == special[0] else "lemma2")
            if step["rule"] != want:
                problems.append(f"step at {step['prime']} uses "
                                f"{step['rule']}, expected {want}")
        for a in final:
            for b in final:
                if a == b:
                    continue
                f = arith.add(a, arith.mul(rho, b))
                for pi, v in arith.factor_e(f).items():
                    drop = v - _c_exponent(pi, rho)
                    if drop <= 0:
                        continue
                    power = arith.power(pi, drop)
                    if not (arith.divides(power, a)
                            and arith.divides(power, b)):
                        problems.append(
                            f"{arith.fmt(pi)}^{drop} divides "
                            f"{arith.fmt(a)} + rho*{arith.fmt(b)} but not "
                            "both elements")
        flags = ("divisibility_transfer_ok", "phi_all_divide_c_rho",
                 "phi_count_within_bound")
    for flag in flags:
        if out["checks"].get(flag) is not True:
            problems.append(f"reported {flag} = {out['checks'].get(flag)}")
    return problems


def _check_sector(initial, first, reported) -> list[str]:
    sectors: dict[int, list] = {}
    for x in initial:
        if x != (0, 0):
            sectors.setdefault(arith.sector(x), []).append(x)
    best = min(sectors, key=lambda k: (-len(sectors[k]), k))
    if reported != best or first != sectors[best]:
        return [f"first snapshot is not the fullest sector {best}"]
    return []


# ------------------------------------------------------------- colorings --

def check_coloring(op: dict, rec: dict) -> list[str]:
    pi = arith.parse(op["pi"])
    n = arith.norm(pi)
    if op["op"] == "uv_coloring":
        exponent, groups, mult = 1, 2, (-1, 0)
        delta = None
    else:
        rho0 = arith.parse(op["rho0"])
        delta = arith.valuation(pi, arith.add((1, 0), rho0))
        exponent, groups, mult = delta + 1, 3, arith.neg(rho0)
    modulus = arith.power(pi, exponent)
    problems = []
    if rec["modulus"] != arith.fmt(modulus) or rec["groups"] != groups \
            or rec["delta"] != delta:
        problems.append(f"modulus {rec['modulus']}, groups {rec['groups']}, "
                        f"delta {rec['delta']}")
    ideal = arith.Ideal(modulus)
    group_of = {}
    for a, b, g in rec["assignment"]:
        if g not in range(groups):
            problems.append(f"group {g} out of range")
        if arith.divides(pi, (a, b)):
            problems.append(f"{a},{b} is not a reduced residue")
        group_of[ideal.reduce((a, b))] = g
    count = n ** (exponent - 1) * (n - 1)
    if len(group_of) != count or len(rec["assignment"]) != count:
        problems.append(f"{len(group_of)} residue classes colored, "
                        f"{count} exist")
    for r, g in group_of.items():
        if group_of.get(ideal.reduce(arith.mul(mult, r))) == g:
            problems.append(f"{arith.fmt(r)} shares group {g} with its "
                            "separated partner")
            break
    return problems


def check(op: dict, rec: dict, reference: dict) -> list[str]:
    """Problems with one output."""
    if "error" in rec:
        return [rec["error"]]
    kind = op["op"]
    if kind == "search":
        return check_search(op, rec, reference)
    if kind != "cli":
        return check_coloring(op, rec)
    command = op["argv"][0]
    if command == "verify":
        return check_verify(op, rec)
    if command == "polyprod":
        return check_polyprod(op, rec)
    return check_refine(op, rec)
