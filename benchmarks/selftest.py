"""Self-test of the output checks: real outputs pass, corrupted ones fail.

Usage: python3 benchmarks/selftest.py

Produces small real outputs of each kind the benchmark checks, through
the same code path the sessions use, confirms that checks.py accepts
them, then applies one corruption at a time (a dropped witness, a missing
witness prime, a recolored residue, ...) and confirms that each is
rejected by the check meant to catch it.  Exits with status 1 if any
expectation fails.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import arith  # noqa: E402
import checks  # noqa: E402
import session  # noqa: E402


def _edit_json(rec: dict, change) -> dict:
    """A copy of a CLI record whose stdout JSON went through change()."""
    out = json.loads(rec["stdout"])
    change(out)
    return dict(rec, stdout=json.dumps(out))


def _drop_witness(rec):
    rec = copy.deepcopy(rec)
    del rec["witnesses"][len(rec["witnesses"]) // 2]
    rec["witness_count"] -= 1
    return rec


def _drop_report_prime(out):
    report = out["reports"][0]
    del report["witness_primes"][len(report["witness_primes"]) // 2]
    report["omega"] -= 1


def _add_composite(out):
    report = out["reports"][0]
    report["witness_primes"].append(4 * 9)
    report["omega"] += 1


def _shift_bound(out):
    out["reports"][0]["bound"] += 1e-6


def _flip_passed(out):
    out["reports"][0]["passed"] = not out["reports"][0]["passed"]
    out["all_passed"] = all(r["passed"] for r in out["reports"])


def _omega_plus_one(out):
    out["omega"] += 1


def _fewer_subsets(out):
    out["independence"]["subsets_checked"] -= 1


def _unnest(out):
    out["snapshots"][-1] = out["snapshots"][-1] + ["7,0"]
    out["final"] = out["snapshots"][-1]


def _break_floor(out):
    # keep one element where the uv floor asks for half of the bucket sizes
    before = len(out["snapshots"][-2])
    out["snapshots"][-1] = out["snapshots"][-1][:1]
    out["final"] = out["snapshots"][-1]
    out["steps"][-1]["sizes"] = [1, before - 1]
    out["steps"][-1]["kept"] = 0


def _skip_step(out):
    del out["steps"][0]
    del out["snapshots"][1]


def _no_transfer(out):
    # 2 and 10 share v = 0 at (2,1), but (2,1) divides 2 + 10
    out["snapshots"][-1] = ["2,0", "10,0"]
    out["final"] = ["2,0", "10,0"]
    out["steps"][-1]["sizes"] = [1, 2]
    out["steps"][-1]["kept"] = 1


def _recolor(op):
    """Give one residue the group of the partner it must differ from."""
    mult = (-1, 0) if op["op"] == "uv_coloring" else \
        arith.neg(arith.parse(op["rho0"]))

    def corrupt(rec):
        rec = copy.deepcopy(rec)
        ideal = arith.Ideal(arith.parse(rec["modulus"]))
        group = {ideal.reduce((a, b)): g for a, b, g in rec["assignment"]}
        entry = rec["assignment"][0]
        entry[2] = group[ideal.reduce(arith.mul(mult, tuple(entry[:2])))]
        return rec

    return corrupt


def _drop_residue(rec):
    rec = copy.deepcopy(rec)
    del rec["assignment"][-1]
    return rec


THREE = {"op": "three_coloring", "pi": "3,1", "rho0": "0,1"}
UV = {"op": "uv_coloring", "pi": "4,1"}


def main() -> int:
    folder = ROOT / ".bench_results" / f"selftest-{os.getpid()}"
    folder.mkdir(parents=True)
    try:
        return _run_all(folder)
    finally:
        shutil.rmtree(folder, ignore_errors=True)


def _run_all(folder: Path) -> int:
    from eulab.search import PairPrimeCache

    reference = checks.load_reference()
    spec = {"n": 3, "r": [2, 3, 5], "m": [3, 1]}
    a_set = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
    b_set = [2, 3, 5, 7]
    poly, set_a, set_b = (str(folder / name) for name in
                          ("poly.json", "a.txt", "b.txt"))
    Path(poly).write_text(json.dumps(spec))
    Path(set_a).write_text("".join(f"{x}\n" for x in a_set))
    Path(set_b).write_text("".join(f"{x}\n" for x in b_set))
    (folder / "t1.txt").write_text("2,0\n6,0\n10,0\n")
    cases = [
        ({"op": "search", "k": 3, "max": 140, "all": True},
         [("dropped witness", _drop_witness, "witnesses differ")]),
        ({"op": "cli", "argv": ["verify", "cor2", "--trials", "1", "--size",
                                "60", "--range", "2000", "--seed", "3"]},
         [("missing witness prime", _drop_report_prime, "cofactor"),
          ("composite witness", _add_composite, "not canonical primes"),
          ("shifted bound", _shift_bound, "closed form"),
          ("flipped verdict", _flip_passed, "disagrees")]),
        ({"op": "cli", "argv": ["verify", "t1", "--trials", "1", "--size",
                                "40", "--range", "60", "--seed", "5"]},
         [("missing Eisenstein witness", _drop_report_prime, "non-unit")]),
        ({"op": "cli", "argv": ["polyprod", "--poly", poly, "--set-a", set_a,
                                "--set-b", set_b, "--check-independence"],
          "spec": spec, "a": a_set, "b": b_set},
         [("omega off by one", _omega_plus_one, "recount"),
          ("subsets skipped", _fewer_subsets, "nonsingular")]),
        ({"op": "cli", "argv": ["refine", "--set", str(folder / "t1.txt")],
          "set": ["2,0", "6,0", "10,0"], "rho": None},
         [("snapshots not nested", _unnest, "not nested"),
          ("bucket floor broken", _break_floor, "breaks the floor"),
          ("split prime skipped", _skip_step, "split primes differ"),
          ("transfer broken", _no_transfer, "not the minimum")]),
        (THREE, [("recolored residue", _recolor(THREE), "separated partner"),
                 ("uncolored residue", _drop_residue, "classes colored")]),
        (UV, [("recolored residue", _recolor(UV), "separated partner")]),
    ]
    cache = PairPrimeCache(140)
    failures = 0
    for op, corruptions in cases:
        _, raw = session._run(op, cache)
        rec = session._record(op, raw)
        label = op.get("argv", [op["op"]])[0:2]
        problems = checks.check(op, rec, reference)
        if problems:
            failures += 1
            print(f"FAIL: real output of {label} rejected: {problems[:2]}")
        else:
            print(f"ok: real output of {label} accepted")
        for name, corrupt, expected in corruptions:
            bad = corrupt(rec) if op["op"] != "cli" else \
                _edit_json(rec, corrupt)
            problems = checks.check(op, bad, reference)
            caught = [p for p in problems if expected in p]
            if caught:
                print(f"ok: {name} rejected ({caught[0]})")
            else:
                failures += 1
                print(f"FAIL: {name} not rejected for {expected!r}: "
                      f"{problems[:2]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
