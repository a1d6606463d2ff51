"""The eulab benchmark: search, verify and refine sessions.

Usage:
    python3 benchmarks/bench.py --workload {search,verify,refine}
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; eulab is imported from its
src/ directory, nothing is installed.  One run draws the workload's plan
from the seed, then launches sessions one at a time, each a fresh
interpreter that imports eulab, sets up and performs the plan (see
session.py).  It always runs three sessions (one untraced and one traced
with --trace 1), then more while the mean session time says the next
would end within S seconds, up to nine rounds.  A run can therefore end
a little past S: when the last session runs slower than the mean, and by
the time the checks take.  Every output is checked independently
(checks.py).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
run's sessions: setup_s, run_s, total_s and peak_rss_mib.  With --trace
1 the run alternates untraced and traced sessions and reports the
per-layer metrics of the traced ones (see tracing.py) plus the tracing
overhead.  A result record with per-operation times and the machine
details is written to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
MAX_ROUNDS = 9
# an untraced run sets up at least three times, so setup_s is a median,
# even if three sessions take longer than --seconds
MIN_ROUNDS = 3

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _session_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    # the sieve bound changes what the program computes; use its default
    env.pop("EULAB_SIEVE_LIMIT", None)
    return env


def _launch(plan_path: Path, out_path: Path, traced: bool) -> dict:
    """Run one session to its end; the parent must stay small, because a
    child's ru_maxrss starts from its parent's peak at exec time."""
    cmd = [sys.executable, str(HERE / "session.py"), str(plan_path),
           str(out_path), str(SRC), "1" if traced else "0"]
    err_path = out_path.with_suffix(".err")
    with open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=_session_env())
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"launch": start, "exit": end, "code": proc.returncode,
            "peak_rss_mib": usage.ru_maxrss / 1024, "traced": traced,
            "out": out_path, "err": err_path}


def _run_sessions(plan_path: Path, folder: Path, seconds: int,
                  trace: bool) -> list[dict]:
    kinds = (False, True) if trace else (False,)
    least = 1 if trace else MIN_ROUNDS
    sessions: list[dict] = []
    start = time.monotonic()
    rounds = 0
    while True:
        for traced in kinds:
            out = folder / f"session{len(sessions)}.json"
            sessions.append(_launch(plan_path, out, traced))
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= MAX_ROUNDS or (
                rounds >= least and elapsed * (rounds + 1) / rounds > seconds):
            return sessions


def _digest(rec: dict) -> str:
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()
                          ).hexdigest()


def _failed(rec: dict) -> bool:
    """An operation failed when it raised, or when the CLI exited with
    status 2 (bad input or an internal error) instead of 0 or 1."""
    return "error" in rec or rec.get("code") not in (None, 0, 1)


def _check_outputs(plan: dict, outputs: list, reference) -> tuple:
    """(failed, problems) over every session's outputs.  A failed
    operation and a session that ended without output are problems too.
    The first complete session is checked in full; the others must match
    it."""
    import checks

    ops = plan["ops"]
    failed = 0
    problems: list[str] = []
    first = None
    for index, out in enumerate(outputs):
        if out is None:
            failed += len(ops)
            problems.append(f"session {index} ended without output")
            continue
        for j, (op, item) in enumerate(zip(ops, out["ops"])):
            rec = item["result"]
            if _failed(rec):
                failed += 1
                problems.append(f"session {index} op {j} failed: "
                                f"{rec.get('error', rec.get('code'))}")
                continue
            if first is None or first[j] is None:
                problems += [f"op {j}: {p}"
                             for p in checks.check(op, rec, reference)]
            elif _digest(rec) != first[j]:
                problems.append(f"session {index} op {j}: output differs "
                                "from the first session's")
        if first is None:
            first = [None if _failed(item["result"])
                     else _digest(item["result"]) for item in out["ops"]]
    return failed, problems


# --------------------------------------------------------------- metrics --

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("total_s", "s"),
              ("peak_rss_mib", "MiB"))
TRIAL_TOKENS = ("t1", "t2", "cor1", "cor2", "rho-minus1", "erdos-turan")


def _session_times(session: dict, out: dict) -> dict:
    return {"setup_s": out["first_op"] - session["launch"],
            "run_s": out["ops_end"] - out["first_op"],
            "total_s": session["exit"] - session["launch"],
            "peak_rss_mib": session["peak_rss_mib"]}


def _layer_metrics(plan: dict, out: dict) -> dict:
    """Per-layer metrics of one traced session: name -> (value, unit)."""
    trace = out["trace"]
    empty = {"calls": 0, "total": 0.0, "self": 0.0}

    def stat(name):
        return trace.get(name, empty)

    def per_call(name, scale):
        s = stat(name)
        return s["total"] / s["calls"] * scale if s["calls"] else 0.0

    def hit_ratio(name):
        c = trace[name + ".cache"]
        lookups = c["hits"] + c["misses"]
        return c["hits"] / lookups if lookups else 0.0

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    m = {"factor.sieve_s": (out["sieve_s"], "s")}
    for layer in ("rational", "e"):
        name = f"factor.{layer}"
        m[name + ".calls"] = (stat(name)["calls"], "count")
        m[name + ".us"] = (per_call(name, 1e6), "us")
        m[name + ".hit_ratio"] = (hit_ratio(name), "ratio")

    table_s = out["pair_table_s"] or 0.0
    size = plan["pair_table"] or 0
    search_s = stat("search.run_search")["total"]
    nodes = sum(item["result"].get("nodes", 0) for item in out["ops"])
    m["search.pair_table_s"] = (table_s, "s")
    m["search.pair_table.pairs_per_s"] = (
        rate(size * (size - 1) // 2, table_s), "1/s")
    m["search.run_search_s"] = (search_s, "s")
    m["search.nodes"] = (nodes, "count")
    m["search.nodes_per_s"] = (rate(nodes, search_s), "1/s")

    m["core.gcd.calls"] = (stat("core.gcd")["calls"], "count")
    m["core.gcd.us"] = (per_call("core.gcd", 1e6), "us")
    for name in ("divides", "exact_div", "valuation", "residue_ring.reduce"):
        m[f"core.{name}.calls"] = (stat(f"core.{name}")["calls"], "count")

    coloring_s = stat("bounds.coloring")["total"]
    residues = sum(len(item["result"].get("assignment", ()))
                   for item in out["ops"])
    m["bounds.coloring_s"] = (coloring_s, "s")
    m["bounds.coloring.residues_per_s"] = (rate(residues, coloring_s), "1/s")
    m["bounds.split_s"] = (stat("bounds.split")["total"], "s")
    m["bounds.refine_t1_s"] = (stat("bounds.refine_t1")["total"], "s")
    m["bounds.refine_t2_s"] = (stat("bounds.refine_t2")["total"], "s")
    for token in TRIAL_TOKENS:
        m[f"bounds.trial_ms.{token}"] = (
            per_call(f"bounds.trial.{token}", 1e3), "ms")

    m["polyprod.omega_product_s"] = (
        stat("polyprod.omega_product")["total"], "s")
    m["polyprod.check_independence_s"] = (
        stat("polyprod.check_independence")["total"], "s")
    m["polyprod.determinants"] = (
        stat("polyprod.determinants")["calls"], "count")

    m["cli.self_s"] = (stat("cli.main")["self"], "s")
    m["cli.stdout_bytes"] = (sum(len(item["result"].get("stdout", "")
                                     .encode())
                                 for item in out["ops"]), "bytes")
    return m


def _median_metrics(per_session: list[dict]) -> dict:
    return {name: {"value": statistics.median(s[name][0]
                                              for s in per_session),
                   "unit": unit}
            for name, (_, unit) in per_session[0].items()}


# ---------------------------------------------------------------- record --

def _machine() -> dict:
    version = re.search(r'__version__\s*=\s*"([^"]+)"',
                        (SRC / "eulab" / "__init__.py").read_text())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"eulab_version": version.group(1) if version else None,
            "git_commit": commit,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def _op_label(op: dict) -> str:
    if op["op"] == "search":
        return (f"search k={op['k']} M={op['max']} "
                f"{'all' if op['all'] else 'first'}")
    if op["op"] == "cli":
        return " ".join(a for a in op["argv"] if "/" not in a)
    return f"{op['op']} {op['pi']} {op.get('rho0', '')}".strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eulab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "eulab" / "__init__.py").is_file():
        print(f"bench: no eulab sources under {SRC}", file=sys.stderr)
        return 2

    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-"
            f"{os.getpid()}")
    folder = RESULTS / f"{name}.run"
    folder.mkdir(parents=True)
    try:
        plan = workloads.build(args.workload, args.seed, folder)
        plan_path = folder / "plan.json"
        plan_path.write_text(json.dumps(plan))
        # compile eulab's bytecode before the first timed session
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import eulab.cli", str(SRC)],
                       env=_session_env(), check=True)
        sessions = _run_sessions(plan_path, folder, args.seconds,
                                 bool(args.trace))

        outputs = []
        for s in sessions:
            if s["code"] == 0 and s["out"].is_file():
                outputs.append(json.loads(s["out"].read_text()))
            else:
                sys.stderr.write(s["err"].read_text())
                outputs.append(None)
        reference = None
        if args.workload == "search":
            import checks
            reference = checks.load_reference()
        failed, problems = _check_outputs(plan, outputs, reference)
    finally:
        shutil.rmtree(folder, ignore_errors=True)

    timed = [(s, o) for s, o in zip(sessions, outputs) if o is not None]
    plain = [_session_times(s, o) for s, o in timed if not s["traced"]]
    traced = [_session_times(s, o) for s, o in timed if s["traced"]]
    if args.trace:
        layers = [_layer_metrics(plan, o) for s, o in timed if s["traced"]]
        metrics = _median_metrics(layers) if layers else {}
        if plain and traced:
            metrics["trace.overhead_s"] = {
                "value": statistics.median(t["total_s"] for t in traced)
                - statistics.median(p["total_s"] for p in plain),
                "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in plain),
                          "unit": unit}
                   for name, unit in END_TO_END} if plain else {}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        **_machine(),
        "attempted": len(plan["ops"]) * len(sessions), "failed": failed,
        "problems": problems,
        "sessions": [dict(_session_times(s, o), traced=s["traced"],
                          op_seconds=[item["seconds"] for item in o["ops"]])
                     for s, o in timed],
        "ops": [_op_label(op) for op in plan["ops"]],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{name}.json"
    record_path.write_text(json.dumps(record, indent=1))

    for line in problems[:20]:
        print(f"CHECK FAILED: {line}")
    print(f"{args.workload} seed {args.seed}: {len(sessions)} sessions, "
          f"{len(plan['ops'])} operations each, record {record_path}")
    if args.trace:
        absent = sorted(n for n, v in metrics.items() if v["value"] == 0)
        if absent:
            print(f"layers not exercised by {args.workload} (reported as "
                  f"0): {', '.join(absent)}")
    print(json.dumps({"correct": not problems,
                      "attempted": record["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
