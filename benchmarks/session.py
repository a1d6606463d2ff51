"""One benchmark session: a fresh interpreter that runs a plan.

Usage: python3 benchmarks/session.py PLAN OUT SRC TRACE

Imports eulab from SRC, builds the sieve (and the shared pair table when
the plan asks for one), then performs the plan's operations in order,
timing each, and writes the outputs and timestamps to OUT as JSON.  With
TRACE = 1 the layer wrappers of tracing.py are installed after the import
and their spans are written too.  Timestamps come from time.monotonic(),
the clock the launching process also reads, so it can split the session
into set-up, run and exit.
"""

import contextlib
import io
import json
import sys
import time


def _run(op: dict, cache):
    """Perform one operation; returns (seconds, raw result)."""
    import eulab.bounds as bounds
    import eulab.cli as cli
    import eulab.search as search
    from eulab.core import EInt

    kind = op["op"]
    if kind == "search":
        start = time.perf_counter()
        result = search.run_search(cache, op["k"], op["max"],
                                   primitive_only=True,
                                   all_witnesses=op["all"], workers=1)
        return time.perf_counter() - start, result
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
        return time.perf_counter() - start, (code, out.getvalue())
    pi = EInt.parse(op["pi"])
    start = time.perf_counter()
    if kind == "uv_coloring":
        result = bounds.uv_coloring(pi)
    elif kind == "three_coloring":
        result = bounds.three_coloring(pi, EInt.parse(op["rho0"]))
    else:
        raise ValueError(f"unknown operation {kind!r}")
    return time.perf_counter() - start, result


def _record(op: dict, result) -> dict:
    """The part of a result the checks read, as plain JSON."""
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    kind = op["op"]
    if kind == "search":
        return {"minimum": result.minimum,
                "witness_count": result.witness_count,
                "witnesses": [list(w) for w in result.witnesses],
                "nodes": result.nodes_visited}
    if kind == "cli":
        code, stdout = result
        return {"code": code, "stdout": stdout}
    return {"groups": result.groups,
            "modulus": str(result.ring.modulus),
            "delta": result.delta,
            "assignment": [[r.a, r.b, g]
                           for r, g in result.assignment.items()]}


def main() -> int:
    plan_path, out_path, src, trace = sys.argv[1:5]
    sys.path.insert(0, src)
    with open(plan_path) as fh:
        plan = json.load(fh)

    import eulab.cli  # noqa: F401  (imports every eulab module)
    import eulab.factor as factor
    import eulab.search as search
    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.install()

    start = time.perf_counter()
    factor.sieve_primes()
    sieve_s = time.perf_counter() - start
    cache = None
    pair_table_s = None
    if plan["pair_table"]:
        start = time.perf_counter()
        cache = search.PairPrimeCache(plan["pair_table"])
        pair_table_s = time.perf_counter() - start

    first_op = time.monotonic()
    timed = []
    for op in plan["ops"]:
        try:
            timed.append(_run(op, cache))
        except Exception as exc:  # recorded as a failed operation
            timed.append((None, exc))
    ops_end = time.monotonic()

    out = {
        "first_op": first_op,
        "ops_end": ops_end,
        "sieve_s": sieve_s,
        "pair_table_s": pair_table_s,
        "ops": [{"seconds": seconds, "result": _record(op, result)}
                for op, (seconds, result) in zip(plan["ops"], timed)],
        "trace": None if tracer is None else tracer.report(),
    }
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
