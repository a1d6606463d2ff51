"""Command-line front end.

One executable, eight subcommands: factor, omega-e, tau, crho, verify,
refine, search, polyprod.  Primary output is JSON on stdout (CSV optional
for search); diagnostics and a one-line run manifest go to stderr.  Exit
status: 0 success (for verify: every trial passed), 1 at least one bound
failed, 2 usage or malformed input.

Eisenstein integers are written "a,b" for a + b*omega everywhere, with
negative coordinates allowed ("0,-1" is minus omega).  Set files carry one
element per line; blank lines and lines starting with # are skipped.

The manifest's output digest is computed over the output object with the
volatile fields (seconds, nodes_visited) nulled, so identical parameters,
seed and version yield an identical digest even though wall times differ.
Its SHA-256 is CPython's built-in one: hashlib would map OpenSSL's
libcrypto into the process, 3.6 MiB of peak RSS on Python 3.11, for one
digest per run.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import time
from csv import writer as csv_writer
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from eulab import __version__
from eulab.bounds import (
    THEOREMS, VERIFIERS, c_constants, refine_t1, refine_t2, run_trials,
)
from eulab.core import EInt, ONE
from eulab.factor import factor_e, factor_rational, omega_e, tau_e
from eulab.polyprod import (
    SparsePolySpec, build_vectors, check_independence, omega_product,
)
from eulab.search import PairPrimeCache, check_search, run_search

try:  # the built-in SHA-256 module: _sha2 from Python 3.12, _sha256 before
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

VERIFY_TOKENS = tuple(t.replace("_", "-") for t in THEOREMS)
_VOLATILE_KEYS = ("seconds", "nodes_visited")
# how each volatile key starts its member in compact JSON
_VOLATILE_MARKS = tuple(f'"{k}":' for k in _VOLATILE_KEYS)


class CliError(Exception):
    """Input problem that should terminate with exit status 2."""


def _f12(value: float) -> float:
    return float(f"{value:.12g}")


def _eint_arg(text: str) -> EInt:
    try:
        return EInt.parse(text)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_lines(path: str):
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parse_set(path: str, parse, what: str) -> list:
    """The elements of a set file, each line read by parse; a line parse
    rejects is reported as "bad <what>" with its file and line."""
    out = []
    for lineno, line in _read_lines(path):
        try:
            out.append(parse(line))
        except (ValueError, OverflowError):
            raise CliError(f"{path}:{lineno}: bad {what} {line!r}") from None
    if not out:
        raise CliError(f"{path}: no elements")
    return out


# --------------------------------------------------------------------------
# subcommand handlers: each returns (output object, exit code)
# --------------------------------------------------------------------------

def _cmd_factor(args) -> tuple[dict, int]:
    if args.n is not None:
        f = factor_rational(args.n)
        return {"n": args.n, "sign": f.sign,
                "factors": [{"p": p, "e": e} for p, e in f.factors]}, 0
    f = factor_e(args.e)
    return {"e": str(args.e), "unit": str(f.unit),
            "factors": [{"p": str(p), "e": e} for p, e in f.factors]}, 0


def _cmd_omega_e(args) -> tuple[dict, int]:
    return {"e": str(args.e), "omega": omega_e(args.e)}, 0


def _cmd_tau(args) -> tuple[dict, int]:
    return {"e": str(args.e), "tau": tau_e(args.e)}, 0


def _cmd_crho(args) -> tuple[dict, int]:
    c = c_constants(args.rho)
    return {
        "rho": str(c.rho),
        "c_rho": str(c.c_rho),
        "tau": c.tau,
        "threshold": c.threshold,
        "bound_constant": _f12(c.bound_constant),
        "primes": [{"pi": str(pc.pi), "gamma": pc.gamma, "delta": pc.delta,
                    "c": pc.c} for pc in c.primes],
    }, 0


def _report_dict(report) -> dict:
    out = report.to_json_dict()
    out["bound"] = _f12(out["bound"])
    return out


def _cmd_verify(args) -> tuple[dict, int]:
    token = args.theorem
    name = token.replace("-", "_")
    if token == "t2":
        if args.rho is None:
            raise CliError("verify t2 needs --rho")
    elif args.rho is not None:
        raise CliError(f"verify {token} does not take --rho")
    elif args.general:
        raise CliError(f"verify {token} does not take --general")

    if args.set is not None:
        kind, check = VERIFIERS[name]
        if kind == "eint":
            elements = _parse_set(args.set, EInt.parse, "element")
        else:
            elements = _parse_set(args.set, int, "integer")
        reports = [check(elements, None, args.rho, args.general)]
    else:
        reports = run_trials(name, args.trials, args.size, args.range,
                             seed=args.seed, rho=args.rho,
                             general=args.general)

    all_passed = all(r.passed for r in reports)
    out = {
        "theorem": token,
        "rho": None if args.rho is None else str(args.rho),
        "reports": [_report_dict(r) for r in reports],
        "all_passed": all_passed,
    }
    return out, 0 if all_passed else 1


def _cmd_refine(args) -> tuple[dict, int]:
    elements = _parse_set(args.set, EInt.parse, "element")
    if args.rho is None or args.rho == ONE:
        trace = refine_t1(elements)
    else:
        trace = refine_t2(elements, args.rho)
    return {
        "mode": trace.mode,
        "rho": None if trace.rho is None else str(trace.rho),
        "initial": [str(x) for x in trace.initial],
        "sector": trace.sector,
        "steps": [{"prime": str(s.prime), "rule": s.rule,
                   "sizes": list(s.sizes), "kept": s.kept}
                  for s in trace.steps],
        "snapshots": [[str(x) for x in snap] for snap in trace.snapshots],
        "final": [str(x) for x in trace.final],
        "checks": trace.checks,
    }, 0


def _cmd_search(args) -> tuple[dict, int]:
    check_search(args.k, args.max, args.workers)
    print(f"building pair table for max element {args.max} ...",
          file=sys.stderr)
    cache = PairPrimeCache(args.max)
    result = run_search(cache, args.k, args.max,
                        primitive_only=args.primitive,
                        all_witnesses=args.all_witnesses,
                        workers=args.workers)
    out = result.to_json_dict()
    out["seconds"] = _f12(out["seconds"])
    return out, 0


def _cmd_polyprod(args) -> tuple[dict, int]:
    try:
        raw = json.loads(Path(args.poly).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {args.poly}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.poly}: invalid JSON ({exc})") from None
    try:
        spec = SparsePolySpec(raw["n"], tuple(raw["r"]), tuple(raw["m"]))
    except (KeyError, TypeError) as exc:
        raise CliError(f"{args.poly}: expected keys n, r, m ({exc})") from None
    set_a = _parse_set(args.set_a, int, "integer")
    set_b = _parse_set(args.set_b, int, "integer")
    independence = None
    if args.check_independence:
        # the size rule and the work line refuse before any value is factored
        _, b_vecs = build_vectors(spec, set_a, set_b)
        report = check_independence(b_vecs)
        independence = {
            "independent": report.independent,
            "subsets_checked": report.subsets_checked,
            "singular_subset": None if report.singular_subset is None
            else [list(v) for v in report.singular_subset],
        }
    return {
        "n": spec.n,
        "size_a": len(set(set_a)),
        "size_b": len(set(set_b)),
        "omega": omega_product(spec, set_a, set_b),
        "independence": independence,
    }, 0


# --------------------------------------------------------------------------
# output plumbing
# --------------------------------------------------------------------------

def _render_csv(out: dict) -> str:
    buf = io.StringIO()
    w = csv_writer(buf)
    w.writerow(["k", "max", "minimum", "witness_count", "examples"])
    examples = ";".join(" ".join(str(x) for x in wit)
                        for wit in out["witnesses"][:3])
    w.writerow([out["k"], out["max"], out["minimum"], out["witness_count"],
                examples])
    return buf.getvalue()


def _render(obj, nl: str) -> str:
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = nl + "  "
    if kind is dict and obj:
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _render(v, inner)
             for k, v in obj.items()]) + nl + "}"
    if kind is list and obj:
        kinds = set(map(type, obj))
        if kinds == {str}:
            items = map(encode_basestring_ascii, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_render(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    return json.dumps(obj, indent=2).replace("\n", nl)


def _render_json(obj) -> str:
    """Exactly json.dumps(obj, indent=2), without json's pure-Python
    encoder for the common shapes: dicts and lists recurse with the
    newline and indent of their own line, a str or int (by type, so never
    bool) is encoded by json's C encoder or int.__repr__, and a list of
    only str or only int is one C-level join.  Any other value is
    json.dumps'd and re-indented, which is exact because an encoded value
    holds no raw newline inside a string; a key json would convert (not a
    str) makes encode_basestring_ascii raise TypeError, and the whole
    object then goes to json.dumps."""
    try:
        return _render(obj, "\n")
    except TypeError:
        return json.dumps(obj, indent=2)


def _null_volatile(obj):
    if isinstance(obj, dict):
        return {k: None if k in _VOLATILE_KEYS else _null_volatile(v)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_null_volatile(v) for v in obj]
    return obj


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def output_digest(out: dict) -> str:
    """sha256 of the canonical JSON of out with the volatile keys nulled
    at any depth.  In compact JSON only a key is followed by ':', so text
    without '"seconds":' or '"nodes_visited":' has no volatile key and is
    hashed as encoded; otherwise out is copied with them nulled first (a
    false hit, such as an escaped quote in a key, only takes that path)."""
    canon = _canonical_json(out)
    if any(mark in canon for mark in _VOLATILE_MARKS):
        canon = _canonical_json(_null_volatile(out))
    return sha256(canon.encode()).hexdigest()


_HANDLERS = {
    "factor": _cmd_factor,
    "omega-e": _cmd_omega_e,
    "tau": _cmd_tau,
    "crho": _cmd_crho,
    "verify": _cmd_verify,
    "refine": _cmd_refine,
    "search": _cmd_search,
    "polyprod": _cmd_polyprod,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parse_args does not
    change it, and building it costs about a millisecond per call."""
    parser = argparse.ArgumentParser(
        prog="eulab",
        description="Eisenstein-integer arithmetic, pair-product prime "
                    "bounds, and exhaustive subset searches.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a rational or Eisenstein integer")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int, help="rational integer")
    g.add_argument("--e", type=_eint_arg, help='Eisenstein integer "a,b"')

    p = sub.add_parser("omega-e", help="count distinct Eisenstein prime divisors")
    p.add_argument("--e", type=_eint_arg, required=True)

    p = sub.add_parser("tau", help="divisor count, unit multiples distinct")
    p.add_argument("--e", type=_eint_arg, required=True)

    p = sub.add_parser("crho", help="control constants for a multiplier rho")
    p.add_argument("--rho", type=_eint_arg, required=True)

    p = sub.add_parser("verify", help="randomized bound verification")
    p.add_argument("theorem", choices=VERIFY_TOKENS)
    p.add_argument("--set", help="verify this one set instead of random trials")
    p.add_argument("--rho", type=_eint_arg, help="multiplier (t2 only)")
    p.add_argument("--general", action="store_true",
                   help="force the general machinery for rho = 1,0 "
                        "(t2 only)")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--range", type=int, default=100,
                   help="coordinate range (E sets) or max value (integer sets)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("refine", help="run a refinement chain with trace")
    p.add_argument("--set", required=True)
    p.add_argument("--rho", type=_eint_arg,
                   help="multiplier; omit or pass 1,0 for the additive chain")

    p = sub.add_parser("search", help="minimum omega over k-subsets of 1..M")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--primitive", action="store_true",
                   help="restrict to sets with overall gcd 1")
    p.add_argument("--all-witnesses", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("polyprod", help="vector lift and omega of a sparse "
                                        "polynomial's pair product")
    p.add_argument("--poly", required=True, help="JSON file {n, r, m}")
    p.add_argument("--set-a", required=True, dest="set_a")
    p.add_argument("--set-b", required=True, dest="set_b")
    p.add_argument("--check-independence", action="store_true")

    # "a,b" values with a leading minus ("-1,0") must parse as option
    # values, not flags, so widen the token pattern argparse treats as
    # a negative number on every parser in the tree.
    matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+,-?\d+$")
    for sp in (parser, *sub.choices.values()):
        sp._negative_number_matcher = matcher

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        out, code = _HANDLERS[args.command](args)
    except (CliError, ValueError, OverflowError) as exc:
        print(f"eulab: {exc}", file=sys.stderr)
        return 2

    if getattr(args, "format", "json") == "csv":
        text = _render_csv(out)
    else:
        text = _render_json(out) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            print(f"eulab: cannot write {out_path}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    params = {k: str(v) if isinstance(v, EInt) else v
              for k, v in vars(args).items() if k != "command"}
    manifest = {
        "subcommand": args.command,
        "params": params,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time": _f12(time.perf_counter() - start),
        "output_digest": output_digest(out),
    }
    print(json.dumps(manifest), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
