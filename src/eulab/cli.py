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
One pass over the output (_encode) writes both texts: stdout's JSON,
byte-equal to json.dumps(out, indent=2), and the canonical JSON the digest
hashes.  It encodes an object that a list repeats once, and a list of
same-key records column by column.  CSV output takes only the canonical
text, from json's C encoder.  Its SHA-256 is CPython's built-in one:
hashlib would map OpenSSL's libcrypto into the process, 3.6 MiB of peak
RSS on Python 3.11, for one digest per run.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import time
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
    SparsePolySpec, _product_sets, build_vectors, check_independence,
    omega_product,
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
    # a split that keeps the whole set returns it, so a long chain repeats
    # one snapshot: one list per run of the same tuple, and one sizes list
    # per distinct sizes tuple, which the encoder writes once per list
    snapshots, last = [], None
    for snap in trace.snapshots:
        if snap is not last:
            last, texts = snap, [str(x) for x in snap]
        snapshots.append(texts)
    sizes = {t: list(t) for t in {s.sizes for s in trace.steps}}
    return {
        "mode": trace.mode,
        "rho": None if trace.rho is None else str(trace.rho),
        "initial": [str(x) for x in trace.initial],
        "sector": trace.sector,
        "steps": [{"prime": str(s.prime), "rule": s.rule,
                   "sizes": sizes[s.sizes], "kept": s.kept}
                  for s in trace.steps],
        "snapshots": snapshots,
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
        # the size rule, the value line of omega_product and the work line
        # of check_independence refuse before any determinant or factoring
        _, b_vecs = build_vectors(spec, set_a, set_b)
        _product_sets(set_a, set_b)
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
    import csv  # here, not at the top: only --format csv reads it

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["k", "max", "minimum", "witness_count", "examples"])
    examples = ";".join(" ".join(str(x) for x in wit)
                        for wit in out["witnesses"][:3])
    w.writerow([out["k"], out["max"], out["minimum"], out["witness_count"],
                examples])
    return buf.getvalue()


def _encode(obj, nl: str) -> tuple[str, str]:
    """(json.dumps(obj, indent=2) with nl at each newline, the canonical
    JSON of obj): sorted keys, compact separators, and every member named
    in _VOLATILE_KEYS null, at any depth.  Only a dict or list by exact
    type is walked; any other value is json.dumps'd as it stands.  A key
    that is not a str raises TypeError."""
    kind = type(obj)
    if kind is str:
        text = encode_basestring_ascii(obj)
        return text, text
    if kind is int:  # by type, so never bool
        text = int.__repr__(obj)
        return text, text
    if not obj or (kind is not dict and kind is not list):
        return (json.dumps(obj, indent=2).replace("\n", nl),
                json.dumps(obj, sort_keys=True, separators=(",", ":")))
    if kind is dict:
        [pretty], [canon] = _records([obj], tuple(obj), nl)
        return pretty, canon
    inner = nl + "  "
    pretty, canon = _encode_all(obj, inner)
    return ("[" + inner + ("," + inner).join(pretty) + nl + "]",
            "[" + ",".join(canon) + "]")


def _encode_all(values, nl: str):
    """The two texts of each of a non-empty sequence of values, each
    starting a line indented by nl, as (pretty texts, canonical texts).
    Only str or only int is one C-level map; dicts that share one
    non-empty key tuple go column by column (_records); anything else is
    encoded once per distinct object, so a list that repeats one object
    (refine's snapshots, its steps' sizes) encodes it once."""
    kinds = set(map(type, values))
    if kinds == {str}:
        texts = list(map(encode_basestring_ascii, values))
        return texts, texts
    if kinds == {int}:
        texts = list(map(int.__repr__, values))
        return texts, texts
    if kinds == {dict}:
        keys, *more = set(map(tuple, values))
        if keys and not more:
            return _records(values, keys, nl)
    distinct = dict(zip(map(id, values), values))
    texts = {i: _encode(v, nl) for i, v in distinct.items()}
    return tuple(zip(*map(texts.__getitem__, map(id, values))))


def _records(rows, keys: tuple, nl: str):
    """_encode_all for dicts whose keys are keys, in that order: each
    column of values is encoded at once, and each row is filled into one
    %-template per text.  The canonical template takes the columns in
    sorted-key order and holds null for a volatile key."""
    names = {k: encode_basestring_ascii(k).replace("%", "%%") for k in keys}
    inner = nl + "  "
    columns = dict(zip(keys, [_encode_all(col, inner)
                              for col in zip(*map(dict.values, rows))]))
    pretty = ("{" + inner + ("," + inner).join([names[k] + ": %s"
                                                for k in keys]) + nl + "}")
    order = sorted(keys)
    canon = "{" + ",".join([names[k] + (":null" if k in _VOLATILE_KEYS
                                        else ":%s") for k in order]) + "}"
    live = [columns[k][1] for k in order if k not in _VOLATILE_KEYS]
    return (list(map(pretty.__mod__, zip(*[columns[k][0] for k in keys]))),
            list(map(canon.__mod__, zip(*live))) if live
            else [canon] * len(rows))


def _output_texts(out) -> tuple[str, str]:
    """(json.dumps(out, indent=2), the canonical JSON the digest hashes),
    from one pass over out."""
    try:
        return _encode(out, "\n")
    except TypeError:
        # a key that is not a str: json converts it, after sorting by it
        # (keys of mixed kinds do not sort, and raise as they always have)
        return json.dumps(out, indent=2), _canonical_text(out)


def _canonical_text(out) -> str:
    """The canonical JSON alone, by json's C encoder from a copy of out
    with the volatile keys nulled: for csv output, which prints no JSON,
    and for an output with a key that is not a str."""
    return json.dumps(_null_volatile(out), sort_keys=True,
                      separators=(",", ":"))


def _render_json(obj) -> str:
    """Exactly json.dumps(obj, indent=2): the first text of _encode."""
    try:
        return _encode(obj, "\n")[0]
    except TypeError:
        return json.dumps(obj, indent=2)


def _null_volatile(obj):
    if isinstance(obj, dict):
        return {k: None if k in _VOLATILE_KEYS else _null_volatile(v)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_null_volatile(v) for v in obj]
    return obj


def output_digest(out: dict) -> str:
    """sha256 of the canonical JSON of out with the volatile keys nulled
    at any depth."""
    return sha256(_output_texts(out)[1].encode()).hexdigest()


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
        text, canonical = _render_csv(out), _canonical_text(out)
    else:
        pretty, canonical = _output_texts(out)
        text = pretty + "\n"
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
        "output_digest": sha256(canonical.encode()).hexdigest(),
    }
    print(json.dumps(manifest), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
