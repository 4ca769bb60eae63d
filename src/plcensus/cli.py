"""Command-line front end.

Subcommands: ``seq`` (sequence terms in json/csv/bfile form), ``count``
(exact solution counts for a family map), ``verify`` (oracle cross-check
plus congruence sweep, or a conjecture explorer), and ``gfcheck``
(generating function vs recurrence).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard exceeded.  JSON is the default output format; all numbers are printed
in full-precision decimal, whatever their length.  Each command loads only
the library modules it runs.
"""

from __future__ import annotations

import argparse
import sys
import time

# Each command imports the library modules it runs when it starts: ``seq`` and
# ``gfcheck`` load ``sequences`` and ``exactnum``, ``verify --conjecture`` adds
# ``census``, ``count`` loads ``families`` and ``plmap``, and ``verify
# --family`` loads them all.  The parser loads none of them, so family and map
# names are checked where the specs and maps are built.

USAGE_ERROR = 2
VERIFY_ERROR = 1
RESOURCE_ERROR = 3


def _parse_range(text: str) -> list[int]:
    """'0..3' -> [0, 1, 2, 3]; '5' -> [5].  Bounds may be negative."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def cmd_seq(args) -> int:
    from . import sequences

    spec = sequences.build_spec(args.family, j=args.j, m=args.m, n=args.n)
    term_list = sequences.terms(spec, args.k)
    if args.format == "bfile":
        print("\n".join(f"{k} {v}" for k, v in enumerate(term_list, 1)))
    elif args.format == "csv":
        print("k,value")
        for k, v in enumerate(term_list, 1):
            print(f"{k},{v}")
    else:
        import json

        record = {
            "command": "seq",
            "family": args.family,
            "params": dict(spec.params),
            "K": args.k,
            "terms": [[k, v] for k, v in enumerate(term_list, 1)],
        }
        print(json.dumps(record))
    return 0


def _custom_map(text: str):
    """The map through the anchors of '0:0,1:2,2:0'; PLMap reads each x and
    y text as a Fraction."""
    from .plmap import PLMap

    anchors = []
    for part in text.split(","):
        if part.count(":") != 1:
            raise ValueError(f"anchor {part!r} is not x:y")
        anchors.append(part.split(":"))
    return PLMap(anchors)


def cmd_count(args) -> int:
    from . import _build, families, plmap

    # --map custom takes only --anchors; a family map takes no --anchors
    table = {**families._BUILDERS, "custom": (_custom_map, ("anchors",))}
    params = {"n": args.n, "m": args.m, "j": args.j, "anchors": args.anchors}
    pl_map = _build("family" if args.map in families._BUILDERS else "map", table, args.map, params)
    max_pieces = plmap.DEFAULT_MAX_PIECES if args.max_pieces is None else args.max_pieces
    try:
        count = pl_map.count_solutions(args.k, sign=args.sign, method=args.method, max_pieces=max_pieces)
    except plmap.InfiniteSolutions as exc:
        import json

        lo, hi = exc.witness
        print(
            json.dumps(
                {
                    "command": "count",
                    "infinite_solutions": True,
                    "k": args.k,
                    "sign": args.sign,
                    "witness": [str(lo), str(hi)],
                }
            )
        )
        return 0
    print(count)
    return 0


def _gf_rows(spec, K: int) -> list[dict]:
    """Generating-function expansion against the recurrence terms, k <= K."""
    from . import sequences
    from .exactnum import series_expand

    expanded = series_expand(spec.gf_num, spec.gf_den, K)
    wanted = sequences.terms(spec, K)
    return [
        {"k": k, "sequence": wanted[k - 1], "series": expanded[k - 1], "match": wanted[k - 1] == expanded[k - 1]}
        for k in range(1, K + 1)
    ]


def _summary(t0: float, **fields) -> dict:
    """A record's summary block: ``fields``, then the runtime since t0."""
    return {**fields, "runtime_ms": round((time.perf_counter() - t0) * 1000, 3)}


ORACLE_MAP = {
    # sequence family -> map selection for the oracle cross-check
    "a": lambda p: {"family": "base2"} if p["n"] == 3 else {"family": "fmn", "n": p["n"], "m": 2},
    "b": lambda p: {"family": "gn", "n": p["n"]},
    "c": lambda p: {"family": "hjmn", "j": p["j"], "m": p["m"], "n": p["n"]},
    "s": lambda p: {"family": "pn", "n": p["n"]},
}


def _oracle_check(family: str, spec, depth: int) -> dict:
    """Sequence terms vs the independent map count for k <= depth."""
    from . import sequences
    from .families import FamilyParams
    from .plmap import InfiniteSolutions

    params = dict(spec.params)
    if family == "d":
        # no map realizes the d family here; cross-check GF vs recurrence instead
        first = next((r["k"] for r in _gf_rows(spec, depth) if not r["match"]), None)
        return {"kind": "gf", "depth": depth, "pass": first is None, "first_mismatch": first}
    pl_map = FamilyParams(**ORACLE_MAP[family](params)).build()
    sign = -1 if family == "s" else 1
    try:
        counts = pl_map.count_sequence(depth, sign=sign)
    except InfiniteSolutions as exc:
        # the map fails the finiteness hypothesis at this iterate, so the
        # sequence cannot be its fixed-point count there
        lo, hi = exc.witness
        return {
            "kind": "map",
            "depth": depth,
            "pass": False,
            "first_mismatch": exc.k,
            "infinite_solutions_at": exc.k,
            "witness": [str(lo), str(hi)],
        }
    wanted = sequences.terms(spec, depth)
    first = next((k for k in range(1, depth + 1) if counts[k - 1] != wanted[k - 1]), None)
    return {"kind": "map", "depth": depth, "pass": first is None, "first_mismatch": first}


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit_rows(record: dict, fmt: str) -> None:
    """Print a run record as one JSON object or as CSV (header + data rows)."""
    if fmt == "csv":
        rows = record["rows"]
        header = list(rows[0]) if rows else []
        print(",".join(header))
        for row in rows:
            print(",".join(_csv_cell(row[h]) for h in header))
    else:
        import json

        print(json.dumps(record))


def _qrs(n: int, q: str, r: str, s: str, K: int):
    from . import census

    findings = census.explore_qrs(n, _parse_range(q), _parse_range(r), _parse_range(s), K)
    return [f.to_dict() for f in findings], next((f.to_dict() for f in findings if not f.holds), None)


def _phi1_on_s(n: int, K: int):
    from . import census

    reports = census.check_phi1_on_s(n, K)
    return [r.to_dict() for r in reports], next((r.k for r in reports if not r.passed), None)


_CONJECTURES = {
    # conjecture -> (explorer returning (rows, first failure), the flags it takes)
    "qrs": (_qrs, ("n", "q", "r", "s", "K")),
    "phi1-on-s": (_phi1_on_s, ("n", "K")),
}


def _verify_conjecture(name: str, params: dict, fmt: str, t0: float) -> int:
    from . import _build

    rows, first = _build("conjecture", _CONJECTURES, name, params)
    record = {
        "command": "verify",
        "target": f"conjecture:{name}",
        "params": {a: params[a] for a in _CONJECTURES[name][1] if a != "K"},
        "K": params["K"],
        "rows": rows,
        "summary": _summary(t0, all_pass=first is None, first_failure=first),
    }
    _emit_rows(record, fmt)
    return 0  # conjecture findings are data, not failures


def cmd_verify(args) -> int:
    from . import _at_least, census, sequences

    t0 = time.perf_counter()
    if args.oracle_depth is not None:
        _at_least("--oracle-depth", args.oracle_depth, 1)
    if args.conjecture:
        # every flag but the mode and the output format
        params = {a: v for a, v in vars(args).items() if a not in ("command", "func", "conjecture", "format")}
        return _verify_conjecture(args.conjecture, params, args.format, t0)
    if not args.family:
        raise ValueError("verify needs --family or --conjecture")
    spec = sequences.build_spec(args.family, n=args.n, m=args.m, j=args.j, q=args.q, r=args.r, s=args.s)
    operator = args.operator or ("phi2" if args.family == "s" else "phi1")
    oracle = _oracle_check(args.family, spec, 8 if args.oracle_depth is None else args.oracle_depth)
    reports = census.verify_congruence(spec, operator, args.K)
    all_pass = oracle["pass"] and all(r.passed for r in reports)
    first = None
    if not oracle["pass"]:
        first = {"stage": "oracle", "k": oracle["first_mismatch"]}
    else:
        bad = next((r for r in reports if not r.passed), None)
        if bad is not None:
            first = {"stage": "congruence", "k": bad.k}
    record = {
        "command": "verify",
        "target": f"family:{args.family}",
        "params": dict(spec.params),
        "operator": operator,
        "K": args.K,
        "oracle_check": oracle,
        "rows": [r.to_dict() for r in reports],
        "summary": _summary(t0, all_pass=all_pass, first_failure=first),
    }
    _emit_rows(record, args.format)
    return 0 if all_pass else VERIFY_ERROR


def cmd_gfcheck(args) -> int:
    from . import sequences

    t0 = time.perf_counter()
    spec = sequences.build_spec(args.family, j=args.j, m=args.m, n=args.n)
    rows = _gf_rows(spec, args.K)
    first = next((r["k"] for r in rows if not r["match"]), None)
    record = {
        "command": "gfcheck",
        "family": args.family,
        "params": dict(spec.params),
        "K": args.K,
        "numerator": list(spec.gf_num.coeffs),
        "denominator": list(spec.gf_den.coeffs),
        "rows": rows,
        "summary": _summary(t0, all_pass=first is None, first_mismatch=first),
    }
    if spec.note:
        record["note"] = spec.note
    _emit_rows(record, args.format)
    return 0 if first is None else VERIFY_ERROR


def _add_seq_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--j", type=int, default=None)


# options whose value may start with '-': an anchor list such as
# '-1:1,0:0,1:-1' (every odd map's first anchor is negative) and a range
# such as '-3..3'
_SIGNED_VALUE_OPTIONS = frozenset({"--anchors", "--q", "--r", "--s"})


def _attach_signed_values(argv: list[str]) -> list[str]:
    """argv with '--anchors -1:1,...' written '--anchors=-1:1,...', and the
    same for the other options above.  argparse reads a value that starts
    with '-' as an option, unless it is a plain number; a following '--...'
    stays an option, so a missing value is still reported as missing."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plcensus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the names the builders take, shown as argparse shows choices; listed
    # here so the parser loads no library module, and a test holds them to
    # the builder tables
    family_names = "{a,b,c,d,s}"

    p = sub.add_parser("seq", help="emit sequence terms")
    p.add_argument("--family", required=True, metavar=family_names)
    _add_seq_param_args(p)
    p.add_argument("--k", type=int, required=True, help="number of terms")
    p.add_argument("--format", choices=("json", "csv", "bfile"), default="json")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("count", help="count solutions of f^k(x) = sign*x")
    p.add_argument("--map", required=True, metavar="{base2,fmn,gn,hjmn,pn,custom}")
    _add_seq_param_args(p)
    p.add_argument("--k", type=int, required=True, help="iterate power")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--anchors", default=None, help="custom map anchors, 'x:y,x:y,...'")
    p.add_argument("--max-pieces", type=int, default=None)
    p.add_argument("--method", choices=("auto", "pieces", "markov"), default="auto")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="oracle cross-check + congruence sweep")
    p.add_argument("--family", default=None, metavar=family_names)
    p.add_argument("--conjecture", choices=tuple(_CONJECTURES), default=None)
    _add_seq_param_args(p)
    p.add_argument("--K", type=int, required=True, help="congruence sweep bound")
    p.add_argument("--operator", choices=("phi1", "phi2"), default=None)
    p.add_argument("--oracle-depth", type=int, default=None, help="map oracle depth (default 8)")
    p.add_argument("--q", default=None, help="range like 0..3 (qrs)")
    p.add_argument("--r", default=None, help="range like 0..3 (qrs)")
    p.add_argument("--s", default=None, help="range like 0..3 (qrs)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gfcheck", help="generating function vs recurrence")
    p.add_argument("--family", required=True, metavar=family_names)
    _add_seq_param_args(p)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_gfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    # numbers are printed in full, past the default 4300-digit limit on
    # int-to-str conversion; the caller's limit is back on return
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        # a PieceLimitError was raised in plmap, which is loaded by then
        from .plmap import PieceLimitError

        if not isinstance(exc, PieceLimitError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
