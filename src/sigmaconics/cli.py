"""Verification command line.

Subcommands: classify a single matrix, run censuses (exhaustive up to
scalars, diagonal-only, or seeded random sampling), build and check the
exterior-set rank-metric codes, and cross-check the Steiner generation of
rank-2 absolute sets.

Field elements on the wire are integers sum(c_i * p^i) over the polynomial
coordinates of the deterministic tower modulus; matrices are row-major.
Reports are JSON lines (or a CSV summary) with no timestamps, so a given
command line and seed always reproduce identical bytes.

Exit codes: 0 success, 2 bad usage/parameters (an unwritable output path
included), 3 a theorem check failed, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .census import (diagonal_census, exhaustive_invertible_census,
                     form_record, random_census, rank2_random_census,
                     rank_le2_census)
from .cfsets import (cf_canonical, embed_subplane_in_component, exterior_set,
                     steiner_matches_form, verify_exterior)
from .classify import LineTaxonomyError, classify_line_form
from .fields import build_field
from .forms import make_form
from .mrd import (build_code, orbit_differences, orbit_distance,
                  orbit_linear, singleton_bound)
from .projective import CapExceeded, projective_space

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_CAP = 4


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _header(tower, command: str, params: dict) -> dict:
    return {
        "record": "header",
        "tool": "sigmaconics",
        "version": __version__,
        "command": command,
        "p": tower.p, "e": tower.e, "n": tower.n, "m": tower.m,
        "q": tower.q, "order": tower.order,
        "modulus": list(tower.modulus),
        "encoding": "element integers are sum(c_i*p^i) over polynomial "
                    "coordinates; matrices row-major",
        "params": params,
    }


class _Writer:
    def __init__(self, path: str | None, fmt: str):
        self.fmt = fmt
        self.lines = []
        self.path = path

    def add(self, obj: dict):
        self.lines.append(obj)

    def flush(self):
        if self.fmt == "jsonl":
            text = "".join(_json(o) + "\n" for o in self.lines)
        else:  # csv summary: histogram rows only
            rows = ["record,key,value"]
            for o in self.lines:
                kind = o.get("record", "record")
                if kind == "summary":
                    for k in sorted(o.get("histogram", {})):
                        rows.append(f"histogram,{k},{o['histogram'][k]}")
                    rows.append(f"summary,total,{o.get('total', 0)}")
                    rows.append(f"summary,violations,{o.get('violations', 0)}")
                elif kind == "header":
                    rows.append(f"header,version,{o['version']}")
                    rows.append(f"header,field,p={o['p']} e={o['e']} "
                                f"n={o['n']} m={o['m']}")
            text = "\n".join(rows) + "\n"
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _tower_from_args(args):
    return build_field(args.p, args.e, args.n, args.m)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "integer"       # argparse names the type in its errors
    return parse


def _add_field_args(sub):
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--e", type=int, default=1, help="degree of F_q over F_p")
    sub.add_argument("--n", type=int, required=True, help="degree of the extension over F_q")
    sub.add_argument("--m", type=int, default=1, help="sigma exponent: x -> x^(q^m)")


def _add_out_args(sub):
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def cmd_classify(args) -> int:
    tower = _tower_from_args(args)
    form = make_form(tower, args.matrix)
    writer = _Writer(args.out, args.format)
    writer.add(_header(tower, "classify", {"matrix": args.matrix}))
    if form.d == 1:
        try:
            cls = classify_line_form(form)
            kind, ids, degenerate, violations = (cls.kind, cls.point_ids,
                                                 cls.degenerate, [])
        except LineTaxonomyError as exc:
            kind, ids, degenerate, violations = None, exc.point_ids, None, [str(exc)]
        rec = {"record": "matrix", "matrix": args.matrix, "kind": kind,
               "absolute": len(ids), "degenerate": degenerate,
               "points": list(ids), "violations": violations}
    else:
        rec = dict(form_record(form), record="matrix")
    writer.add(rec)
    writer.flush()
    return EXIT_VIOLATION if rec["violations"] else EXIT_OK


def _summary_record(summary) -> dict:
    return {
        "record": "summary",
        "mode": summary.mode,
        "histogram": {str(k): v for k, v in sorted(summary.histogram.items())},
        "kinds": dict(sorted(summary.kind_counts.items())),
        "total": summary.total,
        "violations": summary.violation_count,
    }


def cmd_census(args) -> int:
    if args.mode == "random" and args.scope != "gl":
        raise SystemExit("--scope applies to exhaustive mode only")
    if args.mode == "exhaustive" and (args.any_rank or args.records):
        flag = "--any-rank" if args.any_rank else "--records"
        raise SystemExit(f"{flag} applies to random mode only")
    tower = _tower_from_args(args)
    writer = _Writer(args.out, args.format)
    params = {"mode": args.mode, "scope": args.scope, "count": args.count,
              "seed": args.seed}
    writer.add(_header(tower, "census", params))
    summaries = []
    keep = args.max_violations
    if args.mode == "exhaustive":
        if args.scope in ("gl", "all"):
            summaries.append(exhaustive_invertible_census(tower, max_violations=keep))
        if args.scope in ("rank-le2", "all"):
            summaries.append(rank_le2_census(tower, max_violations=keep))
        if args.scope == "diagonal":
            summaries.append(diagonal_census(tower, max_violations=keep))
    else:
        if args.seed is None:
            raise SystemExit("--seed is required in random mode")
        summary = random_census(tower, args.count, args.seed,
                                invertible_only=not args.any_rank,
                                records=args.records, max_violations=keep)
        for rec in summary.records:
            writer.add(dict(rec, record="matrix"))
        summaries.append(summary)
    code = EXIT_OK
    for summary in summaries:
        for v in summary.violations:
            writer.add(dict(v, record="violation"))
        writer.add(_summary_record(summary))
        if summary.violation_count:
            code = EXIT_VIOLATION
    writer.flush()
    return code


def cmd_mrd(args) -> int:
    tower = _tower_from_args(args)
    if tower.q <= 2 or tower.n < 3:
        raise SystemExit("the code construction needs q > 2 and n >= 3")
    T = sorted(set(args.T))
    if 1 not in T:
        raise SystemExit("the replaced-component set T must contain 1")
    # every exterior set has q^n + 1 points
    orbit_differences(tower, tower.order + 1, args.scalars)
    space = projective_space(tower, 2)
    cf = cf_canonical(tower)
    sub = embed_subplane_in_component(cf)
    ext = exterior_set(cf, T)
    exterior_ok = verify_exterior(ext.point_ids, sub, space)
    code = build_code(ext, sub, args.scalars)
    dist = orbit_distance(code)
    bound = singleton_bound(3, tower.n, tower.q, 2)
    linear = orbit_linear(code)
    # replacing every component turns the exterior set into the full line
    # joining the vertices, whose scalar orbit is a linear spread-set code
    proper_t = len(T) < tower.q - 1
    report = {
        "record": "summary",
        "T": T,
        "scalars": args.scalars,
        "exterior_set_size": len(ext.point_ids),
        "exterior_verified": exterior_ok,
        "code_size": len(code),
        "min_rank_distance": dist,
        "singleton_bound": bound,
        "meets_bound": len(code) == bound,
        "linear": linear,
        "nonlinearity_required": proper_t,
    }
    writer = _Writer(args.out, args.format)
    writer.add(_header(tower, "mrd", {"T": T, "scalars": args.scalars}))
    writer.add(report)
    writer.flush()
    if args.code_out:
        with open(args.code_out, "w") as fh:
            fh.write(_json(_header(tower, "mrd-code",
                                   {"T": T, "scalars": args.scalars})) + "\n")
            for mat in code.matrices:
                fh.write(_json({"record": "codeword",
                                "entries": [int(x) for x in mat.ravel()]}) + "\n")
    ok = exterior_ok and dist == 2
    if proper_t:
        ok = ok and not linear
    if args.scalars == "all":
        ok = ok and len(code) == bound
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_steiner_check(args) -> int:
    tower = _tower_from_args(args)
    writer = _Writer(args.out, args.format)
    writer.add(_header(tower, "steiner-check",
                       {"matrix": args.matrix, "count": args.count,
                        "seed": args.seed}))
    if args.matrix:
        form = make_form(tower, args.matrix)
        if form.d != 2 or form.rank() != 2:
            raise SystemExit("steiner-check needs a rank-2 3x3 matrix")
        ok = steiner_matches_form(form)
        writer.add({"record": "matrix", "matrix": args.matrix, "match": ok})
        writer.flush()
        return EXIT_OK if ok else EXIT_VIOLATION
    if args.seed is None:
        raise SystemExit("--seed is required without an explicit matrix")
    summary = rank2_random_census(tower, args.count, args.seed)
    writer.add(_summary_record(summary))
    writer.flush()
    return EXIT_VIOLATION if summary.violation_count else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sigmaconics",
        description="classify absolute-point sets of sesquilinear forms and "
                    "verify their structure theorems by enumeration")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify one 2x2 or 3x3 matrix")
    _add_field_args(c)
    c.add_argument("--matrix", type=int, nargs="+", required=True,
                   help="4 or 9 encoded entries, row-major")
    _add_out_args(c)
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("census", help="sweep matrices and histogram the "
                                      "absolute counts")
    _add_field_args(c)
    c.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    c.add_argument("--scope", choices=("gl", "rank-le2", "diagonal", "all"),
                   default="gl", help="exhaustive sweep scope")
    c.add_argument("--count", type=_int_at_least(1), default=10000,
                   help="random sample size")
    c.add_argument("--seed", type=int, help="random mode requires a seed")
    c.add_argument("--records", type=_int_at_least(0), default=0,
                   help="random mode: emit fully classified records for "
                        "this many samples")
    c.add_argument("--any-rank", action="store_true",
                   help="random mode: sample all nonzero matrices, not only "
                        "invertible ones")
    c.add_argument("--max-violations", type=_int_at_least(0), default=100)
    _add_out_args(c)
    c.set_defaults(func=cmd_census)

    c = sub.add_parser("mrd", help="build and verify the exterior-set "
                                   "rank-metric code")
    _add_field_args(c)
    c.add_argument("--T", type=int, nargs="+", default=[1],
                   help="replaced components (subfield elements, must "
                        "include 1)")
    c.add_argument("--scalars", choices=("all", "subfield"), default="all")
    c.add_argument("--code-out", help="write the codewords to this path")
    _add_out_args(c)
    c.set_defaults(func=cmd_mrd)

    c = sub.add_parser("steiner-check", help="verify that the Steiner locus "
                                             "of a rank-2 form equals its "
                                             "absolute set")
    _add_field_args(c)
    c.add_argument("--matrix", type=int, nargs="+",
                   help="9 encoded entries; omit to sample")
    c.add_argument("--count", type=_int_at_least(1), default=1000)
    c.add_argument("--seed", type=int)
    _add_out_args(c)
    c.set_defaults(func=cmd_steiner_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, ZeroDivisionError, OSError) as exc:
        # OSError: a report or code path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return EXIT_USAGE
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
