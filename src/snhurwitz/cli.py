"""Command-line front door: computations, verifications, sweeps, memo warm-up.

One invocation prints a single JSON document (or CSV rows) on stdout with
the resolved parameters echoed in its header; diagnostics go to stderr.
Exit codes: 0 success or verification PASS, 1 verification FAIL
(counterexample found), 2 usage or computation error.  The character memo
lives in memory for one invocation; --cache-dir and --no-cache-file are
accepted and ignored.

CSV column orders (frozen):
  bseries:     m,b
  verify:      clause,pass,m,expected,got,note
  conjecture:  clause,pass,detail
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import characters, hurwitz, structure, verify, young_trees
from .characters import CharCache
from .errors import SnHurwitzError
from .partitions import Partition, parse, partitions_of


def _emit(args, payload: dict, csv_rows: tuple[list[str], list[list]] | None = None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    elif args.format == "csv":
        if csv_rows is None:
            raise SnHurwitzError("this subcommand has no CSV form; use --format json")
        header, rows = csv_rows
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([str(x) for x in row] for row in rows)
    else:
        _pretty(payload)


def _pretty(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _pretty(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                print(f"{pad}  -")
                _pretty(item, indent + 2)
        else:
            print(f"{pad}{key}: {value}")


def _profiles(values) -> tuple[Partition, ...]:
    return tuple(parse(v) for v in values or [])


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_chi(args, cache) -> int:
    lam, mu = parse(args.lam), parse(args.mu)
    value = characters.chi(lam, mu, cache)
    _emit(args, {"command": "chi",
                 "params": {"lambda": str(lam), "mu": str(mu)},
                 "chi": str(value)})
    return 0


def _cmd_f(args, cache) -> int:
    lam, r = parse(args.lam), args.r
    if args.method == "trees":
        value = young_trees.central_character_from_trees(lam, r)
    elif args.method == "frobenius":
        value = young_trees.frobenius_central_character(r, lam)
    else:
        value = characters.one_cycle_central_character(r, lam, cache)
    _emit(args, {"command": "f",
                 "params": {"lambda": str(lam), "r": r, "method": args.method},
                 "f": str(value)})
    return 0


def _cmd_trees(args, cache) -> int:
    lam = parse(args.lam)
    trees = young_trees.enumerate_trees(lam, args.r)
    payload = {"command": "trees",
               "params": {"lambda": str(lam), "r": args.r},
               "count": len(trees),
               "signed_weighted_sum": str(sum((-1) ** t.vert * t.weight for t in trees))}
    if not args.count_only:
        payload["trees"] = [t.to_json() for t in trees]
    _emit(args, payload)
    return 0


def _cmd_hurwitz(args, cache) -> int:
    d, h = args.d, args.target_genus
    mus = _profiles(args.profile)
    params = {"kind": args.kind, "d": d, "h": h,
              "profiles": [str(p) for p in mus]}
    if args.kind == "connected" and args.nu is None:
        raise SnHurwitzError("connected needs --nu with --k or --g")
    if args.nu is None and (args.k is not None or args.g is not None):
        raise SnHurwitzError("--k and --g need --nu")
    cover = hurwitz.CoverSpec(h, d, mus)
    g = k = None
    if args.nu is not None:
        nu = parse(args.nu)
        spec = hurwitz.RepeatedSpec(cover, nu, k=args.k, g=args.g)
        k = spec.point_count()
        g = spec.genus()
        params.update({"nu": str(nu), "k": k, "g": g})
        cover = spec.cover_spec()
    if args.kind == "connected":
        value = hurwitz.connected(spec, cache)
        if not spec.parity_ok():
            params["parity_violation"] = True
    elif args.kind == "disconnected":
        value = hurwitz.disconnected(cover, cache)
    elif args.kind == "bf-connected":
        value = hurwitz.brute_force_connected(cover)
    else:
        value = hurwitz.brute_force_disconnected(cover)
    payload = {"command": "hurwitz", "params": params,
               "kind": args.kind, "h": h, "d": d, "g": g, "k": k,
               "profiles": params["profiles"], "value": str(value)}
    if params.get("nu"):
        payload["nu"] = params["nu"]
    _emit(args, payload)
    return 0


def _cmd_bseries(args, cache) -> int:
    d, h = args.d, args.target_genus
    nu = parse(args.nu)
    mus = _profiles(args.profile)
    parity = None if args.parity is None else (0 if args.parity == "even" else 1)
    if args.kind == "connected":
        table = structure.extract_b_connected(h, d, mus, nu, cache, parity)
    else:
        table = structure.extract_b_disconnected(h, d, mus, nu, cache, parity)
    payload = {"command": "bseries",
               "params": {"kind": args.kind, "d": d, "h": h, "nu": str(nu),
                          "mus": [str(m) for m in mus]},
               **table.to_json()}
    rows = [[m, str(b)] for m, b in sorted(table.entries.items(), reverse=True)]
    _emit(args, payload, (["m", "b"], rows))
    return 0


def _cmd_verify(args, cache) -> int:
    what = args.what.lower()
    if what == "lemma-l1":
        report = verify.sweep_lemma_l1(args.d, args.r, cache).to_json()
    elif what == "lemma-rm2":
        report = verify.check_lemma_rm2(args.d, cache).to_json()
    elif what == "theorem-b":
        report = verify.check_theorem_B(args.d, cache).to_json()
    elif (name := structure.statement_name(what)) is not None:
        report = structure.verify_theorem(
            name, h=args.target_genus, d=args.d, r=args.r,
            nu=parse(args.nu) if args.nu else None,
            mus=_profiles(args.profile), cache=cache)
    else:
        raise SnHurwitzError(f"unknown verification target {args.what!r}")
    ok = report.get("pass", False)
    payload = {"command": "verify", "target": args.what, **report}
    rows = None
    if "clauses" in report:
        rows = (["clause", "pass", "m", "expected", "got", "note"],
                [[c.get("id"), c.get("pass"), c.get("m", ""), c.get("expected", ""),
                  c.get("got", ""), c.get("note", "")] for c in report["clauses"]])
    _emit(args, payload, rows)
    return 0 if ok else 1


def _cmd_conjecture(args, cache) -> int:
    if args.which == "1":
        report = verify.check_conjecture1(args.d, cache).to_json()
        failing = {e["mu"] for e in report["violations"] + report["equality_mismatches"]}
        rows = (["clause", "pass", "detail"],
                [[e.get("clause", ""), e["mu"] not in failing, e["mu"]]
                 for e in report["equality_set"]])
    else:
        if args.nu is None:
            raise SnHurwitzError(f"{args.which} needs --nu")
        report = structure.check_conjecture_b(
            args.which, args.d, parse(args.nu), h=args.target_genus,
            mus=_profiles(args.profile), cache=cache)
        rows = (["clause", "pass", "detail"],
                [[c["id"], c["pass"], c.get("m", c.get("interval", ""))]
                 for c in report["clauses"]])
    ok = report.get("pass", False)
    payload = {"command": "conjecture", "which": args.which, **report}
    _emit(args, payload, rows)
    return 0 if ok else 1


def _cmd_cache(args, cache) -> int:
    # checked up front: the warm-up fills every degree below d before χ
    # itself would reject d
    if not 1 <= args.d <= cache.max_degree:
        raise SnHurwitzError(f"cache warm needs 1 ≤ d ≤ {cache.max_degree}, got {args.d}")
    for d in range(1, args.d + 1):
        for mu in partitions_of(d):
            characters.chi_column(mu, cache)
    _emit(args, {"command": "cache", "action": "warm", "d": args.d, **cache.stats()})
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snhurwitz",
        description="Exact symmetric-group characters, Young-tree central "
                    "characters, Hurwitz numbers, and structure-coefficient sweeps.",
        epilog=__doc__.split("CSV column orders")[1].join(["CSV column orders", ""]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    parser.add_argument("--cache-dir",
                        help="ignored: the character memo is kept in memory only")
    parser.add_argument("--no-cache-file", action="store_true",
                        help="ignored: the character memo is kept in memory only")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("chi", help="irreducible character value")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("f", help="central character of the class (r,1^(d-r))")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", choices=("mn", "trees", "frobenius"), default="mn")
    p.set_defaults(fn=_cmd_f)

    p = sub.add_parser("trees", help="enumerate Young trees of a diagram")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_trees)

    p = sub.add_parser("hurwitz", help="Hurwitz numbers, exact")
    p.add_argument("--kind", choices=("disconnected", "connected",
                                      "bf-disconnected", "bf-connected"),
                   default="disconnected")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--target-genus", type=int, default=0)
    p.add_argument("--profile", action="append", help="fixed profile, repeatable")
    p.add_argument("--nu", help="repeated profile")
    p.add_argument("--k", type=int, help="repeat count")
    p.add_argument("--g", type=int, help="source genus")
    p.set_defaults(fn=_cmd_hurwitz)

    p = sub.add_parser("bseries", help="structure-coefficient table b(m)")
    p.add_argument("--kind", choices=("disconnected", "connected"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--target-genus", type=int, default=0)
    p.add_argument("--nu", required=True)
    p.add_argument("--profile", action="append")
    p.add_argument("--parity", choices=("even", "odd"))
    p.set_defaults(fn=_cmd_bseries)

    p = sub.add_parser("verify", help="machine-check a named statement")
    p.add_argument("what", help="lemma-l1 | lemma-rm2 | theorem-B | T1 | T2 | "
                                "T5 | T6 | prop-dH | lemma-dH2")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--nu")
    p.add_argument("--target-genus", type=int, default=0)
    p.add_argument("--profile", action="append")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conjecture", help="falsification sweeps")
    p.add_argument("which", choices=("1", "cH4", "cH9", "cH11"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--nu")
    p.add_argument("--target-genus", type=int, default=0)
    p.add_argument("--profile", action="append")
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("cache", help="fill the in-memory character memo up to degree d")
    p.add_argument("action", choices=("warm",))
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, CharCache())
    except (SnHurwitzError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
