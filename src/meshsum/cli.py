"""Command line front end.

Subcommands: grow (explicit layers vs predictions), predict (analytics
only), sum (mesh invariants), verify (cross-check battery), render
(disk JSON to SVG).  Exit codes: 0 success and all comparisons match,
1 a comparison failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .growth import SeedDescriptor
from .mesh import (
    DEFAULT_VERTEX_BUDGET,
    MalformedDiskError,
    disk_from_json_obj,
    disk_to_json_obj,
    validate_disk,
)
from .render import emit_svg, layout_disk
from .report import (
    canonical_json,
    growth_report,
    invariants_report,
    prediction_report,
    seed_descriptor_for,
)
from .verify import FAULT_MODES, run_verification

# Every bad-input error (seed, sum, disk JSON, layout) subclasses ValueError.
_INPUT_ERRORS = (ValueError, OSError)
MAX_SHOWN_VIOLATIONS = 20


def _parse_degrees(text: str) -> range:
    """'7' or '7:12' (inclusive)."""
    lo, sep, hi = text.partition(":")
    try:
        if sep:
            first, last = int(lo), int(hi)
        else:
            first = last = int(lo)
    except ValueError:
        raise ValueError(f"degree must be an integer or lo:hi range, got {text!r}") from None
    if last < first:
        raise ValueError(f"empty degree range {text!r}")
    return range(first, last + 1)


def _single_degree(text: str) -> int:
    degrees = _parse_degrees(text)
    if len(degrees) != 1:
        raise ValueError("this command takes a single degree, not a range")
    return degrees[0]


def _parse_seed_descriptor(text: str, r: int) -> SeedDescriptor:
    """'face', 'vertex' or an explicit t:d boundary profile."""
    if text in ("face", "vertex"):
        return seed_descriptor_for(text, r)
    t_text, sep, d_text = text.partition(":")
    if not sep:
        raise ValueError(f"seed must be 'vertex', 'face', or t:d, got {text!r}")
    try:
        t, d = int(t_text), int(d_text)
    except ValueError:
        raise ValueError(f"seed t:d must be integers, got {text!r}") from None
    return SeedDescriptor(r, t, d)


def _resolve_budget(args) -> int:
    if args.budget is not None:
        budget = args.budget
    else:
        raw = os.environ.get("MESHSUM_BUDGET")
        try:
            budget = int(raw) if raw is not None else DEFAULT_VERTEX_BUDGET
        except ValueError:
            raise ValueError(f"MESHSUM_BUDGET must be an integer, got {raw!r}") from None
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return budget


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(args, report: dict, human: str) -> None:
    payload = canonical_json(report)
    if args.output:
        _write_text(args.output, payload)
        print(f"wrote {args.output}")
    elif args.json:
        sys.stdout.write(payload)
    else:
        print(human)


def _layer_table(report: dict) -> str:
    rows = ["layer        v          e          f          s  census(a,b)    match"]
    for rec in report["layers"]:
        ex, pred = rec["explicit"], rec["predicted"]
        source = ex if ex is not None else (pred["cum"] if pred else None)
        if source is None:
            continue
        census = rec["census"] or (pred if pred and "a" in pred else None)
        census_txt = f"({census['a']},{census['b']})" if census else "-"
        if rec["match"] is None:
            match_txt = "analytic" if ex is None else "-"
        else:
            match_txt = "ok" if rec["match"] else "MISMATCH"
        rows.append(
            f"{rec['layer']:>5}{source['v']:>11}{source['e']:>11}"
            f"{source['f']:>11}{source['s']:>11}  {census_txt:<13}{match_txt:>9}"
        )
    inv = report["invariants"]
    rows.append(
        f"invariants r={inv['r']}: vM={_rat(inv['vM'])} eM={_rat(inv['eM'])} "
        f"fM={_rat(inv['fM'])} euler={'ok' if inv['euler_check'] else 'BROKEN'} "
        f"seed={'ok' if inv['seed_match'] else 'MISMATCH'}"
    )
    return "\n".join(rows)


def _rat(obj: dict) -> str:
    return obj["num"] if obj["den"] == "1" else f"{obj['num']}/{obj['den']}"


def cmd_grow(args) -> int:
    r = _single_degree(args.degree)
    if args.seed not in ("vertex", "face"):
        raise ValueError(
            "explicit growth supports only the canonical seeds 'vertex' and 'face'"
        )
    budget = _resolve_budget(args)
    report, disk = growth_report(r, args.seed, args.layers, budget)
    if args.emit_disk:
        _write_text(args.emit_disk, canonical_json(disk_to_json_obj(disk)))
    _emit(args, report, _layer_table(report))
    return 0 if report["all_match"] else 1


def cmd_predict(args) -> int:
    r = _single_degree(args.degree)
    seed = _parse_seed_descriptor(args.seed, r)
    report = prediction_report(seed, args.layers)
    rows = ["    n            a            b           dv           de           df"]
    for rec in report["layers_predicted"]:
        rows.append(
            f"{rec['n']:>5}{rec['a']:>13}{rec['b']:>13}"
            f"{rec['dv']:>13}{rec['de']:>13}{rec['df']:>13}"
        )
    _emit(args, report, "\n".join(rows))
    return 0


def cmd_sum(args) -> int:
    degrees = _parse_degrees(args.degree)
    seed = None
    if args.seed is not None:
        if len(degrees) != 1:
            raise ValueError("--seed needs a single degree, not a range")
        seed = _parse_seed_descriptor(args.seed, degrees[0])
    report = invariants_report(degrees, seed)
    rows = []
    for entry in report["degrees"]:
        line = (
            f"r={entry['r']}: vM={_rat(entry['vM'])} eM={_rat(entry['eM'])} "
            f"fM={_rat(entry['fM'])} euler={'ok' if entry['euler_check'] else 'BROKEN'}"
        )
        if "seed_match" in entry:
            line += f" seed={'ok' if entry['seed_match'] else 'MISMATCH'}"
        rows.append(line)
    _emit(args, report, "\n".join(rows))
    return 0 if report["all_match"] else 1


def cmd_verify(args) -> int:
    degrees = _parse_degrees(args.degree)
    budget = _resolve_budget(args)
    report = run_verification(
        degrees,
        layers=args.layers,
        budget=budget,
        trials=args.trials,
        rng_seed=args.rng_seed,
        fault=args.inject_fault,
    )
    rows = []
    for name, counts in report["checks"].items():
        rows.append(f"{name:<24} pass={counts['pass']:<7} fail={counts['fail']}")
    violations = report["violations"]
    for violation in violations[:MAX_SHOWN_VIOLATIONS]:
        rows.append(f"FAIL {violation}")
    if len(violations) > MAX_SHOWN_VIOLATIONS:
        rows.append(f"… and {len(violations) - MAX_SHOWN_VIOLATIONS} more")
    rows.append("all checks passed" if report["all_pass"] else "FAILURES detected")
    _emit(args, report, "\n".join(rows))
    return 0 if report["all_pass"] else 1


def cmd_render(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        disk = disk_from_json_obj(json.load(fh))
    violations = validate_disk(disk)
    if violations:
        first = violations[0]
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise MalformedDiskError(f"malformed disk: {first.kind}: {first.detail}{more}")
    svg = emit_svg(disk, layout_disk(disk))
    out = args.output or (os.path.splitext(args.input)[0] + ".svg")
    _write_text(out, svg)
    print(f"wrote {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshsum",
        description="Grow combinatorial disks in degree-r triangulations and "
        "Euler-sum their divergent layer series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        if output:
            p.add_argument("-o", "--output", help="write the JSON report to this file")
            p.add_argument("--json", action="store_true", help="print JSON instead of a table")

    p = sub.add_parser("grow", help="grow a disk and reconcile with predictions")
    p.add_argument("-r", "--degree", required=True, help="ambient degree (>= 7)")
    p.add_argument("--seed", default="face", help="vertex or face")
    p.add_argument("-n", "--layers", type=int, default=4, help="expansion layers")
    p.add_argument("--budget", type=int, help="vertex budget (or MESHSUM_BUDGET)")
    p.add_argument("--emit-disk", help="also write the final disk JSON here")
    add_common(p)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("predict", help="analytic layer table for any valid seed")
    p.add_argument("-r", "--degree", required=True)
    p.add_argument("--seed", default="face", help="vertex, face, or t:d")
    p.add_argument("-n", "--layers", type=int, default=5)
    add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sum", help="regularized mesh invariants")
    p.add_argument("-r", "--degree", required=True, help="degree or lo:hi range")
    p.add_argument("--seed", help="optional t:d seed to cross-check")
    add_common(p)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("verify", help="run the full cross-check battery")
    p.add_argument("-r", "--degree", required=True, help="degree or lo:hi range")
    p.add_argument("-n", "--layers", type=int, default=6)
    p.add_argument("--budget", type=int, help="vertex budget (or MESHSUM_BUDGET)")
    p.add_argument("--trials", type=int, default=100, help="random sum cross-checks per degree")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--inject-fault", choices=FAULT_MODES, help="prove the harness can fail")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render a disk JSON file as SVG")
    p.add_argument("input", help="disk JSON produced by grow --emit-disk")
    p.add_argument("-o", "--output", help="SVG path (default: input with .svg)")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
