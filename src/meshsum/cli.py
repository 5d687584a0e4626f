"""Command line front end.

Subcommands: grow (explicit layers vs predictions), predict (analytics
only), sum (mesh invariants), verify (cross-check battery), render
(disk JSON to SVG).  The disk file is ``mesh``'s to write and read.  Every
integer, ``-r``'s ends included, is read by ``_integer``.  Exit codes: 0
success and all comparisons match, 1 a comparison failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TextIO

from . import __version__
from .exact import brief, int_from_text
from .growth import CANONICAL_SEEDS, DEFAULT_VERTEX_BUDGET, check_degree, check_layer_count
from .report import (
    FAULT_MODES,
    canonical_json,
    growth_report,
    invariants_entry,
    invariants_report,
    layer_texts,
    prediction_report,
    seed_descriptor_for,
    write_growth_report,
)

# Bad input (seed, sum, disk JSON, drawing: all ValueErrors) or a budget past memory.
_INPUT_ERRORS = (ValueError, OSError, MemoryError)
MAX_SHOWN_VIOLATIONS = 20
MAX_SUM_DEGREES = 1_000_000  # about 25 s and 265 MB of JSON on a 2-core host
_ONE_DEGREE = "this command takes a single degree, not a range"


def _integer(text: str, name: str, wrong: str = "") -> int:
    """A command-line integer, a default too, in its one spelling,
    as ``exact.int_from_text`` reads it.  Text past the interpreter's digit
    limit is refused before anything runs, not after the run when a report
    prints the number; other text raises ``wrong``, or an error naming ``name``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (or < 3.10.7)
    if limit and len(text.removeprefix("-")) > limit:
        message = f"{name} has more than {limit} digits, the interpreter's limit"
        raise ValueError(f"{message}: {brief(text)}")
    try:
        return int_from_text(text)
    except ValueError:
        raise ValueError(wrong or f"{name} must be an integer, got {brief(text)}") from None


def _degrees(text: str, single: str = "") -> range:
    """'7' or '7:12' (inclusive); with ``single``, the error for a range of
    more than one degree.  Both ends are length-checked before either is parsed."""
    lo, sep, hi = text.partition(":")
    wrong = f"degree must be an integer or lo:hi range, got {brief(text)}"
    try:
        first = _integer(lo, "-r", wrong)
    except ValueError as exc:
        if sep and str(exc) == wrong:  # lo is no integer, yet hi past the digit limit goes first
            _integer(hi, "-r", wrong)
        raise
    last = _integer(hi, "-r", wrong) if sep else first
    if last < first:
        raise ValueError(f"empty degree range {brief(text)}")
    if single and last != first:  # len() overflows past sys.maxsize
        raise ValueError(single)
    return range(first, last + 1)


def _resolve_budget(args) -> int:
    if args.budget is not None:
        budget = _integer(args.budget, "--budget")
    else:
        raw = os.environ.get("MESHSUM_BUDGET", str(DEFAULT_VERTEX_BUDGET))
        budget = _integer(raw, "MESHSUM_BUDGET")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return budget


def _require_distinct(kept: str, written: str) -> None:
    """Refuse, before anything is written, to write ``written`` over ``kept``
    (the same path after symlinks, or a hard link to it)."""
    exist = os.path.exists(kept) and os.path.exists(written)
    if os.path.realpath(kept) == os.path.realpath(written) or (
        exist and os.path.samefile(kept, written)
    ):
        raise ValueError(f"{written!r} would overwrite {kept!r}")


def _emit_stream(args, write_json, write_table):
    """Call ``write_json`` on -o's file or, with --json, on stdout, else
    ``write_table`` on stdout; returns what the writer returned."""
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            result = write_json(fh)
        print(f"wrote {args.output}")
        return result
    return (write_json if args.json else write_table)(sys.stdout)


def _layer_table(report: dict, out: TextIO) -> None:
    """Write a ``growth_report`` report as a table, reading its layers once."""
    out.write("layer        v          e          f          s  census(a,b)    match\n")
    for rec in report["layers"]:
        ex, pred = rec["explicit"], rec["predicted"]
        source = ex if ex is not None else pred["cum"]
        census = rec["census"] or (pred if pred and "a" in pred else None)
        census_txt = f"({census['a']},{census['b']})" if census else "-"
        verdict = rec["match"] and rec["census_match"] is not False  # a census mismatch fails too
        match_txt = {True: "ok", False: "MISMATCH", None: "-" if ex else "analytic"}[verdict]
        cells = "".join(f" {source[key]:>10}" for key in "vefs")
        out.write(f"{rec['layer']:>5}{cells}  {census_txt:<13}{match_txt:>9}\n")
    out.write(f"invariants {_invariants_line(report['invariants'])}\n")


def _invariants_line(entry: dict) -> str:
    """An ``invariants_entry`` as a table line, with the seed's verdict if it has one."""
    vM, eM, fM = (q["num"] if q["den"] == "1" else f"{q['num']}/{q['den']}"
                  for q in (entry["vM"], entry["eM"], entry["fM"]))
    euler = "ok" if entry["euler_check"] else "BROKEN"
    seed = {True: " seed=ok", False: " seed=MISMATCH", None: ""}[entry.get("seed_match")]
    return f"r={entry['r']}: vM={vM} eM={eM} fM={fM} euler={euler}{seed}"


def cmd_grow(args) -> int:
    from .mesh import CensusContradiction, MalformedDiskError, disk_json
    r = _degrees(args.degree, _ONE_DEGREE)[0]
    budget = _resolve_budget(args)
    if args.emit_disk and args.output:
        _require_distinct(args.output, args.emit_disk)
    try:
        report, disk = growth_report(r, args.seed, _integer(args.layers, "-n"), budget)
    except (MalformedDiskError, CensusContradiction) as exc:  # a layer failed measurement
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the report first: a report that cannot be written leaves no disk behind
    _emit_stream(
        args, lambda out: write_growth_report(report, out), lambda out: _layer_table(report, out)
    )
    if args.emit_disk:
        with open(args.emit_disk, "wb") as fh:
            fh.write(disk_json(disk))
    return 0 if report["all_match"] else 1


def _prediction_table(seed, n_layers: int, out: TextIO) -> None:
    out.write("    n            a            b           dv           de           df\n")
    for n, *cells in layer_texts(seed, n_layers, cumulative=False):
        out.write(f"{n:>5}" + "".join(f" {x:>12}" for x in cells) + "\n")


def cmd_predict(args) -> int:
    r = _degrees(args.degree, _ONE_DEGREE)[0]
    seed = seed_descriptor_for(args.seed, r)
    layers = _integer(args.layers, "-n")
    check_layer_count(layers)  # before -o creates its file
    _emit_stream(
        args,
        lambda out: prediction_report(seed, layers, out),
        lambda out: _prediction_table(seed, layers, out),
    )
    return 0


def _sum_table(degrees, seed, out: TextIO) -> bool:
    all_match = True
    for r in degrees:
        entry = invariants_entry(r, seed)
        out.write(_invariants_line(entry) + "\n")
        all_match = all_match and entry.get("seed_match", True)
    return all_match


def cmd_sum(args) -> int:
    seeded = args.seed is not None
    degrees = _degrees(args.degree, "--seed needs a single degree, not a range" if seeded else "")
    seed = seed_descriptor_for(args.seed, degrees[0]) if seeded else None
    if degrees[-1] - degrees[0] >= MAX_SUM_DEGREES:  # len() overflows past sys.maxsize
        raise ValueError(f"-r spans more than {MAX_SUM_DEGREES} degrees: {brief(args.degree)}")
    check_degree(degrees[0])  # before -o creates its file
    all_match = _emit_stream(
        args,
        lambda out: invariants_report(degrees, seed, out),
        lambda out: _sum_table(degrees, seed, out),
    )
    return 0 if all_match else 1


def cmd_verify(args) -> int:
    from .verify import run_verification
    degrees = _degrees(args.degree)
    budget = _resolve_budget(args)
    report = run_verification(
        degrees,
        layers=_integer(args.layers, "-n"),
        budget=budget,
        trials=_integer(args.trials, "--trials"),
        rng_seed=_integer(args.rng_seed, "--rng-seed"),
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
    _emit_stream(
        args,
        lambda out: out.write(canonical_json(report)),
        lambda out: print("\n".join(rows), file=out),
    )
    return 0 if report["all_pass"] else 1


def cmd_render(args) -> int:
    from .mesh import read_disk
    from .render import emit_svg
    out = args.output or (os.path.splitext(args.input)[0] + ".svg")
    _require_distinct(args.input, out)
    with open(args.input, "rb") as fh:
        disk = read_disk(fh.read())  # the bytes are freed here, before validation and drawing
    svg = emit_svg(disk)  # validated, laid out and drawn before the SVG file is created
    with open(out, "wb") as fh:
        fh.write(svg)
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

    def add_common(p):
        p.add_argument("-o", "--output", help="write the JSON report to this file")
        p.add_argument("--json", action="store_true", help="print JSON instead of a table")

    any_seed = ", ".join([*reversed(CANONICAL_SEEDS), "or t:d"])  # named vertex first
    p = sub.add_parser("grow", help="grow a disk and reconcile with predictions")
    p.add_argument("-r", "--degree", required=True, help="ambient degree")
    p.add_argument("--seed", default="face", help=" or ".join(reversed(CANONICAL_SEEDS)))
    p.add_argument("-n", "--layers", default="4", help="expansion layers")
    p.add_argument("--budget", help="vertex budget (or MESHSUM_BUDGET)")
    p.add_argument("--emit-disk", help="also write the final disk JSON here")
    add_common(p)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("predict", help="analytic layer table for any valid seed")
    p.add_argument("-r", "--degree", required=True)
    p.add_argument("--seed", default="face", help=any_seed)
    p.add_argument("-n", "--layers", default="5")
    add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sum", help="regularized mesh invariants")
    p.add_argument("-r", "--degree", required=True, help="degree or lo:hi range")
    p.add_argument("--seed", help=f"optional seed to cross-check: {any_seed}")
    add_common(p)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("verify", help="run the full cross-check battery")
    p.add_argument("-r", "--degree", required=True, help="degree or lo:hi range")
    p.add_argument("-n", "--layers", default="6")
    p.add_argument("--budget", help="vertex budget (or MESHSUM_BUDGET)")
    p.add_argument("--trials", default="100", help="random sum cross-checks per degree")
    p.add_argument("--rng-seed", default="0")
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
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # bare MemoryError too
        return 2
