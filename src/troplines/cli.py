"""Command-line front end.

Subcommands: analyze (full report for a lines or points file), render
(side-by-side SVG of arrangement and dual subdivision), verify (sweeps
over integer configurations, JSONL stream plus summary), stable-line
(the stable tropical line through two points).

Exit codes: 0 success or sweep verified, 1 a mathematical invariant was
violated (the counterexample is printed), 2 usage or input error,
including files that cannot be read or written, 3 internal error: one of
the pipeline's own assertions failed, which is a bug in troplines and
not a counterexample (printed as "internal error: ...", which during
verify ends with the points of the configuration). No environment
variable changes the behaviour; --jobs alone sets the worker count.

Importing this module loads only what verify needs, the sweep and the
kernel selection; the other subcommands import the pure geometry when
they run, so a compiled verify never loads it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import kernel
from .errors import InputFormatError, InvalidSweep, InvariantViolation, TroplinesError
from .sweep import Exhaustive, Random, SweepParams, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troplines",
        description="Exact computation with tropical line arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full report for a lines or points file")
    p_an.add_argument("input", help='JSON file with "lines" or "points"')
    p_an.add_argument("--out", help="write the report here instead of stdout")

    p_re = sub.add_parser("render", help="arrangement and subdivision as one SVG")
    p_re.add_argument("input", help='JSON file with "lines" or "points"')
    p_re.add_argument("--svg", required=True, help="output SVG path")

    p_ve = sub.add_parser("verify", help="sweep configurations and check invariants")
    p_ve.add_argument("--n", type=int, required=True, help="points per configuration")
    p_ve.add_argument("--mode", choices=("exhaustive", "random"), required=True)
    p_ve.add_argument("--grid", type=int, help="lattice side for exhaustive mode")
    p_ve.add_argument("--samples", type=int, help="draws for random mode")
    p_ve.add_argument("--range", type=int, dest="coord_range",
                      help="coordinate box half-width for random mode")
    p_ve.add_argument("--seed", type=int, default=0, help="random mode seed")
    p_ve.add_argument("--jobs", type=int, default=1,
                      help="worker processes, at most one per processor (default: 1)")
    p_ve.add_argument("--jsonl", help="write one result line per configuration here")

    p_sl = sub.add_parser("stable-line", help="stable line through two points")
    p_sl.add_argument("--p1", required=True, help="first point, e.g. -3,2 or 1/2,0")
    p_sl.add_argument("--p2", required=True, help="second point")

    return parser


def _parse_cli_point(text: str, flag: str):
    from .lines import Point2
    from .serialize import ascii_int, parse_rational

    parts = text.split(",")
    if len(parts) != 2:
        raise InputFormatError(f"{flag}: expected x,y, got {text!r}")
    coords = []
    for part, axis in zip(parts, "xy"):
        try:
            value = ascii_int(part)
        except ValueError:
            value = part.strip()
        coords.append(parse_rational(value, f"{flag} {axis}"))
    return Point2(*coords)


def cmd_analyze(args) -> int:
    from .serialize import analyze_report, load_input

    kind, obj = load_input(args.input)
    report = analyze_report(kind, obj)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_render(args) -> int:
    from .incidence import dualize_points
    from .serialize import load_input
    from .svg import render_svg

    kind, obj = load_input(args.input)
    arr = dualize_points(obj) if kind == "points" else obj
    doc = render_svg(arr)
    try:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        print(f"error: cannot write {args.svg}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    if args.mode == "exhaustive":
        if args.grid is None:
            raise InvalidSweep("--mode exhaustive needs --grid")
        mode = Exhaustive(grid_size=args.grid)
    else:
        if args.samples is None or args.coord_range is None:
            raise InvalidSweep("--mode random needs --samples and --range")
        mode = Random(samples=args.samples, coord_range=args.coord_range,
                      seed=args.seed)
    params = SweepParams(n=args.n, mode=mode)
    if args.jobs < 1:  # refused before --jsonl truncates its file
        raise InvalidSweep(f"jobs must be at least 1, got {args.jobs}")

    # line-buffered: each write reaches the file whole, a chunk's lines as
    # soon as the chunk is analyzed, the first after one configuration
    stream = (open(args.jsonl, "w", encoding="utf-8", buffering=1)
              if args.jsonl else None)
    try:
        report = run_sweep(params, jobs=args.jobs, sink=stream)
    finally:
        if stream is not None:
            stream.close()

    summary = {
        "configs_tested": report.configs_tested,
        "violations": len(report.violations),
        "no_ordinary_line": report.no_ordinary_line,
        "histogram": {str(k): v for k, v in report.histogram.items()},
        "elapsed": report.elapsed,
        "backend": kernel.backend_name(),
        "route": report.route,
    }
    print(json.dumps(summary, indent=2))
    if report.violations:
        config, suite, detail = report.violations[0]
        print(
            f"counterexample: points {list(config)} failed {suite}: {detail}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_stable_line(args) -> int:
    from .incidence import cramer_stable_line
    from .subdivision import point_text

    p1 = _parse_cli_point(args.p1, "--p1")
    p2 = _parse_cli_point(args.p2, "--p2")
    triple, line = cramer_stable_line(p1, p2)
    coeffs = " : ".join(str(o) for o in triple)
    print(f"coefficients ({coeffs}), vertex {point_text(line.vertex)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # let point flags accept values that start with a minus sign
    merged: List[str] = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--p1", "--p2") and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)

    parser = _build_parser()
    args = parser.parse_args(merged)
    handlers = {
        "analyze": cmd_analyze,
        "render": cmd_render,
        "verify": cmd_verify,
        "stable-line": cmd_stable_line,
    }
    try:
        return handlers[args.command](args)
    except InvariantViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except TroplinesError as exc:
        if getattr(exc, "index", None) is not None:
            print(f"error: duplicate point at index {exc.index}: {exc}",
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {str(exc) or 'assertion failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
