"""JSON input parsing and report building.

Input files hold either {"lines": [{"vertex": [r, r]}, ...]} or
{"points": [[r, r], ...]} where each r is an integer or a "p/q" string.
Parse errors raise InputFormatError with a message naming the offending
field, which the CLI maps to exit code 2.

Report builders return plain JSON-ready structures; rationals serialize
back to the same integer-or-"p/q" convention. The analysis report only
formats analysis.analyze_arrangement, the analysis the sweeps run.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from .analysis import analyze_arrangement
from .arrangement import argmax_str, build_arrangement, type_tuple
from .errors import InputFormatError, InvariantViolation
from .incidence import dualize_points, point_config
from .lines import Point2, line_from_vertex
from .rationals import Rational
from .subdivision import DualSubdivision


def ascii_int(text: str) -> int:
    """int(text), refusing the "_" separators and non-ASCII digits int() takes."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def parse_rational(value: Any, where: str) -> Rational:
    """An integer or "p/q" string, exactly."""
    if isinstance(value, bool):
        raise InputFormatError(f"{where}: expected a number, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        parts = value.split("/")
        if len(parts) != 2:
            raise InputFormatError(
                f'{where}: rational strings look like "p/q", got {value!r}'
            )
        try:
            num, den = ascii_int(parts[0]), ascii_int(parts[1])
        except ValueError:
            raise InputFormatError(
                f'{where}: rational strings look like "p/q" with integer '
                f"parts, got {value!r}"
            ) from None
        if den == 0:
            raise InputFormatError(f"{where}: zero denominator in {value!r}")
        frac = Fraction(num, den)
        return int(frac) if frac.denominator == 1 else frac
    if isinstance(value, float):
        raise InputFormatError(
            f"{where}: floats are not exact; write an integer or a "
            f'"p/q" string instead of {value!r}'
        )
    raise InputFormatError(f"{where}: expected a number, got {type(value).__name__}")


def rational_to_json(r: Rational) -> Any:
    return int(r) if r.denominator == 1 else str(r)


def point_to_json(p: Point2) -> List[Any]:
    return [rational_to_json(p.x), rational_to_json(p.y)]


def _parse_pair(value: Any, where: str) -> Tuple[Rational, Rational]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputFormatError(f"{where}: expected a pair [x, y]")
    return (
        parse_rational(value[0], f"{where}[0]"),
        parse_rational(value[1], f"{where}[1]"),
    )


def parse_input(data: Any) -> Tuple[str, Any]:
    """('lines', Arrangement) or ('points', PointConfig) from decoded JSON.

    The top-level object must carry exactly one of the keys "lines" and
    "points"; which one decides how the file is read.
    """
    if not isinstance(data, dict):
        raise InputFormatError("top level: expected an object")
    keys = [k for k in ("lines", "points") if k in data]
    if len(keys) != 1:
        raise InputFormatError(
            'top level: expected exactly one of the keys "lines" and "points"'
        )
    kind = keys[0]
    entries = data[kind]
    if not isinstance(entries, list) or not entries:
        raise InputFormatError(f"{kind}: expected a non-empty list")
    if kind == "lines":
        lines = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "vertex" not in entry:
                raise InputFormatError(
                    f'lines[{i}]: expected an object with a "vertex" field'
                )
            x, y = _parse_pair(entry["vertex"], f"lines[{i}].vertex")
            lines.append(line_from_vertex(Point2(x, y)))
        return "lines", build_arrangement(lines)
    pts = [_parse_pair(entry, f"points[{i}]") for i, entry in enumerate(entries)]
    return "points", point_config(pts)


def load_input(path: str) -> Tuple[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    if not text.strip():
        raise InputFormatError(f"{path}: empty input file")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past
        # Python's int-digit limit; RecursionError, arrays nested too deep
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from None
    return parse_input(data)


def subdivision_to_json(sub: DualSubdivision) -> dict:
    return {
        "n": sub.n,
        "cells": [
            {
                "dual_point": point_to_json(Point2(*cell.dual_point)),
                "class": cell.cell_class.value,
                "vertices": [[int(x), int(y)] for x, y in cell.vertices],
            }
            for cell in sub.cells
        ],
        "lift": [
            [pt[0], pt[1], rational_to_json(value)]
            for pt, value in sorted(sub.lift.items())
        ],
    }


_COUNT_KEYS = ("t", "triangles", "b", "k", "h")
_DBE_KEYS = ("v", "b", "bound_holds", "equality", "near_pencil", "consistent")


def analyze_report(kind: str, obj: Any) -> dict:
    """The full analysis report for cmd_analyze, JSON-ready.

    The report reads everything off the one analysis of the arrangement:
    the dual one for points input, the given one for lines input. Points
    input adds the points and the incidence verdict, null below 4 points.
    A configuration that fails a suite has no report: InvariantViolation
    names its first violation.
    """
    arr = dualize_points(obj) if kind == "points" else obj
    record, vertex_data, sub = analyze_arrangement(arr)
    if record["violations"]:
        suite, detail = record["violations"][0]
        raise InvariantViolation(f"{suite}: {detail}")

    report: Dict[str, Any] = {
        "input": kind,
        "counts": {"n": arr.n, **{key: record[key] for key in _COUNT_KEYS}},
        "vertices": [
            {
                "point": point_to_json(vd.point),
                "type": [argmax_str(s) for s in type_tuple(arr, vd.point)],
                "class": cell.cell_class.value,
                "c": vd.c, "s_a": vd.s_a, "s_b": vd.s_b, "s_c": vd.s_c,
            }
            for vd, cell in zip(vertex_data, sub.cells)
        ],
        "near_pencil": record["near_pencil"],
        "subdivision": subdivision_to_json(sub),
    }
    if kind == "points":
        report["points"] = [point_to_json(p) for p in obj.points]
        dbe = {key: record[key] for key in _DBE_KEYS}
        report["dbe"] = dbe if record["v"] >= 4 else None
    return report


def sweep_line_json(index: int, config: tuple, excess: int, violations: list) -> str:
    """One JSONL line of a sweep stream: deterministic, no timing.

    The bytes are those of json.dumps of {"index", "config", "excess",
    "violations"} with sort_keys and separators (",", ":"), formatted
    directly for integer coordinates; the violations, whose details are
    free text, still go through json.dumps for its escaping.
    """
    return '{"config":[%s],"excess":%d,"index":%d,"violations":%s}' % (
        ",".join(["[%d,%d]" % (x, y) for x, y in config]),
        excess,
        index,
        json.dumps([[suite, detail] for suite, detail in violations],
                   separators=(",", ":")) if violations else "[]",
    )
