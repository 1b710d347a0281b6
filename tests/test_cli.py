"""End-to-end CLI behavior through main(argv): outputs and exit codes."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path
import xml.etree.ElementTree as ET

import pytest

from troplines import analysis, cli, kernel, subdivision
from troplines.cli import main
from troplines.incidence import point_config
from troplines.serialize import sweep_line_json
from troplines.sweep import SweepReport

PENCIL_POINTS = '{"points": [[0, 0], [0, -2], [-2, 0], [2, 2]]}'


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_points_to_stdout(tmp_path, capsys):
    path = _write(tmp_path, "pencil.json", PENCIL_POINTS)
    assert main(["analyze", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["b"] == 1
    assert report["near_pencil"] is True
    assert report["dbe"]["equality"] is True


def test_analyze_to_file(tmp_path, capsys):
    path = _write(tmp_path, "pencil.json", PENCIL_POINTS)
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["input"] == "points"
    assert report["counts"] == {
        "n": 4, "t": 4, "triangles": 3, "b": 1, "k": 0, "h": 1
    }


def test_analyze_lines_file(tmp_path, capsys):
    path = _write(tmp_path, "one.json", '{"lines": [{"vertex": [0, 0]}]}')
    assert main(["analyze", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"] == "lines"
    assert report["counts"] == {"n": 1, "t": 1, "triangles": 1, "b": 0, "k": 0, "h": 0}
    assert "dbe" not in report


def test_analyze_enforces_every_suite(tmp_path, monkeypatch, capsys):
    # the negated lift of tests/test_kernel.py breaks no suite before
    # regularity: the report of a wrong lift must not be written
    real = subdivision.product_coefficients
    monkeypatch.setattr(subdivision, "product_coefficients",
                        lambda arr: {point: -h for point, h in real(arr).items()})
    lines = '{"lines": [{"vertex": [0, 0]}, {"vertex": ["1/2", -3]}]}'
    for name, text in (("pencil.json", PENCIL_POINTS), ("lines.json", lines)):
        out = tmp_path / f"{name}.report"
        assert main(["analyze", _write(tmp_path, name, text), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("violation: regularity: ")


def test_analyze_duplicate_point_is_a_usage_error(tmp_path, capsys):
    # (points, the repeated point as the message writes it)
    for points, text in (("[0, 0]", "(0, 0)"), ('["1/2", 3]', "(1/2, 3)")):
        path = _write(tmp_path, "dup.json", f'{{"points": [{points}, [1, 1], {points}]}}')
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().err == (
            f"error: duplicate point at index 2: point 2 repeats point 0: {text}\n")


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/input.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_json(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", "{oops")
    assert main(["analyze", path]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "render"])
@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"points": [[' + "1" * 5_000 + ", 0]]}"],
    ids=["nested-too-deep", "int-past-digit-limit"],
)
def test_json_the_parser_refuses_is_an_input_error(tmp_path, capsys, command, text):
    # json.loads raises RecursionError and ValueError here, not
    # JSONDecodeError; both are bad input, exit 2
    path = _write(tmp_path, "bad.json", text)
    args = [command, path] + (["--svg", str(tmp_path / "x.svg")] if command == "render" else [])
    assert main(args) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_render_writes_valid_svg(tmp_path):
    path = _write(tmp_path, "pencil.json", PENCIL_POINTS)
    out = tmp_path / "picture.svg"
    assert main(["render", path, "--svg", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")


def test_render_unwritable_target(tmp_path, capsys):
    path = _write(tmp_path, "pencil.json", PENCIL_POINTS)
    target = tmp_path / "missing_dir" / "picture.svg"
    assert main(["render", path, "--svg", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_render_rejects_empty_input(tmp_path, capsys):
    path = _write(tmp_path, "empty.json", "")
    out = tmp_path / "x.svg"
    assert main(["render", path, "--svg", str(out)]) == 2
    assert "empty input file" in capsys.readouterr().err


def test_verify_flag_validation(capsys):
    assert main(["verify", "--n", "3", "--mode", "exhaustive"]) == 2
    assert capsys.readouterr() == ("", "error: --mode exhaustive needs --grid\n")
    assert main(["verify", "--n", "3", "--mode", "random", "--samples", "5"]) == 2
    assert capsys.readouterr() == ("", "error: --mode random needs --samples and --range\n")
    assert main(["verify", "--n", "3", "--mode", "exhaustive", "--grid", "1"]) == 2
    assert "grid_size" in capsys.readouterr().err


def test_verify_refuses_jobs_below_one_before_touching_the_jsonl_file(tmp_path, capsys):
    target = tmp_path / "kept.jsonl"
    target.write_bytes(b"kept\n")
    assert main(["verify", "--n", "3", "--mode", "exhaustive", "--grid", "3",
                 "--jobs", "0", "--jsonl", str(target)]) == 2
    assert "jobs must be at least 1, got 0" in capsys.readouterr().err
    assert target.read_bytes() == b"kept\n"


def test_module_entry_point_runs_the_cli():
    # python -m troplines is the CLI: a random sweep without --samples is a
    # usage error, exit 2
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "troplines", "verify", "--n", "4", "--mode", "random"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "--samples" in done.stderr


def test_verify_exhaustive_summary(capsys):
    assert main(["verify", "--n", "3", "--mode", "exhaustive", "--grid", "3"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["configs_tested"] == 84
    assert summary["violations"] == 0
    assert summary["backend"] in ("pure", "compiled")
    assert summary["route"] == summary["backend"]
    assert set(summary["histogram"]) <= {"0", "1", "2", "3"}
    assert sum(summary["histogram"].values()) == 84


def test_verify_summary_names_the_route_the_sweep_took(built_kernel, in_child, monkeypatch,
                                                        capsys):
    # the backend is the extension that loaded; the route is where the
    # sweep's configurations went
    monkeypatch.setattr(kernel, "_COMPILED", built_kernel)

    def summary(n, *mode):
        assert main(["verify", "--n", str(n), *mode]) == 0
        return json.loads(capsys.readouterr().out)

    small = in_child(lambda: summary(3, "--mode", "exhaustive", "--grid", "3"))
    assert (small["backend"], small["route"]) == ("compiled", "compiled")
    # past the kernel's 128 points, and past its coordinate bound, no
    # configuration reaches an extension that has no entries
    monkeypatch.setattr(kernel, "_COMPILED", types.SimpleNamespace())
    for n, coord_range in ((129, 6), (3, 2**20 + 1)):
        past = summary(n, "--mode", "random", "--samples", "1", "--range", str(coord_range))
        assert (past["backend"], past["route"]) == ("compiled", "pure"), n


def test_verify_jsonl_stream_is_reproducible(tmp_path, capsys):
    args = ["verify", "--n", "3", "--mode", "random", "--samples", "50",
            "--range", "6", "--seed", "3"]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert main(args + ["--jsonl", str(first)]) == 0
    assert main(args + ["--jsonl", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    rows = [json.loads(line) for line in first.read_text().splitlines()]
    assert len(rows) == 50
    assert [r["index"] for r in rows] == list(range(50))
    assert all(r["violations"] == [] for r in rows)


def test_verify_jsonl_lines_are_written_as_they_arrive(tmp_path, monkeypatch, capsys):
    path = tmp_path / "stream.jsonl"
    seen = []

    def one_record(params, jobs, sink):
        sink.write(sweep_line_json(0, ((0, 0), (1, 0), (0, 1)), 0, []) + "\n")
        seen.append(path.read_text())
        return SweepReport(configs_tested=1, violations=[], histogram={0: 1}, elapsed=0.0,
                           route="pure", no_ordinary_line=0)

    monkeypatch.setattr(cli, "run_sweep", one_record)
    assert main(["verify", "--n", "3", "--mode", "exhaustive", "--grid", "3",
                 "--jsonl", str(path)]) == 0
    capsys.readouterr()
    assert seen[0].endswith("\n") and seen[0].count("\n") == 1
    assert json.loads(seen[0])["index"] == 0
    assert path.read_text() == seen[0]


def test_stable_line_output(capsys):
    assert main(["stable-line", "--p1", "-3,2", "--p2", "-1,2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "coefficients (2 : -1 : 1), vertex (-1, 2)"


def test_stable_line_accepts_fractions(capsys):
    assert main(["stable-line", "--p1", "1/2,0", "--p2", "3,4"]) == 0
    assert "vertex" in capsys.readouterr().out


def test_stable_line_rejects_equal_points(capsys):
    for point, text in (("1,1", "(1, 1)"), ("12,-58/9", "(12, -58/9)")):
        assert main(["stable-line", "--p1", point, "--p2", point]) == 2
        assert capsys.readouterr().err == f"error: both points are {text}\n"


def test_stable_line_rejects_malformed_point(capsys):
    assert main(["stable-line", "--p1", "3", "--p2", "1,2"]) == 2
    assert "expected x,y" in capsys.readouterr().err
    # int() alone reads "1_0" as 10 and the Arabic-Indic digit three as 3
    for p1, p2, text in (("1_0,2", "\u0663,4", "--p1 x: rational strings look like "
                          "\"p/q\", got '1_0'"),
                         ("1,2", "\u0663,4", "--p2 x: rational strings look like "
                          "\"p/q\", got '\u0663'")):
        assert main(["stable-line", "--p1", p1, "--p2", p2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {text}\n"


def test_missing_subcommand_is_a_parser_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "make_args",
    [
        lambda tmp: ["analyze", str(tmp)],
        lambda tmp: ["analyze", _write(tmp, "pencil.json", PENCIL_POINTS),
                     "--out", str(tmp)],
        lambda tmp: ["verify", "--n", "3", "--mode", "exhaustive", "--grid", "3",
                     "--jsonl", str(tmp)],
    ],
    ids=["analyze-directory", "out-directory", "jsonl-directory"],
)
def test_directory_paths_are_input_errors(tmp_path, capsys, make_args):
    assert main(make_args(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"points": [[0, 0]], "note": "caf\xe9"}')
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "not UTF-8" in err


def test_internal_assertion_is_exit_3_not_a_counterexample(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("cell areas drifted")

    monkeypatch.setattr(analysis, "dual_subdivision", broken)
    path = _write(tmp_path, "pencil.json", PENCIL_POINTS)
    assert main(["analyze", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: cell areas drifted\n"


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_verify_internal_assertion_names_the_configuration(monkeypatch, capsys, backend):
    target = ((0, 0), (0, 1), (1, 2))
    real = analysis.analyze_config

    def broken(points):
        if tuple(tuple(p) for p in points) == target:
            raise AssertionError("cell areas drifted")
        return real(point_config(points))

    def broken_chunk(configs, start, encode):
        # a stand-in for the chunk entry: the whole chunk fails when the
        # target is in it, and every other configuration has excess 0 and
        # an ordinary line
        if target in configs:
            raise AssertionError("cell areas drifted")
        return bytes(4 * len(configs)), [], [], "\n" * len(configs) if encode else None

    if backend == "pure":
        monkeypatch.setattr(kernel, "_COMPILED", None)
        monkeypatch.setattr(analysis, "analyze_config", lambda cfg: broken(cfg.points))
    else:
        monkeypatch.setattr(kernel, "_COMPILED", types.SimpleNamespace(analyze_chunk=broken_chunk))
    # in process, one configuration per chunk, and on two workers, where
    # the target's chunk of ten fails as a whole
    for jobs in ("1", "2"):
        assert main(["verify", "--n", "3", "--mode", "exhaustive", "--grid", "3",
                     "--jobs", jobs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: cell areas drifted at points [[0, 0], [0, 1], [1, 2]]\n"
        )
