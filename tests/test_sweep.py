"""Sweep enumeration, streaming, and the ordinary-line failure search."""

import contextlib
import io
import itertools
import multiprocessing
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from troplines import kernel, sweep
from troplines.cli import main
from troplines.errors import (
    BudgetExhausted,
    GridTooSmall,
    InvalidSweep,
    RangeTooSmall,
)
from troplines.incidence import ordinary_stable_lines
from troplines.sweep import (
    Exhaustive,
    JsonlSink,
    Random,
    SweepParams,
    _config_list,
    run_sweep,
    sg_failure_search,
)

from oracles import sweep_line_spec


def test_enumeration_counts_and_order():
    singles = list(Exhaustive(2).configs(1))
    assert singles == [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
    assert sum(1 for _ in Exhaustive(2).configs(2)) == 6
    assert sum(1 for _ in Exhaustive(4).configs(4)) == 1820


def test_enumeration_rejects_a_grid_with_too_few_points():
    with pytest.raises(GridTooSmall):
        SweepParams(n=5, mode=Exhaustive(2))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, mode=Exhaustive(3)),
        dict(n=3, mode=Exhaustive(1)),
        dict(n=3, mode=Random(samples=0, coord_range=5)),
        dict(n=3, mode=Random(samples=10, coord_range=0)),
        dict(n=3, mode="exhaustive"),
    ],
)
def test_parameter_validation(kwargs):
    with pytest.raises(InvalidSweep):
        SweepParams(**kwargs)


def test_range_too_small_for_distinct_points():
    with pytest.raises(RangeTooSmall):
        SweepParams(n=10, mode=Random(samples=1, coord_range=1))
    with pytest.raises(RangeTooSmall):
        Random(samples=1, coord_range=1).validate(10)


def test_random_config_is_seeded_and_distinct():
    mode = Random(samples=1, coord_range=8)
    a = mode.draw(6, random.Random(5))
    b = mode.draw(6, random.Random(5))
    assert a == b
    assert len(set(a)) == 6
    c = mode.draw(6, random.Random(6))
    assert c != a


def test_every_generator_yields_the_same_configurations_in_order():
    # the JSONL index of a configuration is its position in this order
    params = SweepParams(n=3, mode=Exhaustive(4))
    lattice = [(x, y) for x in range(4) for y in range(4)]
    expected = list(itertools.combinations(lattice, 3))
    assert list(Exhaustive(4).configs(3)) == expected
    assert list(_config_list(params)) == expected

    params = SweepParams(n=3, mode=Random(samples=60, coord_range=6, seed=9))
    rng = random.Random(9)
    drawn = [params.mode.draw(3, rng) for _ in range(60)]
    assert list(_config_list(params)) == drawn
    assert drawn[:2] == [((1, 3), (-1, -2), (-4, -4)), ((4, -6), (-1, 2), (1, 3))]


class _Stop(Exception):
    pass


def _stop_at_first(index, *_):
    raise _Stop(index)


def test_records_reach_the_sink_as_they_are_analyzed(monkeypatch):
    analyzed = []
    real = sweep.kernel.analyze

    def counting(cfg):
        analyzed.append(cfg)
        return real(cfg)

    monkeypatch.setattr(sweep.kernel, "analyze", counting)
    with pytest.raises(_Stop):
        run_sweep(SweepParams(n=4, mode=Exhaustive(4)), jobs=1, sink=_stop_at_first)
    # the whole sweep is 1820 configurations
    assert len(analyzed) == 1


def _stop_at_500(index, *_):
    if index == 500:
        raise _Stop(index)


def test_a_failing_sink_stops_the_workers():
    # at the first record, and at record 500 of 1,820 with chunks in flight;
    # the kept traceback holds the sweep's frames, so the pool must be
    # closed explicitly rather than when they are collected
    for sink, index in ((_stop_at_first, 0), (_stop_at_500, 500)):
        with pytest.raises(_Stop) as stopped:
            run_sweep(SweepParams(n=4, mode=Exhaustive(4)), jobs=2, sink=sink)
        assert multiprocessing.active_children() == []
        assert stopped.value.args == (index,)


_SPAWNED_SWEEP = """
import io, multiprocessing, os, sys
from troplines import kernel
from troplines.sweep import JsonlSink, Random, SweepParams, run_sweep

multiprocessing.set_start_method("spawn")
os.cpu_count = lambda: 2  # two workers on any machine
kernel._COMPILED = None
stream = io.StringIO()
run_sweep(SweepParams(n=4, mode=Random(samples=30, coord_range=5, seed=2)), jobs=2,
          sink=JsonlSink(stream))
sys.stdout.write(stream.getvalue())
"""


def test_pure_route_runs_on_spawned_workers(monkeypatch):
    # a spawned worker imports the sweep afresh, without the pure route's
    # modules that a forked one inherits, and loads them itself
    src = str(Path(sweep.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    monkeypatch.setattr(kernel, "_COMPILED", None)
    done = subprocess.run([sys.executable, "-c", _SPAWNED_SWEEP], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    in_process = io.StringIO()
    run_sweep(SweepParams(n=4, mode=Random(samples=30, coord_range=5, seed=2)),
              sink=JsonlSink(in_process))
    assert done.stdout == in_process.getvalue()


def test_report_does_not_depend_on_worker_count():
    params = SweepParams(n=4, mode=Exhaustive(3))
    serial = run_sweep(params, jobs=1)
    parallel = run_sweep(params, jobs=4)
    assert serial.configs_tested == parallel.configs_tested == 126
    assert serial.violations == parallel.violations == []
    assert serial.histogram == parallel.histogram
    assert serial.passed and parallel.passed


def test_jobs_must_be_positive():
    with pytest.raises(InvalidSweep):
        run_sweep(SweepParams(n=2, mode=Exhaustive(2)), jobs=0)


class _PoolRefused(Exception):
    pass


def test_sweeps_start_no_more_workers_than_chunks(monkeypatch):
    # the stand-in pool records its size and refuses, so nothing is forked
    # and nothing is analyzed; the machine has processors to spare
    started = []

    def refusing_pool(processes):
        started.append(processes)
        raise _PoolRefused

    monkeypatch.setattr(multiprocessing, "Pool", refusing_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cases = [
        (SweepParams(n=3, mode=Random(samples=1, coord_range=5)), 4, 1),
        (SweepParams(n=3, mode=Random(samples=3, coord_range=5)), 4, 3),
        # 1,820 configurations in 22 chunks: 1, 2, 4, ..., 64, then 14 of
        # 113 and one of 111
        (SweepParams(n=4, mode=Exhaustive(4)), 4, 4),
        # 376,992 configurations in 378 chunks: 1, 2, 4, ..., 512, then 367
        # of 1,024 and one of 161
        (SweepParams(n=5, mode=Exhaustive(6)), 2, 2),
    ]
    for params, jobs, _ in cases:
        with pytest.raises(_PoolRefused):
            run_sweep(params, jobs=jobs)
    assert started == [workers for _, _, workers in cases]


class _InlinePool:
    """A stand-in for multiprocessing.Pool that starts no process: it
    records its size, and runs each task in process when its result is
    read, keeping the most tasks that were in flight at once."""

    def __init__(self, processes):
        self.processes, self.in_flight, self.most = processes, 0, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def apply_async(self, function, args):
        self.in_flight += 1
        self.most = max(self.most, self.in_flight)

        def get():
            self.in_flight -= 1
            return function(*args)

        return types.SimpleNamespace(get=get)


@pytest.mark.parametrize("processors", [3, None])
def test_sweeps_start_no_more_workers_than_processors(monkeypatch, processors):
    # a hundred thousand jobs start one worker per processor, and at most
    # twice as many chunks are in flight; with no processor count the sweep
    # runs in process. The JSONL bytes are those of one job.
    pools = []

    def inline_pool(processes):
        pools.append(_InlinePool(processes))
        return pools[-1]

    params = SweepParams(n=3, mode=Random(samples=40, coord_range=6, seed=9))
    one_job = io.StringIO()
    run_sweep(params, jobs=1, sink=JsonlSink(one_job))
    monkeypatch.setattr(multiprocessing, "Pool", inline_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: processors)
    many_jobs = io.StringIO()
    report = run_sweep(params, jobs=100_000, sink=JsonlSink(many_jobs))
    assert report.configs_tested == 40
    assert many_jobs.getvalue() == one_job.getvalue()
    if processors is None:
        assert pools == []
    else:
        [pool] = pools
        assert pool.processes == processors
        assert pool.in_flight == 0 and 2 < pool.most <= 2 * processors


def test_sink_sees_every_config_in_order():
    rows = []
    params = SweepParams(n=3, mode=Random(samples=40, coord_range=6, seed=9))
    report = run_sweep(params, sink=lambda *row: rows.append(row))
    assert [r[0] for r in rows] == list(range(40))
    assert report.configs_tested == 40
    rebuilt = {}
    for _, pairs, excess, bad in rows:
        assert len(pairs) == 3
        assert bad == []
        rebuilt[excess] = rebuilt.get(excess, 0) + 1
    assert rebuilt == report.histogram


def test_histogram_keys_are_sorted_and_sum_to_the_total():
    report = run_sweep(SweepParams(n=4, mode=Random(samples=200, coord_range=9, seed=2)))
    keys = list(report.histogram)
    assert keys == sorted(keys)
    assert sum(report.histogram.values()) == 200
    # excess = b - (v - 3) is nonnegative exactly when the bound holds
    assert all(k >= 0 for k in keys)


def test_exhaustive_grid_four_histogram_is_frozen():
    report = run_sweep(SweepParams(n=4, mode=Exhaustive(4)), jobs=2)
    assert report.passed
    assert report.histogram == {0: 10, 1: 65, 2: 305, 3: 500, 4: 594, 5: 346}


def test_failure_search_finds_grid_witnesses():
    # the 3x3 grid holds exactly one four-point configuration with no
    # ordinary stable line
    with pytest.warns(BudgetExhausted):
        only = sg_failure_search(SweepParams(n=4, mode=Exhaustive(3)), stop_after=10)
    assert [tuple(p) for p in only[0].points] == [(0, 1), (1, 0), (1, 1), (2, 2)]
    assert len(only) == 1

    witnesses = sg_failure_search(SweepParams(n=4, mode=Exhaustive(4)), stop_after=2)
    assert len(witnesses) == 2
    for cfg in witnesses:
        assert ordinary_stable_lines(cfg) == []


def test_failure_search_argument_validation():
    with pytest.raises(InvalidSweep):
        sg_failure_search(SweepParams(n=3, mode=Exhaustive(3)))
    for stop_after in (0, -1):
        with pytest.raises(InvalidSweep, match="stop_after must be at least 1"):
            sg_failure_search(SweepParams(n=4, mode=Exhaustive(3)), stop_after=stop_after)


def test_failure_search_warns_when_the_budget_runs_out():
    params = SweepParams(n=4, mode=Random(samples=3, coord_range=30, seed=1))
    with pytest.warns(BudgetExhausted):
        witnesses = sg_failure_search(params, stop_after=1)
    assert witnesses == []


# (CLI arguments, the same sweep's parameters, its configurations with no
# ordinary stable line)
ROUTE_SWEEPS = {
    "exhaustive": (["--n", "4", "--mode", "exhaustive", "--grid", "4"],
                   SweepParams(n=4, mode=Exhaustive(4)), 10),
    "random": (["--n", "5", "--mode", "random", "--samples", "300", "--range", "7",
                "--seed", "11"],
               SweepParams(n=5, mode=Random(samples=300, coord_range=7, seed=11)), 1),
}


def _verify_jsonl(args, jobs, path):
    assert main(["verify", *args, "--jobs", str(jobs), "--jsonl", str(path)]) == 0
    return path.read_bytes()


def _summary(report):
    return report.configs_tested, report.violations, report.histogram, report.no_ordinary_line


def _jsonl_and_summary(params, jobs=1):
    """The sweep's JSONL bytes through a JsonlSink and its report's summary."""
    stream = io.StringIO()
    report = run_sweep(params, jobs=jobs, sink=JsonlSink(stream))
    return stream.getvalue().encode(), _summary(report)


def _rows_and_summary(params, jobs=1):
    """The records a plain sink receives and the report's summary."""
    rows = []
    report = run_sweep(params, jobs=jobs, sink=lambda *row: rows.append(row))
    return rows, _summary(report)


def _not_this_route(cfg):
    raise AssertionError("the sweep went through kernel.analyze")


@pytest.fixture(scope="module", params=sorted(ROUTE_SWEEPS))
def pure_route(request, tmp_path_factory):
    """The sweep on the pure route: its CLI JSONL bytes and printed summary
    at two jobs, and its records and report from run_sweep at one job."""
    args, params, _ = ROUTE_SWEEPS[request.param]
    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(printed):
        mp.setattr(kernel, "_COMPILED", None)
        stream = _verify_jsonl(args, 2, tmp_path_factory.mktemp("pure") / "pure.jsonl")
        rows = []
        report = run_sweep(params, sink=lambda *row: rows.append(row))
    return request.param, stream, printed.getvalue(), rows, report


@pytest.mark.parametrize("jobs", [1, 2])
def test_compiled_route_matches_the_pure_route(
    built_kernel, in_child, pure_route, monkeypatch, tmp_path, capsys, jobs
):
    name, stream, printed, rows, report = pure_route
    args, params, no_ordinary = ROUTE_SWEEPS[name]
    assert f'"no_ordinary_line": {no_ordinary},' in printed
    assert report.no_ordinary_line == no_ordinary
    if isinstance(params.mode, Random):
        assert min(x for _, pairs, _, _ in rows for p in pairs for x in p) < 0
    # worker-encoded lines are the spec's lines of the sink's records
    assert stream == "".join(sweep_line_spec(*row) + "\n" for row in rows).encode()

    # the child and its forked workers inherit both patches
    monkeypatch.setattr(kernel, "_COMPILED", built_kernel)
    monkeypatch.setattr(kernel, "analyze", _not_this_route)
    assert kernel.stream_eligible(params.n, params.mode.reach)

    def compiled_route():
        compiled_rows = []
        compiled = run_sweep(params, jobs=jobs, sink=lambda *row: compiled_rows.append(row))
        return _verify_jsonl(args, jobs, tmp_path / "compiled.jsonl"), compiled_rows, compiled

    compiled_stream, compiled_rows, compiled = in_child(compiled_route)
    assert compiled_stream == stream
    assert compiled_rows == rows
    assert _summary(compiled) == _summary(report)
    assert (compiled.route, report.route) == ("compiled", "pure")
    capsys.readouterr()


# 2,100 configurations: two whole chunks and a partial one at each chunk
# size above 1
BOUNDARY_SWEEP = SweepParams(n=4, mode=Random(samples=2100, coord_range=3, seed=1025))


@pytest.fixture(scope="module")
def boundary_pure_route():
    """BOUNDARY_SWEEP's JSONL and summary, and its sink records, on the
    pure route at two jobs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_COMPILED", None)
        return _jsonl_and_summary(BOUNDARY_SWEEP, 2), _rows_and_summary(BOUNDARY_SWEEP, 2)


@pytest.mark.parametrize("size", [1, 1023, 1024, 1025])
def test_chunk_boundaries_keep_the_pure_route_stream(
    built_kernel, in_child, boundary_pure_route, monkeypatch, size
):
    calls = []

    def counted(configs, *args):
        calls.append(len(configs))
        return built_kernel.analyze_chunk(configs, *args)

    monkeypatch.setattr(kernel, "_COMPILED", types.SimpleNamespace(analyze_chunk=counted))
    monkeypatch.setattr(kernel, "analyze", _not_this_route)
    monkeypatch.setattr(sweep, "_chunk_schedule", lambda total, jobs: itertools.repeat(size))
    in_process, pooled, sizes = in_child(lambda: (
        (_jsonl_and_summary(BOUNDARY_SWEEP), _rows_and_summary(BOUNDARY_SWEEP)),
        (_jsonl_and_summary(BOUNDARY_SWEEP, 2), _rows_and_summary(BOUNDARY_SWEEP, 2)),
        calls))
    assert in_process == pooled == boundary_pure_route
    # one call of the chunk entry per chunk, in process, for each of the
    # two sweeps
    whole, rest = divmod(BOUNDARY_SWEEP.mode.samples, size)
    assert sizes == 2 * ([size] * whole + [rest] * (rest > 0))


@pytest.mark.parametrize("jobs, sizes", [
    # the cap is 2,100 // 4 configurations at one job, 2,100 // 8 at two
    (1, [2 ** k for k in range(10)] + [525, 525, 27]),
    (2, [2 ** k for k in range(9)] + [262] * 6 + [17]),
])
def test_chunks_double_from_one_up_to_the_cap(
    built_kernel, in_child, boundary_pure_route, monkeypatch, tmp_path, jobs, sizes
):
    # each call of the chunk entry appends its chunk's start and size to a
    # file, so the calls in forked workers are seen too
    log = tmp_path / "calls"

    def counted(configs, start, encode):
        with open(log, "a") as fh:
            fh.write(f"{start} {len(configs)}\n")
        return built_kernel.analyze_chunk(configs, start, encode)

    monkeypatch.setattr(kernel, "_COMPILED", types.SimpleNamespace(analyze_chunk=counted))
    monkeypatch.setattr(kernel, "analyze", _not_this_route)
    # the schedule is cut for the workers the sweep starts, at most one per
    # processor
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert in_child(lambda: _jsonl_and_summary(BOUNDARY_SWEEP, jobs)) == boundary_pure_route[0]
    calls = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    assert calls == list(zip(itertools.accumulate([0] + sizes[:-1]), sizes))


# both routes report the faulty kernel's regularity violations: the pure
# route record by record, the kernel route from the chunk entry
def test_both_routes_report_the_same_violations(negated_lift_kernel, in_child, monkeypatch):
    params = SweepParams(n=3, mode=Exhaustive(3))

    def both_sinks():
        return [(_jsonl_and_summary(params, jobs), _rows_and_summary(params, jobs))
                for jobs in (1, 2)]

    monkeypatch.setattr(kernel, "_COMPILED", None)
    monkeypatch.setattr(
        kernel, "analyze", lambda cfg: negated_lift_kernel.analyze_ints(list(cfg.points)))
    assert not kernel.stream_eligible(params.n, params.mode.reach)
    python = in_child(both_sinks)
    monkeypatch.setattr(kernel, "_COMPILED", negated_lift_kernel)
    monkeypatch.setattr(kernel, "analyze", _not_this_route)
    assert kernel.stream_eligible(params.n, params.mode.reach)
    assert in_child(both_sinks) == python

    [((stream, summary), (rows, _)), pooled] = python
    assert pooled == python[0]
    assert stream == "".join(sweep_line_spec(*row) + "\n" for row in rows).encode()
    reported = [(pairs, *violation) for _, pairs, _, bad in rows for violation in bad]
    assert summary[1] == reported
    assert len(reported) > 10 and {suite for _, suite, _ in reported} == {"regularity"}


def _last_lattice_config(n, grid_size):
    # the last n-subset in lexicographic order, without the lattice
    return [(grid_size - 1 - (n - 1 - i) // grid_size, grid_size - 1 - (n - 1 - i) % grid_size)
            for i in range(n)]


def _corner_config(n, coord_range):
    corners = [(coord_range, coord_range), (-coord_range, -coord_range),
               (coord_range, -coord_range), (-coord_range, coord_range)]
    return (corners + [(i, 0) for i in range(n)])[:n]


@pytest.mark.parametrize(
    "params, extreme, fits",
    [
        (SweepParams(n=16, mode=Exhaustive(5)), _last_lattice_config(16, 5), True),
        (SweepParams(n=17, mode=Exhaustive(5)), _last_lattice_config(17, 5), True),
        (SweepParams(n=128, mode=Exhaustive(12)), _last_lattice_config(128, 12), True),
        (SweepParams(n=129, mode=Exhaustive(12)), _last_lattice_config(129, 12), False),
        (SweepParams(n=3, mode=Random(samples=1, coord_range=2**20)),
         _corner_config(3, 2**20), True),
        (SweepParams(n=3, mode=Random(samples=1, coord_range=2**20 + 1)),
         _corner_config(3, 2**20 + 1), False),
        (SweepParams(n=3, mode=Exhaustive(2**20 + 1)),
         _last_lattice_config(3, 2**20 + 1), True),
        (SweepParams(n=3, mode=Exhaustive(2**20 + 2)),
         _last_lattice_config(3, 2**20 + 2), False),
    ],
    ids=["n16", "n17", "n-limit", "n-past", "range-limit", "range-past", "grid-limit",
         "grid-past"],
)
def test_kernel_route_agrees_with_the_extension_at_its_boundaries(
    built_kernel, in_child, monkeypatch, params, extreme, fits
):
    # the sweep's most extreme configuration is accepted exactly when the
    # route fits, and otherwise refused by the extension's own limits
    def refusal():
        try:
            built_kernel.analyze_ints(extreme)
        except ValueError as exc:
            return str(exc)
        return None

    refused = in_child(refusal)
    if fits:
        assert refused is None
    else:
        assert refused and re.search(r"at most 128 points|kernel coordinate bound exceeded",
                                     refused)
    monkeypatch.setattr(kernel, "_COMPILED", built_kernel)
    assert kernel.stream_eligible(params.n, params.mode.reach) is fits
    monkeypatch.setattr(kernel, "_COMPILED", None)
    assert kernel.stream_eligible(params.n, params.mode.reach) is False


def test_last_lattice_config_is_the_last_subset():
    lattice = [(x, y) for x in range(4) for y in range(4)]
    for n in (1, 3, 5, 16):
        assert tuple(_last_lattice_config(n, 4)) == list(itertools.combinations(lattice, n))[-1]


def test_failure_search_takes_the_kernel_route(built_kernel, monkeypatch):
    params = SweepParams(n=5, mode=Exhaustive(4))
    monkeypatch.setattr(kernel, "_COMPILED", None)
    with pytest.warns(BudgetExhausted):
        pure = sg_failure_search(params, stop_after=200)

    monkeypatch.setattr(kernel, "_COMPILED", built_kernel)
    monkeypatch.setattr(kernel, "analyze", _not_this_route)
    with pytest.warns(BudgetExhausted):
        compiled = sg_failure_search(params, stop_after=200)
    assert [c.points for c in compiled] == [c.points for c in pure]
    assert len(pure) == 90


def test_failure_search_takes_the_kernel_route_past_16_points(built_kernel, monkeypatch):
    params = SweepParams(n=20, mode=Random(samples=20, coord_range=2, seed=20))
    monkeypatch.setattr(kernel, "_COMPILED", None)
    with pytest.warns(BudgetExhausted):
        pure = sg_failure_search(params, stop_after=100)

    monkeypatch.setattr(kernel, "_COMPILED", built_kernel)
    monkeypatch.setattr(kernel, "analyze", _not_this_route)
    with pytest.warns(BudgetExhausted):
        compiled = sg_failure_search(params, stop_after=100)
    assert [c.points for c in compiled] == [c.points for c in pure]
    assert len(pure) == 15


@pytest.mark.parametrize("n, coord_range", [(24, 6), (40, 1000)])
def test_large_random_sweeps_write_the_same_jsonl_on_both_routes(
    built_kernel, in_child, monkeypatch, n, coord_range
):
    params = SweepParams(n=n, mode=Random(samples=8, coord_range=coord_range, seed=n))
    monkeypatch.setattr(kernel, "_COMPILED", None)
    assert not kernel.stream_eligible(params.n, params.mode.reach)
    pure = _jsonl_and_summary(params)
    monkeypatch.setattr(kernel, "_COMPILED", built_kernel)
    monkeypatch.setattr(kernel, "analyze", _not_this_route)
    assert kernel.stream_eligible(params.n, params.mode.reach)
    assert in_child(lambda: _jsonl_and_summary(params)) == pure
    assert pure[0].count(b"\n") == 8


# configurations on the 4x4 grid with no ordinary stable line, by n
GRID4_CENSUS = {4: 10, 5: 90, 6: 54, 7: 52}


@pytest.mark.parametrize(
    "route,n",
    [("pure", n) for n in (4, 5, 6)] + [("kernel", n) for n in sorted(GRID4_CENSUS)],
)
def test_failure_search_census_on_the_4x4_grid(request, monkeypatch, route, n):
    compiled = request.getfixturevalue("built_kernel") if route == "kernel" else None
    monkeypatch.setattr(kernel, "_COMPILED", compiled)
    params = SweepParams(n=n, mode=Exhaustive(4))
    with pytest.warns(BudgetExhausted):
        witnesses = sg_failure_search(params, stop_after=10**6)
    assert len(witnesses) == GRID4_CENSUS[n]
    if route == "kernel":
        assert run_sweep(params).no_ordinary_line == GRID4_CENSUS[n]


# small streams, each with its configurations that have no ordinary stable
# line: the 3x3 grid at n = 4-6 and draws from the 5x5 box
SMALL_STREAMS = [
    (SweepParams(n=4, mode=Exhaustive(3)), 1),
    (SweepParams(n=5, mode=Exhaustive(3)), 3),
    (SweepParams(n=6, mode=Exhaustive(3)), 2),
    (SweepParams(n=5, mode=Random(samples=30, coord_range=2, seed=1)), 4),
]


@pytest.mark.parametrize("route", ["pure", "kernel"])
@pytest.mark.parametrize("params, bare", SMALL_STREAMS,
                         ids=["grid3-4", "grid3-5", "grid3-6", "random-5"])
def test_failure_search_and_sweep_count_the_same_configurations(
    request, in_child, monkeypatch, route, params, bare
):
    # the search and the sweep at one and two jobs read the same chunks
    if route == "kernel":
        monkeypatch.setattr(kernel, "_COMPILED", request.getfixturevalue("built_kernel"))
        monkeypatch.setattr(kernel, "analyze", _not_this_route)
    else:
        monkeypatch.setattr(kernel, "_COMPILED", None)

    def both_consumers():
        with pytest.warns(BudgetExhausted):
            found = len(sg_failure_search(params, stop_after=10**6))
        reports = [run_sweep(params, jobs=jobs) for jobs in (1, 2)]
        return found, [(r.route, r.no_ordinary_line) for r in reports]

    found, reports = in_child(both_consumers)
    assert found == bare
    assert reports == [("compiled" if route == "kernel" else "pure", bare)] * 2
