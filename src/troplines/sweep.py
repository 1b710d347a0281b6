"""Exhaustive and randomized sweeps over integer point configurations.

Each configuration runs through the full analysis record (bound,
near-pencil implication, cross-oracles, tiling, regularity, count
identities, determined-face inequalities) and every violation is kept
with the configuration that produced it, so a failing sweep replays as a
standalone test case. Violations are data, not exceptions.

Each sweep reads one lazy configuration stream in a fixed order, cut
into ordered chunks; workers take a bounded number of chunks at a time, so
memory does not grow with the sweep size and results are identical for
any worker count and fixed parameters (elapsed time aside). JSONL lines
are encoded next to the analysis, in the workers. When n and the grid or
range fit the compiled kernel, each chunk's int tuples go to it in one
call, which returns the chunk's excesses, its violations and its JSONL
text; the main process then touches single records only for a plain
callable sink.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
import random
import time
import warnings
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, TextIO, Tuple, Union

from . import kernel
from .errors import BudgetExhausted, GridTooSmall, InvalidSweep, RangeTooSmall
from .incidence import PointConfig, point_config
from .serialize import sweep_line_json

IntPair = Tuple[int, int]


@dataclass(frozen=True)
class Exhaustive:
    """All n-subsets of the grid_size x grid_size lattice."""

    grid_size: int


@dataclass(frozen=True)
class Random:
    """samples independent draws of n distinct points from the box
    [-coord_range, coord_range]^2, reproducible from seed."""

    samples: int
    coord_range: int
    seed: int = 0


Mode = Union[Exhaustive, Random]


@dataclass(frozen=True)
class SweepParams:
    n: int
    mode: Mode

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidSweep(f"n must be at least 1, got {self.n}")
        if isinstance(self.mode, Exhaustive):
            if self.mode.grid_size < 2:
                raise InvalidSweep(
                    f"grid_size must be at least 2, got {self.mode.grid_size}"
                )
        elif isinstance(self.mode, Random):
            if self.mode.samples < 1:
                raise InvalidSweep(
                    f"samples must be at least 1, got {self.mode.samples}"
                )
            if self.mode.coord_range < 1:
                raise InvalidSweep(
                    f"coord_range must be at least 1, got {self.mode.coord_range}"
                )
            if (2 * self.mode.coord_range + 1) ** 2 < self.n:
                raise RangeTooSmall(
                    f"a box of side {2 * self.mode.coord_range + 1} holds fewer "
                    f"than {self.n} distinct points"
                )
        else:
            raise InvalidSweep(f"unknown mode {self.mode!r}")


@dataclass
class SweepReport:
    configs_tested: int
    violations: List[Tuple[Tuple[IntPair, ...], str, str]]
    histogram: Dict[int, int]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.violations


def _lattice_configs(n: int, grid_size: int) -> Iterator[Tuple[IntPair, ...]]:
    if grid_size * grid_size < n:
        raise GridTooSmall(
            f"grid {grid_size}x{grid_size} has {grid_size * grid_size} points, "
            f"fewer than n={n}"
        )
    lattice = [(x, y) for x in range(grid_size) for y in range(grid_size)]
    return itertools.combinations(lattice, n)


def _random_pairs(n: int, coord_range: int, rng: random.Random) -> Tuple[IntPair, ...]:
    if (2 * coord_range + 1) ** 2 < n:
        raise RangeTooSmall(
            f"a box of side {2 * coord_range + 1} holds fewer than {n} "
            f"distinct points"
        )
    chosen: List[IntPair] = []
    seen = set()
    while len(chosen) < n:
        p = (rng.randint(-coord_range, coord_range),
             rng.randint(-coord_range, coord_range))
        if p in seen:
            continue
        seen.add(p)
        chosen.append(p)
    return tuple(chosen)


def enumerate_configs(n: int, grid_size: int) -> Iterator[PointConfig]:
    """All n-subsets of the grid_size x grid_size lattice, lexicographic."""
    return map(point_config, _lattice_configs(n, grid_size))


def random_config(n: int, coord_range: int, rng: random.Random) -> PointConfig:
    """n distinct integer points from [-coord_range, coord_range]^2,
    uniform with rejection of repeats."""
    return point_config(_random_pairs(n, coord_range, rng))


def _config_list(params: SweepParams) -> Iterator[Tuple[IntPair, ...]]:
    """The sweep's configurations as int-pair tuples, generated lazily in
    their fixed order: enumerate_configs' order, or random_config's draws
    from one RNG seeded with the mode's seed."""
    mode = params.mode
    if isinstance(mode, Exhaustive):
        return _lattice_configs(params.n, mode.grid_size)
    rng = random.Random(mode.seed)
    return (_random_pairs(params.n, mode.coord_range, rng) for _ in range(mode.samples))


def _sweep_size(params: SweepParams) -> int:
    if isinstance(params.mode, Exhaustive):
        return math.comb(params.mode.grid_size ** 2, params.n)
    return params.mode.samples


def _kernel_route(params: SweepParams) -> bool:
    """Whether every configuration of the sweep goes to the compiled
    kernel as int tuples, decided from n and the largest coordinate
    magnitude the mode can generate, without generating anything."""
    mode = params.mode
    reach = mode.grid_size - 1 if isinstance(mode, Exhaustive) else mode.coord_range
    return kernel.stream_eligible(params.n, reach)


class JsonlSink:
    """A run_sweep sink that writes each record to stream as its JSONL
    line, sweep_line_json plus a newline.

    run_sweep recognizes it: the lines are encoded where the
    configurations are analyzed, in the workers when there are any, and
    each chunk's lines reach the stream in one write as soon as the chunk
    is analyzed. The bytes are the same as calling it once per record.
    """

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream

    def __call__(self, index: int, config: Tuple[IntPair, ...], excess: int,
                 violations: list) -> None:
        self.stream.write(sweep_line_json(index, config, excess, violations) + "\n")


class _Chunk(NamedTuple):
    """Consecutive configurations of one sweep, from index start on, with
    whether the sweep takes the kernel route and whether to encode JSONL
    lines."""

    start: int
    configs: Tuple[Tuple[IntPair, ...], ...]
    compiled: bool
    encode: bool


@contextlib.contextmanager
def _naming(pairs: Tuple[IntPair, ...]) -> Iterator[None]:
    """Raise an AssertionError from the analysis of pairs again, naming
    the points."""
    try:
        yield
    except AssertionError as exc:
        raise AssertionError(
            f"{str(exc) or 'assertion failed'} at points {[list(p) for p in pairs]}"
        ) from exc


def _analyze_chunk(chunk: _Chunk) -> Tuple[array, List[Tuple[int, list]], Optional[str]]:
    """The excess of each configuration of the chunk in order, the
    (offset in the chunk, violations) of those that have any, and the
    chunk's JSONL lines, newline-terminated and joined, when chunk.encode
    is set (None otherwise).

    The kernel route passes the chunk's int tuples to the extension in one
    call; otherwise each configuration goes through kernel.analyze. An
    AssertionError from either is raised again naming the points.
    """
    if chunk.compiled:
        analyze_chunk = kernel._COMPILED.analyze_chunk
        try:
            raw, flagged, text = analyze_chunk(chunk.configs, chunk.start, chunk.encode)
        except AssertionError:
            # the kernel is deterministic, so the configuration that failed
            # fails again on its own
            for offset, pairs in enumerate(chunk.configs):
                with _naming(pairs):
                    analyze_chunk((pairs,), chunk.start + offset, False)
            raise
        return array("i", raw), flagged, text
    excesses = array("i")
    flagged = []
    lines: List[str] = []
    for offset, pairs in enumerate(chunk.configs):
        with _naming(pairs):
            record = kernel.analyze(point_config(pairs))
        excess = record["excess"]
        bad = record["violations"]
        excesses.append(excess)
        if bad:
            flagged.append((offset, bad))
        if chunk.encode:
            lines.append(sweep_line_json(chunk.start + offset, pairs, excess, bad))
    return excesses, flagged, "\n".join(lines) + "\n" if chunk.encode else None


def _chunks(params: SweepParams, size: int, encode: bool) -> Iterator[_Chunk]:
    """The sweep's configuration stream, set up at the call and cut
    lazily into chunks of size configurations."""
    configs = _config_list(params)
    compiled = _kernel_route(params)
    parts = iter(lambda: tuple(itertools.islice(configs, size)), ())
    return (
        _Chunk(number * size, part, compiled, encode)
        for number, part in enumerate(parts)
    )


def _chunk_size(total: int, jobs: int) -> int:
    """Configurations per chunk for a sweep of total on jobs processes: one
    at a time in process, each record out before the next; for workers
    about what Pool.map would pick, capped so the chunks in flight stay
    small however large the sweep."""
    return 1 if jobs == 1 else max(1, min(1024, total // (4 * jobs)))


def _pooled(pool, chunks: Iterator[_Chunk], window: int) -> Iterator:
    """(chunk, _analyze_chunk(chunk)) for each chunk, in order, analyzed on
    pool's workers with at most window chunks in flight."""
    pending = deque()
    for chunk in chunks:
        pending.append((chunk, pool.apply_async(_analyze_chunk, (chunk,))))
        if len(pending) >= window:
            done, result = pending.popleft()
            yield done, result.get()
    while pending:
        done, result = pending.popleft()
        yield done, result.get()


def run_sweep(
    params: SweepParams,
    jobs: int = 1,
    sink: Optional[Callable[[int, Tuple[IntPair, ...], int, list], None]] = None,
) -> SweepReport:
    """Run the sweep and collect every violation with its configuration.

    jobs > 1 analyzes ordered chunks of the configuration stream on that
    many processes, or one per chunk when there are fewer chunks; the
    report does not depend on the worker count. sink,
    when given, receives (index, config, excess, violations) for every
    configuration in order, as soon as that configuration is analyzed. A
    JsonlSink receives the same records as lines encoded by the workers.
    """
    if jobs < 1:
        raise InvalidSweep(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    stream = None
    if isinstance(sink, JsonlSink):
        stream, sink = sink.stream, None
    total = _sweep_size(params)
    size = _chunk_size(total, jobs)
    chunks = _chunks(params, size, stream is not None)
    histogram: Dict[int, int] = {}
    violations: List[Tuple[Tuple[IntPair, ...], str, str]] = []
    with contextlib.ExitStack() as stack:
        if jobs == 1:
            results: Iterator = ((chunk, _analyze_chunk(chunk)) for chunk in chunks)
        else:
            # no more workers than chunks
            workers = max(1, min(jobs, -(-total // size)))
            pool = stack.enter_context(multiprocessing.Pool(processes=workers))
            results = _pooled(pool, chunks, 2 * jobs)
        for chunk, (excesses, flagged, text) in results:
            if stream is not None:
                stream.write(text)
            for excess in excesses:
                histogram[excess] = histogram.get(excess, 0) + 1
            for offset, bad in flagged:
                violations += [(chunk.configs[offset], suite, detail) for suite, detail in bad]
            if sink is not None:
                bad_at = dict(flagged)
                for offset, (pairs, excess) in enumerate(zip(chunk.configs, excesses)):
                    sink(chunk.start + offset, pairs, excess, bad_at.get(offset, []))

    elapsed = time.perf_counter() - start
    return SweepReport(
        configs_tested=sum(histogram.values()),
        violations=violations,
        histogram=dict(sorted(histogram.items())),
        elapsed=elapsed,
    )


def sg_failure_search(params: SweepParams, stop_after: int = 1) -> List[PointConfig]:
    """Configurations with no ordinary stable line (no stable line through
    exactly two of the points).

    Streams the configurations described by params, as int tuples straight
    to the compiled kernel when the whole sweep fits it, and stops once
    stop_after witnesses are found. Exhausting the stream first issues a
    BudgetExhausted warning and returns whatever was found.
    """
    if params.n < 4:
        raise InvalidSweep(
            f"ordinary-line failures are searched at n >= 4, got {params.n}"
        )
    has_ordinary_line = (
        kernel._COMPILED.has_ordinary_line if _kernel_route(params) else None
    )
    witnesses: List[PointConfig] = []
    for pairs in _config_list(params):
        if has_ordinary_line is not None:
            ordinary = has_ordinary_line(pairs)
        else:
            ordinary = kernel.has_ordinary_line(point_config(pairs))
        if not ordinary:
            witnesses.append(point_config(pairs))
            if len(witnesses) >= stop_after:
                return witnesses
    warnings.warn(
        BudgetExhausted(
            f"search ended with {len(witnesses)} of {stop_after} witnesses"
        )
    )
    return witnesses
