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
are encoded next to the analysis, in the workers. Each mode validates
itself and knows its size, its coordinate reach and its stream.

A sweep, or a failure search, picks its route once, from n and the
mode's reach: when every configuration it can generate fits the compiled
kernel, each chunk's int tuples go to it in one call, which returns the
chunk's excesses, its violations, the offsets of its configurations with
no ordinary stable line and its JSONL text, and the main process touches
single records only for a plain callable sink; otherwise every
configuration goes through the pure reference analysis. The report counts,
and the failure search returns, the configurations whose record has
ordinary == 0.
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
from collections import Counter, deque
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

    def validate(self, n: int) -> None:
        if self.grid_size < 2:
            raise InvalidSweep(f"grid_size must be at least 2, got {self.grid_size}")
        if self.grid_size ** 2 < n:
            raise GridTooSmall(
                f"grid {self.grid_size}x{self.grid_size} has {self.grid_size ** 2} "
                f"points, fewer than n={n}"
            )

    def size(self, n: int) -> int:
        return math.comb(self.grid_size ** 2, n)

    @property
    def reach(self) -> int:
        """The largest coordinate magnitude of a configuration."""
        return self.grid_size - 1

    def configs(self, n: int) -> Iterator[Tuple[IntPair, ...]]:
        """The n-subsets in lexicographic order, generated lazily."""
        lattice = [(x, y) for x in range(self.grid_size) for y in range(self.grid_size)]
        return itertools.combinations(lattice, n)


@dataclass(frozen=True)
class Random:
    """samples independent draws of n distinct points from the box
    [-coord_range, coord_range]^2, reproducible from seed."""

    samples: int
    coord_range: int
    seed: int = 0

    def validate(self, n: int) -> None:
        if self.samples < 1:
            raise InvalidSweep(f"samples must be at least 1, got {self.samples}")
        if self.coord_range < 1:
            raise InvalidSweep(f"coord_range must be at least 1, got {self.coord_range}")
        if (2 * self.coord_range + 1) ** 2 < n:
            raise RangeTooSmall(
                f"a box of side {2 * self.coord_range + 1} holds fewer than {n} "
                f"distinct points"
            )

    def size(self, n: int) -> int:
        return self.samples

    @property
    def reach(self) -> int:
        """The largest coordinate magnitude of a configuration."""
        return self.coord_range

    def draw(self, n: int, rng: random.Random) -> Tuple[IntPair, ...]:
        """n distinct points from the box, uniform with rejection of
        repeats."""
        r = self.coord_range
        chosen: List[IntPair] = []
        seen = set()
        while len(chosen) < n:
            p = (rng.randint(-r, r), rng.randint(-r, r))
            if p in seen:
                continue
            seen.add(p)
            chosen.append(p)
        return tuple(chosen)

    def configs(self, n: int) -> Iterator[Tuple[IntPair, ...]]:
        """The samples draws from one RNG seeded with seed, generated
        lazily."""
        rng = random.Random(self.seed)
        return (self.draw(n, rng) for _ in range(self.samples))


Mode = Union[Exhaustive, Random]


@dataclass(frozen=True)
class SweepParams:
    n: int
    mode: Mode

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidSweep(f"n must be at least 1, got {self.n}")
        if not isinstance(self.mode, (Exhaustive, Random)):
            raise InvalidSweep(f"unknown mode {self.mode!r}")
        self.mode.validate(self.n)


@dataclass
class SweepReport:
    configs_tested: int
    violations: List[Tuple[Tuple[IntPair, ...], str, str]]
    histogram: Dict[int, int]
    elapsed: float
    route: str  # "compiled" or "pure"
    no_ordinary_line: int  # configurations with no stable line through two points

    @property
    def passed(self) -> bool:
        return not self.violations


def _config_list(params: SweepParams) -> Iterator[Tuple[IntPair, ...]]:
    """The sweep's configurations as int-pair tuples, generated lazily in
    their fixed order."""
    return params.mode.configs(params.n)


class JsonlSink:
    """The run_sweep sink for a JSONL stream: each record reaches stream
    as its line, sweep_line_json plus a newline.

    run_sweep takes the stream instead of calling the sink: the lines are
    encoded where the configurations are analyzed, in the workers when
    there are any, and each chunk's lines reach the stream in one write as
    soon as the chunk is analyzed. The first chunk holds one
    configuration, so the first line comes after one analysis, and an
    interrupted sweep leaves whole lines, at most one chunk short of the
    records analyzed.
    """

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream


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


def _analyze_chunk(
    chunk: _Chunk,
) -> Tuple[array, List[Tuple[int, list]], List[int], Optional[str]]:
    """The excess of each configuration of the chunk in order, the
    (offset in the chunk, violations) of those that have any, the offsets
    of those whose record has ordinary == 0, and the chunk's JSONL lines,
    newline-terminated and joined, when chunk.encode is set (None
    otherwise).

    The kernel route passes the chunk's int tuples to the extension in one
    call; the pure route takes each configuration through kernel.analyze. An
    AssertionError from either is raised again naming the points.
    """
    if chunk.compiled:
        analyze_chunk = kernel._COMPILED.analyze_chunk
        try:
            raw, flagged, bare, text = analyze_chunk(chunk.configs, chunk.start,
                                                     chunk.encode)
        except AssertionError:
            # the kernel is deterministic, so the configuration that failed
            # fails again on its own
            for offset, pairs in enumerate(chunk.configs):
                with _naming(pairs):
                    analyze_chunk((pairs,), chunk.start + offset, False)
            raise
        return array("i", raw), flagged, bare, text
    excesses = array("i")
    flagged = []
    bare = []
    lines: List[str] = []
    for offset, pairs in enumerate(chunk.configs):
        with _naming(pairs):
            record = kernel.analyze(point_config(pairs))
        excess = record["excess"]
        bad = record["violations"]
        excesses.append(excess)
        if bad:
            flagged.append((offset, bad))
        if record["ordinary"] == 0:
            bare.append(offset)
        if chunk.encode:
            lines.append(sweep_line_json(chunk.start + offset, pairs, excess, bad))
    return excesses, flagged, bare, "\n".join(lines) + "\n" if chunk.encode else None


def _chunk_schedule(total: int, jobs: int) -> Iterator[int]:
    """The sizes of the chunks of a sweep of total configurations on jobs
    processes, in order: 1, 2, 4, … so the first record comes after one
    analysis, doubling up to about what Pool.map would pick, capped at
    1024 so the chunks in flight stay small however large the sweep."""
    cap = max(1, min(1024, total // (4 * jobs)))
    size = 1
    while True:
        yield size
        size = min(2 * size, cap)


def _chunks(params: SweepParams, sizes: Iterator[int], compiled: bool,
            encode: bool) -> Iterator[_Chunk]:
    """The sweep's configuration stream cut lazily into chunks of the
    given sizes in turn."""
    configs = _config_list(params)
    start = 0
    for size in sizes:
        part = tuple(itertools.islice(configs, size))
        if not part:
            return
        yield _Chunk(start, part, compiled, encode)
        start += size


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
    sink: Union[Callable[[int, Tuple[IntPair, ...], int, list], None], JsonlSink, None] = None,
) -> SweepReport:
    """Run the sweep and collect every violation with its configuration.

    The stream's chunks (_chunk_schedule) are analyzed in process or, for
    jobs > 1, on that many processes, or one per configuration when there
    are fewer; the report does not depend on the worker count. sink, when
    given, receives (index, config, excess, violations) for every
    configuration in order, as soon as its chunk is analyzed. A JsonlSink's
    stream receives the same records as lines encoded by the workers. The
    report's route names the route the sweep took, and no_ordinary_line
    counts the configurations with no ordinary stable line.
    """
    if jobs < 1:
        raise InvalidSweep(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    stream = None
    if isinstance(sink, JsonlSink):
        stream, sink = sink.stream, None
    compiled = kernel.stream_eligible(params.n, params.mode.reach)
    total = params.mode.size(params.n)
    chunks = _chunks(params, _chunk_schedule(total, jobs), compiled, stream is not None)
    histogram: Counter = Counter()
    violations: List[Tuple[Tuple[IntPair, ...], str, str]] = []
    no_ordinary_line = 0
    with contextlib.ExitStack() as stack:
        if jobs == 1:
            results: Iterator = ((chunk, _analyze_chunk(chunk)) for chunk in chunks)
        else:
            # no more workers than chunks: below 4 * jobs configurations
            # each chunk holds one
            pool = stack.enter_context(multiprocessing.Pool(processes=min(jobs, total)))
            results = _pooled(pool, chunks, 2 * jobs)
        for chunk, (excesses, flagged, bare, text) in results:
            if stream is not None:
                stream.write(text)
            no_ordinary_line += len(bare)
            histogram.update(excesses)
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
        route="compiled" if compiled else "pure",
        no_ordinary_line=no_ordinary_line,
    )


def sg_failure_search(params: SweepParams, stop_after: int = 1) -> List[PointConfig]:
    """Configurations with no ordinary stable line (no stable line through
    exactly two of the points), in sweep order.

    Reads the sweep's own chunks, at the one-job schedule and on the route
    run_sweep takes, in process and without JSONL, and keeps the
    configurations whose record has ordinary == 0; stops after the chunk
    that brings the count to stop_after and returns the first stop_after.
    Exhausting the stream first issues a BudgetExhausted warning and
    returns whatever was found.
    """
    if params.n < 4:
        raise InvalidSweep(
            f"ordinary-line failures are searched at n >= 4, got {params.n}"
        )
    if stop_after < 1:
        raise InvalidSweep(f"stop_after must be at least 1, got {stop_after}")
    compiled = kernel.stream_eligible(params.n, params.mode.reach)
    sizes = _chunk_schedule(params.mode.size(params.n), 1)
    witnesses: List[PointConfig] = []
    for chunk in _chunks(params, sizes, compiled, False):
        _, _, bare, _ = _analyze_chunk(chunk)
        witnesses += [point_config(chunk.configs[offset]) for offset in bare]
        if len(witnesses) >= stop_after:
            return witnesses[:stop_after]
    warnings.warn(
        BudgetExhausted(
            f"search ended with {len(witnesses)} of {stop_after} witnesses"
        )
    )
    return witnesses
