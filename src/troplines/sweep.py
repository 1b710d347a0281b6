"""Exhaustive and randomized sweeps over integer point configurations.

Each configuration runs through the full analysis record (bound,
near-pencil implication, cross-oracles, tiling, regularity, count
identities, determined-face inequalities) and every violation is kept
with the configuration that produced it, so a failing sweep replays as a
standalone test case. Violations are data, not exceptions.

Both run_sweep and sg_failure_search read one lazy configuration stream
in a fixed order, cut into ordered chunks by one generator, _analyzed;
workers take a bounded number of chunks at a time, so memory does not
grow with the sweep size and results are identical for any worker count
and fixed parameters (elapsed time aside). A run_sweep sink is a
callable, given each record, or a text stream, given its JSONL line,
which is encoded next to the analysis, in the workers. Each mode
validates itself and knows its size, its coordinate reach and its
stream.

_analyzed picks the sweep's route once, from n and the mode's reach:
when every configuration it can generate fits the compiled kernel, each
chunk's int tuples go to it in one call, which returns the chunk's
excesses, its violations, the offsets of its configurations with no
ordinary stable line and its JSONL text, and the main process touches
single records only for a callable sink; otherwise every configuration
goes through the pure reference analysis. The report counts, and the
failure search returns, the configurations whose record has
ordinary == 0.

A compiled sweep imports neither the pure geometry nor multiprocessing.
On the pure route _analyzed loads the pure geometry before its pool
starts, so that forked workers inherit it, and _analyze_chunk imports
what it calls, so a spawned worker loads it on its first chunk. A sweep
imports multiprocessing only when it runs more than one job.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import time
import warnings
from array import array
from collections import Counter, deque
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    TextIO, Tuple, Union)

from . import kernel
from .errors import BudgetExhausted, GridTooSmall, InvalidSweep, RangeTooSmall

if TYPE_CHECKING:
    from .incidence import PointConfig

IntPair = Tuple[int, int]


class Exhaustive(NamedTuple):
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


class Random(NamedTuple):
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


class _Params(NamedTuple):
    n: int
    mode: Mode


class SweepParams(_Params):
    """A sweep's point count and mode, validated when constructed."""

    __slots__ = ()

    def __new__(cls, n: int, mode: Mode) -> SweepParams:
        if n < 1:
            raise InvalidSweep(f"n must be at least 1, got {n}")
        if not isinstance(mode, (Exhaustive, Random)):
            raise InvalidSweep(f"unknown mode {mode!r}")
        mode.validate(n)
        return super().__new__(cls, n, mode)


class SweepReport(NamedTuple):
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


class _Chunk(NamedTuple):
    """Consecutive configurations of one sweep, from index start on, with
    whether the sweep takes the kernel route and whether to encode JSONL
    lines."""

    start: int
    configs: Tuple[Tuple[IntPair, ...], ...]
    compiled: bool
    encode: bool


def _analyze_chunk(
    chunk: _Chunk,
) -> Tuple[array, List[Tuple[int, list]], List[int], Optional[str]]:
    """The excess of each configuration of the chunk in order, the
    (offset in the chunk, violations) of those that have any, the offsets
    of those whose record has ordinary == 0, and the chunk's JSONL lines,
    newline-terminated and joined, when chunk.encode is set (None
    otherwise).

    The kernel route passes the chunk's int tuples to the extension in one
    call, which raises only on points it does not take; a check that fails
    there is a violation. The pure route takes each configuration through
    kernel.analyze, importing point_config and sweep_line_json once per
    chunk, and raises an AssertionError from the pure analysis again naming
    the points.
    """
    if chunk.compiled:
        raw, flagged, bare, text = kernel._COMPILED.analyze_chunk(
            chunk.configs, chunk.start, chunk.encode)
        return array("i", raw), flagged, bare, text
    from .incidence import point_config
    from .serialize import sweep_line_json

    excesses = array("i")
    flagged = []
    bare = []
    lines: List[str] = []
    for offset, pairs in enumerate(chunk.configs):
        try:
            record = kernel.analyze(point_config(pairs))
        except AssertionError as exc:
            raise AssertionError(
                f"{str(exc) or 'assertion failed'} at points {[list(p) for p in pairs]}"
            ) from exc
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


def _analyzed(params: SweepParams, jobs: int, encode: bool) -> Iterator:
    """(chunk, _analyze_chunk(chunk)) for each chunk of the sweep's stream,
    in order, on the route the sweep takes, cut at _chunk_schedule's sizes
    and with JSONL lines when encode is set.

    The chunks are analyzed in process or, for jobs > 1, on that many
    processes, but on no more than the machine's processors, nor more than
    one per configuration, with at most twice as many chunks in flight.
    The pool is closed when the stream ends or the generator is closed.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    compiled = kernel.stream_eligible(params.n, params.mode.reach)
    if not compiled:  # before the pool starts, so that forked workers inherit it
        from . import analysis, incidence, serialize  # noqa: F401
    total = params.mode.size(params.n)
    configs = _config_list(params)
    if jobs == 1:
        workers = contextlib.nullcontext()
    else:
        import multiprocessing

        # no more workers than chunks: below 4 * jobs configurations each
        # chunk holds one
        workers = multiprocessing.Pool(processes=min(jobs, total))
    start = 0
    pending = deque()
    with workers as pool:
        for size in _chunk_schedule(total, jobs):
            chunk = _Chunk(start, tuple(itertools.islice(configs, size)), compiled, encode)
            if not chunk.configs:
                break
            start += size
            if pool is None:
                yield chunk, _analyze_chunk(chunk)
                continue
            pending.append((chunk, pool.apply_async(_analyze_chunk, (chunk,))))
            if len(pending) >= 2 * jobs:
                done, result = pending.popleft()
                yield done, result.get()
        for done, result in pending:
            yield done, result.get()


def run_sweep(
    params: SweepParams,
    jobs: int = 1,
    sink: Union[Callable[[int, Tuple[IntPair, ...], int, list], None], TextIO, None] = None,
) -> SweepReport:
    """Run the sweep and collect every violation with its configuration.

    The stream's chunks are analyzed by _analyzed, in process or on up to
    jobs processes; the report does not depend on the worker count. A
    callable sink receives (index, config, excess, violations) for every
    configuration in order, as soon as its chunk is analyzed. Any other
    sink is a text stream that receives each record as its JSONL line,
    sweep_line_json plus a newline, encoded where the configuration is
    analyzed: each chunk's lines reach it in one write as soon as the
    chunk is analyzed. The first chunk holds one configuration, so the
    first line comes after one analysis, and an interrupted sweep leaves
    whole lines, at most one chunk short of the records analyzed. The
    report's route names the route the sweep took, and no_ordinary_line
    counts the configurations with no ordinary stable line.
    """
    if jobs < 1:
        raise InvalidSweep(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    stream = None
    if sink is not None and not callable(sink):
        stream, sink = sink, None
    histogram: Counter = Counter()
    violations: List[Tuple[Tuple[IntPair, ...], str, str]] = []
    no_ordinary_line = 0
    # closed explicitly, so that a sink that raises stops the workers at once
    with contextlib.closing(_analyzed(params, jobs, stream is not None)) as results:
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
        route="compiled" if chunk.compiled else "pure",  # every stream has a chunk
        no_ordinary_line=no_ordinary_line,
    )


def sg_failure_search(params: SweepParams, stop_after: int = 1) -> List[PointConfig]:
    """Configurations with no ordinary stable line (no stable line through
    exactly two of the points), in sweep order.

    Reads the sweep's own chunks through _analyzed at one job, without
    JSONL, and keeps the configurations whose record has ordinary == 0;
    stops after the chunk that brings the count to stop_after and returns
    the first stop_after. Exhausting the stream first issues a
    BudgetExhausted warning and returns whatever was found.
    """
    if params.n < 4:
        raise InvalidSweep(
            f"ordinary-line failures are searched at n >= 4, got {params.n}"
        )
    if stop_after < 1:
        raise InvalidSweep(f"stop_after must be at least 1, got {stop_after}")
    from .incidence import point_config

    witnesses: List[PointConfig] = []
    for chunk, (_, _, bare, _) in _analyzed(params, 1, False):
        witnesses += [point_config(chunk.configs[offset]) for offset in bare]
        if len(witnesses) >= stop_after:
            return witnesses[:stop_after]
    warnings.warn(
        BudgetExhausted(
            f"search ended with {len(witnesses)} of {stop_after} witnesses"
        )
    )
    return witnesses
