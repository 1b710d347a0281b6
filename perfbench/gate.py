"""Correctness gate for one `troplines verify` run.

A run passes when the process exits 0, its summary reports the expected
configuration count, zero violations and the expected backend, and its
JSONL stream holds one record per input configuration with index
0..N-1 in order, the configuration the benchmark generated for that
index and no violations. Where a digest is stored for the workload and
seed, the stream's sha256 must equal it. A sample of records can also be
recomputed with the pure reference analysis and compared.

The inputs are regenerated here independently of the program (the same
lattice order and the same seeded draws as troplines.sweep documents),
so a sweep over the wrong configurations fails the gate.

failed counts configurations: a failed record counts once, and a problem
with the run as a whole (exit code, summary, digest, backend) counts
every configuration of the run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

Config = Tuple[Tuple[int, int], ...]


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def lattice_configs(n: int, grid: int) -> Iterator[Config]:
    """All n-subsets of the grid x grid lattice, lexicographic."""
    lattice = [(x, y) for x in range(grid) for y in range(grid)]
    return itertools.combinations(lattice, n)


def random_configs(n: int, samples: int, coord_range: int, seed: int) -> Iterator[Config]:
    """samples draws of n distinct points from [-coord_range, coord_range]^2,
    x then y per point, repeats rejected, from random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(samples):
        chosen, seen = [], set()
        while len(chosen) < n:
            p = (rng.randint(-coord_range, coord_range),
                 rng.randint(-coord_range, coord_range))
            if p not in seen:
                seen.add(p)
                chosen.append(p)
        yield tuple(chosen)


def sample_indices(count: int, size: int) -> range:
    """A deterministic, evenly spread sample of record indices."""
    if size <= 0:
        return range(0)
    return range(0, count, -(-count // size))


def check_run(
    configs: Iterator[Config],
    count: int,
    returncode: int,
    summary_text: str,
    stream: bytes,
    backend: Optional[str],
    digest: Optional[str],
    recompute: Sequence[int] = (),
    reference: Optional[Callable[[Config], dict]] = None,
) -> Verdict:
    """Gate one run. backend None accepts any backend; digest None skips
    the digest check; records at the indices in recompute are compared
    with reference(config), an analysis record."""
    verdict = Verdict(attempted=count)

    def whole_run(problem: str) -> None:
        verdict.problems.append(problem)
        verdict.failed = count

    if returncode != 0:
        whole_run(f"exit code {returncode}")
    try:
        summary = json.loads(summary_text)
    except ValueError:
        summary = {}
        whole_run("summary is not JSON")
    if summary.get("configs_tested") != count:
        whole_run(f"configs_tested {summary.get('configs_tested')} != {count}")
    if summary.get("violations") != 0:
        whole_run(f"summary reports {summary.get('violations')} violations")
    if backend is not None and summary.get("backend") != backend:
        whole_run(f"backend {summary.get('backend')} != {backend}")
    if digest is not None and hashlib.sha256(stream).hexdigest() != digest:
        whole_run("JSONL sha256 differs from the stored digest")
    if verdict.failed:
        return verdict

    lines = stream.split(b"\n")
    if lines[-1] != b"":
        verdict.problems.append("stream does not end with a newline")
    lines = lines[:-1]
    recompute = set(recompute)
    bad = 0
    for index, (line, config) in enumerate(itertools.zip_longest(lines, configs)):
        if config is None:
            verdict.problems.append(f"extra record at line {index}")
            bad = count
            break
        if line is None:
            bad += 1
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = {}
        expected = [list(p) for p in config]
        ok = (
            record.get("index") == index
            and record.get("config") == expected
            and record.get("violations") == []
        )
        if ok and index in recompute:
            ref = reference(config)
            ok = (record["excess"], record["violations"]) == (
                ref["excess"], ref["violations"])
        if not ok:
            bad += 1
            if len(verdict.problems) < 5:
                verdict.problems.append(f"record {index} failed: {line[:200]!r}")
    if len(lines) != count:
        verdict.problems.append(f"{len(lines)} records for {count} configurations")
    verdict.failed = min(count, bad)
    return verdict


def corrupt_one_record(stream: bytes, index: int) -> bytes:
    """The stream with a violation inserted into record index, for the
    gate's self-test."""
    lines = stream.split(b"\n")
    lines[index] = lines[index].replace(
        b'"violations":[]', b'"violations":[["bound","self-test"]]')
    return b"\n".join(lines)
