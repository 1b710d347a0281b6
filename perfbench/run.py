"""troplines benchmark: `troplines verify` sweeps, end to end and per layer.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 15 --trace 0

Run from anywhere; the checkout is the parent of this directory. The
compiled kernel is built once from src/troplines/_fastsweep.c into
.bench_build/ (never into src/) and reused while the C source is
unchanged.

--trace 0 runs the `troplines verify` CLI in fresh processes, again and
again until --seconds of sweeping have been measured, gates every
run's output for correctness and reports the end-to-end metrics:
throughput over all the runs, and medians of the latencies. Between
runs it times fresh interpreters that import troplines.cli and select
the backend (setup_s).

--trace 1 runs the workload's sweep in this process at one job, once
untraced and once with every layer's public functions timed from
outside the package (whatever --seconds says), and reports per-layer
self times and counts, their `other` remainder and the tracing
overhead. It then times the pure and compiled analyses on the same
sample of the workload's configurations.

The last line of standard output is one JSON object: correct, attempted
and failed (configurations, so failed / attempted is the failed share)
and the metrics. See README.md in this directory for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import gate
from launch import KERNEL_ENV, KERNEL_MODULE, ROOT, load_kernel, use_checkout
from tracer import Tracer

LAUNCH = Path(__file__).resolve().parent / "launch.py"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
BUILD_DIR = ROOT / ".bench_build"
INVOCATION_TIMEOUT_S = 120
SETUP_PROBES = 9
SPLIT_SAMPLE = 200


@dataclass(frozen=True)
class Workload:
    n: int
    jobs: int
    grid: int = 0            # exhaustive over the grid x grid lattice when set
    samples: int = 0         # random mode otherwise
    coord_range: int = 0
    kernel: bool = True      # the provisioned kernel is on the import path
    recompute: int = 0       # records per run recomputed by the pure analysis

    @property
    def seeded(self) -> bool:
        return not self.grid

    @property
    def count(self) -> int:
        return math.comb(self.grid * self.grid, self.n) if self.grid else self.samples

    def verify_args(self, seed: int) -> List[str]:
        args = ["verify", "--n", str(self.n), "--jobs", str(self.jobs)]
        if self.grid:
            return args + ["--mode", "exhaustive", "--grid", str(self.grid)]
        return args + ["--mode", "random", "--samples", str(self.samples),
                       "--range", str(self.coord_range), "--seed", str(seed)]

    def configs(self, seed: int):
        if self.grid:
            return gate.lattice_configs(self.n, self.grid)
        return gate.random_configs(self.n, self.samples, self.coord_range, seed)

    def sweep_params(self, seed: int):
        from troplines.sweep import Exhaustive, Random, SweepParams

        if self.grid:
            return SweepParams(n=self.n, mode=Exhaustive(grid_size=self.grid))
        return SweepParams(n=self.n, mode=Random(
            samples=self.samples, coord_range=self.coord_range, seed=seed))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sweep-grid": Workload(n=5, jobs=2, grid=6, recompute=200),
    "sweep-random": Workload(n=7, jobs=1, samples=300, coord_range=20, kernel=False,
                             recompute=20),
    # one job: with two workers this workload's throughput swung 2.2x within
    # ten minutes on a shared 2-vCPU host (README.md, "Workloads")
    "sweep-large": Workload(n=32, jobs=1, samples=12, coord_range=1000),
}

# (module under troplines, function, layer): the spans of the traced run
LAYERS = [
    ("sweep", "_config_list", "sweep.list"),
    ("sweep", "run_sweep", "sweep.harness"),
    ("incidence", "point_config", "incidence.point_config"),
    ("kernel", "analyze", "kernel.analyze"),
    ("_fastsweep", "analyze_ints", "fastsweep.analyze_ints"),
    ("analysis", "analyze_config", "analysis.analyze_config"),
    ("lines", "pairwise_stable_intersection", "lines.pairwise_stable_intersection"),
    ("lines", "ray_crossings", "lines.ray_crossings"),
    ("arrangement", "candidate_points", "arrangement.candidate_points"),
    ("arrangement", "arrangement_vertices", "arrangement.arrangement_vertices"),
    ("arrangement", "dual_cell", "arrangement.dual_cell"),
    ("subdivision", "dual_subdivision", "subdivision.dual_subdivision"),
    ("subdivision", "product_coefficients", "subdivision.product_coefficients"),
    ("subdivision", "check_regularity_detailed", "subdivision.check_regularity"),
    ("subdivision", "determined_faces", "subdivision.determined_faces"),
    ("serialize", "sweep_line_json", "serialize.sweep_line_json"),
]
MEASURES = {
    "arrangement.candidate_points": len,
    "arrangement.arrangement_vertices": len,
    "subdivision.dual_subdivision": lambda sub: len(sub.cells),
    "serialize.sweep_line_json": lambda line: len(line) + 1,
}


def stored_digest(name: str, seed: int) -> Optional[str]:
    digests = json.loads(DIGESTS.read_text())
    return digests.get(name if not WORKLOADS[name].seeded else f"{name}@{seed}")


def provision_kernel() -> Optional[Path]:
    """The compiled kernel built from the shipped C source, or None when no
    source ships. The build lives under .bench_build/, keyed by the
    source and interpreter, and is reused while both are unchanged."""
    source = ROOT / "src" / "troplines" / "_fastsweep.c"
    if not source.is_file():
        return None
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256(source.read_bytes() + sys.version.encode() + suffix.encode())
    target = BUILD_DIR / f"kernel-{key.hexdigest()[:16]}" / f"_fastsweep{suffix}"
    if target.is_file():
        return target
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise SystemExit("a C compiler is needed to build the shipped kernel source")
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(f"partial-{os.getpid()}{suffix}")
    subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", "-w",
         f"-I{sysconfig.get_paths()['include']}", str(source), "-o", str(partial)],
        check=True, timeout=600)
    os.replace(partial, target)
    return target


def child_env(kernel: Optional[Path]) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("TROPLINES_PURE", "TROPLINES_JOBS", KERNEL_ENV)}
    if kernel is not None:
        env[KERNEL_ENV] = str(kernel)
    return env


class Drain(threading.Thread):
    """Reads a FIFO opened without blocking until the writer has closed it
    or the writing process has exited, keeping the bytes and noting when
    the first byte arrived."""

    def __init__(self, fd: int) -> None:
        super().__init__(daemon=True)
        self.fd = fd
        self.chunks: List[bytes] = []
        self.first: Optional[float] = None
        self.writer_exited = threading.Event()

    def run(self) -> None:
        poller = select.poll()
        poller.register(self.fd, select.POLLIN)
        while True:
            poller.poll(100)
            try:
                chunk = os.read(self.fd, 1 << 20)
            except BlockingIOError:
                continue
            if chunk:
                if self.first is None:
                    self.first = time.perf_counter()
                self.chunks.append(chunk)
            elif self.chunks or self.writer_exited.is_set():
                return
            else:
                time.sleep(0.01)  # no writer has opened the FIFO yet


@dataclass
class Invocation:
    wall_s: float
    first_record_s: Optional[float]
    peak_rss_mb: float
    returncode: int
    summary: str
    stream: bytes


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(workload: Workload, seed: int, kernel: Optional[Path], tmp: Path) -> Invocation:
    """One `troplines verify` process, its JSONL stream drained from a FIFO."""
    fifo, result = tmp / "stream.jsonl", tmp / "result.json"
    for path in (fifo, result):
        if path.exists():
            path.unlink()
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    drain = Drain(fd)
    drain.start()
    with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), "--measure", str(result),
             *workload.verify_args(seed), "--jsonl", str(fifo)],
            stdout=out, stderr=err, env=child_env(kernel), cwd=ROOT,
            start_new_session=True)
        try:
            proc.wait(INVOCATION_TIMEOUT_S)
        finally:
            kill_group(proc.pid)  # anything still running in its session
            proc.wait()
        drain.writer_exited.set()
        drain.join(60)
        os.close(fd)
        out.seek(0)
        summary = out.read().decode()
        err.seek(0)
        sys.stderr.write(err.read().decode()[-2000:])
    timing = json.loads(result.read_text())
    return Invocation(
        wall_s=timing["end"] - timing["start"],
        first_record_s=None if drain.first is None else drain.first - timing["start"],
        peak_rss_mb=timing["peak_rss_kb"] / 1024,
        returncode=timing["returncode"],
        summary=summary,
        stream=b"".join(drain.chunks),
    )


def probe_setup(kernel: Optional[Path]) -> tuple:
    """(seconds, backend) for a fresh interpreter importing troplines.cli
    and selecting the backend."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(LAUNCH), "--probe"], capture_output=True,
                          env=child_env(kernel), cwd=ROOT, timeout=60, text=True)
    return time.perf_counter() - start, done.stdout.strip()


def pure_reference(config):
    from troplines.analysis import analyze_config
    from troplines.incidence import point_config

    return analyze_config(point_config(config))


def gate_run(workload, seed, returncode, summary, stream, backend, digest):
    recompute = gate.sample_indices(workload.count, workload.recompute)
    return gate.check_run(workload.configs(seed), workload.count, returncode, summary,
                          stream, backend, digest, recompute, pure_reference)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, workload: Workload, seed: int, seconds: float,
               kernel: Optional[Path], backend: str) -> tuple:
    digest = stored_digest(name, seed)
    env_kernel = kernel if workload.kernel else None
    runs: List[Invocation] = []
    probes: List[tuple] = []
    attempted = failed = 0

    first_stream = None
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
        while not runs or sum(r.wall_s for r in runs) < seconds:
            probes += [probe_setup(env_kernel) for _ in range(3)]
            run = invoke(workload, seed, env_kernel, Path(tmp))
            verdict = gate_run(workload, seed, run.returncode, run.summary,
                               run.stream, backend, digest)
            for problem in verdict.problems:
                print(f"gate: {problem}", file=sys.stderr)
            attempted += verdict.attempted
            failed += verdict.failed
            if first_stream is None and not verdict.failed:
                first_stream = (run.summary, run.stream)
            run.stream = b""  # keep the timings only; a stream can be tens of MB
            runs.append(run)
    probes += [probe_setup(env_kernel) for _ in range(SETUP_PROBES - len(probes))]
    probed_ok = all(probed == backend for _, probed in probes)
    if not probed_ok:
        print(f"set-up probes selected {sorted({p for _, p in probes})}, expected {backend}",
              file=sys.stderr)

    caught = False
    if first_stream is not None:
        corrupted = gate.corrupt_one_record(first_stream[1], workload.count // 2)
        caught = gate_run(workload, seed, 0, first_stream[0], corrupted,
                          backend, None).failed > 0
    print(f"self-test: a corrupted record was {'caught' if caught else 'NOT caught'}")

    firsts = [r.first_record_s for r in runs if r.first_record_s is not None] or [0.0]
    metrics = {
        # throughput over all the run's sweeps: on a machine whose speed
        # drifts, the total is steadier than a median of per-sweep rates
        "configs_per_s": metric(workload.count * len(runs) / sum(r.wall_s for r in runs), "1/s"),
        "first_record_s": metric(statistics.median(firsts), "s"),
        "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "setup_s": metric(statistics.median(took for took, _ in probes), "s"),
    }
    print(f"runs {len(runs)}, set-up probes {len(probes)}, "
          f"failed_share {failed / attempted:.6g} ({failed} of {attempted} configurations)")
    return caught and probed_ok and failed == 0, attempted, failed, metrics


def sweep_once(workload: Workload, seed: int, tracer: Optional[Tracer]) -> tuple:
    """One in-process sweep at one job, writing JSONL lines as the CLI
    does; returns (report, stream bytes, wall seconds)."""
    from troplines import serialize, sweep

    lines: List[str] = []

    def sink(index, config, excess, violations):
        lines.append(serialize.sweep_line_json(index, config, excess, violations))
        lines.append("\n")

    if tracer is not None:
        sink = tracer.wrap("other", sink)
    params = workload.sweep_params(seed)
    gc.collect()
    start = time.perf_counter()
    report = sweep.run_sweep(params, jobs=1, sink=sink)
    wall = time.perf_counter() - start
    return report, "".join(lines).encode(), wall


def split(workload: Workload, seed: int, kernel: Optional[Path]) -> tuple:
    """Median microseconds per configuration of the pure analysis and the
    compiled kernel on the same sample of the workload's configurations
    that the kernel accepts, with their records compared; the compiled
    figure is 0 when no configuration fits the kernel or none is built."""
    from troplines import kernel as backend
    from troplines.analysis import analyze_config
    from troplines.incidence import point_config

    configs = list(workload.configs(seed))
    sample = [configs[i] for i in gate.sample_indices(len(configs), SPLIT_SAMPLE)]
    compiled = sys.modules.get(KERNEL_MODULE)
    if compiled is None and kernel is not None:
        compiled = load_kernel(kernel)
    eligible = compiled is not None and workload.n <= backend.MAX_KERNEL_POINTS
    pure_us, fast_us, mismatches = [], [], 0
    for config in sample if eligible else []:
        cfg = point_config(config)
        start = time.perf_counter()
        ref = analyze_config(cfg)
        pure_us.append(1e6 * (time.perf_counter() - start))
        start = time.perf_counter()
        got = compiled.analyze_ints(list(config))
        fast_us.append(1e6 * (time.perf_counter() - start))
        mismatches += got != ref
    if mismatches:
        print(f"split: {mismatches} of {len(sample)} records differ between backends",
              file=sys.stderr)
    return (statistics.median(pure_us) if pure_us else 0.0,
            statistics.median(fast_us) if fast_us else 0.0,
            len(pure_us), mismatches)


def traced(name: str, workload: Workload, seed: int, kernel: Optional[Path],
           backend: str) -> tuple:
    from troplines import kernel as dispatch

    _, plain_stream, untraced_wall = sweep_once(workload, seed, None)
    plain_digest = hashlib.sha256(plain_stream).hexdigest()
    del plain_stream

    tracer = Tracer()
    for module, function, layer in LAYERS:
        mod = sys.modules.get(f"troplines.{module}")
        if mod is not None:
            tracer.install(mod, function, layer, MEASURES.get(layer))
    try:
        report, stream, wall = sweep_once(workload, seed, tracer)
    finally:
        tracer.uninstall()

    summary = json.dumps({"configs_tested": report.configs_tested,
                          "violations": len(report.violations),
                          "backend": dispatch.backend_name()})
    verdict = gate_run(workload, seed, 0, summary, stream, backend,
                       stored_digest(name, seed))
    for problem in verdict.problems:
        print(f"gate: {problem}", file=sys.stderr)
    failed = verdict.failed
    if hashlib.sha256(stream).hexdigest() != plain_digest:
        print("gate: the untraced and traced sweeps wrote different JSONL", file=sys.stderr)
        failed = verdict.attempted

    configs = report.configs_tested
    seconds = {layer: tracer.self_ns[layer] / 1e9 for _, _, layer in LAYERS}
    other = wall - sum(seconds.values())
    calls, counts = tracer.calls, tracer.counts
    candidates = counts["arrangement.candidate_points"]
    vertices = counts["arrangement.arrangement_vertices"]
    pure_us, fast_us, sampled, mismatches = split(workload, seed, kernel)

    metrics = {f"{layer}_s": metric(s, "s") for layer, s in seconds.items()}
    metrics.update({
        "incidence.point_config.per_config": metric(calls["incidence.point_config"] / configs, "count"),
        "kernel.compiled_share": metric(
            calls["fastsweep.analyze_ints"] / calls["kernel.analyze"]
            if calls["kernel.analyze"] else 0.0, "ratio"),
        "lines.pairwise_stable_intersection.per_config": metric(
            calls["lines.pairwise_stable_intersection"] / configs, "count"),
        "lines.ray_crossings.per_config": metric(calls["lines.ray_crossings"] / configs, "count"),
        "arrangement.candidates": metric(candidates, "count"),
        "arrangement.vertices": metric(vertices, "count"),
        "arrangement.vertex_yield": metric(vertices / candidates if candidates else 0.0, "ratio"),
        "subdivision.cells": metric(counts["subdivision.dual_subdivision"], "count"),
        "serialize.jsonl_bytes": metric(counts["serialize.sweep_line_json"], "bytes"),
        "split.analysis_us_per_config": metric(pure_us, "us"),
        "split.fastsweep_us_per_config": metric(fast_us, "us"),
        "split.configs": metric(sampled, "count"),
        "trace.other_s": metric(other, "s"),
        "trace.wall_s": metric(wall, "s"),
        "trace.untraced_wall_s": metric(untraced_wall, "s"),
        "trace.overhead": metric(wall / untraced_wall, "ratio"),
    })
    print(f"traced wall {wall:.4f} s = module self times {sum(seconds.values()):.4f} s "
          f"+ other {other:.4f} s; untraced wall {untraced_wall:.4f} s")
    ok = failed == 0 and mismatches == 0 and other >= 0 and min(seconds.values()) >= 0
    return ok, verdict.attempted, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "troplines" / "cli.py").is_file():
        print(f"error: no troplines source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    BUILD_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    kernel = provision_kernel()
    backend = "compiled" if kernel is not None and workload.kernel else "pure"
    print(f"workload {args.workload}, seed {args.seed}, backend {backend}")
    use_checkout(kernel if workload.kernel else None)

    if args.trace:
        ok, attempted, failed, metrics = traced(args.workload, workload, args.seed, kernel, backend)
    else:
        ok, attempted, failed, metrics = end_to_end(
            args.workload, workload, args.seed, args.seconds, kernel, backend)
    for key, m in metrics.items():
        print(f"{key:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
