"""Set-up, the closed measurement loop, metrics and the report of one benchmark run.

Imported by run.py after it has pinned the BLAS threads and put ./src first
on the import path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 3
# Share of --seconds each of the two passes of a traced run is sized for.
TRACE_PASS_SHARE = 0.4
MAX_REPORTED_FAILURES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("accuracy_digits", "digits"),
)

# Spans whose self time is reported on its own, besides the layer totals.
SELF_TIME_SPANS = (
    "cli.parse_config",
    "numerics.fft",
    "numerics.fresnel",
    "numerics.hermite",
    "observables.moments",
    "evolution.spectral",
    "evolution.quadrature",
    "evolution.asymptotic",
)

# Counters kept by the tracer; the computed ones are derived from array and
# file sizes, not measured, so they repeat exactly for the same seed.
COUNTERS = (
    ("cli.calls", "count", False),
    ("cli.rows_written", "count", True),
    ("cli.bytes_written", "bytes", True),
    ("cli.files_written", "count", True),
    ("packets.points_evaluated", "count", True),
    ("numerics.fft_calls", "count", False),
    ("numerics.fft_points", "count", True),
    ("observables.moments_calls", "count", False),
    ("evolution.spectral_calls", "count", False),
    ("evolution.kernel_evals", "count", True),
    ("evolution.kernel_bytes", "bytes", True),
)

# (name, unit, computed)
PER_LAYER = (
    tuple((f"{layer}.self_s", "s", False) for layer in LAYERS)
    + tuple((f"{name}.self_s", "s", False) for name in SELF_TIME_SPANS)
    + COUNTERS
    + (
        ("bench.self_s", "s", False),
        ("trace.overhead_ratio", "ratio", False),
    )
)


class Tally:
    """Attempted and failed ops, latencies of the completed ones, worst reference error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.worst_error = 0.0

    def run(self, workload, spec, tracer=None):
        self.attempted += 1
        try:
            outcome = workload.run(spec, tracer)
        except Exception:  # an op that raises is a failed op; keep measuring
            self._fail(f"{spec}\n{traceback.format_exc()}")
            return
        self.latencies.append(outcome.latency_s)
        if outcome.ref_error is not None:
            self.worst_error = max(self.worst_error, outcome.ref_error)
        if not outcome.ok:
            self._fail(f"{spec}: {outcome.detail}")

    def _fail(self, message: str):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"failed op: {message}", file=sys.stderr)


def _import_in_fresh_interpreter(root: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, "-c", "import freepacket"],
        cwd=root,
        env=env,
        check=True,
        timeout=120,
        stdin=subprocess.DEVNULL,
    )


def set_up(workload_cls, root: Path, workdir: Path, seed_seq, tally: Tally) -> list[float]:
    """Seconds of each set-up repeat: package import in a fresh interpreter plus warm-up ops."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        _import_in_fresh_interpreter(root)
        workload = workload_cls(workdir)
        for spec in workload.warmup(np.random.default_rng(seed_seq)):
            tally.run(workload, spec)
        times.append(perf_counter() - start)
    return times


def measure(workload, rng, seconds: float, tally: Tally) -> tuple[list[float], list[np.ndarray]]:
    """Run whole blocks until `seconds` have passed.

    Returns each block's ops per second and each block's op latencies in ms.
    """
    rates, latencies = [], []
    start = perf_counter()
    while perf_counter() - start < seconds:
        block = workload.block(rng)
        first = len(tally.latencies)
        block_start = perf_counter()
        for spec in block:
            tally.run(workload, spec)
        rates.append(len(block) / (perf_counter() - block_start))
        if len(tally.latencies) > first:
            latencies.append(np.array(tally.latencies[first:]) * 1e3)
    return rates, latencies


def end_to_end(setup_times, tally: Tally, block_rates, block_latencies) -> dict:
    """Medians: set-up repeats, per-block throughput, per-block latency percentiles.

    Every block holds the same mix of input classes, so a block's latency
    percentile describes that mix; the median over blocks keeps a slow
    stretch of the host, or a few slow ops at the boundary between two
    classes of op, from moving the figure.
    """
    if not block_latencies:
        raise RuntimeError("every timed op raised; no latency to report")
    p50, p90 = np.median([np.percentile(block, [50, 90]) for block in block_latencies], axis=0)
    # -log10 of the worst reference error; an exact zero reads as 308 digits
    digits = -np.log10(max(tally.worst_error, np.finfo(float).tiny))
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": statistics.median(block_rates),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_digits": float(digits),
    }


def traced_run(workload, rng, seconds: float, tally: Tally, dump_path: Path) -> tuple[dict, int]:
    """Per-layer metrics from a traced pass over a fixed op list, after an untraced pass."""
    blocks = max(1, round(TRACE_PASS_SHARE * seconds / workload.block_seconds))
    specs = [spec for _ in range(blocks) for spec in workload.block(rng)]

    start = perf_counter()
    for spec in specs:
        tally.run(workload, spec)
    untraced = perf_counter() - start

    tracer = Tracer()
    with tracer.installed():
        start = perf_counter()
        for index, spec in enumerate(specs):
            tracer.op = index
            tally.run(workload, spec, tracer)
        traced = perf_counter() - start
    tracer.dump(dump_path)

    self_s = tracer.self_times()
    metrics = {
        f"{layer}.self_s": sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)
        for layer in LAYERS
    }
    metrics.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIME_SPANS})
    metrics.update({name: tracer.counters[name] for name, _, _ in COUNTERS})
    metrics["bench.self_s"] = traced - tracer.top_level_seconds()
    metrics["trace.overhead_ratio"] = untraced / traced
    return metrics, len(specs)


def environment(args, blas_threads: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "grid_sizes": {name: list(cls.grid_sizes) for name, cls in WORKLOADS.items()},
        "loop": "closed, 1 client",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(args, root: Path, blas_threads: int) -> int:
    workload_cls = WORKLOADS[args.workload]
    setup_seq, run_seq = np.random.SeedSequence(args.seed).spawn(2)
    run_dir = root / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    workdir = run_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    setup_tally, tally = Tally(), Tally()
    try:
        setup_times = set_up(workload_cls, root, workdir, setup_seq, setup_tally)
        workload = workload_cls(workdir)
        rng = np.random.default_rng(run_seq)
        if args.trace:
            dump = run_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
            metrics, ops = traced_run(workload, rng, args.seconds, tally, dump)
            declared = PER_LAYER
        else:
            block_rates, block_latencies = measure(workload, rng, args.seconds, tally)
            metrics = end_to_end(setup_times, tally, block_rates, block_latencies)
            declared = tuple((name, unit, False) for name, unit in END_TO_END)
            ops = tally.attempted
    finally:
        shutil.rmtree(workdir)

    print("env " + json.dumps(environment(args, blas_threads), sort_keys=True))
    for name, unit, computed in declared:
        print(f"metric {name} {metrics[name]!r} {unit}{' (computed)' if computed else ''}")
    attempted = setup_tally.attempted + tally.attempted
    failed = setup_tally.failed + tally.failed
    print(f"metric error_rate {failed / attempted!r} ratio")
    print(
        f"samples attempted={attempted} failed={failed} "
        f"warmup_ops={setup_tally.attempted} timed_ops={ops}"
    )
    if args.trace:
        print(f"spans written to {dump.relative_to(root)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in declared},
    }
    print(json.dumps(result))
    return 0
