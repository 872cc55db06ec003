"""Smoke test of the benchmark.

    python3 -m pytest bench/test_bench.py

Runs each workload briefly and checks that every declared metric is printed
with its unit, that no op fails on the current code, that each workload loads
the layer it was chosen for, that computed counters repeat exactly for the
same seed, and that a corrupted result is counted as a failed op.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import freepacket as fp  # noqa: E402
import freepacket.cli  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COMPUTED = (
    "numerics.fft_points",
    "evolution.kernel_evals",
    "evolution.kernel_bytes",
    "cli.bytes_written",
)


def run_bench(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    *report, last = proc.stdout.splitlines()
    printed = {}
    for line in report:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ", 3)
            printed[name] = (float(value), unit.removesuffix(" (computed)"))
    return report, printed, json.loads(last)


def check_declared(printed, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]][1] == metric["unit"]
    assert printed["error_rate"] == (0.0, "ratio")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_end_to_end_metrics(workload):
    report, printed, result = run_bench(workload, trace=0)
    check_declared(printed, result, DECLARED["end_to_end"])
    env = json.loads(next(line for line in report if line.startswith("env "))[4:])
    assert {"nproc", "blas_threads", "python", "numpy", "scipy", "seed", "grid_sizes"} <= set(env)
    assert 1 <= env["blas_threads"] <= env["nproc"]
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in DECLARED["end_to_end"])


def layer_shares(m):
    return {
        "cli": m["cli.self_s"],
        "packets": m["packets.self_s"],
        "numerics+observables+evolution.spectral": m["numerics.self_s"] + m["observables.self_s"]
        + m["evolution.spectral.self_s"],
        "evolution.quadrature+asymptotic": m["evolution.quadrature.self_s"]
        + m["evolution.asymptotic.self_s"],
    }


# the layer each workload was chosen to load
MAIN_LAYER = {
    "figures": "cli",
    "sweep": "numerics+observables+evolution.spectral",
    "oracle": "evolution.quadrature+asymptotic",
}


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_per_layer_metrics(workload):
    _, printed, first = run_bench(workload, trace=1)
    _, _, second = run_bench(workload, trace=1)
    check_declared(printed, first, DECLARED["per_layer"])
    m = {name: v["value"] for name, v in first["metrics"].items()}
    for name in COMPUTED:
        assert first["metrics"][name] == second["metrics"][name], name

    shares = layer_shares(m)
    assert max(shares, key=shares.get) == MAIN_LAYER[workload], shares
    if workload != "figures":
        assert m["cli.calls"] == 0
    if workload != "oracle":
        assert m["evolution.kernel_evals"] == 0


def corrupt(propagate):
    """propagate_spectral with a small, norm-preserving distortion of its output."""

    def corrupted(psi0, t, params):
        result = propagate(psi0, t, params)
        grid = result.field.grid
        values = result.field.values * (1 + 1e-6 * grid.points**2)
        values /= np.sqrt(fp.quadrature_norm2(fp.ComplexField(values, grid)))
        return dataclasses.replace(result, field=fp.ComplexField(values, grid))

    return corrupted


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_result_is_a_failed_op(workload, tmp_path, monkeypatch):
    bench = WORKLOADS[workload](tmp_path)
    specs = bench.block(np.random.default_rng(0))
    if workload == "figures":
        specs = [s for s in specs if s.scenario == "spread-law"]
    spec = specs[0]

    clean = harness.Tally()
    clean.run(bench, spec)
    assert clean.failed == 0

    corrupted = corrupt(fp.propagate_spectral)
    monkeypatch.setattr(fp, "propagate_spectral", corrupted)
    monkeypatch.setattr(freepacket.cli, "propagate_spectral", corrupted)
    tally = harness.Tally()
    tally.run(bench, spec)
    assert (tally.attempted, tally.failed) == (1, 1)
