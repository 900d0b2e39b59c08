"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They run the benchmark itself with one-second windows, so they take about
a minute and a half.
"""

from __future__ import annotations

import functools
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@functools.lru_cache(maxsize=None)
def bench_result(workload: str, trace: int, attempt: int = 0) -> dict:
    """Last stdout line of one short benchmark run (seed 3); ``attempt``
    tells repeated runs apart in the cache."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = inputs.input_hash(inputs.workload_inputs(workload, 7))
    assert inputs.input_hash(inputs.workload_inputs(workload, 7)) == first


@pytest.mark.parametrize("workload", ["scan-grid", "library-mix"])
def test_other_seed_gives_other_inputs(workload):
    assert (inputs.input_hash(inputs.workload_inputs(workload, 7))
            != inputs.input_hash(inputs.workload_inputs(workload, 8)))


def test_declaration_keeps_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    e2e = {m["name"]: m for m in DECLARED["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    # setup_s times one short process spawn per round.  It varies with the
    # load on the machine at least as much as the other times, so it
    # carries the largest bound.
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_metrics_are_declared(workload, trace):
    result = bench_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_times_are_normalised_by_the_calibration_around_each_round(workload):
    bench_result(workload, 0)
    record = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed3-trace0.json")
                        .read_text())
    calib, raw = record["calib_s"], record["raw_round_wall_s"]
    assert len(calib) == len(raw) + 1
    for k, (wall, setup) in enumerate(zip(raw, record["raw_setup_s"])):
        scale = record["ref_calib_s"] / ((calib[k] + calib[k + 1]) / 2)
        assert record["round_wall_s"][k] == pytest.approx(wall * scale)
        assert record["setup_s"][k] == pytest.approx(setup * scale)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] == "count"}

    first = counts(bench_result(workload, 1))
    assert first == counts(bench_result(workload, 1, attempt=1))
    assert any(first.values())


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and bench/, the run exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
