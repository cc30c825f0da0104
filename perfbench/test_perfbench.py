"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

* The metric names ``run.py`` emits are exactly the ones
  ``BENCHMARK.json`` declares.
* The exact work counters repeat across processes (with different hash
  seeds) at one seed, on a small run of every workload.
* A wrong profile or a wrong live-row count is counted as a failure.
* Without the program under test, ``run.py`` exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

EXACT_COUNTERS = [
    "storage.kernels.intersect_calls",
    "storage.value_index.lookup_calls",
    "core.inserts.tuples_retrieved",
    "storage.pli.add_calls",
    "storage.pli.remove_calls",
    "storage.pli.clusters_calls",
    "storage.plicache.hits",
    "faults.fsops.fsync_calls",
]
SMALL = {
    "window": workloads.WindowSize(live=2_000, step_rows=100, steps=4),
    "purge": workloads.PurgeSize(rows=3_000, batch_ids=50, batches=6),
    "ingest-http": workloads.IngestSize(initial=600, batch_rows=20, batches=34),
}


def small_counters(workload: str, seed: int, workdir: str) -> dict[str, float]:
    """The exact counters of one small traced pass."""
    size = SMALL[workload]
    if workload == "window":
        inputs = workloads.prepare_window(seed, size)
    elif workload == "purge":
        inputs = workloads.prepare_purge(seed, size)
    else:
        inputs = workloads.prepare_ingest(seed, workdir, size)
    tracer = Tracer().install()
    try:
        if workload == "window":
            measurement = workloads.execute_window(inputs, 1, tracer)
        elif workload == "purge":
            measurement = workloads.execute_purge(inputs, 1, tracer)
        else:
            measurement = workloads.execute_ingest(inputs, 1, tracer)
    finally:
        tracer.uninstall()
    assert measurement.failed == 0, measurement.failures
    layers = run.per_layer(workload, tracer, measurement, measurement, 0)
    return {name: layers[name] for name in EXACT_COUNTERS}


def test_benchmark_json_declares_the_emitted_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["window", "purge", "ingest-http"])
def test_exact_counters_repeat_across_processes(workload, tmp_path):
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        completed = subprocess.run(
            [sys.executable, str(Path(__file__)), workload, "5", str(tmp_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        results.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    assert results[0] == results[1]
    assert results[0]["storage.pli.add_calls"] > 0 or workload == "purge"
    if workload == "ingest-http":
        assert results[0]["faults.fsops.fsync_calls"] > 0
    if workload == "purge":
        assert results[0]["storage.plicache.hits"] > 0


def test_mismatches_are_failures():
    inputs = workloads.prepare_window(3, SMALL["window"])
    inputs.expected[2] = ((), ())
    inputs.expected_live[5] += 1
    measurement = workloads.execute_window(inputs, 1)
    assert measurement.attempted == 8
    assert measurement.failed == 2


def test_exits_non_zero_without_the_program():
    with tempfile.TemporaryDirectory() as scratch:
        checkout = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", checkout / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "window", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=120, check=False,
        )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


if __name__ == "__main__":
    print(json.dumps(small_counters(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
