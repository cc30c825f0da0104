#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, oracle-checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload window --seed 1 --seconds 20 --trace 0

``--workload`` is ``window``, ``purge`` or ``ingest-http`` (see
``perfbench/README.md``). ``--seed`` seeds the generated data and the
delete choices. ``--seconds`` sets the length of the timed part: a
workload repeats its batch sequence in rounds of a fixed nominal length,
so every run of one seed and one ``--seconds`` does identical work.
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same rounds untraced and then traced, and reports
the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 when every batch matched the oracle, 1 on any mismatch and 2 when the
program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("window", "purge", "ingest-http")
# Nominal timed seconds of one round on a 2-CPU x86-64 host; only
# used to turn --seconds into a fixed round count.
ROUND_SECONDS = {"window": 7.0, "purge": 4.0, "ingest-http": 29.0}

END_TO_END = [
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Self time ``<span>_s`` of the spans inside the timed batches.
SELF_TIME_SPANS = [
    "core.swan.handle",
    "core.inserts.analyze",
    "core.duplicates.groups_for",
    "storage.value_index.lookup",
    "storage.kernels.intersect",
    "storage.sparse_index.retrieve",
    "lattice.transversal.muc_supersets",
    "lattice.combination.minmax",
    "core.swan.commit_inserts",
    "storage.relation.insert_many",
    "storage.value_index.register_inserts",
    "storage.pli.add",
    "core.deletes.analyze",
    "core.deletes.capture_rows",
    "storage.fastpli.intersect",
    "storage.fastpli.without_ids",
    "storage.fastpli.clusters_containing_ids",
    "lattice.transversal.mucs_from_mnucs",
    "core.swan.commit_deletes",
    "storage.pli.remove",
    "storage.value_index.register_deletes",
    "storage.plicache.put_many",
    "server.handle",
    "tenants.ingest",
    "tenants.flush_wait",
    "service.apply_batch",
    "service.changelog.append",
    "service.snapshots.save",
    "service.status.write",
    "service.sentinel.check",
    "faults.fsops.changelog.fsync",
    "faults.fsops.snapshot.fsync",
    "faults.fsops.status.fsync",
]
# Inclusive time ``<span>_s`` of set-up spans (DUCC, profiler or tenant
# construction) and of the recovery spans after the crash.
SETUP_SPANS = [
    "core.swan.init",
    "profiling.discovery.discover",
    "storage.value_index.build",
    "storage.pli.build",
    "tenants.create",
]
RECOVERY_SPANS = [
    "service.recovery.recover",
    "service.snapshots.load",
]
# Call counts ``<span>_calls``.
CALL_SPANS = [
    "core.duplicates.groups_for",
    "storage.value_index.lookup",
    "storage.kernels.intersect",
    "storage.pli.add",
    "storage.pli.remove",
    "storage.pli.clusters",
    "storage.fastpli.intersect",
    "storage.fastpli.without_ids",
    "storage.fastpli.clusters_containing_ids",
    "lattice.graphs.classify",
    "faults.fsops.changelog.fsync",
    "faults.fsops.snapshot.fsync",
    "faults.fsops.status.fsync",
]
# Counters harvested from the program's own stats or measured at a hook.
COUNTERS = [
    ("core.inserts.candidate_ids", "count"),
    ("core.inserts.tuples_retrieved", "count"),
    ("core.deletes.complete_checks", "count"),
    ("core.deletes.lattice_checks", "count"),
    ("core.deletes.turned_mnucs", "count"),
    ("service.recovery.replayed_records", "count"),
    ("tenants.queue_wait_s", "s"),
    ("faults.fsops.changelog.write_bytes", "bytes"),
    ("faults.fsops.snapshot.write_bytes", "bytes"),
    ("faults.fsops.status.write_bytes", "bytes"),
]
DERIVED = [
    ("faults.fsops.fsync_calls", "count"),
    ("core.duplicates.broken_ratio", "ratio"),
    ("core.deletes.short_circuit_ratio", "ratio"),
    ("storage.plicache.hits", "count"),
    ("storage.plicache.misses", "count"),
    ("storage.plicache.evictions", "count"),
    ("storage.plicache.bytes", "bytes"),
    ("storage.plicache.hit_ratio", "ratio"),
    ("server.transport_s", "s"),
    ("service.bytes_written_per_user_byte", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]
PER_LAYER = (
    [(f"{span}_s", "s") for span in SELF_TIME_SPANS + SETUP_SPANS + RECOVERY_SPANS]
    + [(f"{span}_calls", "count") for span in CALL_SPANS]
    + COUNTERS
    + DERIVED
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# ----------------------------------------------------------------------
# Statistics: medians, quartiles and the reportable tail percentile
# ----------------------------------------------------------------------
def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary_ms(samples: list[float], tail: int) -> dict[str, float]:
    """Median, quartiles and the ``tail`` percentile, in milliseconds."""
    return {
        "n": len(samples),
        "p25": percentile(samples, 25) * 1000,
        "p50": percentile(samples, 50) * 1000,
        "p75": percentile(samples, 75) * 1000,
        f"p{tail}": percentile(samples, tail) * 1000,
        "beyond_tail": int(len(samples) * (100 - tail) / 100),
    }


def batch_medians(rounds: list[list[float]]) -> list[float]:
    """Each batch's median latency over the rounds that repeated it.

    Rounds replay identical batches, so the median per batch drops the
    transient interference of a shared host while keeping every batch's
    own cost; percentiles are then taken over the batches.
    """
    return [statistics.median(column) for column in zip(*rounds)]


def pooled(rounds: list[list[float]]) -> list[float]:
    return [sample for samples in rounds for sample in samples]


def environment() -> dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "fsync": "on (TenantConfig default); fsync latency is this host's filesystem, not a device's",
    }


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------
def _prepare(workload: str, seed: int, workdir: str):
    from perfbench import workloads

    cache_dir = str(ROOT / ".perfbench-cache")
    if workload == "window":
        return workloads.prepare_window(seed, cache_dir=cache_dir)
    if workload == "purge":
        return workloads.prepare_purge(seed, cache_dir=cache_dir)
    return workloads.prepare_ingest(seed, workdir)


def _execute(workload: str, inputs, rounds: int, tracer=None):
    from perfbench import workloads

    if workload == "window":
        return workloads.execute_window(inputs, rounds, tracer)
    if workload == "purge":
        return workloads.execute_purge(inputs, rounds, tracer)
    return workloads.execute_ingest(inputs, rounds, tracer)


def end_to_end(workload: str, m) -> tuple[dict[str, float], list[tuple[str, float, str, str]]]:
    """The contract metrics plus the workload's named report lines."""
    per_batch = batch_medians(m.samples["batch"])
    rounds = len(m.samples["batch"])
    metrics = {
        "batch_p50_ms": percentile(per_batch, 50) * 1000,
        "batch_p90_ms": percentile(per_batch, 90) * 1000,
        "rows_per_s": m.rows_applied / rounds / sum(per_batch),
        "setup_s": statistics.median(m.setup_s),
        "peak_rss_mb": m.peak_rss_mb,
    }
    by_round = " ".join(f"{percentile(r, 50) * 1000:.1f}" for r in m.samples["batch"])
    report: list[tuple[str, float, str, str]] = [
        ("batch_p50_ms", metrics["batch_p50_ms"], "ms",
         f"{len(per_batch)} batch medians over {rounds} rounds; round medians {by_round}"),
        ("batch_p90_ms", metrics["batch_p90_ms"], "ms",
         f"{int(len(per_batch) * 0.1)} batch medians beyond it"),
    ]

    def latency(name: str, samples: list[float], tail: int) -> None:
        s = summary_ms(samples, tail)
        detail = f"n={s['n']} q1={s['p25']:.3f} q3={s['p75']:.3f} beyond_p{tail}={s['beyond_tail']}"
        report.append((f"{name}_p50_ms", s["p50"], "ms", detail))
        report.append((f"{name}_p{tail}_ms", s[f"p{tail}"], "ms", detail))

    if workload == "window":
        latency("insert", pooled(m.samples["insert"]), 90)
        latency("delete", pooled(m.samples["delete"]), 90)
    elif workload == "purge":
        latency("delete", pooled(m.samples["delete"]), 90)
    else:
        acks = pooled(m.samples["ack"])
        latency("ack", acks, 95)
        report.append(("batches_per_s", len(acks) / m.timed_s, "1/s", "closed loop, one client"))
        report.append(("recover_s", m.recover_s, "s", "crash, reopen, identical profile served"))
    setup_detail = (
        f"median of {len(m.setup_s)} set-ups, q1={percentile(m.setup_s, 25):.4f} "
        f"q3={percentile(m.setup_s, 75):.4f}"
    )
    report.append(("rows_per_s", metrics["rows_per_s"], "1/s",
                   f"{m.rows_applied // rounds} rows per round over the batch medians"))
    report.append(("setup_s", metrics["setup_s"], "s", setup_detail))
    report.append(("peak_rss_mb", metrics["peak_rss_mb"], "MB", "VmHWM over set-up and timed rounds"))
    report.append(("error_rate", m.failed / max(1, m.attempted), "ratio", f"{m.failed} of {m.attempted}"))
    return metrics, report


def per_layer(workload: str, tracer, traced, untraced, user_bytes: int) -> dict[str, float]:
    timed = tracer.totals("timed")
    setup = tracer.totals("setup")
    recovery = tracer.totals("recover")
    calls, counters = timed.calls, timed.counters
    metrics: dict[str, float] = {}
    for span in SELF_TIME_SPANS:
        metrics[f"{span}_s"] = timed.self_s.get(span, 0.0)
    for span in SETUP_SPANS:
        metrics[f"{span}_s"] = setup.incl_s.get(span, 0.0)
    for span in RECOVERY_SPANS:
        metrics[f"{span}_s"] = recovery.incl_s.get(span, 0.0)
    for span in CALL_SPANS:
        metrics[f"{span}_calls"] = calls.get(span, 0)
    for name, _ in COUNTERS:
        metrics[name] = counters.get(name, 0)
    metrics["service.recovery.replayed_records"] = recovery.counters.get(
        "service.recovery.replayed_records", 0
    )
    metrics["faults.fsops.fsync_calls"] = sum(
        count for span, count in calls.items() if span.startswith("faults.fsops.")
    )
    groups = calls.get("core.duplicates.groups_for", 0)
    metrics["core.duplicates.broken_ratio"] = (
        counters.get("core.inserts.broken_mucs", 0) / groups if groups else 0.0
    )
    checked = counters.get("core.deletes.mnucs_checked", 0)
    metrics["core.deletes.short_circuit_ratio"] = (
        counters.get("core.deletes.short_circuits", 0) / checked if checked else 0.0
    )
    cache = traced.cache
    for key in ("hits", "misses", "evictions", "bytes"):
        metrics[f"storage.plicache.{key}"] = cache.get(key, 0)
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics["storage.plicache.hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    roundtrips = counters.get("server.client_roundtrip_s", 0.0)
    metrics["server.transport_s"] = (
        max(0.0, roundtrips - timed.incl_s.get("server.handle", 0.0)) if roundtrips else 0.0
    )
    written = sum(metrics[f"faults.fsops.{site}.write_bytes"] for site in ("changelog", "snapshot", "status"))
    metrics["service.bytes_written_per_user_byte"] = written / user_bytes if user_bytes else 0.0
    metrics["trace.overhead_ratio"] = traced.timed_s / untraced.timed_s
    # Share of the timed region inside spans; on ingest-http the spans
    # run on server threads, so coverage is reported for the in-process
    # workloads only.
    metrics["trace.coverage"] = (
        timed.incl_s.get("core.swan.handle", 0.0) / traced.timed_s if workload != "ingest-http" else 0.0
    )
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> tuple[dict, list, object, dict]:
    """Prepare, execute and summarise one workload; returns
    (metrics, report lines, measurement, per-layer metrics or {})."""
    from perfbench.tracing import Tracer

    inputs = _prepare(workload, seed, workdir)
    rounds = rounds_for(workload, seconds)
    measurement = _execute(workload, inputs, rounds)
    metrics, report = end_to_end(workload, measurement)
    layers: dict[str, float] = {}
    if trace:
        tracer = Tracer().install()
        try:
            traced = _execute(workload, inputs, rounds, tracer)
        finally:
            tracer.uninstall()
        user_bytes = inputs.user_bytes * rounds if workload == "ingest-http" else 0
        layers = per_layer(workload, tracer, traced, measurement, user_bytes)
        measurement.attempted += traced.attempted
        measurement.failed += traced.failed
        measurement.failures.extend(traced.failures)
    return metrics, report, measurement, layers


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    workdir = str(ROOT / ".perfbench-work" / f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        metrics, report, measurement, layers = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(ROOT / ".perfbench-work")
        except OSError:
            pass

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"rounds={rounds_for(args.workload, args.seconds)} trace={args.trace}")
    print("environment: " + json.dumps(environment()))
    for name, value, unit, detail in report:
        print(f"  {name:<16} {value:>14.4f} {unit:<6} {detail}")
    for failure in measurement.failures:
        print(f"  FAILED: {failure}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<48} {layers[name]:>16.6f} {unit}")
        selected = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        selected = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    correct = measurement.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": selected,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
