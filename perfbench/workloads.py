"""The benchmark's three workloads, run on the shipped defaults.

Every workload is split in two:

* ``prepare_*`` builds everything that must not be timed -- the rows
  (one fixed ``repro.datasets.ncvoter`` dataset of 20 columns, in an
  order the seed permutes), the batch plan with every delete ID chosen
  from the benchmark's own bookkeeping, the request bodies, and the
  oracle's expected profiles;
* ``execute_*`` runs one measured pass: ``rounds`` repetitions of the
  same batch sequence, each on a freshly set-up profiler (or tenant),
  so more samples cost no extra oracle work.

The program under test receives only the generated rows and IDs. Every
configuration is the default one: unsharded ``SwanProfiler``,
``parallelism=0``, the 64 MiB partition cache and, over HTTP, a
``TenantConfig`` that names only its columns.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import http.client
import io
import json
import os
import random
import shutil
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import repro
from repro.core.reference import ReferenceDynamicRunner
from repro.core.swan import SwanProfiler
from repro.datasets.ncvoter import ncvoter_relation
from repro.profiling.discovery import discover
from repro.server.app import ReproServerApp
from repro.server.http import serve_in_thread
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.tenants.manager import TenantManager

N_COLUMNS = 20
DATA_SEED = 1  # generator seed of the fixed dataset (see fixed_rows)
SETUP_SAMPLES = 5  # minimum set-ups per pass, for a median set-up time
LIVE_CHECK_EVERY = 4  # ingest-http: batches between live-row checks

Row = tuple


@dataclass(frozen=True)
class WindowSize:
    live: int = 10_000
    step_rows: int = 500
    steps: int = 60


@dataclass(frozen=True)
class PurgeSize:
    rows: int = 25_000
    batch_ids: int = 100
    batches: int = 100


@dataclass(frozen=True)
class IngestSize:
    initial: int = 5_000
    batch_rows: int = 50
    batches: int = 208  # 13 snapshots, 3 sentinel checks, >= 200 acks for a p95


@dataclass
class Measurement:
    """What one execute pass observed."""

    # Latency samples in seconds, one list per round; every round runs
    # the same batches in the same order.
    samples: dict[str, list[list[float]]] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0  # wall time of the timed regions
    rows_applied: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    recover_s: float = 0.0  # ingest-http: crash and reopen until served
    cache: dict[str, float] = field(default_factory=dict)

    def new_round(self, kind: str) -> list[float]:
        rounds = self.samples.setdefault(kind, [])
        rounds.append([])
        return rounds[-1]

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(message)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def fixed_rows(n_rows: int) -> tuple[Schema, list[Row]]:
    """The first ``n_rows`` rows of the fixed dataset.

    Every run uses one dataset, generated with ``DATA_SEED``: over five
    independently generated datasets the window's median step time
    spread by 27% (IQR over median), far more than the changes the
    benchmark has to resolve, and averaging it out would need an oracle
    replay of many times more distinct batches.
    """
    relation = ncvoter_relation(n_rows, N_COLUMNS, seed=DATA_SEED)
    return relation.schema, [relation.row(i) for i in relation.iter_ids()]


def permute_blocks(rows: list[Row], seed: int, block: int) -> list[Row]:
    """``rows`` with the order inside every ``block`` rows permuted by ``seed``.

    Row sets per block stay put, so the profile after every batch is the
    same for every seed, while tuple IDs, posting order and value
    arrival order change with it.
    """
    rng = random.Random(seed)
    permuted = []
    for start in range(0, len(rows), block):
        chunk = rows[start : start + block]
        rng.shuffle(chunk)
        permuted.extend(chunk)
    return permuted


def profile_key(mucs: Any, mnucs: Any) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sorted(mucs)), tuple(sorted(mnucs))


def _masks(profile: Any) -> tuple[Any, Any]:
    return profile.mucs, profile.mnucs


def _source_digest() -> str:
    """Digest of every source file of the program under test."""
    digest = hashlib.sha256()
    package = Path(repro.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cached_oracle(cache_dir: str | None, workload: str, size: Any, replay: Callable[[], list]) -> list[tuple]:
    """The oracle's per-batch profiles, replayed at most once per checkout.

    Batches carry the same row sets under every ``--seed`` (only tuple
    IDs differ), so the expected profiles -- column masks -- are the same
    for every seed. They are cached under ``cache_dir`` keyed by the
    workload, its size, the dataset seed and a digest of all of
    ``src/repro``: any change to the program or the oracle replays it.
    """
    if cache_dir is None:
        return replay()
    key = hashlib.sha256(
        json.dumps([workload, repr(size), DATA_SEED, _source_digest()]).encode()
    ).hexdigest()[:24]
    path = os.path.join(cache_dir, f"oracle-{workload}-{key}.json")
    try:
        with open(path) as handle:
            return [(tuple(m), tuple(n)) for m, n in json.load(handle)]
    except (OSError, ValueError):
        pass
    expected = replay()
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(expected, handle)
    os.replace(tmp, path)
    return expected


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux)."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _phase(tracer: Any, name: str) -> None:
    """Tell the tracer (if any) which part of the pass runs next."""
    if tracer is not None:
        tracer.phase = name


def _timed_setup(relation: Relation, tracer: Any = None) -> tuple[SwanProfiler, float]:
    """Holistic DUCC plus profiler construction, on the defaults."""
    _phase(tracer, "setup")
    started = perf_counter()
    profiler = SwanProfiler.profile(relation)
    seconds = perf_counter() - started
    _phase(tracer, "idle")
    return profiler, seconds


def _extra_setups(measurement: Measurement, schema: Schema, rows: list[Row]) -> None:
    while len(measurement.setup_s) < SETUP_SAMPLES:
        relation = Relation.from_rows(schema, rows)
        gc.collect()
        profiler, seconds = _timed_setup(relation)
        profiler.close()
        measurement.setup_s.append(seconds)


def _add_cache_stats(measurement: Measurement, stats: dict[str, int]) -> None:
    for key in ("hits", "misses", "evictions"):
        measurement.cache[key] = measurement.cache.get(key, 0) + stats.get(key, 0)
    measurement.cache["bytes"] = max(measurement.cache.get("bytes", 0), stats.get("bytes", 0))


# ----------------------------------------------------------------------
# window: rolling retention, both handlers at a steady resident size
# ----------------------------------------------------------------------
@dataclass
class WindowInputs:
    schema: Schema
    initial: list[Row]
    steps: list[tuple[list[Row], list[int]]]
    expected: list[tuple]  # oracle profile after every batch
    expected_live: list[int]


def prepare_window(seed: int, size: WindowSize = WindowSize(), cache_dir: str | None = None) -> WindowInputs:
    schema, rows = fixed_rows(size.live + size.steps * size.step_rows)
    rows = permute_blocks(rows, seed, size.step_rows)
    initial = rows[: size.live]
    live = deque(range(size.live))
    next_id = size.live
    steps = []
    expected_live = []
    for step in range(size.steps):
        start = size.live + step * size.step_rows
        inserted = rows[start : start + size.step_rows]
        live.extend(range(next_id, next_id + len(inserted)))
        next_id += len(inserted)
        expected_live.append(len(live))
        doomed = [live.popleft() for _ in range(size.step_rows)]
        expected_live.append(len(live))
        steps.append((inserted, doomed))

    def replay() -> list[tuple]:
        oracle = Relation.from_rows(schema, initial)
        mucs, mnucs = discover(oracle, "ducc")
        # Indexing every column keeps the scalar oracle off its
        # full-scan fallback; it changes only how fast the oracle is,
        # not its answer.
        reference = ReferenceDynamicRunner(oracle, mucs, mnucs, range(N_COLUMNS))
        profiles = []
        for inserted, doomed in steps:
            profiles.append(profile_key(*_masks(reference.handle_inserts(inserted))))
            profiles.append(profile_key(*_masks(reference.handle_deletes(doomed))))
        return profiles

    expected = _cached_oracle(cache_dir, "window", size, replay)
    return WindowInputs(schema, initial, steps, expected, expected_live)


def execute_window(inputs: WindowInputs, rounds: int, tracer: Any = None) -> Measurement:
    measurement = Measurement()
    reset_peak_rss()
    for _ in range(rounds):
        inserts, deletes, batches = (
            measurement.new_round(kind) for kind in ("insert", "delete", "batch")
        )
        relation = Relation.from_rows(inputs.schema, inputs.initial)
        gc.collect()
        profiler, seconds = _timed_setup(relation, tracer)
        measurement.setup_s.append(seconds)
        profiles = []
        live_counts = []
        gc.collect()
        _phase(tracer, "timed")
        round_started = perf_counter()
        for inserted, doomed in inputs.steps:
            started = perf_counter()
            profile = profiler.handle_inserts(inserted)
            middle = perf_counter()
            live_counts.append(len(relation))
            profiles.append(profile)
            profile = profiler.handle_deletes(doomed)
            finished = perf_counter()
            live_counts.append(len(relation))
            profiles.append(profile)
            inserts.append(middle - started)
            deletes.append(finished - middle)
            batches.extend((middle - started, finished - middle))
            measurement.rows_applied += len(inserted) + len(doomed)
        measurement.timed_s += perf_counter() - round_started
        _phase(tracer, "idle")
        _add_cache_stats(measurement, profiler.cache_stats())
        profiler.close()
        _check_batches(measurement, profiles, live_counts, inputs.expected, inputs.expected_live)
    measurement.peak_rss_mb = peak_rss_mb()
    if tracer is None:
        _extra_setups(measurement, inputs.schema, inputs.initial)
    return measurement


def _check_batches(
    measurement: Measurement,
    profiles: list,
    live_counts: list[int],
    expected: list[tuple],
    expected_live: list[int],
) -> None:
    for index, (profile, live, want, want_live) in enumerate(
        zip(profiles, live_counts, expected, expected_live)
    ):
        measurement.attempted += 1
        if profile_key(*_masks(profile)) != want:
            measurement.fail(f"batch {index}: profile differs from the oracle")
        elif live != want_live:
            measurement.fail(f"batch {index}: {live} live rows, expected {want_live}")


# ----------------------------------------------------------------------
# purge: delete-only, the partition cache stays valid across batches
# ----------------------------------------------------------------------
@dataclass
class PurgeInputs:
    schema: Schema
    rows: list[Row]
    batches: list[list[int]]
    expected: list[tuple]
    expected_live: list[int]


def prepare_purge(seed: int, size: PurgeSize = PurgeSize(), cache_dir: str | None = None) -> PurgeInputs:
    schema, original = fixed_rows(size.rows)
    rows = permute_blocks(original, seed, size.rows)
    # The doomed rows are drawn once from the fixed dataset; the seed's
    # permutation decides which tuple IDs they carry and in what order
    # each batch names them.
    position_of = {row: [] for row in original}
    for tuple_id, row in enumerate(rows):
        position_of[row].append(tuple_id)
    plan_rng = random.Random(DATA_SEED)
    order_rng = random.Random(seed)
    survivors = list(range(size.rows))
    batches = []
    expected_live = []
    for _ in range(size.batches):
        picked = sorted(plan_rng.sample(range(len(survivors)), size.batch_ids), reverse=True)
        batch = [position_of[original[survivors[position]]].pop() for position in picked]
        for position in picked:
            survivors[position] = survivors[-1]
            survivors.pop()
        order_rng.shuffle(batch)
        batches.append(batch)
        expected_live.append(len(survivors))

    def replay() -> list[tuple]:
        oracle = Relation.from_rows(schema, rows)
        mucs, mnucs = discover(oracle, "ducc")
        reference = ReferenceDynamicRunner(oracle, mucs, mnucs, range(N_COLUMNS))
        return [profile_key(*_masks(reference.handle_deletes(batch))) for batch in batches]

    expected = _cached_oracle(cache_dir, "purge", size, replay)
    return PurgeInputs(schema, rows, batches, expected, expected_live)


def execute_purge(inputs: PurgeInputs, rounds: int, tracer: Any = None) -> Measurement:
    measurement = Measurement()
    reset_peak_rss()
    for _ in range(rounds):
        deletes = measurement.new_round("delete")
        relation = Relation.from_rows(inputs.schema, inputs.rows)
        gc.collect()
        profiler, seconds = _timed_setup(relation, tracer)
        measurement.setup_s.append(seconds)
        profiles = []
        live_counts = []
        gc.collect()
        _phase(tracer, "timed")
        round_started = perf_counter()
        for batch in inputs.batches:
            started = perf_counter()
            profile = profiler.handle_deletes(batch)
            deletes.append(perf_counter() - started)
            profiles.append(profile)
            live_counts.append(len(relation))
            measurement.rows_applied += len(batch)
        measurement.timed_s += perf_counter() - round_started
        _phase(tracer, "idle")
        _add_cache_stats(measurement, profiler.cache_stats())
        profiler.close()
        _check_batches(measurement, profiles, live_counts, inputs.expected, inputs.expected_live)
    measurement.samples["batch"] = measurement.samples["delete"]
    measurement.peak_rss_mb = peak_rss_mb()
    if tracer is None:
        _extra_setups(measurement, inputs.schema, inputs.rows)
    return measurement


# ----------------------------------------------------------------------
# ingest-http: the real stack, one client, closed loop, crash + reopen
# ----------------------------------------------------------------------
@dataclass
class IngestInputs:
    schema: Schema
    create_body: bytes
    bodies: list[bytes]  # one POST body per batch
    batch_rows: int  # rows every batch inserts or deletes
    user_bytes: int
    expected_live: list[int]
    final_rows: dict[int, Row]  # the live rows after the last batch
    workdir: str


def prepare_ingest(seed: int, workdir: str, size: IngestSize = IngestSize()) -> IngestInputs:
    n_inserts = (size.batches + 1) // 2
    schema, rows = fixed_rows(size.initial + n_inserts * size.batch_rows)
    rows = permute_blocks(rows, seed, size.batch_rows)
    initial = rows[: size.initial]
    live: dict[int, Row] = dict(enumerate(initial))
    order = deque(range(size.initial))
    next_id = size.initial
    cursor = size.initial
    bodies = []
    expected_live = []
    for index in range(size.batches):
        if index % 2 == 0:
            batch = rows[cursor : cursor + size.batch_rows]
            cursor += size.batch_rows
            for row in batch:
                live[next_id] = row
                order.append(next_id)
                next_id += 1
            body = {"kind": "insert", "rows": [list(row) for row in batch]}
        else:
            doomed = [order.popleft() for _ in range(size.batch_rows)]
            for tuple_id in doomed:
                del live[tuple_id]
            body = {"kind": "delete", "tuple_ids": doomed}
        bodies.append(json.dumps(body).encode("utf-8"))
        expected_live.append(len(live))
    create = {
        "config": {"columns": list(schema.names)},
        "rows": [list(row) for row in initial],
    }
    return IngestInputs(
        schema=schema,
        create_body=json.dumps(create).encode("utf-8"),
        bodies=bodies,
        batch_rows=size.batch_rows,
        user_bytes=sum(len(body) for body in bodies),
        expected_live=expected_live,
        final_rows=live,
        workdir=workdir,
    )


class _Client:
    """One persistent HTTP/1.1 connection; records client round trips."""

    def __init__(self, port: int, tracer: Any = None) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self._tracer = tracer

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        started = perf_counter()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        payload = response.read()
        if self._tracer is not None:
            self._tracer.add("server.client_roundtrip_s", perf_counter() - started)
        return response.status, payload

    def json(self, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
        status, payload = self.request(method, path, body)
        try:
            return status, json.loads(payload.decode("utf-8"))
        except ValueError:
            return status, {}

    def close(self) -> None:
        self._conn.close()


def _served_profile(client: _Client, tenant: str) -> tuple[tuple, int]:
    status, doc = client.json("GET", f"/tenants/{tenant}/uccs")
    if status != 200:
        return (), -1
    key = profile_key(
        (entry["mask"] for entry in doc["mucs"]),
        (entry["mask"] for entry in doc["mnucs"]),
    )
    return key, int(doc["live_rows"])


def _served_rows(client: _Client, tenant: str) -> dict[int, Row]:
    status, payload = client.request("GET", f"/tenants/{tenant}/rows.csv")
    if status != 200:
        return {}
    reader = csv.reader(io.StringIO(payload.decode("utf-8")))
    next(reader)
    return {int(record[0]): tuple(record[1:]) for record in reader}


def _create_tenant(client: _Client, tenant: str, body: bytes) -> float:
    """POST /tenants until its 201; returns the seconds it took."""
    document = json.loads(body)
    document["tenant_id"] = tenant
    payload = json.dumps(document).encode("utf-8")
    gc.collect()
    started = perf_counter()
    status, _ = client.request("POST", "/tenants", payload)
    seconds = perf_counter() - started
    if status != 201:
        raise RuntimeError(f"creating tenant {tenant} returned HTTP {status}")
    return seconds


def execute_ingest(inputs: IngestInputs, rounds: int, tracer: Any = None) -> Measurement:
    measurement = Measurement()
    root = os.path.join(inputs.workdir, f"fleet-{os.getpid()}-{id(measurement)}")
    manager = TenantManager(root)
    handle = serve_in_thread(ReproServerApp(manager))
    client = _Client(handle.address[1], tracer)
    try:
        reset_peak_rss()
        for round_index in range(rounds):
            tenant = f"bench-{round_index}"
            _phase(tracer, "setup")
            measurement.setup_s.append(_create_tenant(client, tenant, inputs.create_body))
            _phase(tracer, "timed")
            _ingest_round(client, manager, tenant, inputs, measurement, tracer)
            client.request("DELETE", f"/tenants/{tenant}?force=true")
        measurement.samples["batch"] = measurement.samples["ack"]
        measurement.peak_rss_mb = peak_rss_mb()
        spare = 0
        while tracer is None and len(measurement.setup_s) < SETUP_SAMPLES:
            tenant = f"setup-{spare}"
            spare += 1
            measurement.setup_s.append(_create_tenant(client, tenant, inputs.create_body))
            client.request("DELETE", f"/tenants/{tenant}?force=true")
    finally:
        client.close()
        handle.close()
        manager.close_all()
        shutil.rmtree(root, ignore_errors=True)
    return measurement


def _ingest_round(
    client: _Client,
    manager: TenantManager,
    tenant: str,
    inputs: IngestInputs,
    measurement: Measurement,
    tracer: Any,
) -> None:
    acks = measurement.new_round("ack")
    batches_path = f"/tenants/{tenant}/batches"
    flush_path = f"/tenants/{tenant}/flush"
    unchecked = 0
    gc.collect()
    for index, body in enumerate(inputs.bodies):
        started = perf_counter()
        posted, _ = client.request("POST", batches_path, body)
        flushed, flush_doc = client.json("POST", flush_path, b"{}")
        elapsed = perf_counter() - started
        acks.append(elapsed)
        measurement.timed_s += elapsed
        measurement.attempted += 1
        if posted != 202 or flushed != 200 or not flush_doc.get("flushed"):
            measurement.fail(f"batch {index}: POST {posted}, flush {flushed}")
            continue
        measurement.rows_applied += inputs.batch_rows
        unchecked += 1
        if unchecked == LIVE_CHECK_EVERY or index == len(inputs.bodies) - 1:
            # A wrong count fails every batch since the previous check.
            _, live = _served_profile(client, tenant)
            if live != inputs.expected_live[index]:
                measurement.fail(
                    f"batch {index}: {live} live rows, expected {inputs.expected_live[index]}",
                    count=unchecked,
                )
            unchecked = 0
    service = manager.get(tenant).service
    _add_cache_stats(measurement, service.profiler.cache_stats())
    _phase(tracer, "check")

    # Final check: the served profile equals DUCC over the served rows,
    # and the served rows are exactly the benchmark's bookkeeping.
    measurement.attempted += 1
    served, live = _served_profile(client, tenant)
    rows = _served_rows(client, tenant)
    expected_rows = {tuple_id: tuple(row) for tuple_id, row in inputs.final_rows.items()}
    if rows != expected_rows:
        measurement.fail(f"served rows differ from bookkeeping ({len(rows)} vs {len(expected_rows)})")
    else:
        relation = Relation.from_rows(inputs.schema, [rows[i] for i in sorted(rows)])
        if profile_key(*discover(relation, "ducc")) != served:
            measurement.fail("final profile differs from DUCC over the served rows")

    # Crash (ProfilingService.simulate_crash, via the recover route's
    # restart) and reopen: time until the identical profile is served.
    measurement.attempted += 1
    gc.collect()
    _phase(tracer, "recover")
    started = perf_counter()
    status, _ = client.request("POST", f"/tenants/{tenant}/recover", b"{}")
    recovered, recovered_live = _served_profile(client, tenant)
    measurement.recover_s += perf_counter() - started
    _phase(tracer, "check")
    if status != 200 or recovered != served or recovered_live != live:
        measurement.fail("the reopened tenant serves a different profile")
    elif _served_rows(client, tenant) != rows:
        measurement.fail("the reopened tenant serves different rows")
