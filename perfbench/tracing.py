"""Layer spans for the traced benchmark run, installed from outside ``src/``.

The traced run wraps the public functions of each layer -- ``server`` ->
``tenants`` -> ``service`` -> ``core`` -> ``storage`` -> ``lattice``, plus
``profiling.discovery`` at bootstrap -- with a span that records its
duration and the part of it covered by nested spans. A layer's self time
is its duration minus its children's, so self times add up to the traced
wall time without double counting. Spans are aggregated per name and per
thread in memory (count, self seconds, inclusive seconds) and merged when
the run ends; nothing is written while the clock runs.

Three kinds of hooks exist:

* ``span``: times the call and counts it;
* ``count``: counts the call only (generators such as
  ``PositionListIndex.clusters`` return before their work is done, so a
  span would time nothing);
* ``after``: a callback on the result, used to harvest the work counters
  the program already computes (``InsertStats``, ``DeleteStats``) and to
  measure queue wait and bytes written.

``Tracer.install`` patches every module that imported a wrapped function
by name, and ``Tracer.uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class _Aggregate:
    __slots__ = ("self_s", "incl_s", "calls", "counters")

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)


class _ThreadState:
    __slots__ = ("stack", "phases")

    def __init__(self) -> None:
        # stack[-1] accumulates the time covered by children of the
        # innermost open span; stack[0] is the thread's root.
        self.stack: list[float] = [0.0]
        self.phases: dict[str, _Aggregate] = defaultdict(_Aggregate)


class Tracer:
    """Per-thread span aggregation plus the patch/unpatch machinery."""

    def __init__(self) -> None:
        # The benchmark names the phase it is in ("setup", "timed",
        # "recover", ...); every record lands in that phase's aggregate.
        self.phase = "idle"
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        self._put_times: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    def add(self, counter: str, amount: float = 1.0) -> None:
        self.state().phases[self.phase].counters[counter] += amount

    def totals(self, phase: str) -> _Aggregate:
        """One phase's aggregate, merged over every thread."""
        merged = _Aggregate()
        with self._states_lock:
            states = list(self._states)
        for state in states:
            aggregate = state.phases.get(phase)
            if aggregate is None:
                continue
            for name in _Aggregate.__slots__:
                target = getattr(merged, name)
                for key, value in list(getattr(aggregate, name).items()):
                    target[key] += value
        return merged

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span(self, original: Callable, name: str | Callable, after: Callable | None) -> Callable:
        tracer = self
        dynamic = callable(name)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = tracer.state()
            stack = state.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                label = name(args) if dynamic else name
                aggregate = state.phases[tracer.phase]
                aggregate.self_s[label] += elapsed - children
                aggregate.incl_s[label] += elapsed
                aggregate.calls[label] += 1
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _count(self, original: Callable, name: str, after: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.state().phases[tracer.phase].calls[name] += 1
            result = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return counted

    def _after_only(self, original: Callable, after: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def observed(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            after(tracer, args, result)
            return result

        return observed

    def patch(self, owner: Any, attr: str, kind: str, name: Any, after: Callable | None = None) -> None:
        """Wrap ``owner.attr`` (a class attribute or module function)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper_kind = None
        function = raw
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper_kind = type(raw)
            function = raw.__func__
        if kind == "span":
            wrapped = self._span(function, name, after)
        elif kind == "count":
            wrapped = self._count(function, name, after)
        else:
            wrapped = self._after_only(function, after)
        replacement = wrapper_kind(wrapped) if wrapper_kind else wrapped
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, raw))
            return
        # A module function: rebind it in every loaded ``repro`` module
        # that imported it by name, so callers see the wrapper.
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not module_name.startswith("repro"):
                continue
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is raw:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, raw))

    def install(self) -> "Tracer":
        for owner, attr, kind, name, after in _layer_hooks():
            self.patch(owner, attr, kind, name, after)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # ------------------------------------------------------------------
    # Queue wait (enqueue on an HTTP thread, take on the writer thread)
    # ------------------------------------------------------------------
    def note_put(self, queue: Any, item: Any) -> None:
        self._put_times[(id(queue), item.batch_id)] = perf_counter()

    def note_take(self, queue: Any, item: Any) -> None:
        if item is None:
            return
        started = self._put_times.pop((id(queue), item.batch_id), None)
        if started is not None:
            self.add("tenants.queue_wait_s", perf_counter() - started)


# ----------------------------------------------------------------------
# The layer map: which public functions get which hook
# ----------------------------------------------------------------------
def _insert_stats(tracer: Tracer, args: tuple, outcome: Any) -> None:
    stats = outcome.stats
    tracer.add("core.inserts.candidate_ids", stats.candidate_ids)
    tracer.add("core.inserts.tuples_retrieved", stats.tuples_retrieved)
    tracer.add("core.inserts.broken_mucs", stats.broken_mucs)


def _delete_stats(tracer: Tracer, args: tuple, outcome: Any) -> None:
    stats = outcome.stats
    tracer.add("core.deletes.mnucs_checked", stats.mnucs_checked)
    tracer.add(
        "core.deletes.short_circuits",
        stats.unaffected_short_circuits
        + stats.restricted_short_circuits
        + stats.survivor_short_circuits,
    )
    tracer.add("core.deletes.complete_checks", stats.complete_checks)
    tracer.add("core.deletes.lattice_checks", stats.lattice_checks)
    tracer.add("core.deletes.turned_mnucs", stats.turned_mnucs)


def _fsync_name(args: tuple) -> str:
    return f"faults.fsops.{_site_prefix(args[0])}.fsync"


def _site_prefix(site: str) -> str:
    prefix = site.split(".", 1)[0]
    return prefix if prefix in ("changelog", "snapshot", "status") else "other"


def _write_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    site, _, data = args[:3]
    # Snapshot and status bytes are measured on disk after they are
    # published (not every snapshot file goes through fsops.write).
    if _site_prefix(site) == "changelog":
        tracer.add("faults.fsops.changelog.write_bytes", len(data))


def _snapshot_bytes(tracer: Tracer, args: tuple, final_dir: str) -> None:
    total = 0
    for entry in os.scandir(final_dir):
        if entry.is_file():
            total += entry.stat().st_size
    tracer.add("faults.fsops.snapshot.write_bytes", total)


def _status_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("faults.fsops.status.write_bytes", os.path.getsize(args[1]))


def _recovery_records(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("service.recovery.replayed_records", result.replayed_records)


def _queue_put(tracer: Tracer, args: tuple, item: Any) -> None:
    tracer.note_put(args[0], item)


def _queue_take(tracer: Tracer, args: tuple, item: Any) -> None:
    tracer.note_take(args[0], item)


def _layer_hooks() -> list[tuple[Any, str, str, Any, Callable | None]]:
    from repro.baselines import ducc
    from repro.core import deletes, duplicates, inserts, monitor, swan
    from repro.faults import fsops
    from repro.lattice import combination, graphs, transversal
    from repro.profiling import discovery
    from repro.server import app
    from repro.service import changelog, metrics, recovery, sentinel, server, snapshots
    from repro.storage import fastpli, kernels, pli, plicache, relation, sparse_index, value_index
    from repro.tenants import manager, queue, worker

    del ducc, monitor  # imported so later by-name rebinding reaches them
    span, count, after = "span", "count", "after"
    return [
        # server -> tenants
        (app.ReproServerApp, "handle", span, "server.handle", None),
        (manager.TenantManager, "ingest", span, "tenants.ingest", None),
        (manager.TenantManager, "create", span, "tenants.create", None),
        (worker.TenantWorker, "flush", span, "tenants.flush_wait", None),
        (queue.IngestQueue, "put", after, "tenants.queue.put", _queue_put),
        (queue.IngestQueue, "take", after, "tenants.queue.take", _queue_take),
        # service
        (server.ProfilingService, "apply_batch", span, "service.apply_batch", None),
        (changelog.Changelog, "append", span, "service.changelog.append", None),
        (snapshots.SnapshotManager, "save", span, "service.snapshots.save", _snapshot_bytes),
        (snapshots.SnapshotManager, "load", span, "service.snapshots.load", None),
        (metrics.MetricsRegistry, "write_status", span, "service.status.write", _status_bytes),
        (sentinel.InvariantSentinel, "check", span, "service.sentinel.check", None),
        (recovery, "recover", span, "service.recovery.recover", _recovery_records),
        (fsops, "fsync", span, _fsync_name, None),
        (fsops, "write", after, "faults.fsops.write", _write_bytes),
        # core: the facade and both handlers
        (swan.SwanProfiler, "__init__", span, "core.swan.init", None),
        (swan.SwanProfiler, "handle_inserts", span, "core.swan.handle", None),
        (swan.SwanProfiler, "handle_deletes", span, "core.swan.handle", None),
        (swan.SwanProfiler, "commit_inserts", span, "core.swan.commit_inserts", None),
        (swan.SwanProfiler, "commit_deletes", span, "core.swan.commit_deletes", None),
        (inserts.InsertsHandler, "handle", span, "core.inserts.analyze", _insert_stats),
        (duplicates.DuplicateManager, "groups_for", span, "core.duplicates.groups_for", None),
        (deletes.DeletesHandler, "handle", span, "core.deletes.analyze", _delete_stats),
        (deletes, "capture_rows", span, "core.deletes.capture_rows", None),
        # storage
        (relation.Relation, "insert_many", span, "storage.relation.insert_many", None),
        (value_index.ValueIndex, "lookup_batch", span, "storage.value_index.lookup", None),
        (value_index.ValueIndex, "lookup_array", span, "storage.value_index.lookup", None),
        (value_index.IndexPool, "build", span, "storage.value_index.build", None),
        (value_index.IndexPool, "register_inserts", span, "storage.value_index.register_inserts", None),
        (value_index.IndexPool, "register_deletes", span, "storage.value_index.register_deletes", None),
        (kernels, "intersect_sorted", span, "storage.kernels.intersect", None),
        (sparse_index.SparseIndex, "retrieve_tuples", span, "storage.sparse_index.retrieve", None),
        (pli.PositionListIndex, "for_column", span, "storage.pli.build", None),
        (pli.PositionListIndex, "add", span, "storage.pli.add", None),
        (pli.PositionListIndex, "remove", span, "storage.pli.remove", None),
        (pli.PositionListIndex, "clusters", count, "storage.pli.clusters", None),
        (fastpli.ArrayPli, "intersect", span, "storage.fastpli.intersect", None),
        (fastpli.ArrayPli, "without_ids", span, "storage.fastpli.without_ids", None),
        (fastpli.ArrayPli, "clusters_containing_ids", span, "storage.fastpli.clusters_containing_ids", None),
        (plicache.PartitionCache, "put_many", span, "storage.plicache.put_many", None),
        # lattice
        (transversal, "minimal_unique_supersets", span, "lattice.transversal.muc_supersets", None),
        (transversal, "mucs_from_mnucs", span, "lattice.transversal.mucs_from_mnucs", None),
        (combination, "minimize", span, "lattice.combination.minmax", None),
        (combination, "maximize", span, "lattice.combination.minmax", None),
        (graphs.CombinationGraph, "classify", count, "lattice.graphs.classify", None),
        # bootstrap
        (discovery, "discover", span, "profiling.discovery.discover", None),
    ]
