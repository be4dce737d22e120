"""Cross-process sharded serving: shard batches run in worker *processes*.

:class:`ProcessShardedModelServer` is :class:`repro.serve.shard.
ShardedModelServer` with a different batch executor.  Placement (crc32
of ``(project, precision, engine)``), the shard queue and pump, the
``max_batch`` chunking, the row-count guard and the snapshot totals are
all inherited; only two things differ:

- *admission* resolves a parent-side :class:`_ProcEntry` (feature shape,
  labels, serialized graph) instead of compiling the model in-process;
- each shard's :meth:`_ProcessShard._run` drives a **worker process**
  (:mod:`repro.core.workers`) over the frame protocol: one
  ``load_model`` per model per worker lifetime (the serialized graph is
  rehydrated and re-verified in the worker), then one ``classify`` frame
  per batch, so invokes run on real cores instead of time-slicing one
  GIL.

Results are bit-identical to the in-process servers because both sides
execute the same compiled plan on the same stacked rows.  Crash
semantics: the handle's heartbeat + receiver detect a dead worker; the
batch in flight fails with a clean :class:`ServingError` (callers never
hang), the next batch respawns the worker and reloads models lazily.

Telemetry stays parent-side (``_run`` holds rows + probabilities), so
``Platform(serving_backend="process")`` monitors exactly like the
threaded tiers.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

import numpy as np

from repro.core.workers.client import WorkerDied, WorkerHandle
from repro.core.workers.frames import pack_array, unpack_array
from repro.graph.serialize import graph_to_bytes
from repro.serve.server import (
    ServingError,
    ServingStats,
    coerce_features,
    emit_served_telemetry,
    labels_of,
    served_graph,
    to_result,
)
from repro.serve.shard import ShardedModelServer, _Shard, _ShardTicket


class _ProcEntry:
    """Parent-side admission record for one model placed on a worker.

    Holds everything needed to validate requests without a worker round
    trip (feature shape, labels) and to (re)hydrate the model in the
    worker (the serialized graph).  ``loaded_session`` tracks which
    worker incarnation has this model compiled, so a respawn triggers a
    lazy reload on first use, not an eager re-push of every model.
    """

    __slots__ = ("key", "graph", "model_id", "graph_blob", "feature_size",
                 "feature_shape", "labels", "loaded_session")

    def __init__(self, key: tuple, graph, model_id: int, labels: list[str]):
        self.key = key
        self.graph = graph
        self.model_id = model_id
        self.graph_blob = graph_to_bytes(graph)
        shape = tuple(graph.tensors[graph.input_id].shape)
        self.feature_shape = shape
        self.feature_size = int(np.prod(shape))
        self.labels = labels
        self.loaded_session = 0  # 0 == loaded nowhere yet


class _ProcessShard(_Shard):
    """A shard whose batches execute in its own worker process."""

    join_timeout_s = 5.0

    def __init__(self, platform, index: int, max_queue: int, max_batch: int,
                 passes: object, heartbeat_s: float, heartbeat_timeout_s: float,
                 request_timeout_s: float):
        super().__init__(None, index, max_queue, max_batch)
        self.platform = platform
        self.name = f"proc-shard-{index}"
        self.passes = "default" if passes == "default" else None
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.request_timeout_s = request_timeout_s
        self.telemetry = None  # optional repro.monitor TelemetryStore
        self.telemetry_errors = 0  # guarded-by: _cond
        self.restarts = 0  # guarded-by: _cond
        # Worker interaction (spawn / load / classify) is serialized by
        # _io_lock; never take _io_lock while holding _cond.
        self._io_lock = threading.Lock()
        self._handle: WorkerHandle | None = None  # guarded-by: _io_lock
        self._session = 0  # guarded-by: _io_lock (worker incarnation)

    # -- worker lifecycle (call with _io_lock held) ------------------------

    def _ensure_worker_io_locked(self) -> WorkerHandle:
        if self._handle is not None and not self._handle.alive:
            self._drop_worker_io_locked()
        if self._handle is None:
            self._handle = WorkerHandle(
                name=self.name,
                heartbeat_s=self.heartbeat_s,
                heartbeat_timeout_s=self.heartbeat_timeout_s,
            )
            self._session += 1
        return self._handle

    def _drop_worker_io_locked(self) -> None:
        """Close a dead (or untrusted) worker; the next batch respawns it."""
        self._handle.close()
        self._handle = None
        with self._cond:
            self.restarts += 1

    def _ensure_loaded_io_locked(self, handle: WorkerHandle,
                                 entry: _ProcEntry) -> None:
        if entry.loaded_session == self._session:
            return
        handle.call(
            "load_model",
            {"model_id": entry.model_id, "engine": entry.key[2],
             "passes": self.passes},
            (entry.graph_blob,),
            timeout=self.request_timeout_s,
        )
        entry.loaded_session = self._session

    def warm(self, entry: _ProcEntry) -> None:
        """Synchronously spawn the worker + compile this model in it."""
        with self._io_lock:
            handle = self._ensure_worker_io_locked()
            self._ensure_loaded_io_locked(handle, entry)

    # -- execution ---------------------------------------------------------

    def _run(self, project_id: int, entry: _ProcEntry, rows) -> list[dict]:
        start = time.perf_counter()
        with self._io_lock:
            try:
                handle = self._ensure_worker_io_locked()
                self._ensure_loaded_io_locked(handle, entry)
                spec, blob = pack_array(np.stack(rows))
                result, out_blobs = handle.request(
                    "classify", {"model_id": entry.model_id, "rows": spec},
                    (blob,), timeout=self.request_timeout_s,
                )
                probs = unpack_array(result["probs"], out_blobs[0])
            except WorkerDied as exc:
                if self._handle is not None:  # None when the spawn itself failed
                    self._drop_worker_io_locked()
                raise ServingError(
                    f"shard {self.index} worker process died mid-request "
                    f"({exc}); it will be respawned"
                ) from exc
            except Exception as exc:  # noqa: BLE001 - a handler error or a malformed reply
                raise ServingError(
                    f"shard {self.index} worker rejected the batch: {exc!r}"
                ) from exc
        emit_served_telemetry(
            self, self._cond, project_id, entry.labels, rows, probs, start
        )
        return [to_result(entry.labels, p) for p in probs]

    # -- observability / lifecycle -----------------------------------------

    def counters(self) -> dict:
        snap = {"name": self.name, **super().counters()}
        with self._cond:
            snap["restarts"] = self.restarts
            snap["telemetry_errors"] = self.telemetry_errors
        with self._io_lock:
            snap["worker_pid"] = (
                self._handle.pid if self._handle is not None else None
            )
            snap["worker_alive"] = (
                self._handle is not None and self._handle.alive
            )
        return snap

    def stop(self) -> None:
        super().stop()
        with self._io_lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class ProcessShardedModelServer(ShardedModelServer):
    """N-worker-*process* serving behind the ShardedModelServer surface.

    Inherits placement, ``classify``/``classify_batch``, the snapshot
    totals and the lifecycle, so the platform, gateway routes, and CLI
    can swap tiers via ``Platform(serving_backend="process")`` without
    other changes.  Admission keeps one LRU of :class:`_ProcEntry` of
    ``cache_size * workers`` models (the workers keep their own LRU).
    """

    backend = "process"

    def __init__(
        self,
        platform,
        workers: int = 4,
        cache_size: int = 8,
        max_batch: int = 64,
        max_queue: int = 4096,
        passes: object = "default",
        heartbeat_s: float = 5.0,
        heartbeat_timeout_s: float = 15.0,
        request_timeout_s: float = 120.0,
    ):
        self.cache_size = cache_size
        self._worker_options = {
            "heartbeat_s": heartbeat_s,
            "heartbeat_timeout_s": heartbeat_timeout_s,
            "request_timeout_s": request_timeout_s,
        }
        super().__init__(platform, workers, cache_size, max_batch, max_queue, passes)
        self._entries: OrderedDict[tuple, _ProcEntry] = OrderedDict()  # guarded-by: _lock
        self._stats = [ServingStats() for _ in self.shards]  # guarded-by: _lock
        self._next_model_id = 1  # guarded-by: _lock
        self._lock = threading.Lock()

    def _new_shard(self, index: int, cache_size: int, max_batch: int,
                   max_queue: int, passes: object) -> _ProcessShard:
        return _ProcessShard(
            self.platform, index=index, max_queue=max_queue,
            max_batch=max_batch, passes=passes, **self._worker_options,
        )

    # -- monitoring sink ---------------------------------------------------

    @property
    def telemetry(self):
        """The monitoring sink; assigning propagates to every shard,
        which emits parent-side (probabilities never leave the parent
        un-monitored just because the invoke ran elsewhere)."""
        return self.shards[0].telemetry

    @telemetry.setter
    def telemetry(self, store) -> None:
        for shard in self.shards:
            shard.telemetry = store

    # -- admission ---------------------------------------------------------

    def _admit(self, shard: _ProcessShard, key: tuple) -> _ProcEntry:
        """Resolve (or build) the admission entry for a model key.

        Raises like :func:`repro.serve.server.served_graph`; hits, misses
        and evictions count against the owning shard's row.
        """
        graph = served_graph(self.platform, *key)
        with self._lock:
            stats = self._stats[shard.index]
            entry = self._entries.get(key)
            if entry is not None and entry.graph is graph:
                stats.cache_hits += 1
                self._entries.move_to_end(key)
                return entry
            stats.cache_misses += 1
            labels = labels_of(self.platform.projects[key[0]])
            entry = _ProcEntry(key, graph, self._next_model_id, labels)
            self._next_model_id += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.cache_size * self.workers:
                evicted, _ = self._entries.popitem(last=False)
                self._stats[self.shard_index(*evicted)].cache_evictions += 1
            return entry

    def submit(
        self,
        project_id: int,
        features,
        precision: str = "int8",
        engine: str = "eon",
    ) -> _ShardTicket:
        """Admit one request onto its shard's queue; bad requests raise
        eagerly in the caller's thread, exactly like the threaded tier."""
        shard = self.shard_for(project_id, precision, engine)
        entry = self._admit(shard, (project_id, precision, engine))
        ticket = _ShardTicket(entry.key, entry, coerce_features(entry, features))
        shard.enqueue(ticket)
        return ticket

    # -- cache management --------------------------------------------------

    def get_model(self, project_id: int, precision: str = "int8",
                  engine: str = "eon") -> _ProcEntry:
        """Resolve the admission entry **and** warm the model in its
        owning worker process (spawning it if needed)."""
        shard = self.shard_for(project_id, precision, engine)
        entry = self._admit(shard, (project_id, precision, engine))
        shard.warm(entry)
        return entry

    def invalidate(self, project_id: int | None = None) -> None:
        """Drop admission entries (all, or one project's); workers evict
        replaced models from their own LRU lazily."""
        with self._lock:
            keys = [
                k for k in self._entries
                if project_id is None or k[0] == project_id
            ]
            for key in keys:
                del self._entries[key]

    # -- observability -----------------------------------------------------

    def _shard_stats(self, shard: _ProcessShard) -> dict:
        snap = shard.counters()
        with self._lock:
            stats = self._stats[shard.index]
            snap["cache_size"] = sum(
                1 for key in self._entries if self.shard_index(*key) == shard.index
            )
            snap["cache_hits"] = stats.cache_hits
            snap["cache_misses"] = stats.cache_misses
            snap["cache_evictions"] = stats.cache_evictions
        return snap
