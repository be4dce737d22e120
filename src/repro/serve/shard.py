"""Multi-worker sharded serving: partitioned model caches + shard pumps.

The hosted inference tier scales past one process by sharding: each
worker owns a disjoint partition of the compiled-model cache, so cache
state never needs cross-worker coherence and lock contention stays
per-shard.  :class:`ShardedModelServer` reproduces that topology
in-process:

- N shards, each wrapping its own :class:`repro.serve.ModelServer`
  (cache + lock) and its own daemon pump thread;
- a request for ``(project, precision, engine)`` is routed to the shard
  owning ``crc32(key) % N`` — a stable hash, so a model is only ever
  compiled and cached in one shard;
- each pump drains its queue in gulps, groups the gulp by model and
  executes one batched invoke per ``max_batch`` chunk of a group, so a
  flood of requests gets the batching amortization without callers
  coordinating;
- admission control is synchronous: ``submit`` resolves the model and
  validates features in the caller's thread, so bad requests fail fast
  with the same exceptions :class:`ModelServer` raises and can never
  poison a pump.

:class:`repro.serve.process.ProcessShardedModelServer` is this same
server with a different batch executor: its shards send each chunk to a
worker process.  ``snapshot()`` aggregates the per-shard counters
(summed totals plus a ``per_shard`` breakdown) in one shape for both
backends — surfaced at ``GET /v1/serving/stats``.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from types import SimpleNamespace

import numpy as np

from repro.serve.server import ModelServer, ServingError, coerce_features


class _ShardTicket:
    """One in-flight request owned by a shard pump.

    Carries the cache entry resolved at admission, so the pump serves
    the model version the request was validated against without a
    second cache lookup (which would double-count hit statistics).
    """

    __slots__ = ("key", "entry", "features", "ready", "result", "error")

    def __init__(self, key: tuple, entry, features: np.ndarray):
        self.key = key
        self.entry = entry
        self.features = features
        self.ready = threading.Event()
        self.result: dict | None = None
        self.error: Exception | None = None

    def resolve(self, result: dict | None = None, error: Exception | None = None):
        self.result = result
        self.error = error
        self.ready.set()

    def value(self) -> dict:
        self.ready.wait()
        if self.error is not None:
            raise self.error
        return self.result


class _Shard:
    """One cache partition: a ModelServer, a request queue and the pump
    thread that drains it.

    The pump is the one execution loop of both sharded tiers: it gulps
    the queue, groups the gulp by admitted entry, and runs each group in
    ``max_batch`` chunks through :meth:`_run` — the only step a
    subclass replaces (:class:`repro.serve.process._ProcessShard` sends
    the chunk to a worker process instead).  Every exception is isolated
    per chunk, so one bad batch never kills the pump and strands the
    tickets behind it.
    """

    #: How long ``stop`` waits for an in-flight gulp to finish.
    join_timeout_s = 1.0

    def __init__(self, server: ModelServer | None, index: int, max_queue: int,
                 max_batch: int):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.server = server
        self.index = index
        self.max_queue = max_queue
        self.max_batch = max_batch
        self._queue: deque[_ShardTicket] = deque()  # guarded-by: _cond
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._stop = False  # guarded-by: _cond
        # Pump counters — written only by the pump thread, read by
        # counters(), so both sides go through the condition's lock.
        # ``requests`` counts requests that got a result; failed chunks
        # tick ``batch_errors`` instead.
        self.requests = 0  # guarded-by: _cond
        self.batches = 0  # guarded-by: _cond
        self.batched_requests = 0  # guarded-by: _cond
        self.largest_batch = 0  # guarded-by: _cond
        self.batch_errors = 0  # guarded-by: _cond
        self.drains = 0  # guarded-by: _cond
        self.grouped_batches = 0  # guarded-by: _cond

    def enqueue(self, ticket: _ShardTicket) -> None:
        with self._cond:
            if self._stop:
                raise ServingError(f"shard {self.index} is shut down")
            if len(self._queue) >= self.max_queue:
                raise ServingError(
                    f"shard {self.index} queue full ({self.max_queue} requests)"
                )
            self._queue.append(ticket)
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._pump, name=f"serve-shard-{self.index}", daemon=True
                )
                self._thread.start()
            self._cond.notify()

    def _pump(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    if self._stop:
                        return
                    self._cond.wait()
                # Gulp everything queued right now: the whole point of a
                # shard pump is to turn a backlog into few big invokes.
                gulp = list(self._queue)
                self._queue.clear()
                self.drains += 1
            self._execute(gulp)

    def _execute(self, gulp: list[_ShardTicket]) -> None:
        # Group the gulp by admitted cache entry (stable order) -> one
        # group per distinct model version.  Grouping on the entry (not
        # just the key) keeps requests admitted across a retrain boundary
        # on the model they were validated against.
        groups: dict[int, list[_ShardTicket]] = {}
        for ticket in gulp:
            groups.setdefault(id(ticket.entry), []).append(ticket)
        with self._cond:
            self.grouped_batches += len(groups)
        for tickets in groups.values():
            for i in range(0, len(tickets), self.max_batch):
                self._execute_batch(tickets[i:i + self.max_batch])

    def _execute_batch(self, tickets: list[_ShardTicket]) -> None:
        try:
            results = self._run(
                tickets[0].key[0], tickets[0].entry, [t.features for t in tickets]
            )
            if len(results) != len(tickets):
                # Never zip-truncate: a short result set would strand the
                # tail tickets on result=None.
                raise ServingError(
                    f"shard {self.index} got {len(results)} result(s) for a "
                    f"batch of {len(tickets)} request(s)"
                )
        except Exception as exc:  # noqa: BLE001 - isolate per batch
            for ticket in tickets:
                ticket.resolve(error=exc)
            with self._cond:
                self.batch_errors += 1
            return
        with self._cond:
            self.requests += len(tickets)
            self.batches += 1
            self.batched_requests += len(tickets)
            self.largest_batch = max(self.largest_batch, len(tickets))
        for ticket, result in zip(tickets, results):
            ticket.resolve(result=result)

    def _run(self, project_id: int, entry, rows: list[np.ndarray]) -> list[dict]:
        """Execute one batch of admitted rows; one result per row.
        Features were coerced at admission against ``entry``, so this
        goes straight to the batched invoke."""
        return self.server.classify_coerced(project_id, entry, rows)

    def stop(self) -> None:
        # Claim the leftover queue under the lock so a still-running
        # pump can never see (or double-resolve) these tickets; the
        # pump drains its in-flight gulp normally and then exits.
        with self._cond:
            self._stop = True
            leftovers = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for ticket in leftovers:
            ticket.resolve(error=ServingError(f"shard {self.index} shut down"))
        if self._thread is not None:
            self._thread.join(timeout=self.join_timeout_s)

    def counters(self) -> dict:
        """A consistent snapshot of the pump counters."""
        with self._cond:
            return {
                "requests": self.requests,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "largest_batch": self.largest_batch,
                "batch_errors": self.batch_errors,
                "mean_batch_size": (
                    self.batched_requests / self.batches if self.batches else 0.0
                ),
                "queue_depth": len(self._queue),
                "drains": self.drains,
                "grouped_batches": self.grouped_batches,
            }


class ShardedModelServer:
    """N-worker serving: the model cache partitioned across shards.

    Public surface mirrors :class:`ModelServer` (``classify``,
    ``classify_batch``, ``get_model``, ``invalidate``, ``snapshot``), so
    the API layer and CLI can use either interchangeably; ``submit`` /
    ticket ``value()`` additionally expose the asynchronous path.
    """

    backend = "thread"

    def __init__(
        self,
        platform,
        workers: int = 4,
        cache_size: int = 8,
        max_batch: int = 32,
        max_queue: int = 4096,
        passes: object = "default",
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.platform = platform
        self.workers = workers
        self.shards = [
            self._new_shard(i, cache_size, max_batch, max_queue, passes)
            for i in range(workers)
        ]

    def _new_shard(self, index: int, cache_size: int, max_batch: int,
                   max_queue: int, passes: object) -> _Shard:
        server = ModelServer(
            self.platform, cache_size=cache_size, max_batch=max_batch,
            name=f"shard-{index}", passes=passes,
        )
        return _Shard(server, index=index, max_queue=max_queue, max_batch=max_batch)

    @classmethod
    def for_project(cls, project, **kwargs) -> "ShardedModelServer":
        """A standalone sharded server over one project (CLI ``serve``)."""
        registry = SimpleNamespace(projects={project.project_id: project})
        return cls(registry, **kwargs)

    # -- monitoring sink ---------------------------------------------------

    @property
    def telemetry(self):
        """The monitoring sink; assigning propagates to every shard's
        server, so all workers emit into the same store."""
        return self.shards[0].server.telemetry

    @telemetry.setter
    def telemetry(self, store) -> None:
        for shard in self.shards:
            shard.server.telemetry = store

    # -- routing -----------------------------------------------------------

    def shard_index(self, project_id: int, precision: str, engine: str) -> int:
        """Stable shard assignment for a model key (crc32, not ``hash``,
        so placement survives interpreter restarts and PYTHONHASHSEED)."""
        key = f"{project_id}|{precision}|{engine}".encode()
        return zlib.crc32(key) % self.workers

    def shard_for(self, project_id: int, precision: str, engine: str) -> _Shard:
        return self.shards[self.shard_index(project_id, precision, engine)]

    # -- serving -----------------------------------------------------------

    def submit(
        self,
        project_id: int,
        features,
        precision: str = "int8",
        engine: str = "eon",
    ) -> _ShardTicket:
        """Admit one request onto its shard's queue; returns a ticket
        whose ``value()`` blocks for the pump's result.  Raises eagerly
        (``ServingError`` / ``KeyError``) on bad requests."""
        shard = self.shard_for(project_id, precision, engine)
        entry = shard.server.get_model(project_id, precision, engine)
        ticket = _ShardTicket(
            (project_id, precision, engine), entry, coerce_features(entry, features)
        )
        shard.enqueue(ticket)
        return ticket

    def classify(
        self,
        project_id: int,
        features,
        precision: str = "int8",
        engine: str = "eon",
    ) -> dict:
        return self.submit(project_id, features, precision, engine).value()

    def classify_batch(
        self,
        project_id: int,
        feature_rows,
        precision: str = "int8",
        engine: str = "eon",
    ) -> list[dict]:
        if not isinstance(feature_rows, (list, tuple)) or len(feature_rows) == 0:
            raise ServingError("batch must be a non-empty list of feature rows")
        tickets = [
            self.submit(project_id, row, precision, engine) for row in feature_rows
        ]
        return [t.value() for t in tickets]

    # -- cache management --------------------------------------------------

    def get_model(self, project_id: int, precision: str = "int8", engine: str = "eon"):
        """Resolve (and warm) the model in its owning shard's cache."""
        return self.shard_for(project_id, precision, engine).server.get_model(
            project_id, precision, engine
        )

    def invalidate(self, project_id: int | None = None) -> None:
        for shard in self.shards:
            shard.server.invalidate(project_id)

    # -- observability -----------------------------------------------------

    def _shard_stats(self, shard: _Shard) -> dict:
        """One ``per_shard`` row: the shard server's cache and telemetry
        counters, overlaid with the pump's request/batch counters."""
        return {**shard.server.snapshot(), **shard.counters(), "restarts": 0}

    def snapshot(self) -> dict:
        """Aggregated counters plus the per-shard breakdown — the shape
        ``GET /v1/serving/stats`` serves for both sharded backends."""
        per_shard = [self._shard_stats(shard) for shard in self.shards]
        summed = (
            "requests", "batches", "batched_requests", "batch_errors",
            "cache_size", "cache_hits", "cache_misses", "cache_evictions",
            "telemetry_errors", "restarts",
        )
        total = {k: sum(s[k] for s in per_shard) for k in summed}
        total["largest_batch"] = max(s["largest_batch"] for s in per_shard)
        total["mean_batch_size"] = (
            total["batched_requests"] / total["batches"] if total["batches"] else 0.0
        )
        total["workers"] = self.workers
        total["backend"] = self.backend
        total["per_shard"] = per_shard
        return total

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop every shard pump (queued requests fail cleanly)."""
        for shard in self.shards:
            shard.stop()

    def __enter__(self) -> "ShardedModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
