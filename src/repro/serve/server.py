"""The model-serving layer (paper Sec. 4.9's hosted inference API).

A :class:`ModelServer` sits over the platform's project registry and
serves classification requests from compiled models:

- models are compiled once (EON plan or TFLM interpreter — both execute
  a :class:`repro.runtime.executor.CompiledPlan`) and held in an LRU
  cache keyed ``(project_id, precision, engine)``;
- retraining is detected by graph identity, so a cache entry never
  serves a stale model;
- direct callers go through a :class:`repro.serve.batcher.MicroBatcher`
  per cached model, coalescing concurrent classify calls into one
  batched invoke; the shard pumps (:mod:`repro.serve.shard`) batch for
  themselves and call :meth:`ModelServer.classify_coerced`.

The admission helpers (:func:`served_graph`, :func:`coerce_features`,
:func:`labels_of`, :func:`to_result`) and the telemetry emitters are
module-level so every serving tier shares one definition of them.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.active.embeddings import feature_sketch
from repro.monitor.telemetry import TelemetryRecord, model_version_of
from repro.runtime.eon import EONCompiler
from repro.runtime.interpreter import TFLMInterpreter
from repro.serve.batcher import MicroBatcher, ServingError

ENGINES = ("eon", "tflm")
PRECISIONS = ("float32", "int8")

#: Dimensionality of the per-inference feature sketch telemetry carries.
SKETCH_DIM = 8


class ModelNotTrainedError(ServingError):
    """The project has no trained graph for the requested precision."""


@dataclass
class ServingStats:
    """Operational counters.  ``batches``/``batched_requests`` hold the
    totals of retired cache entries; live entries are added by
    :meth:`ModelServer.snapshot`."""

    requests: int = 0
    batches: int = 0
    batched_requests: int = 0
    batch_errors: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0


@dataclass
class _CacheEntry:
    """One compiled model + its micro-batcher."""

    graph: object
    model: object  # EONModel or TFLMInterpreter; both expose predict_proba
    batcher: MicroBatcher
    feature_size: int = 0
    feature_shape: tuple[int, ...] = field(default_factory=tuple)


# -- admission (shared by every tier) ---------------------------------------


def served_graph(platform, project_id: int, precision: str, engine: str):
    """The graph a ``(project, precision, engine)`` request is served from.

    Raises ``KeyError`` for an unknown project (a missing resource),
    :class:`ServingError` for bad parameters and
    :class:`ModelNotTrainedError` for an untrained precision.
    """
    if precision not in PRECISIONS:
        raise ServingError(f"unknown precision {precision!r}; expected {PRECISIONS}")
    if engine not in ENGINES:
        raise ServingError(f"unknown engine {engine!r}; expected {ENGINES}")
    project = platform.projects[project_id]
    graph = project.int8_graph if precision == "int8" else project.float_graph
    if graph is None:
        raise ModelNotTrainedError(
            f"project {project_id} has no trained {precision} model"
        )
    return graph


def coerce_features(entry, features) -> np.ndarray:
    """Validate one feature window against an admitted entry's input
    shape (``entry.feature_size`` / ``entry.feature_shape``)."""
    try:
        arr = np.asarray(features, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise ServingError(f"features are not numeric: {exc}")
    if arr.size != entry.feature_size:
        raise ServingError(
            f"expected {entry.feature_size} features "
            f"(shape {entry.feature_shape}), got {arr.size}"
        )
    return arr.reshape(entry.feature_shape)


def labels_of(project) -> list[str]:
    """Class labels in output-index order."""
    return [l for l, _ in sorted(project.label_map.items(), key=lambda kv: kv[1])]


def to_result(labels: list[str], probs) -> dict:
    """One probability row -> ``{"classification", "top"}``."""
    classification = {l: float(p) for l, p in zip(labels, probs)}
    top = max(classification, key=classification.get) if classification else None
    return {"classification": classification, "top": top}


# -- telemetry ---------------------------------------------------------------


def emit_batch_telemetry(
    telemetry, platform, project_id: int, labels: list[str],
    rows, probs_rows, latency_ms: float, source: str,
) -> None:
    """Build one compact record per served row — vectorized over the
    batch (one argmax/partition/matmul) and pushed to the store under a
    single lock (:meth:`TelemetryStore.extend`).  Shared by the
    in-process servers and the cross-process serving shards (which hold
    probability rows in the parent, so emission stays parent-side)."""
    probs = np.stack(probs_rows)
    top_idx = probs.argmax(axis=1)
    conf = probs[np.arange(len(probs)), top_idx]
    if probs.shape[1] > 1:
        margin = conf - np.partition(probs, -2, axis=1)[:, -2]
    else:
        margin = conf
    sketches = feature_sketch(np.stack(rows), dim=SKETCH_DIM)
    version = model_version_of(platform.projects[project_id])
    # Bulk-convert to Python scalars (one C loop each) and share one
    # timestamp: per-record float()/time.time() calls add up on a
    # path that runs once per served batch.
    ts = time.time()
    n_labels = len(labels)
    tops = top_idx.tolist()
    confs = conf.tolist()
    margins = margin.tolist()
    telemetry.extend([
        TelemetryRecord(
            project_id,
            model_version=version,
            ts=ts,
            latency_ms=latency_ms,
            top=labels[tops[i]] if tops[i] < n_labels else None,
            confidence=confs[i],
            margin=margins[i],
            source=source,
            sketch=sketches[i],
        )
        for i in range(len(probs))
    ])


def emit_served_telemetry(
    owner, lock, project_id: int, labels: list[str], rows, probs, start: float,
) -> None:
    """Emit one served batch into ``owner.telemetry`` (a no-op when it is
    None), with per-row latency measured from ``start``.  ``owner`` also
    supplies ``platform`` and ``name``; a failing sink only ticks
    ``owner.telemetry_errors`` under ``lock`` — monitoring never breaks
    serving."""
    telemetry = owner.telemetry
    if telemetry is None:
        return
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    try:
        emit_batch_telemetry(
            telemetry, owner.platform, project_id, labels, rows, probs,
            elapsed_ms / max(len(rows), 1), source=owner.name,
        )
    except Exception:  # noqa: BLE001 - monitoring never breaks serving
        with lock:
            owner.telemetry_errors += 1


class ModelServer:
    """Batched serving over compiled models with an LRU model cache."""

    def __init__(
        self,
        platform,
        cache_size: int = 8,
        max_batch: int = 32,
        name: str = "server",
        passes: object = "default",
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.platform = platform
        self.cache_size = cache_size
        self.max_batch = max_batch
        self.name = name
        # Optimization-pass selection for EON-compiled models ("default"
        # or None; forwarded to compile_plan via EONCompiler).
        self.passes = passes
        self.stats = ServingStats()  # guarded-by: _lock
        # Optional monitoring sink (a repro.monitor TelemetryStore).  When
        # None — the default — the serving path pays one attribute test
        # per batch and nothing else.
        self.telemetry = None
        self.telemetry_errors = 0  # guarded-by: _lock
        self._cache: OrderedDict[tuple[int, str, str], _CacheEntry] = OrderedDict()  # guarded-by: _lock
        # Guards the cache and stats; per-entry batchers have their own
        # lock, so classify calls only contend here for the model lookup.
        self._lock = threading.RLock()

    @classmethod
    def for_project(cls, project, **kwargs) -> "ModelServer":
        """A standalone server over one project (the CLI entry point)."""
        registry = SimpleNamespace(projects={project.project_id: project})
        return cls(registry, **kwargs)

    # -- model cache -------------------------------------------------------

    def get_model(
        self, project_id: int, precision: str = "int8", engine: str = "eon"
    ) -> _CacheEntry:
        """Fetch (or compile and cache) the served model for a project.

        Raises like :func:`served_graph`.
        """
        graph = served_graph(self.platform, project_id, precision, engine)
        key = (project_id, precision, engine)
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None and entry.graph is graph:
                self.stats.cache_hits += 1
                self._cache.move_to_end(key)
                return entry

            # Compiling under the lock serializes concurrent misses on the
            # same key, so exactly one model (and batcher) is built.
            self.stats.cache_misses += 1
            model = (
                EONCompiler(passes=self.passes).compile(graph)
                if engine == "eon"
                else TFLMInterpreter(graph)
            )
            entry = _CacheEntry(
                graph=graph,
                model=model,
                batcher=MicroBatcher(model.predict_proba, max_batch=self.max_batch),
                feature_size=int(np.prod(graph.tensors[graph.input_id].shape)),
                feature_shape=tuple(graph.tensors[graph.input_id].shape),
            )
            stale = self._cache.get(key)
            if stale is not None:  # project was retrained; replace the model
                self._retire_locked(stale)
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                _, evicted = self._cache.popitem(last=False)
                self._retire_locked(evicted)
                self.stats.cache_evictions += 1
            return entry

    def _retire_locked(self, entry: _CacheEntry) -> None:
        """Fold a leaving entry's batcher counters into the totals so
        stats survive eviction/invalidation."""
        self.stats.batches += entry.batcher.batches
        self.stats.batched_requests += entry.batcher.batched_requests
        self.stats.batch_errors += entry.batcher.batch_errors

    def invalidate(self, project_id: int | None = None) -> None:
        """Drop cached models (all, or one project's)."""
        with self._lock:
            keys = [
                k for k in self._cache if project_id is None or k[0] == project_id
            ]
            for key in keys:
                self._retire_locked(self._cache.pop(key))

    # -- classification ----------------------------------------------------

    def classify(
        self,
        project_id: int,
        features,
        precision: str = "int8",
        engine: str = "eon",
    ) -> dict:
        """Classify one feature window; returns ``{"classification",
        "top"}``.  Goes through the micro-batch queue, so concurrent
        callers share one batched invoke."""
        return self.classify_batch(project_id, [features], precision, engine)[0]

    def classify_batch(
        self,
        project_id: int,
        feature_rows,
        precision: str = "int8",
        engine: str = "eon",
    ) -> list[dict]:
        """Classify many windows in micro-batches; one result per row."""
        if not isinstance(feature_rows, (list, tuple)) or len(feature_rows) == 0:
            raise ServingError("batch must be a non-empty list of feature rows")
        entry = self.get_model(project_id, precision, engine)
        # Validate every row before submitting any, so a malformed row
        # mid-batch cannot strand already-queued tickets.
        rows = [coerce_features(entry, row) for row in feature_rows]
        start = time.perf_counter()
        tickets = [entry.batcher.submit(row) for row in rows]
        probs = [entry.batcher.wait(t) for t in tickets]
        with self._lock:
            self.stats.requests += len(tickets)
        return self._finish(project_id, rows, probs, start)

    def classify_coerced(self, project_id: int, entry: _CacheEntry, rows) -> list[dict]:
        """Classify rows already validated by :func:`coerce_features`
        against ``entry`` in one ``predict_proba`` call — the shard
        pump's hook.  The pump has already batched the rows and owns the
        request/batch counters, so neither the micro-batcher nor
        ``stats.requests`` is involved."""
        start = time.perf_counter()
        probs = entry.model.predict_proba(np.stack(rows))
        return self._finish(project_id, rows, probs, start)

    def _finish(self, project_id: int, rows, probs, start: float) -> list[dict]:
        labels = labels_of(self.platform.projects[project_id])
        emit_served_telemetry(self, self._lock, project_id, labels, rows, probs, start)
        return [to_result(labels, p) for p in probs]

    # -- observability -----------------------------------------------------

    def snapshot(self) -> dict:
        """Server-wide stats: retired totals + live batcher counters."""
        with self._lock:
            batches = self.stats.batches + sum(
                e.batcher.batches for e in self._cache.values()
            )
            batched = self.stats.batched_requests + sum(
                e.batcher.batched_requests for e in self._cache.values()
            )
            batch_errors = self.stats.batch_errors + sum(
                e.batcher.batch_errors for e in self._cache.values()
            )
            return {
                "name": self.name,
                "requests": self.stats.requests,
                "batches": batches,
                "batched_requests": batched,
                "batch_errors": batch_errors,
                "mean_batch_size": batched / batches if batches else 0.0,
                "cache_size": len(self._cache),
                "cache_hits": self.stats.cache_hits,
                "cache_misses": self.stats.cache_misses,
                "cache_evictions": self.stats.cache_evictions,
                "telemetry_errors": self.telemetry_errors,
            }
