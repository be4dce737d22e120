"""Inference telemetry: compact records + a ring-buffered, thread-safe store.

Production monitoring (paper Sec. 4, the "monitor in production" half of
the MLOps loop) starts with observability on the inference path.  Both
the hosted serving tier (:mod:`repro.serve`) and field devices
(:mod:`repro.device.fleet`) emit one :class:`TelemetryRecord` per
inference; the :class:`TelemetryStore` keeps a bounded per-project window
of them for the drift/health detectors.

The ingest path is designed to sit on the serving hot path:

- records are plain ``__slots__`` objects, built in one vectorized pass
  per served batch (see :func:`repro.serve.server.emit_batch_telemetry`);
- :meth:`TelemetryStore.extend` takes a whole batch under a single lock
  acquisition, so the per-record cost is one ``deque.append`` on a
  bounded ring (no allocation growth, no copying);
- raw payloads (the drift-window samples the closed loop routes back
  into the dataset) are kept in a separate, much smaller ring so
  retaining them cannot blow up memory.

``benchmarks/bench_monitor_ingest.py`` gates the overhead of all of this
on the serving path at < 10%.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque

import numpy as np


def model_version_of(project) -> str:
    """The version stamp a project's current model ships under — the
    single definition shared by serving telemetry, OTA firmware stamps,
    and the monitor's version-scoped queries."""
    return f"1.0.{getattr(project, 'model_revision', 0)}"


class TelemetryRecord:
    """One inference observation — the compact wire format of the
    monitoring plane."""

    __slots__ = (
        "project_id", "model_version", "ts", "latency_ms", "top",
        "confidence", "margin", "ok", "source", "sketch", "raw", "error",
    )

    def __init__(
        self,
        project_id: int,
        model_version: str = "unknown",
        ts: float | None = None,
        latency_ms: float = 0.0,
        top: str | None = None,
        confidence: float = 0.0,
        margin: float = 0.0,
        ok: bool = True,
        source: str = "serving",
        sketch: np.ndarray | None = None,
        raw: np.ndarray | None = None,
        error: str | None = None,
    ):
        self.project_id = int(project_id)
        self.model_version = model_version
        self.ts = time.time() if ts is None else float(ts)
        self.latency_ms = float(latency_ms)
        self.top = top
        self.confidence = float(confidence)
        self.margin = float(margin)
        self.ok = bool(ok)
        self.source = source
        self.sketch = sketch
        self.raw = raw
        self.error = error

    def to_dict(self) -> dict:
        """JSON-safe view (raw payloads and sketches summarized, not dumped)."""
        return {
            "project_id": self.project_id,
            "model_version": self.model_version,
            "ts": self.ts,
            "latency_ms": self.latency_ms,
            "top": self.top,
            "confidence": self.confidence,
            "margin": self.margin,
            "ok": self.ok,
            "source": self.source,
            "has_raw": self.raw is not None,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, body: dict) -> "TelemetryRecord":
        """Build a record from an API payload (the device push path).

        Raises ``ValueError``/``TypeError``/``KeyError`` on malformed
        input; the API layer maps those to a 400.
        """
        raw = body.get("raw")
        if raw is not None:
            raw = np.asarray(raw, dtype=np.float32)
        sketch = body.get("sketch")
        if sketch is not None:
            sketch = np.asarray(sketch, dtype=np.float32)
        return cls(
            project_id=int(body["project_id"]),
            model_version=str(body.get("model_version", "unknown")),
            ts=None if body.get("ts") is None else float(body["ts"]),
            latency_ms=float(body.get("latency_ms", 0.0)),
            top=body.get("top"),
            confidence=float(body.get("confidence", 0.0)),
            margin=float(body.get("margin", 0.0)),
            ok=bool(body.get("ok", True)),
            source=str(body.get("source", "api")),
            sketch=sketch,
            raw=raw,
            error=None if body.get("error") is None else str(body["error"]),
        )


class TelemetryStore:
    """Bounded per-project telemetry windows with batched, lock-amortized
    ingest.

    ``window`` bounds how many records each project retains; ``raw_window``
    separately bounds how many of those may pin a raw payload (the
    candidate drift-window samples for the closed retrain loop).
    """

    #: Source tag reserved for the API gateway's request metrics; these
    #: records live in their own per-project ring so request traffic can
    #: never evict inference observations from the drift window.
    INFRA_SOURCE = "gateway"

    def __init__(self, window: int = 4096, raw_window: int = 256,
                 infra_window: int = 1024):
        if window < 1 or raw_window < 0 or infra_window < 0:
            raise ValueError(
                "window must be >= 1, raw_window/infra_window >= 0"
            )
        self.window = window
        self.raw_window = raw_window
        self.infra_window = infra_window
        self._lock = threading.Lock()
        self._rings: dict[int, deque[TelemetryRecord]] = {}  # guarded-by: _lock
        self._raw: dict[int, deque[TelemetryRecord]] = {}  # guarded-by: _lock
        self._infra: dict[int, deque[TelemetryRecord]] = {}  # guarded-by: _lock
        self.total_records = 0  # guarded-by: _lock

    # -- ingest (hot path) -------------------------------------------------

    def extend(self, records) -> int:
        """Ingest a batch of records under one lock acquisition."""
        if not records:
            return 0
        with self._lock:
            for rec in records:
                pid = rec.project_id
                if rec.source == self.INFRA_SOURCE:
                    # Gateway request metrics: separate bounded ring —
                    # API polling must not starve drift detection.
                    if self.infra_window:
                        infra = self._infra.get(pid)
                        if infra is None:
                            infra = self._infra[pid] = deque(
                                maxlen=self.infra_window
                            )
                        infra.append(rec)
                    continue
                ring = self._rings.get(pid)
                if ring is None:
                    ring = self._rings[pid] = deque(maxlen=self.window)
                    self._raw[pid] = deque(maxlen=self.raw_window)
                ring.append(rec)
                if rec.raw is not None:
                    raw_ring = self._raw[pid]
                    if self.raw_window == 0:
                        rec.raw = None
                    else:
                        # The raw ring is the *only* thing keeping a
                        # payload alive: on eviction the record stays in
                        # the main ring but its raw is dropped, so
                        # raw_window genuinely bounds payload memory.
                        if len(raw_ring) == self.raw_window:
                            raw_ring[0].raw = None
                        raw_ring.append(rec)
            self.total_records += len(records)
        return len(records)

    def record(self, rec: TelemetryRecord) -> None:
        """Single-record convenience wrapper around :meth:`extend`."""
        self.extend((rec,))

    # -- observation (cold path) -------------------------------------------

    def recent(
        self,
        project_id: int,
        n: int | None = None,
        source: str | None = None,
        model_version: str | None = None,
        since: float | None = None,
    ) -> list[TelemetryRecord]:
        """Newest-last snapshot of a project's window, optionally filtered
        by source (device id / "serving"), model version, or timestamp.
        ``source="gateway"`` reads the separate infra ring."""
        with self._lock:
            if source == self.INFRA_SOURCE:
                return list(self._infra.get(project_id, ()))
            records = list(self._rings.get(project_id, ()))
        if source is not None:
            records = [r for r in records if r.source == source]
        if model_version is not None:
            records = [r for r in records if r.model_version == model_version]
        if since is not None:
            records = [r for r in records if r.ts >= since]
        if n is not None:
            records = records[-n:]
        return records

    def drift_candidates(
        self, project_id: int, n: int | None = None
    ) -> list[TelemetryRecord]:
        """The retained raw-payload records — what the closed loop routes
        back into the dataset when drift fires."""
        with self._lock:
            records = list(self._raw.get(project_id, ()))
        return records if n is None else records[-n:]

    def count(self, project_id: int) -> int:
        with self._lock:
            return len(self._rings.get(project_id, ()))

    def project_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._rings)

    def clear(self, project_id: int | None = None) -> None:
        with self._lock:
            if project_id is None:
                self._rings.clear()
                self._raw.clear()
                self._infra.clear()
            else:
                self._rings.pop(project_id, None)
                self._raw.pop(project_id, None)
                self._infra.pop(project_id, None)

    def summary(self, project_id: int) -> dict:
        """JSON-safe per-project ingest summary for the monitor API."""
        records = self.recent(project_id)
        by_source = Counter(r.source for r in records)
        by_label = Counter(r.top for r in records if r.top is not None)
        by_version = Counter(r.model_version for r in records)
        with self._lock:
            infra = list(self._infra.get(project_id, ()))
        return {
            "records": len(records),
            "window": self.window,
            "raw_retained": len(self.drift_candidates(project_id)),
            "gateway_requests": len(infra),
            "gateway_error_rate": (
                sum(1 for r in infra if not r.ok) / len(infra)
                if infra else 0.0
            ),
            "by_source": dict(by_source),
            "by_label": dict(by_label),
            "by_model_version": dict(by_version),
            "error_rate": (
                sum(1 for r in records if not r.ok) / len(records)
                if records else 0.0
            ),
        }
