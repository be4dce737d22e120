"""Per-layer instrumentation of the platform for the traced run.

:func:`instrument` wraps public functions of each layer (the API gateway,
the serving tiers, the worker-process client, the plan compiler and
executor, the kernels, storage, ingestion, quantization, DSP, training,
the tuner) so that calls made while ``tracer.on`` is set leave spans,
counts and samples.  :func:`layer_metrics` turns them into the per-layer metrics
listed in ``PER_LAYER``.

Wrappers must be installed before models are compiled: compiled plans
bind some kernels (pooling, global average pooling) when they are built,
while others are looked up in ``repro.runtime.kernels`` at call time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from spans import Patcher, Tracer, self_times, spanned

#: Batch-size buckets for ``runtime.execute_ms``.
EXEC_BUCKETS = ((1, 1, "bs1"), (2, 4, "bs2-4"), (5, 16, "bs5-16"), (17, 10**9, "bs17-64"))

KERNEL_OPS = ("conv2d", "dwconv2d", "conv1d", "fc", "maxpool2d", "maxpool1d",
              "avgpool2d", "gap2d", "gap1d", "add", "softmax")
KERNEL_FAMILIES = tuple(f"{op}_{p}" for p in ("i8", "f32") for op in KERNEL_OPS)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("api.dispatch_self_ms", "ms"),
        ("api.errors", "count"),
        ("serve.admit_ms", "ms"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.batch_rows", "rows"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.model_loads", "count"),
        ("serve.telemetry_ms", "ms"),
        ("workers.roundtrip_ms", "ms"),
        ("workers.load_ms", "ms"),
        ("workers.frame_bytes", "bytes"),
    ]
    + [(f"runtime.execute_ms.{label}", "ms") for _, _, label in EXEC_BUCKETS]
    + [(f"runtime.kernel.{fam}_ms", "ms") for fam in KERNEL_FAMILIES]
    + [
        ("runtime.compile_ms", "ms"),
        ("storage.wal_append_ms", "ms"),
        ("data.ingest_ms", "ms"),
        ("quantize.ptq_ms", "ms"),
        ("dsp.featurize_ms", "ms"),
        ("dsp.feature_cache_hit_ratio", "ratio"),
        ("nn.fit_ms", "ms"),
        ("automl.price_ms", "ms"),
        ("automl.trained_ratio", "ratio"),
        ("jobs.queue_wait_ms", "ms"),
        ("develop.cycle_s", "s"),
        ("develop.train_s", "s"),
        ("develop.ingest_samples_per_s", "1/s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
    ]
)


def kernel_family(fn_name: str) -> str | None:
    """``dwconv2d_i8_prepared`` -> ``dwconv2d_i8``; None for helpers."""
    parts = fn_name.split("_")
    for i, part in enumerate(parts):
        if part in ("i8", "f32"):
            family = "_".join(parts[: i + 1])
            return family if family in KERNEL_FAMILIES else None
    return None


def instrument(tracer: Tracer) -> Patcher:
    """Install the layer wrappers; ``Patcher.restore()`` removes them."""
    from repro.api.gateway import ApiGateway
    from repro.automl.tuner import EonTuner
    from repro.core.jobs import Job
    from repro.core.storage.engine import WriteAheadLog
    from repro.core.workers.client import WorkerHandle
    from repro.data.ingestion import IngestionService
    from repro.dsp.base import DSPBlock
    from repro.nn.training import Trainer
    from repro.quantize import ptq
    from repro.runtime import executor, kernels
    from repro.serve import server
    from repro.serve.process import ProcessShardedModelServer
    from repro.serve.shard import ShardedModelServer, _ShardTicket

    p = Patcher()
    on = lambda: tracer.on  # noqa: E731

    # -- api ---------------------------------------------------------------
    def gateway_handle(orig):
        def wrapper(self, *args, **kwargs):
            if not on():
                return orig(self, *args, **kwargs)
            attrs = {}
            resp = tracer.call("api.handle", orig, self, *args, attrs=attrs, **kwargs)
            attrs["status"] = resp.get("status")
            return resp
        return wrapper

    p.wrap_method(ApiGateway, "handle", gateway_handle)

    # -- serving -----------------------------------------------------------
    enqueued: dict[int, float] = {}

    def threaded_submit(orig):
        def wrapper(self, *args, **kwargs):
            if not on():
                return orig(self, *args, **kwargs)
            ticket = tracer.call("serve.admit", orig, self, *args, **kwargs)
            enqueued[id(ticket.features)] = time.perf_counter()
            return ticket
        return wrapper

    def process_submit(orig):
        def wrapper(self, *args, **kwargs):
            if not on():
                return orig(self, *args, **kwargs)
            ticket = tracer.call("serve.admit", orig, self, *args, **kwargs)
            # An admission entry that was never loaded into a worker is a
            # model-cache miss: its first batch pays a load_model.
            tracer.count("serve.cache_hits" if ticket.entry.loaded_session
                         else "serve.cache_misses")
            return ticket
        return wrapper

    def classify_coerced(orig):
        def wrapper(self, project_id, entry, rows):
            if not on():
                return orig(self, project_id, entry, rows)
            now = time.perf_counter()
            for row in rows:
                t = enqueued.pop(id(row), None)
                if t is not None:
                    tracer.sample("serve.queue_wait_ms", (now - t) * 1e3)
            tracer.sample("serve.batch_rows", len(rows))
            return tracer.call("serve.batch", orig, self, project_id, entry, rows)
        return wrapper

    def get_model(orig):
        def wrapper(self, *args, **kwargs):
            if not on():
                return orig(self, *args, **kwargs)
            misses = self.stats.cache_misses
            entry = orig(self, *args, **kwargs)
            missed = self.stats.cache_misses != misses
            tracer.count("serve.cache_misses" if missed else "serve.cache_hits")
            if missed:
                tracer.count("serve.model_loads")
            return entry
        return wrapper

    p.wrap_method(ShardedModelServer, "submit", threaded_submit)
    p.wrap_method(ProcessShardedModelServer, "submit", process_submit)
    p.wrap_method(server.ModelServer, "classify_coerced", classify_coerced)
    p.wrap_method(server.ModelServer, "get_model", get_model)
    p.wrap_method(_ShardTicket, "value",
                  lambda orig: spanned(tracer, "serve.wait", orig))
    p.wrap_function(server.emit_batch_telemetry,
                    lambda orig: spanned(tracer, "serve.telemetry", orig))

    # -- worker processes --------------------------------------------------
    def worker_request(orig):
        def wrapper(self, method, params=None, blobs=(), *args, **kwargs):
            if not on() or method not in ("classify", "load_model"):
                return orig(self, method, params, blobs, *args, **kwargs)
            if method == "load_model":
                tracer.count("serve.model_loads")
                return tracer.call("workers.load", orig, self, method, params,
                                   blobs, *args, **kwargs)
            result, out_blobs = tracer.call("workers.roundtrip", orig, self, method,
                                            params, blobs, *args, **kwargs)
            # Payload bytes of the two arrays that cross the boundary
            # (request rows + response probabilities); headers excluded.
            tracer.sample("workers.frame_bytes",
                          sum(map(len, blobs)) + sum(map(len, out_blobs)))
            tracer.sample("serve.batch_rows", params["rows"]["shape"][0])
            return result, out_blobs
        return wrapper

    p.wrap_method(WorkerHandle, "request", worker_request)

    # -- runtime -----------------------------------------------------------
    def execute(orig):
        def wrapper(self, batch, *args, **kwargs):
            if not on():
                return orig(self, batch, *args, **kwargs)
            return tracer.call("runtime.execute", orig, self, batch, *args,
                               attrs={"bs": len(batch)}, **kwargs)
        return wrapper

    p.wrap_method(executor.CompiledPlan, "execute", execute)
    p.wrap_method(executor.CompiledPlan, "__init__",
                  lambda orig: spanned(tracer, "runtime.compile", orig))
    p.wrap_function(executor.run_passes,
                    lambda orig: spanned(tracer, "runtime.passes", orig))
    for name, fn in list(vars(kernels).items()):
        family = kernel_family(name)
        if family is not None and callable(fn) and not name.startswith("_"):
            p.wrap_function(fn, lambda orig, f=family: spanned(tracer, f"kernel.{f}", orig))

    # -- control plane and design cycle ------------------------------------
    p.wrap_method(WriteAheadLog, "append",
                  lambda orig: spanned(tracer, "storage.wal_append", orig))
    p.wrap_method(IngestionService, "ingest",
                  lambda orig: spanned(tracer, "data.ingest", orig))
    p.wrap_function(ptq.quantize_graph,
                    lambda orig: spanned(tracer, "quantize.ptq", orig))
    p.wrap_method(DSPBlock, "transform_batch",
                  lambda orig: spanned(tracer, "dsp.featurize", orig))
    p.wrap_method(Trainer, "fit", lambda orig: spanned(tracer, "nn.fit", orig))
    # Long-poll waits inside a request are not the gateway's own work.
    p.wrap_method(Job, "wait", lambda orig: spanned(tracer, "jobs.wait", orig))
    p.wrap_method(EonTuner, "_price",
                  lambda orig: spanned(tracer, "automl.price", orig))
    p.wrap_method(EonTuner, "_evaluate_trial",
                  lambda orig: spanned(tracer, "automl.trial", orig))
    return p


#: Per-layer metrics that are the mean duration of one span name, in ms.
MEAN_SPAN_MS = {
    "serve.admit_ms": "serve.admit",
    "serve.telemetry_ms": "serve.telemetry",
    "workers.roundtrip_ms": "workers.roundtrip",
    "workers.load_ms": "workers.load",
    "storage.wal_append_ms": "storage.wal_append",
    "data.ingest_ms": "data.ingest",
    "quantize.ptq_ms": "quantize.ptq",
    "dsp.featurize_ms": "dsp.featurize",
    "nn.fit_ms": "nn.fit",
    "automl.price_ms": "automl.price",
}
#: Per-layer metrics that are the mean of one recorded sample series.
MEAN_SAMPLE = ("serve.queue_wait_ms", "serve.batch_rows", "workers.frame_bytes",
               "jobs.queue_wait_ms")


def _mean(values, scale: float = 1.0) -> float:
    return float(np.mean(values)) * scale if len(values) else 0.0


def _under(spans: list, ancestor: str) -> set[int]:
    """Ids of the spans that have a span called ``ancestor`` above them."""
    by_sid = {s.sid: s for s in spans}
    out = set()
    for s in spans:
        parent = by_sid.get(s.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_sid.get(parent.parent)
        if parent is not None:
            out.add(s.sid)
    return out


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Per-layer metric values from the traced phase's spans, counts and
    samples.

    Timings are means per call in ms unless the name says otherwise;
    ``runtime.kernel.*_ms`` is kernel self time per plan execution and
    ``runtime.compile_ms`` includes the pass pipeline.  ``extra`` supplies
    the values a workload measures itself (``develop.*``,
    ``automl.trained_ratio``, ``trace.overhead_frac``).
    """
    by_name: dict[str, list] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    selfs = self_times(tracer.spans)

    def durations(name):
        return [s.end - s.start for s in by_name[name]]

    m = {metric: _mean(durations(span), 1e3) for metric, span in MEAN_SPAN_MS.items()}
    m.update({name: _mean(tracer.samples.get(name, [])) for name in MEAN_SAMPLE})
    handles = by_name["api.handle"]
    m["api.dispatch_self_ms"] = _mean([selfs[s.sid] for s in handles], 1e3)
    m["api.errors"] = sum(1 for s in handles if (s.attrs or {}).get("status", 500) >= 400)
    hits = tracer.counts.get("serve.cache_hits", 0)
    misses = tracer.counts.get("serve.cache_misses", 0)
    m["serve.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["serve.model_loads"] = tracer.counts.get("serve.model_loads", 0)
    executes = by_name["runtime.execute"]
    for lo, hi, label in EXEC_BUCKETS:
        m[f"runtime.execute_ms.{label}"] = _mean(
            [s.end - s.start for s in executes if lo <= s.attrs["bs"] <= hi], 1e3)
    # Only kernels run by a plan execute count; any other kernel call
    # (a reference path, say) is not serving work.
    served = _under(tracer.spans, "runtime.execute")
    for fam in KERNEL_FAMILIES:
        total = sum(selfs[s.sid] for s in by_name[f"kernel.{fam}"] if s.sid in served)
        m[f"runtime.kernel.{fam}_ms"] = total * 1e3 / len(executes) if executes else 0.0
    builds = len(by_name["runtime.compile"])
    compile_s = sum(durations("runtime.compile")) + sum(durations("runtime.passes"))
    m["runtime.compile_ms"] = compile_s * 1e3 / builds if builds else 0.0
    trials = len(by_name["automl.trial"])
    m["dsp.feature_cache_hit_ratio"] = (
        1.0 - len(by_name["dsp.featurize"]) / trials if trials else 0.0
    )
    m["trace.spans"] = len(tracer.spans)
    for name, _ in PER_LAYER:
        m.setdefault(name, float(extra.get(name, 0.0)))
    return m
