"""The traced benchmark run (``perfbench/``) times serving by wrapping
methods that must be defined on specific classes (``Patcher.wrap_method``
reads ``cls.__dict__[attr]``).  These tests install and remove those
wrappers, so a refactor that moves a wrapped method onto a base class —
or changes a wrapped signature — fails here instead of in the benchmark."""

import pathlib

import pytest

from repro.core import Platform
from repro.serve import ModelServer, ProcessShardedModelServer, ShardedModelServer
from repro.serve import server as server_module
from repro.serve.shard import _ShardTicket

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    return layers, spans


def test_instrument_then_restore_puts_every_original_back(bench):
    layers, spans = bench
    seams = [
        (ShardedModelServer, "submit"),
        (ProcessShardedModelServer, "submit"),
        (ModelServer, "get_model"),
        (ModelServer, "classify_coerced"),
        (_ShardTicket, "value"),
        (server_module, "emit_batch_telemetry"),
    ]
    before = [vars(owner)[attr] for owner, attr in seams]
    patcher = layers.instrument(spans.Tracer())
    try:
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(seams, before))
    finally:
        patcher.restore()
    assert [vars(owner)[attr] for owner, attr in seams] == before


def test_traced_run_records_the_serving_metrics(
    bench, tiny_graphs, tiny_classification_problem
):
    """Requests through both sharded tiers, traced: admission, queue wait,
    batch rows, telemetry and the worker round trip all get recorded."""
    layers, spans = bench
    platform = Platform()
    platform.register_user("alice")
    project = platform.create_project("seams", owner="alice")
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = {"a": 0, "b": 1, "c": 2}
    x, _ = tiny_classification_problem

    tracer = spans.Tracer()
    patcher = layers.instrument(tracer)
    try:
        with ShardedModelServer(platform, workers=1) as threaded, \
                ProcessShardedModelServer(platform, workers=1) as proc:
            for server in (threaded, proc):
                server.telemetry = platform.monitor.telemetry
                with spans.recording(tracer):
                    tickets = [server.submit(project.project_id, row)
                               for row in x[:4]]
                    results = [t.value() for t in tickets]
                assert all(r["top"] in ("a", "b", "c") for r in results)
    finally:
        patcher.restore()

    names = {s.name for s in tracer.spans}
    assert {"serve.admit", "serve.wait", "serve.batch", "serve.telemetry",
            "workers.roundtrip", "workers.load"} <= names
    assert tracer.samples["serve.queue_wait_ms"]
    assert sum(tracer.samples["serve.batch_rows"]) == 8  # 4 rows per tier
    m = layers.layer_metrics(tracer, {})
    for metric in ("serve.admit_ms", "serve.batch_rows", "serve.telemetry_ms",
                   "serve.queue_wait_ms", "workers.roundtrip_ms"):
        assert m[metric] > 0, metric
