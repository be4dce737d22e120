"""The shared shard pump under both sharded tiers: per-batch failure
isolation, the row-count guard, ``max_batch`` chunking, and one stats
shape."""

import contextlib
import time

import pytest

from repro.core import Platform
from repro.core.workers.frames import pack_array, unpack_array
from repro.serve import ProcessShardedModelServer, ServingError, ShardedModelServer


@pytest.fixture()
def served(tiny_graphs, tiny_classification_problem):
    platform = Platform()
    platform.register_user("alice")
    project = platform.create_project("core", owner="alice")
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = {"a": 0, "b": 1, "c": 2}
    x, _ = tiny_classification_problem
    return platform, project.project_id, x


@contextlib.contextmanager
def held_pump(shard, server, pid, row):
    """Park the shard's pump on a first request (it waits for the worker
    lock we hold), so requests submitted inside the block queue up and
    are drained as one gulp when the block exits."""
    with shard._io_lock:
        first = server.submit(pid, row)
        deadline = time.monotonic() + 5.0
        while shard._queue and time.monotonic() < deadline:
            time.sleep(0.005)
        yield
    first.value()


def _resolved(ticket, timeout=10.0):
    assert ticket.ready.wait(timeout), "ticket stranded: the pump died"
    return ticket


def test_malformed_worker_reply_fails_the_batch_not_the_pump(served):
    platform, pid, x = served
    with ProcessShardedModelServer(platform, workers=1) as server:
        want = server.classify(pid, x[0])  # spawn + load the model
        shard = server.shard_for(pid, "int8", "eon")
        shard._handle.request = lambda *args, **kwargs: ({}, [])
        ticket = _resolved(server.submit(pid, x[0]))
        with pytest.raises(ServingError):
            ticket.value()
        del shard._handle.request  # back to the real round trip
        assert server.classify(pid, x[0]) == want
        assert server.snapshot()["batch_errors"] == 1


def test_process_short_reply_fails_every_ticket_of_the_batch(served):
    platform, pid, x = served
    with ProcessShardedModelServer(platform, workers=1) as server:
        server.classify(pid, x[0])
        shard = server.shard_for(pid, "int8", "eon")
        handle = shard._handle
        real_request = handle.request

        def one_row_reply(method, params=None, blobs=(), timeout=None):
            result, out = real_request(method, params, blobs, timeout=timeout)
            if method != "classify":
                return result, out
            spec, blob = pack_array(unpack_array(result["probs"], out[0])[:1])
            return {"probs": spec}, (blob,)

        handle.request = one_row_reply
        with held_pump(shard, server, pid, x[0]):
            tickets = [server.submit(pid, row) for row in x[:3]]
        for ticket in tickets:
            with pytest.raises(ServingError, match=r"got 1 result\(s\)"):
                _resolved(ticket).value()
        del handle.request
        assert server.classify(pid, x[0])["top"] in ("a", "b", "c")


def test_process_max_batch_chunks_a_gulp(served):
    platform, pid, x = served
    with ProcessShardedModelServer(platform, workers=1, max_batch=2) as server:
        want = [server.classify(pid, row) for row in x[:5]]
        shard = server.shard_for(pid, "int8", "eon")
        before = shard.counters()
        with held_pump(shard, server, pid, x[0]):
            tickets = [server.submit(pid, row) for row in x[:5]]
        assert [_resolved(t).value() for t in tickets] == want
        after = shard.counters()
        assert after["largest_batch"] <= 2
        # The parked request ran alone, then one gulp of five -> 2+2+1.
        assert after["batches"] - before["batches"] == 1 + 3
        assert after["drains"] - before["drains"] == 2


@pytest.mark.parametrize("cls", [ShardedModelServer, ProcessShardedModelServer])
def test_sharded_tiers_reject_a_non_positive_max_batch(served, cls):
    platform, _, _ = served
    with pytest.raises(ValueError, match="max_batch"):
        cls(platform, workers=1, max_batch=0)


def test_both_shard_tiers_serve_one_stats_shape(tiny_graphs,
                                                tiny_classification_problem):
    x, _ = tiny_classification_problem
    shapes = {}
    for backend in ("thread", "process"):
        platform = Platform(serving_workers=2, serving_backend=backend)
        platform.register_user("alice")
        project = platform.create_project("stats", owner="alice")
        project.float_graph, project.int8_graph = tiny_graphs
        project.label_map = {"a": 0, "b": 1, "c": 2}
        try:
            platform.serving.classify_batch(project.project_id, list(x[:3]))
            snap = platform.serving.snapshot()
        finally:
            platform.serving.close()
        assert snap["backend"] == backend
        assert snap["requests"] == snap["batched_requests"] == 3
        assert snap["cache_misses"] == 1 and snap["cache_hits"] == 2
        assert snap["restarts"] == 0
        shapes[backend] = set(snap)
    assert shapes["thread"] == shapes["process"]
