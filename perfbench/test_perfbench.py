"""Tests of the benchmark harness itself (no platform code is run)."""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

import run
from layers import KERNEL_FAMILIES, PER_LAYER, kernel_family, layer_metrics
from loadgen import Outcomes, poisson_schedule, run_async, run_sync
from result import Phase
from spans import Span, Tracer, self_times

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_poisson_schedule_is_deterministic_for_a_seed():
    a = poisson_schedule(200.0, 5.0, np.random.default_rng(7))
    b = poisson_schedule(200.0, 5.0, np.random.default_rng(7))
    c = poisson_schedule(200.0, 5.0, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a[:10], c[:10])
    assert np.all(np.diff(a) >= 0) and a[0] >= 0 and a[-1] < 5.0
    assert len(a) == len(c) == 1000
    gaps = np.diff(a)
    assert gaps.mean() == pytest.approx(1 / 200.0, rel=0.1)
    assert gaps.std() == pytest.approx(gaps.mean(), rel=0.15)  # exponential gaps


def test_latency_is_timed_from_due_time_not_send_time():
    # Request 0 stalls the only sender for 150 ms; request 1 was due at
    # 10 ms, so it is sent ~140 ms late and its latency includes that wait.
    def call(i):
        if i == 0:
            time.sleep(0.15)
        return 200

    out = run_sync(np.array([0.0, 0.01]), call)
    lat = out.latencies_ms()
    assert lat[1] >= 130.0
    assert out.lateness_ms()[1] >= 130.0
    assert out.done[1] - out.sent[1] < 0.05  # its own call was instant


def test_sender_pool_keeps_the_loop_open():
    # With two senders, request 1 does not wait behind the stalled request 0.
    def call(i):
        if i == 0:
            time.sleep(0.15)
        return 200

    out = run_sync(np.array([0.0, 0.01]), call, threads=2)
    by_due = np.argsort(out.due)
    assert out.latencies_ms()[by_due[1]] < 50.0


def test_async_sender_times_from_due_time():
    def submit(i):
        return i

    def wait(i, handle):
        if i == 0:
            time.sleep(0.15)
        return True

    out = run_async(np.array([0.0, 0.01]), submit, wait)
    # The collector is stuck on request 0, so request 1 completes late.
    assert out.latencies_ms()[1] >= 130.0
    assert out.lateness_ms()[1] < 50.0


def test_fail_frac_counts_refused_and_failed_requests():
    statuses = [200, 429, 201, 503, 500, 200]

    def call(i):
        if i == 5:
            raise RuntimeError("connection reset")
        return statuses[i]

    out = run_sync(np.zeros(6), call, threads=3)
    assert out.attempted == 6 and out.failed == 4
    assert out.fail_frac() == pytest.approx(4 / 6)
    phase = Phase.from_requests(out, out.attempted, out.failed)
    assert phase.metrics["ok_frac"] == pytest.approx(2 / 6)
    assert phase.samples["p50_ms"] == 2  # latencies cover successes only


def test_sender_pool_rows_stay_paired():
    # Each call's status encodes its request: only odd requests fail, so a
    # row that paired one request's due time with another's result would
    # show as a failure with an even due offset.
    schedule = np.linspace(0.0, 0.05, 400)

    def call(i):
        return 200 if i % 2 == 0 else 500

    out = run_sync(schedule, call, threads=8)
    start = min(out.due)
    for due, ok in zip(out.due, out.ok):
        i = int(round((due - start) / (0.05 / 399)))
        assert ok == (i % 2 == 0)


def test_kernel_time_counts_only_plan_executes():
    tracer = Tracer()
    tracer.spans.extend([
        Span(1, "runtime.execute", 0.0, 0.010, None, None, {"bs": 1}),
        Span(2, "kernel.conv2d_i8", 0.001, 0.004, 1, None, None),
        Span(3, "harness.reference", 1.0, 2.0, None, None, None),
        Span(4, "kernel.conv2d_i8", 1.0, 1.5, 3, None, None),  # not serving work
    ])
    m = layer_metrics(tracer, {})
    assert m["runtime.kernel.conv2d_i8_ms"] == pytest.approx(3.0)
    assert m["runtime.execute_ms.bs1"] == pytest.approx(10.0)


def test_blocks_report_the_median_block():
    def block(latency_ms, rate, ok=True):
        o = Outcomes()
        for k in range(5):
            o.add(k, k, k + latency_ms / 1e3, ok)
        sat = Outcomes()
        sat.add(0.0, 0.0, 0.001, True)
        return o, sat, rate

    # One stalled block moves neither median.
    phase = Phase.from_blocks([block(2.0, 400.0), block(90.0, 50.0), block(3.0, 380.0)])
    assert phase.metrics["p50_ms"] == pytest.approx(3.0)
    assert phase.metrics["throughput_per_s"] == pytest.approx(380.0)
    assert phase.samples["p50_ms"] == 15 and phase.attempted == 18
    refused = Phase.from_blocks([block(2.0, 400.0), block(2.0, 400.0, ok=False)])
    assert refused.metrics["ok_frac"] == pytest.approx(7 / 12)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, None, None),
        Span(2, "a", 1.0, 3.0, 1, None, None),
        Span(3, "b", 2.0, 5.0, 1, None, None),    # overlaps a: counted once
        Span(4, "c", 8.0, 12.0, 1, None, None),   # clipped to the parent's end
        Span(5, "grandchild", 1.5, 2.5, 2, None, None),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st[2] == pytest.approx(2.0 - 1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[5] == pytest.approx(1.0)


def test_tracer_records_parent_and_request_id():
    tracer = Tracer()
    tracer.set_request("r1")
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    inner, outer = tracer.spans
    assert inner.name == "inner" and inner.parent == outer.sid
    assert outer.parent is None and {inner.rid, outer.rid} == {"r1"}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_kernel_family_names():
    assert kernel_family("dwconv2d_i8_prepared") == "dwconv2d_i8"
    assert kernel_family("fc_i8_gemm") == "fc_i8"
    assert kernel_family("softmax_f32") == "softmax_f32"
    assert kernel_family("multiply_by_quantized_multiplier") is None
    assert len(set(KERNEL_FAMILIES)) == len(KERNEL_FAMILIES)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads())
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
