"""serve-kws: one hot, kernel-bound model on the threaded sharded tier.

The paper-scale keyword-spotting DS-CNN (int8, 49x10 MFCC input) is
served by ``Platform(serving_workers=2)``.  A sender thread submits
windows through ``serving.submit`` on an open-loop Poisson schedule at
``RATE_PER_S`` while a collector thread waits for results; bursts in the
schedule are what the shard's micro-batching coalesces.  A saturation
stretch then keeps ``OUTSTANDING`` requests in flight to measure
capacity.  The run alternates the two in ``BLOCKS`` blocks and reports
the median block (:meth:`result.Phase.from_blocks`).
"""

from __future__ import annotations

import numpy as np

from loadgen import poisson_schedule, run_async, run_saturated
from result import Phase
from spans import recording

#: Offered rate of the open-loop stretches (requests/s): about a quarter of
#: one shard's single-request capacity, so p50 reads the service path
#: rather than queueing, which on 2 vCPUs amplifies run-to-run noise.
RATE_PER_S = 50.0
#: Requests kept in flight during the saturation stretches (= max_batch).
OUTSTANDING = 32
#: The measured time is split into BLOCKS blocks, each an open-loop
#: stretch (OPEN_SHARE of it) and then a saturation stretch.
BLOCKS = 10
OPEN_SHARE = 0.7
#: Every CHECK_EVERY-th request's result is compared with the reference.
CHECK_EVERY = 25
POOL = 64


class ServeKws:
    name = "serve-kws"
    setup_repeats = 5
    offered_rate = f"{RATE_PER_S:g}/s open loop, then {OUTSTANDING} outstanding"

    def __init__(self, seed: int):
        from repro.experiments.tasks import paper_scale_graphs

        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        spec = paper_scale_graphs("kws")
        self.shape = tuple(spec.int8_graph.tensors[spec.int8_graph.input_id].shape)
        self.windows = rng.standard_normal((POOL,) + self.shape).astype(np.float32)
        self.schedule_rng = np.random.default_rng([seed, 2])
        self.labels = [f"kw{i}" for i in range(12)]
        self.platform = None
        self.errors: list[str] = []

    def setup(self) -> None:
        """A fresh platform with the model deployed and warmed.  The
        graph is rehydrated from its serialized blob (as a serving node
        would receive it), so every set-up compiles from scratch."""
        from repro.core.registry import Platform
        from repro.experiments.tasks import paper_scale_graphs
        from repro.graph.serialize import graph_from_bytes, graph_to_bytes

        spec = paper_scale_graphs("kws")
        platform = Platform(serving_workers=2)
        platform.register_user("kws-owner")
        project = platform.create_project("kws", owner="kws-owner")
        project.label_map = {label: i for i, label in enumerate(self.labels)}
        project.int8_graph = graph_from_bytes(graph_to_bytes(spec.int8_graph))
        project.float_graph = graph_from_bytes(graph_to_bytes(spec.float_graph))
        self.platform, self.pid = platform, project.project_id
        self._warm_plans()

    def _warm_plans(self) -> None:
        """Compile the served model's plans for batch sizes 1..16.  Plans
        are specialized per batch size and a model keeps 16, so the
        saturation stretches' larger batches evict them; re-warming before
        each open loop keeps one phase's evictions out of the next."""
        model = self.platform.serving.get_model(self.pid, "int8").model
        for size in range(16, 0, -1):
            model.predict_proba(self.windows[:size])

    def measure(self, seconds: float, tracer=None) -> Phase:
        checked: list[tuple[int, dict]] = []
        blocks = []
        block_s = seconds / BLOCKS
        for b in range(BLOCKS):
            self._warm_plans()
            schedule = poisson_schedule(RATE_PER_S, block_s * OPEN_SHARE, self.schedule_rng)
            with recording(tracer):
                opened = run_async(schedule, self._submit(tracer, (b, "open")),
                                   self._collect(checked))
                saturated, rate = run_saturated(
                    OUTSTANDING, block_s * (1 - OPEN_SHARE),
                    self._submit(tracer, (b, "sat")), self._collect(checked))
            blocks.append((opened, saturated, rate))
        self._check(checked)
        return Phase.from_blocks(blocks)

    def _submit(self, tracer, tag):
        def submit(i: int):
            if tracer is not None:
                tracer.set_request((*tag, i))
            return self.platform.serving.submit(self.pid, self.windows[i % POOL], "int8")
        return submit

    @staticmethod
    def _collect(checked: list):
        def wait(i, ticket):
            result = ticket.value()
            if i % CHECK_EVERY == 0:
                checked.append((i, result))
            return True
        return wait

    def _check(self, checked: list[tuple[int, dict]]) -> None:
        """int8 results must be bit-identical to the reference dispatch
        path on the same window."""
        from repro.runtime.executor import dequantize_output, run_graph_dispatch

        graph = self.platform.projects[self.pid].int8_graph
        for i, result in checked:
            x = self.windows[i % POOL][None]
            ref = dequantize_output(graph, run_graph_dispatch(graph, x))[0]
            got = np.array([result["classification"][l] for l in self.labels])
            if not np.array_equal(got, ref.astype(np.float64)):
                self.errors.append(f"serve-kws request {i}: int8 result differs from reference")
        if not checked:
            self.errors.append("serve-kws: no results were checked")

    def teardown(self) -> None:
        if self.platform is not None:
            self.platform.serving.close()
            self.platform = None
