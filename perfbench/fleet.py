"""serve-fleet: many small tenants, overhead-bound.

``N_TENANTS`` projects, each owned by its own user and API token, serve
tiny conv1d, DS-CNN and MLP models on the process tier
(``Platform(serving_workers=2, serving_backend="process")``).  Every
request goes through ``ApiGateway.handle("POST",
"/v1/projects/{pid}/classify")`` with its tenant's token.  Project
popularity is Zipf-distributed, half the tenants serve int8 and half
float32, and the 48 models exceed the tier's 16 admission entries, so
the measured phase sees model reloads.  A Poisson open loop runs at
``RATE_PER_S`` from a pool of ``SENDERS`` threads; the
busiest tenant stays well under the gateway's per-user rate limit (100
requests/s).  The open loop runs in ``BLOCKS`` blocks and the run
reports the median block (:meth:`result.Phase.from_blocks`);
``throughput_per_s`` is the goodput at the offered rate, which falls only
when requests fail or the tier falls behind the schedule.
"""

from __future__ import annotations

import numpy as np

from loadgen import Outcomes, poisson_schedule, run_sync
from result import Phase
from spans import recording

N_TENANTS = 48
RATE_PER_S = 100.0
#: Sender threads.  Calls block, so with too few senders one slow request
#: delays the ones due after it and the open loop closes; with 2 the
#: generator ran 10-36 ms late at p99.
SENDERS = 8
#: The open loop runs as BLOCKS consecutive blocks, and the run reports
#: the median block.
BLOCKS = 10
#: Tenant i is the (i+1)-th most popular, so model kinds and precisions
#: interleave down the ranking.  At s=1.5 the busiest tenant gets ~43% of
#: requests (43/s) and the 16 most popular ~90%, so the median request is
#: a model-cache hit while the tail still pays reloads; with the median
#: between the hit and reload modes it moved 30-50% from run to run.
ZIPF_S = 1.5
#: Every CHECK_EVERY-th request is compared with the reference.
CHECK_EVERY = 20
ROWS_PER_TENANT = 4
LABELS = ["a", "b", "c", "d"]


def _precision(tenant: int) -> str:
    return "int8" if tenant % 2 == 0 else "float32"


def _tenant_model(i: int):
    """(input shape, Sequential) of tenant ``i``: a small conv1d, DS-CNN or MLP."""
    from repro.nn.architectures import conv1d_stack, ds_cnn, mlp

    kind = i % 3
    if kind == 0:
        shape = (32 + 8 * (i % 4), 6)
        return shape, conv1d_stack(shape, len(LABELS), n_layers=2, first_filters=8,
                                   last_filters=16, seed=i)
    if kind == 1:
        shape = (16, 8 + 2 * (i % 3))
        return shape, ds_cnn(shape, len(LABELS), filters=8, n_blocks=2, seed=i)
    shape = (48 + 16 * (i % 4),)
    return shape, mlp(shape, len(LABELS), hidden=(32, 16), seed=i)


class ServeFleet:
    name = "serve-fleet"
    setup_repeats = 3
    offered_rate = f"{RATE_PER_S:g}/s open loop, {SENDERS} senders, Zipf s={ZIPF_S:g}"

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.shapes = [_tenant_model(i)[0] for i in range(N_TENANTS)]
        self.rows = [
            [rng.standard_normal(int(np.prod(shape))).astype(np.float32)
             for _ in range(ROWS_PER_TENANT)]
            for shape in self.shapes
        ]
        self.bodies = [[row.tolist() for row in rows] for rows in self.rows]
        weights = 1.0 / np.arange(1, N_TENANTS + 1) ** ZIPF_S
        self.popularity = weights / weights.sum()
        self.plan_rng = np.random.default_rng([seed, 2])
        self.platform = None
        self.errors: list[str] = []

    def setup(self) -> None:
        """A fresh process-tier platform with one user, token and project
        per tenant, and the most popular models loaded into the worker
        processes (as many as the tier keeps)."""
        from repro.core.registry import Platform
        from repro.graph.convert import sequential_to_graph
        from repro.quantize import quantize_graph

        rng = np.random.default_rng([self.seed, 3])
        platform = Platform(serving_workers=2, serving_backend="process")
        self.platform = platform
        self.tenants = []
        for i, shape in enumerate(self.shapes):
            user = f"tenant{i}"
            platform.register_user(user)
            token = platform.issue_token(user)
            project = platform.create_project(f"fleet-{i}", owner=user)
            _, model = _tenant_model(i)
            graph = sequential_to_graph(model, name=f"fleet-{i}")
            calib = rng.standard_normal((8,) + shape).astype(np.float32)
            project.label_map = {label: j for j, label in enumerate(LABELS)}
            project.float_graph = graph
            project.int8_graph = quantize_graph(graph, calib)
            self.tenants.append((project.project_id, token))
        serving = platform.serving
        resident = serving.cache_size * serving.workers
        for tenant in reversed(range(resident)):
            serving.get_model(self.tenants[tenant][0], _precision(tenant))

    def _plan(self, n: int) -> dict:
        return {
            "tenant": self.plan_rng.choice(N_TENANTS, n, p=self.popularity),
            "row": self.plan_rng.integers(ROWS_PER_TENANT, size=n),
        }

    def _classify(self, i: int, tenant: int, row: int, checked: list, tracer):
        precision = _precision(tenant)
        pid, token = self.tenants[tenant]
        if tracer is not None:
            tracer.set_request(i)
        resp = self.platform.gateway.handle(
            "POST", f"/v1/projects/{pid}/classify",
            {"features": self.bodies[tenant][row], "precision": precision},
            token=token,
        )
        if i % CHECK_EVERY == 0 and resp["status"] == 200:
            checked.append((tenant, precision, row, resp["data"]))
        return resp["status"]

    def measure(self, seconds: float, tracer=None) -> Phase:
        checked: list[tuple[int, str, int, dict]] = []
        blocks = []
        sent = 0
        for _ in range(BLOCKS):
            schedule = poisson_schedule(RATE_PER_S, seconds / BLOCKS, self.plan_rng)
            plan = self._plan(len(schedule))
            base = sent

            def call(i: int):
                return self._classify(base + i, int(plan["tenant"][i]),
                                      int(plan["row"][i]), checked, tracer)

            with recording(tracer):
                opened = run_sync(schedule, call, SENDERS)
            goodput = sum(opened.ok) / (max(opened.done) - min(opened.due))
            blocks.append((opened, Outcomes(), goodput))
            sent += opened.attempted
        self._check(checked)
        return Phase.from_blocks(blocks)

    def _check(self, checked) -> None:
        """int8 results bit-identical to the reference dispatch path,
        float32 results within rtol 1e-5 of it."""
        from repro.runtime.executor import dequantize_output, run_graph_dispatch

        for tenant, precision, row, data in checked:
            project = self.platform.projects[self.tenants[tenant][0]]
            graph = project.int8_graph if precision == "int8" else project.float_graph
            x = self.rows[tenant][row].reshape((1,) + self.shapes[tenant])
            ref = dequantize_output(graph, run_graph_dispatch(graph, x))[0]
            got = np.array([data["classification"][l] for l in LABELS])
            same = (np.array_equal(got, ref.astype(np.float64)) if precision == "int8"
                    else np.allclose(got, ref, rtol=1e-5))
            if not same:
                self.errors.append(
                    f"serve-fleet tenant {tenant} {precision}: result differs from reference")
        if not checked:
            self.errors.append("serve-fleet: no results were checked")

    def teardown(self) -> None:
        if self.platform is not None:
            self.platform.serving.close()
            self.platform = None
