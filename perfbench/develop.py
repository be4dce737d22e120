"""develop: the developer design cycle, entirely through the v1 API.

On a durable platform (``Platform(state_dir=...)``, control-plane writes
journaled through the WAL) each cycle creates a user, token and project,
uploads a seeded synthetic keyword dataset as WAV, sets an MFE + conv1d
impulse, runs a thread-placed EON Tuner search with ``max_inflight =
nproc``, applies rank 1, trains, runs an int8 test, profiles and deploys
to C++.  Cycles repeat until the measured time is spent.

Before any set-up, one cycle runs on a fresh state directory and the
platform shuts down gracefully (``Platform.flush``); this also pays lazy
imports and first-use allocation before anything is timed.  Each set-up
is a restart over that developer's own earlier work: it reopens the
state directory (snapshot + WAL recovery) and loads the project, as the
developer's first request after a restart would.  The measured platform
is the last one opened.

``p50_ms`` and ``p99_ms`` are the latencies of the cycle's uploads
(``POST /v1/projects/{pid}/data``, the route it calls most, through auth,
ingestion and the WAL); ``throughput_per_s`` is tuner trials per second.
Every call must return 2xx, and the tuner's leaderboard for a seed must
be the same in every cycle and in every run (the first run's is kept in
``.bench_out/``).
"""

from __future__ import annotations

import atexit
import base64
import io
import json
import os
import shutil
import statistics
import tempfile
import time

import numpy as np

from loadgen import Outcomes, is_ok
from result import OUT_DIR, Phase
from spans import recording

KEYWORDS = ["yes", "no", "up", "down", "left"]
SAMPLES_PER_KEYWORD = 40
SAMPLE_RATE = 8000
TUNER_EPOCHS = 10
#: The search space has exactly N_TRIALS configurations, so every cycle
#: evaluates the same set whatever the seed.  The models are large enough
#: for BLAS threading to matter: with OPENBLAS_NUM_THREADS=1 this search
#: ran ~35% faster on a 2-vCPU host, which the default must not hide.
TUNER_SPACE = {
    "dsp_templates": [{"type": "mfe", "sample_rate": SAMPLE_RATE,
                       "frame_length": [0.02, 0.04], "frame_stride": [0.02],
                       "n_filters": [32]}],
    "model_templates": [{"architecture": "conv1d_stack", "n_layers": [2, 3],
                         "first_filters": [16], "last_filters": [32, 64]}],
}
N_TRIALS = 8
IMPULSE = {
    "input": {"type": "time-series", "window_size_ms": 1000,
              "window_increase_ms": 1000, "frequency_hz": SAMPLE_RATE, "axes": 1},
    "dsp": [{"type": "mfe", "config": {"sample_rate": SAMPLE_RATE, "n_filters": 16}}],
    "learn": {"type": "classification", "architecture": "conv1d_stack",
              "arch_kwargs": {"n_layers": 2, "first_filters": 8, "last_filters": 16},
              "training": {"epochs": 10, "batch_size": 16,
                           "learning_rate": 3e-3, "seed": 0}},
}
WAIT_S = 120.0


class CycleFailed(Exception):
    pass


class Develop:
    name = "develop"
    setup_repeats = 5
    offered_rate = "closed loop: one design cycle at a time"

    def __init__(self, seed: int):
        from repro.data.synthetic import synthesize_keyword
        from repro.formats.wav import write_wav

        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.uploads = []
        for label in KEYWORDS:
            for i in range(SAMPLES_PER_KEYWORD):
                audio = synthesize_keyword(label, rng, SAMPLE_RATE, 1.0, 12.0)
                buf = io.BytesIO()
                write_wav(buf, audio, SAMPLE_RATE)
                self.uploads.append({
                    "payload_b64": base64.b64encode(buf.getvalue()).decode(),
                    "label": label, "format": "wav",
                    "category": "test" if i % 5 == 0 else "train",
                })
        self.platform = None
        self.last_project: tuple[int, str] | None = None
        self.cycles_run = 0
        self.leaderboard: str | None = None
        self.errors: list[str] = []
        self.state_dir, self.prior = self._earlier_work()

    def _earlier_work(self) -> tuple[str, tuple[int, str]]:
        """Run one cycle on a fresh durable platform and shut it down;
        returns the state directory and the (project id, token) it left."""
        from repro.core.registry import Platform

        OUT_DIR.mkdir(exist_ok=True)
        state_dir = tempfile.mkdtemp(prefix="develop-state-", dir=OUT_DIR)
        atexit.register(shutil.rmtree, state_dir, ignore_errors=True)
        self.platform = Platform(state_dir=state_dir)
        self._run_cycle(Outcomes(), Outcomes())
        prior = self.last_project
        self.platform.flush()
        self.platform = None
        return state_dir, prior

    def setup(self) -> None:
        """Restart: open a durable platform (WAL + snapshot engine) on the
        earlier work's state directory and load its project."""
        from repro.core.registry import Platform

        self.platform = Platform(state_dir=self.state_dir)
        pid, token = self.prior
        resp = self.platform.gateway.handle("GET", f"/v1/projects/{pid}", token=token)
        if not is_ok(resp["status"]):
            self.errors.append(f"develop: reopened project {pid} -> {resp['status']}")

    # -- one design cycle ---------------------------------------------------

    def _cycle(self, calls: Outcomes, uploads: Outcomes, tracer=None) -> dict:
        """Run one design cycle; returns its stage timings.  Every call's
        outcome is added to ``calls``, and each upload's also to
        ``uploads``."""
        gateway = self.platform.gateway
        k = self.cycles_run
        self.cycles_run += 1
        user = f"dev{k}"

        def call(method, path, body=None, record=(), **auth):
            t0 = time.perf_counter()
            resp = gateway.handle(method, path, body, **auth)
            t1 = time.perf_counter()
            for out in (calls, *record):
                out.add(t0, t0, t1, is_ok(resp["status"]))
            if not is_ok(resp["status"]):
                raise CycleFailed(f"{method} {path} -> {resp['status']}: {resp.get('error')}")
            return resp["data"]

        t_cycle = time.perf_counter()
        call("POST", "/v1/users", {"username": user})
        token = call("POST", "/v1/tokens", {}, user=user)["token"]
        pid = call("POST", "/v1/projects", {"name": f"keywords-{k}"}, token=token)["project_id"]
        self.last_project = (pid, token)
        base = f"/v1/projects/{pid}"
        t0 = time.perf_counter()
        for body in self.uploads:
            call("POST", f"{base}/data", body, record=(uploads,), token=token)
        ingest_s = time.perf_counter() - t0
        call("POST", f"{base}/impulse", {"impulse": IMPULSE}, token=token)

        t0 = time.perf_counter()
        job = call("POST", f"{base}/tuner", {
            "n_trials": N_TRIALS, "max_inflight": os.cpu_count() or 1,
            "seed": self.seed, "epochs": TUNER_EPOCHS, "space": TUNER_SPACE,
            "placement": "thread",
        }, token=token)
        status = call("GET", f"{base}/tuner/{job['job_id']}", {"wait_s": WAIT_S}, token=token)
        tuner_s = time.perf_counter() - t0
        result = status.get("result") or {}
        if (status["job_status"] != "succeeded" or not result.get("committed")
                or status["trials_completed"] != status["trials_total"]
                or status["trials_total"] != job["trials_total"]):
            raise CycleFailed(f"tuner did not commit every planned trial: {status['job_status']}, "
                              f"{status['trials_completed']}/{status['trials_total']}")
        self._check_leaderboard(k, json.dumps(status["leaderboard"], sort_keys=True))
        call("POST", f"{base}/tuner/{job['job_id']}/apply", {"rank": 1}, token=token)

        t0 = time.perf_counter()
        train = call("POST", f"{base}/train", {"seed": self.seed}, token=token)
        done = call("GET", f"{base}/jobs/{train['job_id']}", {"wait_s": WAIT_S}, token=token)
        train_s = time.perf_counter() - t0
        if done["job_status"] != "succeeded":
            raise CycleFailed(f"training ended {done['job_status']}")
        call("POST", f"{base}/test", {"precision": "int8"}, token=token)
        call("POST", f"{base}/profile", {}, token=token)
        artifact = call("POST", f"{base}/deploy", {"target": "cpp"}, token=token)["artifact"]
        if not artifact.get("files"):
            raise CycleFailed("deploy produced no files")
        cycle_s = time.perf_counter() - t_cycle

        project = self.platform.projects[pid]
        trials = project.tuners[job["job_id"]].trials
        if tracer is not None:
            for j in project.jobs.list_jobs():
                if j.started_at is not None:
                    tracer.sample("jobs.queue_wait_ms", (j.started_at - j.created_at) * 1e3)
        return {
            "cycle_s": cycle_s, "train_s": train_s, "tuner_s": tuner_s,
            "ingest_samples_per_s": len(self.uploads) / ingest_s,
            "tuner_trials_per_s": len(trials) / tuner_s,
            "trained_ratio": sum(t.trained for t in trials) / len(trials),
        }

    def _check_leaderboard(self, k: int, board: str) -> None:
        """The leaderboard for this seed must match the first cycle's, and
        the one the first run with this seed kept."""
        if self.leaderboard is None:
            kept = OUT_DIR / f"develop-seed{self.seed}.leaderboard.json"
            if not kept.exists():
                kept.write_text(board)
            elif kept.read_text() != board:
                self.errors.append(f"develop seed {self.seed}: leaderboard differs "
                                   f"from the one an earlier run recorded in {kept.name}")
            self.leaderboard = board
        elif board != self.leaderboard:
            self.errors.append(f"develop cycle {k}: leaderboard differs from the first cycle's")

    def _run_cycle(self, calls: Outcomes, uploads: Outcomes, tracer=None) -> dict | None:
        try:
            return self._cycle(calls, uploads, tracer)
        except CycleFailed as exc:
            self.errors.append(f"develop cycle: {exc}")
            return None

    # -- measurement --------------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> Phase:
        calls, uploads = Outcomes(), Outcomes()
        cycles: list[dict] = []
        start = time.perf_counter()
        with recording(tracer):
            while not cycles or time.perf_counter() - start < seconds:
                stats = self._run_cycle(calls, uploads, tracer)
                if stats is None:
                    break
                cycles.append(stats)
        phase = Phase.from_requests(uploads, calls.attempted, calls.failed)
        if not cycles:
            self.errors.append("develop: no design cycle completed")
            phase.set("throughput_per_s", 0.0, 0)
            return phase
        med = {key: statistics.median(c[key] for c in cycles) for key in cycles[0]}
        phase.set("throughput_per_s", med["tuner_trials_per_s"], len(cycles))
        phase.primary = med["cycle_s"]
        phase.extra = {
            "develop.cycles": len(cycles),
            "develop.cycle_s": med["cycle_s"],
            "develop.train_s": med["train_s"],
            "develop.tuner_s": med["tuner_s"],
            "develop.ingest_samples_per_s": med["ingest_samples_per_s"],
            "automl.trained_ratio": med["trained_ratio"],
        }
        return phase

    def teardown(self) -> None:
        self.platform = None
