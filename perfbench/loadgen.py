"""Open-loop load generation and latency accounting.

Independent users make an open loop: each request has a due time taken
from a seeded Poisson schedule, and is sent at that time whether or not
earlier requests have finished.  Latency is timed from the due time, so a
stall that delays the sender is charged to every request it delays; how
late the sender ran is reported separately as generator lateness.

Two senders are provided:

- :func:`run_async` — one sender thread submits and one collector thread
  waits for results, for callers with a submit/wait interface;
- :func:`run_sync` — a pool of sender threads makes blocking calls.

:func:`run_saturated` keeps a fixed number of requests outstanding
instead (a closed loop), which measures capacity.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np


def poisson_schedule(rate_per_s: float, duration_s: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the phase start) of a Poisson arrival
    process at ``rate_per_s`` over ``duration_s``, conditioned on its
    expected count: ``round(rate * duration)`` arrivals placed uniformly
    at random, which is a Poisson process given its count.  Fixing the
    count keeps request totals, and so throughput, free of count noise."""
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    n = max(1, round(rate_per_s * duration_s))
    return np.sort(rng.uniform(0.0, duration_s, n))


def is_ok(status) -> bool:
    """A request succeeded iff it returned a 2xx status; refusals (429),
    server errors (5xx) and exceptions (``None``) are failures."""
    return isinstance(status, int) and 200 <= status < 300


@dataclass
class Outcomes:
    """Per-request timestamps (``perf_counter`` seconds) and results.
    Row ``i`` of the four lists is one request; :meth:`add` is safe to
    call from several sender threads."""

    due: list = field(default_factory=list)
    sent: list = field(default_factory=list)
    done: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                  compare=False)

    def add(self, due: float, sent: float, done: float, ok: bool) -> None:
        with self._lock:
            self.due.append(due)
            self.sent.append(sent)
            self.done.append(done)
            self.ok.append(bool(ok))

    def extend(self, other: "Outcomes") -> None:
        for name in ("due", "sent", "done", "ok"):
            getattr(self, name).extend(getattr(other, name))

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.attempted - int(sum(self.ok))

    def fail_frac(self) -> float:
        """Share of requests that failed or were refused."""
        return self.failed / self.attempted if self.attempted else 0.0

    def latencies_ms(self) -> np.ndarray:
        """Latency of each successful request, timed from its due time."""
        ok = np.asarray(self.ok, dtype=bool)
        return (np.asarray(self.done)[ok] - np.asarray(self.due)[ok]) * 1e3

    def lateness_ms(self) -> np.ndarray:
        """How late the sender issued each request."""
        return (np.asarray(self.sent) - np.asarray(self.due)) * 1e3


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def run_sync(schedule: np.ndarray, call, threads: int = 1) -> Outcomes:
    """Blocking calls from a pool of ``threads`` sender threads: each
    takes the next request in schedule order, sleeps until it is due and
    makes the call ``call(i)``, which returns a status (or raises).  A
    request waits for a sender only when ``threads`` are already busy,
    and that wait counts as lateness."""
    out = Outcomes()
    start = time.perf_counter() + 0.01
    claim = threading.Lock()
    cursor = iter(range(len(schedule)))

    def sender() -> None:
        while True:
            with claim:
                i = next(cursor, None)
            if i is None:
                return
            due = start + schedule[i]
            _sleep_until(due)
            sent = time.perf_counter()
            try:
                ok = is_ok(call(i))
            except Exception:  # noqa: BLE001 - a raised request is a failure
                ok = False
            out.add(due, sent, time.perf_counter(), ok)

    pool = [threading.Thread(target=sender, name=f"sender-{k}") for k in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return out


def run_async(schedule: np.ndarray, submit, wait) -> Outcomes:
    """One sender thread submits each request when due (``submit(i)``
    returns a handle or raises); one collector thread calls
    ``wait(i, handle)``, which returns truthy on success or raises."""
    out = Outcomes()
    inbox: queue.Queue = queue.Queue()
    start = time.perf_counter() + 0.01

    def sender() -> None:
        for i, offset in enumerate(schedule):
            due = start + offset
            _sleep_until(due)
            sent = time.perf_counter()
            try:
                handle = submit(i)
            except Exception:  # noqa: BLE001 - refused at admission
                inbox.put((i, due, sent, None, False))
                continue
            inbox.put((i, due, sent, handle, True))
        inbox.put(None)

    def collector() -> None:
        while (item := inbox.get()) is not None:
            i, due, sent, handle, admitted = item
            ok = False
            if admitted:
                try:
                    ok = bool(wait(i, handle))
                except Exception:  # noqa: BLE001 - failed request
                    ok = False
            out.add(due, sent, time.perf_counter(), ok)

    threads = [threading.Thread(target=sender, name="sender"),
               threading.Thread(target=collector, name="collector")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def run_saturated(outstanding: int, duration_s: float, submit, wait
                  ) -> tuple[Outcomes, float]:
    """Keep ``outstanding`` requests in flight for ``duration_s``; returns
    the outcomes (due = sent) and the rate of successful completions
    from the phase start to the last one that arrived within the phase
    (batches complete together, so a fixed divisor would quantize it)."""
    out = Outcomes()
    slots = threading.Semaphore(outstanding)
    inbox: queue.Queue = queue.Queue()
    start = time.perf_counter()
    stop_at = start + duration_s

    def sender() -> None:
        i = 0
        while True:
            slots.acquire()
            if time.perf_counter() >= stop_at:
                break
            sent = time.perf_counter()
            try:
                inbox.put((i, sent, submit(i), True))
            except Exception:  # noqa: BLE001 - refused at admission
                inbox.put((i, sent, None, False))
            i += 1
        inbox.put(None)

    def collector() -> None:
        while (item := inbox.get()) is not None:
            i, sent, handle, admitted = item
            ok = False
            if admitted:
                try:
                    ok = bool(wait(i, handle))
                except Exception:  # noqa: BLE001 - failed request
                    ok = False
            out.add(sent, sent, time.perf_counter(), ok)
            slots.release()

    threads = [threading.Thread(target=sender, name="sat-sender"),
               threading.Thread(target=collector, name="sat-collector")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done = np.asarray(out.done)[np.asarray(out.ok, dtype=bool)]
    done = done[done <= stop_at]
    return out, (len(done) / (done.max() - start) if len(done) else 0.0)
