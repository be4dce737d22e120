"""One measured phase's end-to-end numbers, with their sample counts."""

from __future__ import annotations

import pathlib
import statistics
from dataclasses import dataclass, field

from loadgen import Outcomes, percentile

#: Where runs write their result records, spans and scratch state.
OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / ".bench_out"


@dataclass
class Phase:
    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    lateness_p99_ms: float = 0.0
    #: The number the tracing overhead is computed on.
    primary: float = 0.0
    #: Workload-specific numbers printed beside the metrics.
    extra: dict = field(default_factory=dict)

    def set(self, name: str, value: float, n: int) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(n)

    @classmethod
    def from_requests(cls, timed: Outcomes, attempted: int, failed: int) -> "Phase":
        """p50/p99 latency from due time over the ``timed`` requests (a
        workload's open loop, or one route's calls); ``ok_frac`` over
        every request the workload attempted."""
        lat = timed.latencies_ms()
        phase = cls(attempted=attempted, failed=failed,
                    lateness_p99_ms=percentile(timed.lateness_ms(), 99))
        phase.set("p50_ms", percentile(lat, 50), len(lat))
        phase.set("p99_ms", percentile(lat, 99), len(lat))
        phase.set("ok_frac", 1.0 - failed / attempted if attempted else 0.0, attempted)
        return phase

    @classmethod
    def from_blocks(cls, blocks: list[tuple[Outcomes, Outcomes, float]]) -> "Phase":
        """A run made of blocks, each given as ``(timed, untimed, rate)``:
        the timed requests (an open loop) give the latencies, the untimed
        ones (a saturation stretch) count only toward ``ok_frac``, and
        ``rate`` is the block's throughput.  ``p50_ms`` and
        ``throughput_per_s`` are medians of the per-block values, so a host
        stall over part of a run moves them less than it would one long
        phase; ``p99_ms`` pools every timed request and ``ok_frac`` covers
        every request."""
        timed, every = Outcomes(), Outcomes()
        for t, untimed, _ in blocks:
            timed.extend(t)
            every.extend(t)
            every.extend(untimed)
        phase = cls.from_requests(timed, every.attempted, every.failed)
        phase.set("p50_ms", statistics.median(
            percentile(t.latencies_ms(), 50) for t, _, _ in blocks), phase.samples["p50_ms"])
        phase.set("throughput_per_s", statistics.median(rate for _, _, rate in blocks),
                  sum(t.attempted + u.attempted for t, u, _ in blocks))
        phase.primary = phase.metrics["p50_ms"]
        return phase
