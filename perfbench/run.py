"""Platform benchmark: serving (hot model, multi-tenant fleet) and the
developer design cycle.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-kws --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` instruments every layer, measures an untraced
phase and then a traced phase of ``seconds / 2`` each on the same set-up
system, and reports the per-layer metrics plus the tracing overhead
(traced against untraced primary latency).  Spans are written to
``.bench_out/`` when the run ends.

Every run sets the system up ``setup_repeats`` times (a workload
attribute) and reports the median as ``setup_s``; the last set-up is the one measured.  Human-readable
lines (each metric with its unit and sample count, and the environment)
come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("ok_frac", "ratio"),
    ("throughput_per_s", "1/s"),
)
#: Printed with its sample count but not part of the result line: on a
#: 2-vCPU host its run-to-run spread (0.3-1.4 of the median) is wider
#: than any usable regression bound.
TAIL = ("p99_ms", "ms")

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_program() -> None:
    """Make the checkout's ``src/repro`` importable, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))


def workloads() -> dict:
    from develop import Develop
    from fleet import ServeFleet
    from kws import ServeKws

    return {w.name: w for w in (ServeKws, ServeFleet, Develop)}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})",
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from result import OUT_DIR

    table = workloads()
    if args.workload not in table:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(table)}")
    workload = table[args.workload](args.seed)
    tracer = patcher = None
    if args.trace:
        from layers import instrument
        from spans import Tracer

        tracer = Tracer()
        patcher = instrument(tracer)

    setup_times = []
    try:
        for i in range(workload.setup_repeats):
            if i:
                workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        if tracer is None:
            phase = workload.measure(args.seconds)
        else:
            untraced = workload.measure(args.seconds / 2)
            phase = workload.measure(args.seconds / 2, tracer)
    finally:
        workload.teardown()
        if patcher is not None:
            patcher.restore()

    setup_s = statistics.median(setup_times)
    phase.set("setup_s", setup_s, len(setup_times))
    env = environment()
    env["generator_lateness_p99_ms"] = phase.lateness_p99_ms
    errors = list(workload.errors)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  offered {workload.offered_rate}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    if tracer is None:
        report = {name: (phase.metrics[name], unit) for name, unit in END_TO_END}
        for name, unit in END_TO_END + (TAIL,):
            print(f"{name:>18} {phase.metrics[name]:12.4f} {unit:<6} n={phase.samples[name]}")
    else:
        from layers import PER_LAYER, layer_metrics

        extra = dict(phase.extra)
        extra["trace.overhead_frac"] = phase.primary / untraced.primary - 1.0
        values = layer_metrics(tracer, extra)
        report = {name: (values[name], unit) for name, unit in PER_LAYER}
        print(f"tracing overhead: primary {phase.primary:.4f} traced vs "
              f"{untraced.primary:.4f} untraced ({extra['trace.overhead_frac']:+.1%})")
        for name, unit in PER_LAYER:
            print(f"{name:>38} {values[name]:12.4f} {unit}")
    for key, value in phase.extra.items():
        print(f"{workload.name} {key}: {value:.4f}")
    for err in errors:
        print(f"CHECK FAILED: {err}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "offered_rate": workload.offered_rate,
        "environment": env, "setup_times_s": setup_times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "samples": phase.samples, "extra": phase.extra, "errors": errors,
        "attempted": phase.attempted, "failed": phase.failed,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": not errors,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
