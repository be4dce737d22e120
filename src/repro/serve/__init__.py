"""Model serving: compiled-model caches + batched classification.

The hosted platform serves inference for thousands of projects behind a
REST API; this package is that tier, in three shapes over one core:

- :class:`ModelServer` compiles each (project, precision, engine) once
  into a plan-backed model, caches it LRU-style, and coalesces
  concurrent direct callers into batched invokes via
  :class:`MicroBatcher`;
- :class:`ShardedModelServer` partitions that cache across N shards by a
  stable crc32 of the model key; each shard's pump thread drains its
  queue in gulps and runs one batched invoke per model and
  ``max_batch`` chunk;
- :class:`ProcessShardedModelServer` is the sharded server with a
  worker-process executor: each shard sends its batches to a
  :mod:`repro.core.workers` process, so invokes run on real cores.

Admission (:func:`repro.serve.server.served_graph`,
:func:`~repro.serve.server.coerce_features`), result shaping and
telemetry are shared module-level helpers, so every tier raises the same
errors and returns the same rows.  ``Platform(serving_workers=N,
serving_backend=...)`` picks the tier; it is reached over
``POST /v1/projects/<pid>/classify`` and ``GET /v1/serving/stats``
(:mod:`repro.api.resources.serving`, with legacy ``/api`` twins) and the
``classify`` / ``serve`` CLI commands.
"""

from repro.serve.batcher import MicroBatcher, PendingResult
from repro.serve.process import ProcessShardedModelServer
from repro.serve.server import (
    ModelNotTrainedError,
    ModelServer,
    ServingError,
    ServingStats,
)
from repro.serve.shard import ShardedModelServer

__all__ = [
    "MicroBatcher",
    "PendingResult",
    "ModelServer",
    "ProcessShardedModelServer",
    "ServingError",
    "ModelNotTrainedError",
    "ServingStats",
    "ShardedModelServer",
]
