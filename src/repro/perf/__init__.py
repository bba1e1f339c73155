"""Performance layer: layer-level mapping cache, experiment-matrix pool,
and instrumentation.

Independent accelerations of the codesign hot path, all preserving
bit-identical results versus the serial/cold path:

* :mod:`repro.perf.mapping_cache` — a shared (layer, config-signature,
  mapper-signature) cache of exact search results, and a pickle
  warm-start (``REPRO_MAPPING_CACHE_DIR``) so a repeated command re-uses
  the previous process's searches;
* :mod:`repro.perf.parallel` — a ``REPRO_JOBS``-controlled
  process/thread pool abstraction with a serial fallback, used for the
  (technique x model) runs of the experiment matrix;
* :mod:`repro.perf.instrumentation` — per-stage timers and counters so
  speedups are measured, not asserted.

:mod:`repro.perf.knobs` centralizes the validated environment switches
(``REPRO_JOBS``, ``REPRO_FUSED_EVAL``, ``REPRO_TREE_COMPILE``, the
mapping-cache capacity and directory, and the ``REPRO_SERVICE_*``
admission knobs).
See ``docs/performance.md`` for the knobs and measured numbers.
"""

from repro.perf.instrumentation import BatchEvalStats, StageTimers
from repro.perf.knobs import (
    fused_eval_enabled,
    resolve_executor_mode,
    tree_compile_enabled,
)
from repro.perf.mapping_cache import CachingMapper, MappingCache, shared_cache
from repro.perf.parallel import WorkerPool, parallel_map, resolve_jobs
from repro.perf.signature import (
    config_signature,
    layer_signature,
    mapper_signature,
    search_signature,
)

__all__ = [
    "BatchEvalStats",
    "StageTimers",
    "fused_eval_enabled",
    "resolve_executor_mode",
    "tree_compile_enabled",
    "CachingMapper",
    "MappingCache",
    "shared_cache",
    "WorkerPool",
    "parallel_map",
    "resolve_jobs",
    "config_signature",
    "layer_signature",
    "mapper_signature",
    "search_signature",
]
