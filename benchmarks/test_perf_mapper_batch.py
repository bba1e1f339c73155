"""Acceptance micro-benchmark for the vectorized batch candidate scoring.

The workload the kernels were built for: a *cold* full-model TopNMapper
search (every ResNet18 layer, no mapping cache — the case the
layer-level cache cannot help, e.g. the first visit to each design
point of a DSE run).  The batch path must (a) produce bit-identical
``MappingResult``s to the scalar reference on every layer and (b) finish
the sweep at least 3x faster (measured 23-47x on a 2-core x86 host,
290-410 ms vs 8.5-12 ms: the kernels score the whole candidate set in
array passes, and a latency search builds ``Mapping``/``ExecutionInfo``
objects for its winner only).

Every rep of both paths is cold: the top-N plan memo (``_top_n_plan``)
and the plan-stage terms memo (``_top_n_terms``) are cleared before
it.  The warm batch sweep, on the memos a previous rep filled, is
printed beside them with no floor.

Both runs execute serially in this process, so the numbers are
reproducible run to run.
"""

from __future__ import annotations

import time

from repro.arch import config_from_point
from repro.mapping.mapper import TopNMapper, _top_n_plan, _top_n_terms

TOP_N = 150
REPS = 3
MIN_SPEEDUP = 3.0


def _timed_sweep(workload, config, batch_eval, cold=True):
    """Best-of-REPS search over every layer (fresh mapper per rep), cold
    or, with ``cold=False``, on the memos the previous rep left."""
    best_seconds = float("inf")
    results = None
    for _ in range(REPS):
        mapper = TopNMapper(top_n=TOP_N, batch_eval=batch_eval)
        if cold:
            _top_n_plan.cache_clear()
            _top_n_terms.cache_clear()
        start = time.perf_counter()
        run = [mapper(layer, config) for layer in workload.layers]
        elapsed = time.perf_counter() - start
        if elapsed < best_seconds:
            best_seconds, results = elapsed, run
    return best_seconds, results


def test_batch_eval_speedup_resnet18(resnet18_workload, mid_point):
    config = config_from_point(mid_point)

    scalar_seconds, scalar_results = _timed_sweep(
        resnet18_workload, config, batch_eval=False
    )
    batch_seconds, batch_results = _timed_sweep(
        resnet18_workload, config, batch_eval=True
    )
    warm_seconds, warm_results = _timed_sweep(
        resnet18_workload, config, batch_eval=True, cold=False
    )

    # Correctness first: the vectorization must be invisible in the results.
    for a, b, c in zip(scalar_results, batch_results, warm_results):
        for got in (b, c):
            assert a.mapping == got.mapping
            assert a.execution == got.execution
            assert a.candidates_evaluated == got.candidates_evaluated
            assert a.feasible_candidates == got.feasible_candidates

    speedup = scalar_seconds / batch_seconds
    print(
        f"\nscalar {scalar_seconds * 1e3:.1f}ms, "
        f"batch {batch_seconds * 1e3:.1f}ms -> {speedup:.1f}x speedup "
        f"({len(resnet18_workload.layers)} layers, top_n={TOP_N}); "
        f"warm batch {warm_seconds * 1e3:.1f}ms (no floor)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batch candidate scoring speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x acceptance floor (scalar {scalar_seconds:.3f}s, "
        f"batch {batch_seconds:.3f}s)"
    )
