"""Acceptance micro-benchmark for the fused cross-layer campaign step.

The workload the fused block was built for: one campaign step — a
*cold* full-model TopNMapper search over every ResNet18 layer — with
the per-layer batch kernels (the PR 2 fast path) as the reference.  The
fused path must (a) produce bit-identical ``MappingResult``s on every
layer and (b) finish the step at least 3x faster (measured ~4x: the
per-layer kernel invocations collapse into a handful of whole-campaign
array passes, and candidate generation is memoized in tuple domain).

Both runs execute serially in this process, so the numbers are
reproducible run to run.
"""

from __future__ import annotations

import time

from repro.arch import config_from_point
from repro.cost.fused import search_layers_fused
from repro.mapping.mapper import TopNMapper

TOP_N = 150
REPS = 3
MIN_SPEEDUP = 3.0


def _timed_batch_sweep(workload, config):
    """Best-of-REPS per-layer batch search (fresh mapper per rep)."""
    best_seconds = float("inf")
    results = None
    for _ in range(REPS):
        mapper = TopNMapper(top_n=TOP_N, batch_eval=True)
        start = time.perf_counter()
        run = [mapper(layer, config) for layer in workload.layers]
        elapsed = time.perf_counter() - start
        if elapsed < best_seconds:
            best_seconds, results = elapsed, run
    return best_seconds, results


def _timed_fused_sweep(workload, config):
    """Best-of-REPS fused cross-layer search (fresh mapper per rep)."""
    best_seconds = float("inf")
    results = None
    for _ in range(REPS):
        mapper = TopNMapper(top_n=TOP_N, batch_eval=True)
        start = time.perf_counter()
        fused, remaining = search_layers_fused(
            mapper, list(workload.layers), config
        )
        elapsed = time.perf_counter() - start
        assert remaining == []
        if elapsed < best_seconds:
            best_seconds = elapsed
            results = [result for _layer, result in fused]
    return best_seconds, results


def test_fused_campaign_speedup_resnet18(resnet18_workload, mid_point):
    config = config_from_point(mid_point)

    batch_seconds, batch_results = _timed_batch_sweep(
        resnet18_workload, config
    )
    fused_seconds, fused_results = _timed_fused_sweep(
        resnet18_workload, config
    )

    # Correctness first: the fusion must be invisible in the results.
    for a, b in zip(batch_results, fused_results):
        assert a.mapping == b.mapping
        assert a.execution == b.execution
        assert a.candidates_evaluated == b.candidates_evaluated
        assert a.feasible_candidates == b.feasible_candidates

    speedup = batch_seconds / fused_seconds
    print(
        f"\nbatch {batch_seconds * 1e3:.1f}ms, "
        f"fused {fused_seconds * 1e3:.1f}ms -> {speedup:.1f}x speedup "
        f"({len(resnet18_workload.layers)} layers, top_n={TOP_N})"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fused campaign-step speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x acceptance floor (batch {batch_seconds:.3f}s, "
        f"fused {fused_seconds:.3f}s)"
    )
