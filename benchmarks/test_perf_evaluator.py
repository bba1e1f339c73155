"""Acceptance micro-benchmark for the layer-level mapping cache.

The workload: a DSE sweep over off-chip bandwidth (10 Table 1 values)
and PE count (2 values) on ResNet18, 20 design points.  The cold side
is the sweep as a fresh process runs it: the top-N plan and terms memos
are cleared first, and the evaluator fills an empty
:class:`~repro.perf.MappingCache`.  The warm side is a second evaluator
over the same cache sweeping the same points, as a second campaign in
one process or a pickle warm start sees them: every layer search is an
exact hit.  The warm sweep must (a) produce bit-identical
``Evaluation.costs`` on every point and (b) run at least 2x faster.

Both runs execute serially in this process, so the numbers are
reproducible run to run.
"""

from __future__ import annotations

import time

from repro.arch.accelerator import OFFCHIP_BW_VALUES_MBPS
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper, _top_n_plan, _top_n_terms
from repro.perf import MappingCache

#: 2 mapping-relevant x 10 mapping-irrelevant values = 20 design points.
PES_VALUES = (512, 1024)
BW_VALUES = OFFCHIP_BW_VALUES_MBPS[:10]
TOP_N = 60
MIN_SPEEDUP = 2.0


def _sweep_points(base_point):
    points = []
    for pes in PES_VALUES:
        for bw in BW_VALUES:
            point = dict(base_point)
            point["pes"] = pes
            point["offchip_bw_mbps"] = bw
            points.append(point)
    return points


def _timed_sweep(evaluator, points):
    start = time.perf_counter()
    evaluations = [evaluator.evaluate(point) for point in points]
    return time.perf_counter() - start, evaluations


def test_mapping_cache_speedup_resnet18(resnet18_workload, mid_point):
    points = _sweep_points(mid_point)
    assert len(points) == 20

    _top_n_plan.cache_clear()
    _top_n_terms.cache_clear()
    cache = MappingCache()
    cold = CostEvaluator(
        resnet18_workload, TopNMapper(top_n=TOP_N), mapping_cache=cache
    )
    warm = CostEvaluator(
        resnet18_workload, TopNMapper(top_n=TOP_N), mapping_cache=cache
    )

    cold_seconds, cold_evals = _timed_sweep(cold, points)
    warm_seconds, warm_evals = _timed_sweep(warm, points)

    # Correctness first: the cache must be invisible in the results.
    for a, b in zip(cold_evals, warm_evals):
        assert a.costs == b.costs
        assert a.mappable == b.mappable

    speedup = cold_seconds / warm_seconds
    summary = warm.perf_summary()["mapping_cache"]
    print(
        f"\ncold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s "
        f"-> {speedup:.1f}x speedup "
        f"(hit rate {summary['hit_rate']:.0%}, "
        f"{summary['entries']} entries)"
    )
    assert warm.mapping_cache_misses == 0
    assert warm.mapping_cache_hit_rate == 1.0
    assert speedup >= MIN_SPEEDUP, (
        f"mapping cache speedup {speedup:.2f}x below the {MIN_SPEEDUP}x "
        f"acceptance floor (cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s)"
    )
