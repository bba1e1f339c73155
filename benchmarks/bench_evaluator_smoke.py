"""CI smoke benchmark: evaluator throughput + mapping-cache speedup.

Runs a small ResNet18 bandwidth/PE sweep twice and writes the numbers to
a JSON artifact so CI runs can be compared over time.  The cold sweep
starts from cleared top-N plan and terms memos, as a fresh process
does, and fills an empty mapping cache; the warm sweep is a second
evaluator over the same cache and points, so every layer search is a
hit::

    PYTHONPATH=src python benchmarks/bench_evaluator_smoke.py \
        --out BENCH_evaluator.json

Smaller than :mod:`benchmarks.test_perf_evaluator` (the acceptance
benchmark) so it fits in the test-suite CI job; the JSON includes the
full ``CostEvaluator.perf_summary()`` of the warm run.
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.arch.accelerator import OFFCHIP_BW_VALUES_MBPS, build_edge_design_space
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper, _top_n_plan, _top_n_terms
from repro.perf import MappingCache
from repro.workloads import load_workload

MODEL = "resnet18"
TOP_N = 40
PES_VALUES = (512, 1024)
BW_VALUES = OFFCHIP_BW_VALUES_MBPS[:5]


def _base_point():
    point = build_edge_design_space().minimum_point()
    point.update(
        pes=1024,
        l1_bytes=256,
        l2_kb=512,
        offchip_bw_mbps=8192,
        noc_datawidth=128,
    )
    for op in ("I", "W", "O", "PSUM"):
        point[f"phys_unicast_{op}"] = 16
        point[f"virt_unicast_{op}"] = 64
    return point


def _sweep(evaluator, points):
    start = time.perf_counter()
    evaluations = [evaluator.evaluate(p) for p in points]
    return time.perf_counter() - start, evaluations


def run() -> dict:
    workload = load_workload(MODEL)
    base = _base_point()
    points = []
    for pes in PES_VALUES:
        for bw in BW_VALUES:
            point = dict(base)
            point["pes"] = pes
            point["offchip_bw_mbps"] = bw
            points.append(point)

    _top_n_plan.cache_clear()
    _top_n_terms.cache_clear()
    cache = MappingCache()
    cold = CostEvaluator(workload, TopNMapper(top_n=TOP_N), mapping_cache=cache)
    warm = CostEvaluator(workload, TopNMapper(top_n=TOP_N), mapping_cache=cache)
    cold_seconds, cold_evals = _sweep(cold, points)
    warm_seconds, warm_evals = _sweep(warm, points)
    identical = all(
        a.costs == b.costs for a, b in zip(cold_evals, warm_evals)
    )

    return {
        "benchmark": "evaluator_smoke",
        "model": MODEL,
        "top_n": TOP_N,
        "design_points": len(points),
        "python": platform.python_version(),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2),
        "cold_evals_per_second": round(len(points) / cold_seconds, 2),
        "warm_evals_per_second": round(len(points) / warm_seconds, 2),
        "costs_identical": identical,
        "warm_perf_summary": warm.perf_summary(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="BENCH_evaluator.json",
        help="JSON artifact path (default: %(default)s)",
    )
    args = parser.parse_args()
    record = run()
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(
        f"{record['model']}: cold {record['cold_seconds']}s, "
        f"warm {record['warm_seconds']}s ({record['speedup']}x), "
        f"costs identical: {record['costs_identical']} -> {args.out}"
    )
    return 0 if record["costs_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
