"""CI smoke benchmark: scalar vs. vectorized candidate-scoring throughput.

Runs the full-model TopNMapper search (every ResNet18 layer, cold — no
mapping cache) once through the scalar reference evaluator and once
through the vectorized batch kernels, checks the results are
bit-identical, and writes candidates/second for both paths to a JSON
artifact so CI runs can be compared over time::

    PYTHONPATH=src python benchmarks/bench_mapper_batch.py \
        --out BENCH_mapper.json

"Cold" means that before every rep of either path both process-wide
memos a search reads are cleared: the top-N plan memo (``_top_n_plan``)
and the plan-stage terms memo (``_top_n_terms``).  Without that, the
first rep fills them and every later rep times warm searches.
``batch_warm_seconds`` is the batch sweep on memos the previous rep
filled, as a campaign's later design points run it; it has no floor.

Exits non-zero if results diverge or the cold batch path is *slower*
than the scalar path (a loose regression guard; the >= 3x acceptance
floor lives in :mod:`benchmarks.test_perf_mapper_batch`).
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.arch import build_edge_design_space, config_from_point
from repro.mapping.mapper import TopNMapper, _top_n_plan, _top_n_terms
from repro.workloads import load_workload

MODEL = "resnet18"
TOP_N = 150
REPS = 3


def _mid_config():
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
    return config_from_point(point)


def _clear_memos():
    """Empty the plan memo and the plan-stage terms memo (nothing else)."""
    _top_n_plan.cache_clear()
    _top_n_terms.cache_clear()


def _sweep(workload, config, batch_eval, cold=True):
    """Best-of-REPS full-model search, cold or, with ``cold=False``, on
    the memos the previous rep left; returns (seconds, results, stats)."""
    best_seconds = float("inf")
    results = None
    stats = None
    for _ in range(REPS):
        mapper = TopNMapper(top_n=TOP_N, batch_eval=batch_eval)
        if cold:
            _clear_memos()
        start = time.perf_counter()
        run = [mapper(layer, config) for layer in workload.layers]
        elapsed = time.perf_counter() - start
        if elapsed < best_seconds:
            best_seconds = elapsed
            results = run
            stats = mapper.batch_stats
    return best_seconds, results, stats


def _identical(a, b):
    return (
        a.mapping == b.mapping
        and a.execution == b.execution
        and a.candidates_evaluated == b.candidates_evaluated
        and a.feasible_candidates == b.feasible_candidates
    )


def run() -> dict:
    workload = load_workload(MODEL)
    config = _mid_config()

    scalar_seconds, scalar_results, scalar_stats = _sweep(
        workload, config, batch_eval=False
    )
    batch_seconds, batch_results, batch_stats = _sweep(
        workload, config, batch_eval=True
    )
    warm_seconds, warm_results, _ = _sweep(
        workload, config, batch_eval=True, cold=False
    )
    identical = all(
        _identical(a, b) and _identical(a, c)
        for a, b, c in zip(scalar_results, batch_results, warm_results)
    )
    candidates = scalar_stats.scalar_candidates

    return {
        "benchmark": "mapper_batch",
        "model": MODEL,
        "top_n": TOP_N,
        "layers": len(workload.layers),
        "reps": REPS,
        "python": platform.python_version(),
        "candidates": candidates,
        "scalar_seconds": round(scalar_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "batch_warm_seconds": round(warm_seconds, 4),
        "scalar_candidates_per_second": round(
            candidates / scalar_seconds, 1
        ),
        "batch_candidates_per_second": round(
            batch_stats.batch_candidates / batch_seconds, 1
        ),
        "int64_fallbacks": batch_stats.int64_fallbacks,
        "results_identical": identical,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="BENCH_mapper.json",
        help="JSON artifact path (default: %(default)s)",
    )
    args = parser.parse_args()
    record = run()
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(
        f"{record['model']}: scalar {record['scalar_seconds']}s, "
        f"batch {record['batch_seconds']}s ({record['speedup']}x), "
        f"warm batch {record['batch_warm_seconds']}s, "
        f"results identical: {record['results_identical']} -> {args.out}"
    )
    if not record["results_identical"]:
        return 1
    return 0 if record["speedup"] >= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
