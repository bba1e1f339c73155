"""CI benchmark: shm-sharded fused evaluation vs the single-process fused path.

Builds one large fused candidate block (a cold full-model TopNMapper
step over every EfficientNet-B0 layer) and evaluates it twice: inline
with :class:`~repro.cost.fused.FusedBlockEvaluation` on one core, and
sharded over the persistent shared-memory worker fleet
(``REPRO_SHM_EVAL``) at ``WORKERS`` shards.  Block construction is
excluded from both timings — the benchmark isolates exactly the work
the fleet parallelizes.  Results must be bit-identical; timings go to a
JSON artifact so CI runs can be compared over time::

    PYTHONPATH=src python benchmarks/bench_shm_campaign.py --out BENCH_shm.json

The acceptance floor (sharded >= 2x over inline fused at 4 workers) is
only enforced when the machine actually has >= 4 CPU cores
(``floor_enforced`` in the artifact records the decision) — a 1-core
container can verify identity and the chaos ladder but cannot speed
anything up.

A chaos case rides along (``--chaos``, on by default, ``--chaos-only``
for the chaos job): ``REPRO_FAULT_INJECT=kill:shm:1.0:match=shard-0-``
SIGKILLs the worker holding shard 0 on every attempt — while it holds
live segment attachments — and the campaign result must still be
bit-identical after the resubmission ladder drains into the serial
fallback.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from repro.arch import build_edge_design_space, config_from_point
from repro.cost.fused import FusedBlockEvaluation
from repro.mapping.batch_candidates import FusedCandidateBlock
from repro.mapping.mapper import TopNMapper
from repro.perf.shm_fleet import FleetStats, ShmFleet
from repro.workloads import load_workload

MODEL = "efficientnetb0"
TOP_N = 3000
MAX_SPATIAL = 64
WORKERS = 4
REPS = 3
MIN_SPEEDUP = 2.0


def _mid_point():
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


def _build_block(workload, config):
    """One campaign step's SoA block (construction is not timed)."""
    mapper = TopNMapper(top_n=TOP_N, max_spatial=MAX_SPATIAL)
    batches = [
        mapper.candidate_plan(layer, config) for layer in workload.layers
    ]
    return FusedCandidateBlock.from_layer_batches(
        list(workload.layers), batches
    )


def _inline_eval(block, config):
    best = float("inf")
    evaluation = None
    for _ in range(REPS):
        start = time.perf_counter()
        run = FusedBlockEvaluation(block, config)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, evaluation = elapsed, run
    return best, evaluation


def _sharded_eval(fleet, block, config, stats):
    best = float("inf")
    evaluation = None
    # Warm the fleet outside the timed region: CI measures steady-state
    # dispatch (the campaign reuses workers across steps), not fork cost.
    fleet.ensure(WORKERS, stats)
    for _ in range(REPS):
        start = time.perf_counter()
        run = fleet.evaluate_block(
            block, config, shards=WORKERS, min_rows=1, stats=stats
        )
        elapsed = time.perf_counter() - start
        if run is None:
            raise RuntimeError("fleet declined the benchmark block")
        if elapsed < best:
            best, evaluation = elapsed, run
    return best, evaluation


def _identical(inline, sharded):
    return (
        np.array_equal(inline.latency, sharded.latency)
        and np.array_equal(inline.fail_code, sharded.fail_code)
        and np.array_equal(inline.feasible, sharded.feasible)
    )


def _fleet_chaos(block, config) -> dict:
    """SIGKILL the shard-0 worker on every attempt mid-step; the
    resubmission ladder plus serial fallback must keep the decision
    arrays bit-identical to the inline evaluation."""
    inline = FusedBlockEvaluation(block, config)
    saved = {
        name: os.environ.get(name)
        for name in ("REPRO_FAULT_INJECT", "REPRO_RETRY_BACKOFF")
    }
    os.environ["REPRO_FAULT_INJECT"] = "kill:shm:1.0:match=shard-0-"
    os.environ["REPRO_RETRY_BACKOFF"] = "0.001"
    try:
        fleet = ShmFleet()
        stats = FleetStats()
        try:
            sharded = fleet.evaluate_block(
                block, config, shards=WORKERS, min_rows=1, stats=stats
            )
        finally:
            fleet.shutdown()
    finally:
        for name, old in saved.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old
    return {
        "worker_crashes": stats.worker_crashes,
        "shard_resubmissions": stats.shard_resubmissions,
        "shard_fallbacks": stats.shard_fallbacks,
        "results_identical": sharded is not None
        and _identical(inline, sharded),
    }


def run(chaos: bool = True, chaos_only: bool = False) -> dict:
    workload = load_workload(MODEL)
    config = config_from_point(_mid_point())
    block = _build_block(workload, config)

    if chaos_only:
        return {
            "benchmark": "shm_campaign_fleet_chaos",
            "model": MODEL,
            "top_n": TOP_N,
            "layers": len(workload.layers),
            "candidates": len(block),
            "python": platform.python_version(),
            "fleet_chaos": _fleet_chaos(block, config),
        }

    cpu_count = os.cpu_count() or 1
    inline_seconds, inline = _inline_eval(block, config)
    fleet = ShmFleet()
    stats = FleetStats()
    try:
        sharded_seconds, sharded = _sharded_eval(fleet, block, config, stats)
    finally:
        fleet.shutdown()

    record = {
        "benchmark": "shm_campaign",
        "model": MODEL,
        "top_n": TOP_N,
        "layers": len(workload.layers),
        "candidates": len(block),
        "reps": REPS,
        "workers": WORKERS,
        "cpu_count": cpu_count,
        "python": platform.python_version(),
        "inline_seconds": round(inline_seconds, 4),
        "sharded_seconds": round(sharded_seconds, 4),
        "speedup": round(inline_seconds / sharded_seconds, 2),
        "min_speedup": MIN_SPEEDUP,
        "floor_enforced": cpu_count >= WORKERS,
        "shards_dispatched": stats.shards_dispatched,
        "warm_hits": stats.warm_hits,
        "shm_bytes": stats.shm_bytes,
        "results_identical": _identical(inline, sharded),
    }
    if chaos:
        record["fleet_chaos"] = _fleet_chaos(block, config)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="BENCH_shm.json",
        help="JSON artifact path (default: %(default)s)",
    )
    parser.add_argument(
        "--no-chaos",
        action="store_true",
        help="skip the SIGKILLed-worker case",
    )
    parser.add_argument(
        "--chaos-only",
        action="store_true",
        help="run only the SIGKILLed-worker case (no timing floor)",
    )
    args = parser.parse_args()
    record = run(chaos=not args.no_chaos, chaos_only=args.chaos_only)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    chaos = record.get("fleet_chaos")
    if args.chaos_only:
        print(
            f"{record['model']}: fleet chaos: crashes="
            f"{chaos['worker_crashes']}, resubmissions="
            f"{chaos['shard_resubmissions']}, identical="
            f"{chaos['results_identical']} -> {args.out}"
        )
        return (
            0
            if chaos["worker_crashes"] >= 1 and chaos["results_identical"]
            else 1
        )
    print(
        f"{record['model']}: inline {record['inline_seconds']}s, "
        f"sharded {record['sharded_seconds']}s ({record['speedup']}x at "
        f"{WORKERS} workers, floor {MIN_SPEEDUP}x "
        f"{'enforced' if record['floor_enforced'] else 'waived: '+str(record['cpu_count'])+' cores'}), "
        f"results identical: {record['results_identical']}"
        + (
            f"; fleet chaos: crashes={chaos['worker_crashes']}, "
            f"identical={chaos['results_identical']}"
            if chaos
            else ""
        )
        + f" -> {args.out}"
    )
    if not record["results_identical"]:
        return 1
    if chaos and not (
        chaos["worker_crashes"] >= 1 and chaos["results_identical"]
    ):
        return 1
    if record["floor_enforced"] and record["speedup"] < MIN_SPEEDUP:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
