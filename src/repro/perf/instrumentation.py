"""Per-stage timers and throughput counters for the evaluation pipeline.

Speedups are measured, not asserted: every :class:`CostEvaluator` owns a
:class:`StageTimers` that attributes wall-clock to pipeline stages
(mapping search, cost aggregation, area/power) so cache and parallelism
wins show up as numbers in ``perf_summary()`` / the CLI rather than
claims in a docstring.  :class:`BatchEvalStats` plays the same role for
the vectorized candidate-scoring kernels (``repro.cost.batch``): every
batch-capable mapper owns one and records which path scored how many
candidates in how long.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["StageTimers", "BatchEvalStats"]


class BatchEvalStats:
    """Counters/timers of the candidate-scoring inner loop.

    Tracks, per mapper instance, how many candidates were scored by the
    vectorized batch kernel versus the scalar reference path (selected
    by ``batch_eval=False`` or an int64-overflow fallback), and the
    wall-clock each path consumed.  Plain attributes only, so instances
    pickle cleanly with their mapper.
    """

    def __init__(self) -> None:
        self.batches = 0
        self.batch_candidates = 0
        self.batch_feasible = 0
        self.batch_seconds = 0.0
        self.scalar_searches = 0
        self.scalar_candidates = 0
        self.scalar_seconds = 0.0
        self.int64_fallbacks = 0
        self.fused_blocks = 0
        self.fused_layers = 0
        self.fused_candidates = 0
        self.fused_feasible = 0
        self.fused_seconds = 0.0
        self.fused_fallbacks = 0

    def record_batch(
        self, candidates: int, feasible: int, seconds: float
    ) -> None:
        self.batches += 1
        self.batch_candidates += candidates
        self.batch_feasible += feasible
        self.batch_seconds += seconds

    def record_scalar(self, candidates: int, seconds: float) -> None:
        self.scalar_searches += 1
        self.scalar_candidates += candidates
        self.scalar_seconds += seconds

    def record_fallback(self) -> None:
        self.int64_fallbacks += 1

    def record_fused(
        self, layers: int, candidates: int, feasible: int, seconds: float
    ) -> None:
        """One fused cross-layer block: ``layers`` layer searches resolved
        by a single SoA evaluation over ``candidates`` rows."""
        self.fused_blocks += 1
        self.fused_layers += layers
        self.fused_candidates += candidates
        self.fused_feasible += feasible
        self.fused_seconds += seconds

    def record_fused_fallback(self) -> None:
        """One layer search the fused path handed back to the per-layer
        path (int64-unsafe candidate set, empty plan, or block failure);
        layers that share the search are not counted again."""
        self.fused_fallbacks += 1

    @property
    def batch_candidates_per_second(self) -> float:
        if self.batch_seconds <= 0:
            return 0.0
        return self.batch_candidates / self.batch_seconds

    @property
    def scalar_candidates_per_second(self) -> float:
        if self.scalar_seconds <= 0:
            return 0.0
        return self.scalar_candidates / self.scalar_seconds

    @property
    def fused_candidates_per_second(self) -> float:
        if self.fused_seconds <= 0:
            return 0.0
        return self.fused_candidates / self.fused_seconds

    def reset(self) -> None:
        self.__init__()

    def as_dict(self) -> Dict[str, float]:
        return {
            "batches": self.batches,
            "batch_candidates": self.batch_candidates,
            "batch_feasible": self.batch_feasible,
            "batch_seconds": self.batch_seconds,
            "batch_candidates_per_second": self.batch_candidates_per_second,
            "scalar_searches": self.scalar_searches,
            "scalar_candidates": self.scalar_candidates,
            "scalar_seconds": self.scalar_seconds,
            "scalar_candidates_per_second": self.scalar_candidates_per_second,
            "int64_fallbacks": self.int64_fallbacks,
            "fused_blocks": self.fused_blocks,
            "fused_layers": self.fused_layers,
            "fused_candidates": self.fused_candidates,
            "fused_feasible": self.fused_feasible,
            "fused_seconds": self.fused_seconds,
            "fused_candidates_per_second": self.fused_candidates_per_second,
            "fused_fallbacks": self.fused_fallbacks,
        }


class StageTimers:
    """Accumulate (seconds, calls) per named pipeline stage."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - started)

    def record(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def total(self) -> float:
        return sum(self.seconds.values())

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in self.seconds
        }
