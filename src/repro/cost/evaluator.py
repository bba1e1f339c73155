"""Top-level cost evaluator: one design point -> all costs.

This is the "Target System and Cost Models" block of the paper's framework
(Fig. 5): given a hardware design point it optimizes per-layer mappings
through the configured mapper (the software subspace optimization of §4.8),
and populates latency, energy, area, and max power.  It also retains the
per-layer :class:`ExecutionInfo` so the bottleneck analyzer can reason
about the software-optimized execution.

Evaluations are cached by design point; the cache also serves as the DSE
iteration ledger (``evaluations`` counts unique cost-model invocations,
matching how the paper counts "iterations").

Below the design-point cache sits the performance layer
(:mod:`repro.perf`): per-layer mapping searches are memoized in a shared
:class:`~repro.perf.mapping_cache.MappingCache` keyed by what the mapper
actually reads (so sweeps over mapping-irrelevant parameters re-score
cached candidates instead of re-searching), and independent layer
searches can run on a ``REPRO_JOBS``-controlled worker pool.  Both
accelerations are bit-identical to the serial/cold path.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Tuple

from repro.arch.accelerator import AcceleratorConfig, config_from_point
from repro.arch.design_space import DesignPoint
from repro.cost.area import AreaBreakdown, accelerator_area
from repro.cost.energy import EnergyBreakdown, layer_energy
from repro.cost.power import PowerBreakdown, max_power
from repro.cost.technology import TECH_45NM, TechnologyModel
from repro.perf.instrumentation import StageTimers
from repro.perf.knobs import (
    env_flag,
    fused_eval_enabled,
    fused_shards as resolve_fused_shards,
    shm_eval_enabled,
    shm_min_shard_rows,
    tree_compile_enabled,
)
from repro.perf.mapping_cache import CachingMapper, MappingCache, shared_cache
from repro.perf.parallel import WorkerPool
from repro.perf.signature import supports_tracing
from repro.resilience.errors import MapperFailureError, ReproError, is_retryable
from repro.resilience.fault_injection import attempt_scope, inject
from repro.resilience.supervisor import RetryPolicy
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.workloads.layers import LayerShape, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.mapping.mapper import MappingResult

__all__ = ["Evaluation", "CostEvaluator"]

#: Mapper protocol: (layer, config) -> MappingResult.
Mapper = Callable[[LayerShape, AcceleratorConfig], "MappingResult"]


def _search_layer_job(mapper, config: AcceleratorConfig, layer: LayerShape):
    """Worker-side layer search; module-level so process pools can pickle
    it.  Returns ``(result, trace_or_None, batch_stats_delta_or_None)`` so
    the parent can seed its mapping cache — and merge the batch-eval
    counters, which otherwise stay on the worker's pickled mapper copy —
    with outcomes computed in workers."""
    inject("mapper", key=layer.name)
    stats = getattr(mapper, "batch_stats", None)
    before = copy.copy(stats) if stats is not None else None
    try:
        if supports_tracing(mapper):
            result, trace = mapper.search_with_trace(layer, config)
        else:
            result, trace = mapper(layer, config), None
    except (KeyboardInterrupt, SystemExit, ReproError):
        raise
    except Exception as exc:
        raise MapperFailureError(
            f"mapping search failed: {type(exc).__name__}: {exc}",
            layer=layer.name,
            cause=type(exc).__name__,
        ) from exc
    delta = stats.delta_since(before) if stats is not None else None
    return result, trace, delta


@dataclass(frozen=True)
class Evaluation:
    """All costs of one design point for one workload.

    Attributes:
        point: The evaluated hardware design point.
        config: The instantiated accelerator configuration.
        layer_results: Per unique layer name, the optimized mapping result.
        costs: Scalar costs: ``latency_ms``, ``area_mm2``, ``power_w``,
            ``energy_mj``, and ``throughput`` (inferences/second).
            ``latency_ms`` and ``energy_mj`` are ``inf`` when any layer has
            no feasible mapping on this hardware.
        area: Component-level area breakdown.
        power: Component-level peak-power breakdown.
        mappable: True when every layer found a feasible mapping.
    """

    point: DesignPoint
    config: AcceleratorConfig
    layer_results: Mapping[str, MappingResult]
    costs: Mapping[str, float]
    area: AreaBreakdown
    power: PowerBreakdown
    mappable: bool

    @property
    def latency_ms(self) -> float:
        return self.costs["latency_ms"]

    def layer_latency_cycles(self, layer: LayerShape) -> float:
        """Latency (cycles) of one invocation of a unique layer."""
        return self.layer_results[layer.name].latency


class CostEvaluator:
    """Evaluate (and cache) design points for one workload.

    Args:
        workload: The DNN(s) to optimize for.
        mapper: Mapping optimizer invoked per (layer, hardware) pair.
        tech: Technology model for energy/area/power.
        freq_mhz: Accelerator clock; Table 1 fixes 500 MHz.
        bytes_per_element: Data precision (int16 -> 2).
        jobs: Worker count for per-layer mapping searches; None reads
            ``REPRO_JOBS`` (default 1 = serial, bit-identical legacy path).
        executor_mode: ``"process"`` / ``"thread"``; None reads
            ``REPRO_EXECUTOR``.
        mapping_cache: Layer-level mapping cache to use; None selects the
            process-wide shared cache.
        use_mapping_cache: Force the layer cache on/off; None enables it
            whenever the mapper supports the traced-search protocol and
            ``REPRO_MAPPING_CACHE`` is not off (``0``/``off``/``false``/
            ``no``).
        tracer: Telemetry tracer; uncached evaluations run inside an
            ``evaluate_point`` span (timings only — spans never emit
            journal events, so traces stay deterministic).
        fused_eval: Resolve all pending layers of a design point through
            one fused cross-layer kernel pass (:mod:`repro.cost.fused`)
            instead of per-layer mapper calls.  ``None`` (default) defers
            to ``REPRO_FUSED_EVAL`` (default off); results are
            bit-identical either way.  When enabled (or implied by
            ``shm_eval``) and the mapper supports the candidate-plan
            protocol, the fused path takes precedence over the
            ``REPRO_JOBS`` worker pool — the pool still picks up any
            layers the fused path hands back.
        shm_eval: Shard each fused block over the persistent
            shared-memory worker fleet (:mod:`repro.perf.shm_fleet`).
            ``None`` defers to ``REPRO_SHM_EVAL`` (default off).
            Implies the fused path; results stay bit-identical.
        fused_shards: Shard count for the fleet; ``None`` defers to
            ``REPRO_FUSED_SHARDS`` (default: the resolved job count).
        shm_min_rows: Minimum candidate rows per shard (adaptive
            sizing); ``None`` defers to ``REPRO_SHM_MIN_ROWS``.
        shm_fleet: Fleet instance to dispatch to; ``None`` uses the
            process-wide shared fleet (warm across campaigns).

    All environment knobs are resolved **once, here** — per-campaign,
    not per step — so the hot evaluation loop never re-reads the
    environment (set knobs before constructing the evaluator).
    """

    def __init__(
        self,
        workload: Workload,
        mapper: Mapper,
        tech: TechnologyModel = TECH_45NM,
        freq_mhz: int = 500,
        bytes_per_element: int = 2,
        jobs: Optional[object] = None,
        executor_mode: Optional[str] = None,
        mapping_cache: Optional[MappingCache] = None,
        use_mapping_cache: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        fused_eval: Optional[bool] = None,
        shm_eval: Optional[bool] = None,
        fused_shards: Optional[int] = None,
        shm_min_rows: Optional[int] = None,
        shm_fleet=None,
    ):
        self.workload = workload
        self.mapper = mapper
        self.tech = tech
        self.freq_mhz = freq_mhz
        self.bytes_per_element = bytes_per_element
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._cache: Dict[Tuple, Evaluation] = {}
        self.evaluations = 0  # unique cost-model invocations
        self.calls = 0  # total evaluate() calls (cache hits included)
        self.total_seconds = 0.0
        self.timers = StageTimers()
        self._pool = WorkerPool(jobs=jobs, mode=executor_mode)
        self._fused_eval = fused_eval
        self.retry_policy = RetryPolicy.from_env()

        # Knob resolution is hoisted out of the per-step loop: one env
        # read per campaign, memoized on the evaluator.
        from repro.cost.fused import supports_fused

        self._shm_enabled = shm_eval_enabled(shm_eval)
        self._fused_enabled = (
            fused_eval_enabled(fused_eval) or self._shm_enabled
        )
        self._supports_fused = supports_fused(mapper)
        self._shm_shards = resolve_fused_shards(fused_shards)
        self._shm_min_rows = shm_min_shard_rows(shm_min_rows)
        self._fleet = shm_fleet
        self._fleet_stats = None
        if self._shm_enabled:
            from repro.perf.shm_fleet import FleetStats

            self._fleet_stats = FleetStats()

        if use_mapping_cache is None:
            use_mapping_cache = env_flag(
                "REPRO_MAPPING_CACHE", True
            ) and supports_tracing(mapper)
        self._caching_mapper: Optional[CachingMapper] = None
        if use_mapping_cache:
            if not supports_tracing(mapper):
                raise TypeError(
                    "use_mapping_cache=True requires a mapper implementing "
                    "signature() + search_with_trace()"
                )
            self._caching_mapper = CachingMapper(
                mapper, mapping_cache if mapping_cache is not None else shared_cache()
            )

    @property
    def jobs(self) -> int:
        return self._pool.jobs

    @property
    def mapping_cache(self) -> Optional[MappingCache]:
        """The layer-level mapping cache (None when disabled)."""
        return self._caching_mapper.cache if self._caching_mapper else None

    def _key(self, point: Mapping) -> Tuple:
        return tuple(sorted(point.items()))

    def evaluate(self, point: DesignPoint) -> Evaluation:
        """Evaluate a design point (cached, supervised).

        Transient faults (crashed/hung workers, injected chaos) are
        retried per :attr:`retry_policy` with deterministic backoff;
        deterministic failures propagate immediately (a
        :class:`~repro.resilience.errors.ReproError` carries the design
        point and attempt count).  Failed evaluations are never cached.
        """
        self.calls += 1
        key = self._key(point)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        started = time.perf_counter()
        evaluation = self._evaluate_supervised(point)
        self.total_seconds += time.perf_counter() - started
        self.evaluations += 1
        self._cache[key] = evaluation
        return evaluation

    def _evaluate_supervised(self, point: DesignPoint) -> Evaluation:
        """Run the cost model under the retry policy and the ambient
        fault-injection attempt (the fault-free path is one plain pass,
        bit-identical to the unsupervised pipeline)."""
        signature = ",".join(f"{k}={v}" for k, v in sorted(point.items()))
        attempt = 0
        while True:
            try:
                with attempt_scope(attempt):
                    with self.tracer.span("evaluate_point"):
                        inject("evaluate", key=signature)
                        return self._evaluate_uncached(point)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if is_retryable(exc) and attempt < self.retry_policy.max_retries:
                    attempt += 1
                    self.retry_policy.sleep_before_retry(signature, attempt)
                    continue
                if isinstance(exc, ReproError):
                    exc.retryable = False  # the retry budget is spent
                    raise exc.with_context(
                        point=dict(point), attempts=attempt + 1
                    )
                raise

    def _optimize_layers(
        self, config: AcceleratorConfig
    ) -> Dict[str, "MappingResult"]:
        """Optimize every unique layer's mapping on ``config``.

        Cache hits (exact or re-scored) are resolved in-process; the
        fused cross-layer path (when enabled and supported) resolves the
        rest in one block — sharded over the shared-memory fleet when
        ``REPRO_SHM_EVAL`` is on — and anything handed back runs
        serially or on the worker pool.  Results are keyed by layer name
        in workload order either way.
        """
        cm = self._caching_mapper
        results: Dict[str, "MappingResult"] = {}
        pending = []
        for layer in self.workload.layers:
            hit = cm.lookup(layer, config) if cm else None
            if hit is not None:
                results[layer.name] = hit
            else:
                pending.append(layer)

        pending = self._optimize_layers_fused(config, pending, results)
        if self._pool.parallel and len(pending) > 1:
            job = partial(_search_layer_job, cm.mapper if cm else self.mapper, config)
            outcomes = self._pool.map(job, pending)
            # Thread workers record batch-eval counters into the shared
            # mapper directly; only process workers need the delta merged.
            merge_stats = (
                self.batch_eval_stats if self._pool.mode == "process" else None
            )
            for layer, (result, trace, stats_delta) in zip(pending, outcomes):
                if merge_stats is not None and stats_delta is not None:
                    merge_stats.merge(stats_delta)
                if cm is not None:
                    cm.misses += 1
                    cm.cache.stats.misses += 1
                    cm.store(layer, config, result, trace)
                results[layer.name] = result
        else:
            mapper = cm if cm is not None else self.mapper
            for layer in pending:
                inject("mapper", key=layer.name)
                try:
                    results[layer.name] = mapper(layer, config)
                except (KeyboardInterrupt, SystemExit, ReproError):
                    raise
                except Exception as exc:
                    raise MapperFailureError(
                        f"mapping search failed: {type(exc).__name__}: {exc}",
                        layer=layer.name,
                        cause=type(exc).__name__,
                    ) from exc
        return {
            layer.name: results[layer.name] for layer in self.workload.layers
        }

    def _optimize_layers_fused(
        self,
        config: AcceleratorConfig,
        pending: list,
        results: Dict[str, "MappingResult"],
    ) -> list:
        """Fused fast path: resolve pending layers through one
        cross-layer kernel pass (``repro.cost.fused``) when enabled.

        Fills ``results`` with the fused layers' (bit-identical) outcomes
        and returns the layers the remaining paths must still handle —
        everything, when the path is off, unsupported, or fails.  When
        ``REPRO_SHM_EVAL`` is on, the block is offered to the
        shared-memory fleet first (:meth:`_block_sharder`); the fleet
        declining or failing lands back on the inline fused kernels.
        Fused results feed the mapping cache's exact tier (the fused path
        skips re-scorable traces); fault injection fires per layer before
        the block evaluates, matching the per-layer loop's injection
        points.  The knob and ``supports_fused`` checks were resolved
        once at construction — this gate costs two attribute reads per
        step.
        """
        if not pending or not self._fused_enabled or not self._supports_fused:
            return pending
        import repro.cost.fused as _fused

        cm = self._caching_mapper
        mapper = cm.mapper if cm is not None else self.mapper
        for layer in pending:
            inject("mapper", key=layer.name)
        try:
            fused, remaining = _fused.search_layers_fused(
                mapper,
                pending,
                config,
                stats=self.batch_eval_stats,
                sharder=self._block_sharder if self._shm_enabled else None,
            )
        except (KeyboardInterrupt, SystemExit, ReproError):
            raise
        except Exception as exc:
            # The safe path must win over a fast-path defect: warn and
            # hand every layer back to the per-layer reference loop.
            import warnings

            warnings.warn(
                f"fused cross-layer evaluation failed "
                f"({type(exc).__name__}: {exc}); falling back to the "
                f"per-layer search",
                RuntimeWarning,
                stacklevel=2,
            )
            stats = self.batch_eval_stats
            if stats is not None:
                for _ in pending:
                    stats.record_fused_fallback()
            return pending
        for layer, result in fused:
            if cm is not None:
                cm.misses += 1
                cm.cache.stats.misses += 1
                cm.store(layer, config, result, None)
            results[layer.name] = result
        return remaining

    def _block_sharder(self, block, config):
        """Offer a fused block to the shared-memory fleet
        (``REPRO_SHM_EVAL``).  Returns a bit-identical
        :class:`~repro.cost.fused.ShardedBlockEvaluation` or None when
        the fleet declines (block below the adaptive sizing threshold,
        fleet unhealthy) — the caller then evaluates inline."""
        fleet = self._fleet
        if fleet is None:
            from repro.perf.shm_fleet import shared_fleet

            fleet = self._fleet = shared_fleet()
        return fleet.evaluate_block(
            block,
            config,
            shards=self._shm_shards,
            min_rows=self._shm_min_rows,
            stats=self._fleet_stats,
        )

    def _evaluate_uncached(self, point: DesignPoint) -> Evaluation:
        config = config_from_point(
            point,
            freq_mhz=self.freq_mhz,
            bytes_per_element=self.bytes_per_element,
        )
        with self.timers.stage("area_power"):
            area = accelerator_area(config, self.tech)
            power = max_power(config, self.tech)

        with self.timers.stage("mapping"):
            layer_results = self._optimize_layers(config)

        with self.timers.stage("aggregate"):
            total_cycles = 0.0
            energy = EnergyBreakdown.zero()
            mappable = True
            for layer in self.workload.layers:
                result = layer_results[layer.name]
                if not result.feasible:
                    mappable = False
                    continue
                total_cycles += result.latency * layer.repeats
                energy = energy + layer_energy(
                    result.execution, config, self.tech
                ).scaled(layer.repeats)

            if mappable:
                latency_ms = total_cycles / (self.freq_mhz * 1e3)
                energy_mj = energy.total_mj
                throughput = 1000.0 / latency_ms if latency_ms > 0 else math.inf
            else:
                latency_ms = math.inf
                energy_mj = math.inf
                throughput = 0.0

        costs = {
            "latency_ms": latency_ms,
            "area_mm2": area.total_mm2,
            "power_w": power.total_w,
            "energy_mj": energy_mj,
            "throughput": throughput,
        }
        return Evaluation(
            point=dict(point),
            config=config,
            layer_results=layer_results,
            costs=costs,
            area=area,
            power=power,
            mappable=mappable,
        )

    # -- counters and instrumentation ----------------------------------------

    def cache_size(self) -> int:
        """Design-point cache entry count."""
        return len(self._cache)

    def mapping_cache_size(self) -> int:
        """Layer-level mapping cache entry count (0 when disabled)."""
        cache = self.mapping_cache
        return cache.size() if cache else 0

    @property
    def mapping_cache_hits(self) -> int:
        """Layer searches this evaluator served from the mapping cache
        (exact hits + bandwidth re-scores)."""
        cm = self._caching_mapper
        return (cm.exact_hits + cm.rescore_hits) if cm else 0

    @property
    def mapping_cache_misses(self) -> int:
        cm = self._caching_mapper
        return cm.misses if cm else 0

    @property
    def mapping_cache_hit_rate(self) -> float:
        """Fraction of this evaluator's layer searches served by the
        mapping cache (0.0 when disabled or before any search)."""
        total = self.mapping_cache_hits + self.mapping_cache_misses
        return self.mapping_cache_hits / total if total else 0.0

    @property
    def evaluations_per_second(self) -> float:
        """Unique design-point evaluations per second of cost-model time."""
        if self.total_seconds <= 0:
            return 0.0
        return self.evaluations / self.total_seconds

    @property
    def batch_eval_stats(self):
        """The mapper's :class:`BatchEvalStats` (None when the mapper has
        no batched candidate-scoring path, e.g. the fixed dataflow)."""
        return getattr(self.mapper, "batch_stats", None)

    def perf_summary(self) -> Dict[str, object]:
        """Instrumentation snapshot: timers, throughput, cache counters."""
        from repro.core.bottleneck import compile as tree_compile
        from repro.cost.batch import batch_eval_enabled

        cm = self._caching_mapper
        stats = self.batch_eval_stats
        batch_section: Dict[str, object] = {
            "supported": stats is not None,
            "enabled": stats is not None
            and batch_eval_enabled(getattr(self.mapper, "batch_eval", None)),
            "fused_supported": self._supports_fused,
            "fused_enabled": self._fused_enabled and self._supports_fused,
        }
        if stats is not None:
            batch_section.update(stats.as_dict())
        # NOTE: the tree_compile counters are process-global (the program
        # memo outlives any one campaign), so the whole section is listed
        # in repro.telemetry's volatile keys and never enters journals.
        tree_section: Dict[str, object] = {
            "enabled": tree_compile_enabled(),
        }
        tree_section.update(tree_compile.stats().as_dict())
        plane = self.mapping_cache.plane if self.mapping_cache else None
        # NOTE: the plane counters depend on which process warmed the
        # shared segments first, so "plane" is a telemetry-volatile key.
        plane_section: Dict[str, object] = {"enabled": plane is not None}
        if plane is not None:
            plane_section.update(plane.stats.as_dict())
            plane_section["segments"] = plane.segment_count()
            plane_section["entries"] = plane.entry_count()
        summary: Dict[str, object] = {
            "evaluations": self.evaluations,
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "evaluations_per_second": self.evaluations_per_second,
            "jobs": self.jobs,
            "executor": self._pool.mode,
            "point_cache_entries": self.cache_size(),
            "stages": self.timers.as_dict(),
            "mapping_cache": {
                "enabled": cm is not None,
                "exact_hits": cm.exact_hits if cm else 0,
                "rescore_hits": cm.rescore_hits if cm else 0,
                "misses": cm.misses if cm else 0,
                "hit_rate": self.mapping_cache_hit_rate,
                "entries": self.mapping_cache_size(),
                "traces": self.mapping_cache.trace_count()
                if self.mapping_cache
                else 0,
                "plane": plane_section,
            },
            "batch_eval": batch_section,
            "tree_compile": tree_section,
        }
        # The section exists only when the knob is on, so journals of
        # serial campaigns stay byte-identical to pre-fleet builds.
        if self._shm_enabled and self._fleet_stats is not None:
            shm_section: Dict[str, object] = {
                "enabled": True,
                "shards": self._shm_shards,
                "min_shard_rows": self._shm_min_rows,
            }
            shm_section.update(self._fleet_stats.as_dict())
            summary["shm_fleet"] = shm_section
        return summary

    def reset_counters(self) -> None:
        """Zero the iteration/time/cache counters (caches are retained)."""
        self.evaluations = 0
        self.calls = 0
        self.total_seconds = 0.0
        self.timers.reset()
        if self._caching_mapper is not None:
            self._caching_mapper.reset_counters()
        stats = self.batch_eval_stats
        if stats is not None:
            stats.reset()
        if self._fleet_stats is not None:
            self._fleet_stats.reset()

    def close(self) -> None:
        """Release the worker pool (no-op on the serial path).

        The shared-memory fleet is deliberately *not* shut down here:
        its workers stay warm for the next campaign in this process and
        are reaped atexit (:func:`repro.perf.shm_fleet.shared_fleet`).
        """
        self._pool.close()

    def __enter__(self) -> "CostEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
