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
(:mod:`repro.perf`): per-layer mapping search results are memoized in a
shared :class:`~repro.perf.mapping_cache.MappingCache` keyed by what the
mapper actually reads.  The evaluator alone
decides which searches a design point runs: one per distinct
:func:`~repro.perf.signature.search_signature` among the layers the
cache missed, so a DNN's repeated layer shapes are searched once per
point with the cache on or off.  Those searches resolve together in one
fused cross-layer block (:mod:`repro.cost.fused`) when that path is
enabled, else one by one through the mapper.  Every layer search runs
in the evaluating process, and all of these paths are bit-identical to
the cold path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.arch.accelerator import AcceleratorConfig, config_from_point
from repro.arch.design_space import DesignPoint
from repro.cost.area import AreaBreakdown, accelerator_area
from repro.cost.energy import EnergyBreakdown, layer_energy
from repro.cost.power import PowerBreakdown, max_power
from repro.cost.technology import TECH_45NM, TechnologyModel
from repro.perf.instrumentation import StageTimers
from repro.perf.knobs import env_flag, fused_eval_enabled
from repro.perf.mapping_cache import CachingMapper, MappingCache
from repro.perf.signature import mapper_signature, search_signature
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
        mapping_cache: Layer-level mapping cache to use; None selects the
            process-wide shared cache.
        use_mapping_cache: Force the layer cache on/off; None enables it
            whenever the mapper is cacheable (it has ``signature()``)
            and ``REPRO_MAPPING_CACHE`` is not off (``0``/``off``/
            ``false``/``no``).
        tracer: Telemetry tracer; uncached evaluations run inside an
            ``evaluate_point`` span (timings only — spans never emit
            journal events, so traces stay deterministic).
        fused_eval: Resolve all pending layers of a design point through
            one fused cross-layer kernel pass (:mod:`repro.cost.fused`)
            instead of per-layer mapper calls.  ``None`` (default) defers
            to ``REPRO_FUSED_EVAL`` (default off); results are
            bit-identical either way.  Layers the fused path hands back
            go through the per-layer loop.

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
        mapping_cache: Optional[MappingCache] = None,
        use_mapping_cache: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        fused_eval: Optional[bool] = None,
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
        self.retry_policy = RetryPolicy.from_env()

        # Knob resolution is hoisted out of the per-step loop: one env
        # read per campaign, memoized on the evaluator.
        from repro.cost.fused import supports_fused

        self._fused_enabled = fused_eval_enabled(fused_eval)
        self._supports_fused = supports_fused(mapper)

        if use_mapping_cache is None:
            use_mapping_cache = env_flag("REPRO_MAPPING_CACHE", True) and (
                mapper_signature(mapper) is not None
            )
        self._caching_mapper: Optional[CachingMapper] = None
        if use_mapping_cache:
            self._caching_mapper = CachingMapper(mapper, mapping_cache)

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

        This is the one place that decides which searches a design point
        runs.  Each layer is looked up in the mapping cache once.  The
        misses are grouped by :func:`~repro.perf.signature.search_signature`
        and each group runs one search, whose result every member gets:
        the fused cross-layer block (when enabled and supported) searches
        the groups' first layers together, and the groups it hands back
        search one at a time through the mapper.  Results are keyed by
        layer name in workload order.
        """
        cm = self._caching_mapper
        results: Dict[str, "MappingResult"] = {}
        pending = []
        for layer in self.workload.layers:
            hit = cm.lookup(layer, config) if cm is not None else None
            if hit is None:
                pending.append(layer)
            else:
                results[layer.name] = hit
        groups: Dict[Tuple, List[LayerShape]] = {}
        for layer in pending:
            inject("mapper", key=layer.name)
            groups.setdefault(
                search_signature(self.mapper, layer), []
            ).append(layer)

        def serve(group: List[LayerShape], result) -> None:
            if cm is not None:
                cm.store(group[0], config, result, repeats=len(group) - 1)
            for layer in group:
                results[layer.name] = result

        remaining = list(groups.values())
        if remaining and self._fused_enabled and self._supports_fused:
            fused, remaining = self._search_fused(config, remaining)
            for group, result in fused:
                serve(group, result)
        for group in remaining:
            serve(group, self._search(group[0], config))
        return {
            layer.name: results[layer.name] for layer in self.workload.layers
        }

    def _search(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> "MappingResult":
        """One per-layer search through the mapper."""
        try:
            return self.mapper(layer, config)
        except (KeyboardInterrupt, SystemExit, ReproError):
            raise
        except Exception as exc:
            raise MapperFailureError(
                f"mapping search failed: {type(exc).__name__}: {exc}",
                layer=layer.name,
                cause=type(exc).__name__,
            ) from exc

    def _search_fused(
        self, config: AcceleratorConfig, groups: List[List[LayerShape]]
    ) -> Tuple[list, List[List[LayerShape]]]:
        """Search the groups' first layers in one fused cross-layer block
        (``repro.cost.fused``).  Returns ``(fused, remaining)``: each
        fused group with its (bit-identical) result, and the groups the
        block hands back — every group, when the block fails.
        """
        import repro.cost.fused as _fused

        try:
            fused, remaining = _fused.search_layers_fused(
                self.mapper,
                [group[0] for group in groups],
                config,
                stats=self.batch_eval_stats,
            )
        except (KeyboardInterrupt, SystemExit, ReproError):
            raise
        except Exception as exc:
            # The safe path must win over a fast-path defect: warn and
            # hand every search back to the per-layer reference path.
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
                for _ in groups:
                    stats.record_fused_fallback()
            return [], groups
        group_of = {group[0].name: group for group in groups}
        return (
            [(group_of[layer.name], result) for layer, result in fused],
            [group_of[layer.name] for layer in remaining],
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
        """Layer searches this evaluator served from the mapping cache."""
        cm = self._caching_mapper
        return cm.exact_hits if cm else 0

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
        cm = self._caching_mapper
        stats = self.batch_eval_stats
        batch_section: Dict[str, object] = {
            "supported": stats is not None,
            "enabled": stats is not None
            and bool(getattr(self.mapper, "batch_eval", True)),
            "fused_supported": self._supports_fused,
            "fused_enabled": self._fused_enabled and self._supports_fused,
        }
        if stats is not None:
            batch_section.update(stats.as_dict())
        return {
            "evaluations": self.evaluations,
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "evaluations_per_second": self.evaluations_per_second,
            "point_cache_entries": self.cache_size(),
            "stages": self.timers.as_dict(),
            "mapping_cache": {
                "enabled": cm is not None,
                "exact_hits": self.mapping_cache_hits,
                # Always 0: the cache has no re-score tier.  Kept because
                # the campaign ledger's counters read this key.
                "rescore_hits": 0,
                "misses": self.mapping_cache_misses,
                "hit_rate": self.mapping_cache_hit_rate,
                "entries": self.mapping_cache_size(),
            },
            "batch_eval": batch_section,
        }

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
