"""Mapping optimizers: dMazeRunner-style top-N search and a Timeloop-like
random mapper.

The top-N mapper (paper §4.8) formulates a pruned mapping space —
utilization-pruned spatial unrollings, reuse-maximal loop orderings, and a
small catalog of greedy tile-growth strategies per buffer level — then
evaluates up to N candidates linearly and returns the latency-optimal one.
The random mapper samples the same pruned tiling structure at random, which
is how the paper configures black-box codesign baselines (§F: "Timeloop-like
random search").
"""

from __future__ import annotations

import functools
import itertools
import random
import time
import zlib
from dataclasses import dataclass, replace
from operator import floordiv, mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import AcceleratorConfig
from repro.cost.execution_info import ExecutionInfo, InfeasibleMapping
import repro.cost.batch as _cost_batch
import repro.cost.energy as _cost_energy
import repro.cost.latency as _cost_latency
from repro.mapping.batch_candidates import CandidateBatch, CandidateSpec
from repro.mapping.dataflow import (
    SPATIAL_DIMS,
    _greedy_tile_counts_cached,
    build_output_stationary_mapping,
)
from repro.mapping.factorization import divisors
from repro.mapping.mapping import (
    STATIONARY_CHOICES,
    Mapping,
    padded_bounds,
    padded_bounds_tuple,
)
from repro.perf.instrumentation import BatchEvalStats
from repro.workloads.layers import LOOP_DIMS, Dim, LayerShape, OperatorType

__all__ = [
    "MappingResult",
    "SearchTrace",
    "rescore_trace",
    "FixedDataflowMapper",
    "TopNMapper",
    "RandomSearchMapper",
]

#: Greedy RF tile-growth orders (different strategies reach different
#: corners of the tiling space; reduction-first is output-stationary-like,
#: output-first is weight-stationary-like).
RF_GROWTH_ORDERS: Tuple[Tuple[Dim, ...], ...] = (
    (Dim.FY, Dim.FX, Dim.C, Dim.OX),
    (Dim.OX, Dim.OY, Dim.M),
    (Dim.C, Dim.M),
    (Dim.M, Dim.OX, Dim.C),
)

#: Greedy SPM tile-growth orders.
SPM_GROWTH_ORDERS: Tuple[Tuple[Dim, ...], ...] = (
    (Dim.C, Dim.OY, Dim.OX, Dim.M, Dim.N),
    (Dim.M, Dim.C, Dim.FY, Dim.FX),
    (Dim.OY, Dim.OX, Dim.N, Dim.M),
)


@dataclass(frozen=True)
class MappingResult:
    """Outcome of optimizing a layer's mapping on one hardware config.

    ``execution`` is ``None`` when no feasible mapping exists — the
    hardware is incompatible with every candidate (paper §6.2's infeasible-
    by-incompatibility case).
    """

    mapping: Optional[Mapping]
    execution: Optional[ExecutionInfo]
    candidates_evaluated: int
    feasible_candidates: int

    @property
    def feasible(self) -> bool:
        return self.execution is not None

    @property
    def latency(self) -> float:
        return self.execution.latency if self.execution else float("inf")


@dataclass(frozen=True)
class SearchTrace:
    """Re-scorable record of one mapping search.

    Holds every *feasible* ``(mapping, execution)`` pair in evaluation
    order plus the total number of candidates the search consumed.  A
    candidate's feasibility and every :class:`ExecutionInfo` field except
    ``t_dma`` are independent of the off-chip bandwidth and clock, so a
    trace recorded on one hardware configuration can be exactly re-scored
    (:func:`rescore_trace`) on any configuration that differs only in
    ``offchip_bw_mbps`` / ``freq_mhz`` — the layer-level mapping cache
    relies on this to turn bandwidth sweeps into re-scores instead of
    re-searches.
    """

    feasible: Tuple[Tuple[Mapping, ExecutionInfo], ...]
    candidates_evaluated: int


def rescore_trace(
    layer: LayerShape,
    config: AcceleratorConfig,
    trace: SearchTrace,
    objective: str = "latency",
) -> MappingResult:
    """Re-pick the best candidate of a recorded search on new hardware.

    Only ``t_dma`` (and therefore latency/EDP) depends on the off-chip
    bandwidth and clock; it is re-derived from the recorded off-chip
    traffic with the same expression the latency model uses, so the
    returned result is bit-identical to a cold search on ``config``
    (provided ``config`` matches the traced one on every other field).
    """
    scorer = _resolve_objective(objective)
    dram_bpc = config.dram_bytes_per_cycle
    best_exec: Optional[ExecutionInfo] = None
    best_mapping: Optional[Mapping] = None
    best_score = float("inf")
    for mapping, execution in trace.feasible:
        rescored = replace(
            execution, t_dma=sum(execution.data_offchip.values()) / dram_bpc
        )
        score = scorer(layer, rescored, config)
        if score < best_score:
            best_exec = rescored
            best_mapping = mapping
            best_score = score
    return MappingResult(
        mapping=best_mapping,
        execution=best_exec,
        candidates_evaluated=trace.candidates_evaluated,
        feasible_candidates=len(trace.feasible),
    )


def _stable_seed(*parts: object) -> int:
    """Order-sensitive integer digest of ``parts``, stable across
    processes and ``PYTHONHASHSEED`` values (unlike ``tuple.__hash__``,
    which randomizes any ``str`` member)."""
    canonical = "|".join(repr(p) for p in parts)
    return zlib.crc32(canonical.encode("utf-8"))


def _log_spaced(values: Sequence[int], keep: int) -> Tuple[int, ...]:
    """Thin an ascending sequence to ~``keep`` log-spaced entries,
    always keeping the first and last.

    Degenerate budgets are clamped rather than rejected: an empty
    ``values`` yields ``()`` and ``keep <= 1`` keeps only the last
    (largest) entry.
    """
    if not values:
        return ()
    if len(values) <= keep:
        return tuple(values)
    if keep <= 1:
        return (values[-1],)
    picks = {0, len(values) - 1}
    step = (len(values) - 1) / (keep - 1)
    for i in range(1, keep - 1):
        picks.add(round(i * step))
    return tuple(values[i] for i in sorted(picks))


#: ``LOOP_DIMS`` column of each spatially unrollable dim.
_SPATIAL_COLS = tuple(LOOP_DIMS.index(d) for d in SPATIAL_DIMS)
#: Log-spaced divisor options kept per spatial dim.
_SPATIAL_OPTIONS_PER_DIM = 8


@functools.lru_cache(maxsize=4096)
def _spatial_unrollings_cached(
    spatial_bounds: Tuple[int, ...],
    pes: int,
    max_options_per_dim: int,
    max_combos: int,
) -> Tuple[Tuple[int, ...], ...]:
    """Tuple-domain core of :func:`enumerate_spatial_unrollings`, memoized.

    The pruned unrolling set depends only on the padded spatial bounds
    and the PE budget, and a campaign re-enumerates the same handful of
    layer shapes for every design point — the same repetition hazard the
    ``padded_bounds`` memoization addresses.  Returned tuples are in
    ``LOOP_DIMS`` order.
    """
    options = []
    for bound in spatial_bounds:
        divs = [f for f in divisors(bound) if f <= pes]
        options.append(_log_spaced(divs, max_options_per_dim))

    combos: List[Tuple[int, Tuple[int, ...]]] = []
    for picks in itertools.product(*options):
        used = 1
        for f in picks:
            used *= f
        if used > pes:
            continue
        spatial = [1] * len(LOOP_DIMS)
        for col, f in zip(_SPATIAL_COLS, picks):
            spatial[col] = f
        combos.append((used, tuple(spatial)))

    combos.sort(key=lambda item: -item[0])
    # Keep a spread across utilization tiers (power-of-two buckets of PEs
    # used), preferring high occupancy but retaining mid/low unrollings:
    # NoC link limits often rule out the widest unrollings, and adaptive
    # threshold adjustment (paper §4.8) must still find executable ones.
    buckets: Dict[int, int] = {}
    per_bucket = max(2, max_combos // 8)
    kept: List[Tuple[int, ...]] = []
    for used, spatial in combos:
        if used < 2:
            continue
        bucket = used.bit_length()
        if buckets.get(bucket, 0) >= per_bucket:
            continue
        buckets[bucket] = buckets.get(bucket, 0) + 1
        kept.append(spatial)
        if len(kept) >= max_combos - 1:
            break
    # The purely temporal mapping is always NoC-compatible; keep it as a
    # fallback so adaptive mapping can execute on any hardware (fixed
    # dataflows lack this escape hatch — paper §6.2).
    kept.append((1,) * len(LOOP_DIMS))
    return tuple(kept)


def enumerate_spatial_unrollings(
    layer: LayerShape,
    config: AcceleratorConfig,
    max_options_per_dim: int = _SPATIAL_OPTIONS_PER_DIM,
    max_combos: int = 24,
) -> List[Dict[Dim, int]]:
    """Utilization-pruned spatial unrollings over independent output dims.

    Enumerates combinations of up to ``max_options_per_dim`` log-spaced
    divisors per (M, OY, OX, N) with total PE use <= the PE count, orders
    them by PEs used (highest first), and keeps at most
    ``max(2, max_combos // 8)`` per power-of-two utilization bucket
    (``used.bit_length()``), skipping single-PE combos, until
    ``max_combos - 1`` are kept.  The purely temporal unrolling is always
    appended last as the NoC-compatible fallback.
    """
    bounds = padded_bounds(layer)
    kept = _spatial_unrollings_cached(
        tuple(bounds[d] for d in SPATIAL_DIMS),
        config.pes,
        max_options_per_dim,
        max_combos,
    )
    return [dict(zip(LOOP_DIMS, spatial)) for spatial in kept]


#: ``LOOP_DIMS`` indices of the greedy growth orders (tuple-domain loop).
_RF_ORDER_COLS = tuple(
    tuple(LOOP_DIMS.index(d) for d in order) for order in RF_GROWTH_ORDERS
)
_SPM_ORDER_COLS = tuple(
    tuple(LOOP_DIMS.index(d) for d in order) for order in SPM_GROWTH_ORDERS
)
_UNIT_TILE = (1,) * len(LOOP_DIMS)
#: Stationary-code pairs per tiling, ``dram_code * 3 + spm_code`` order.
_CODE_PAIRS = len(STATIONARY_CHOICES) ** 2


def _distinct_tilings(
    layer: LayerShape,
    config: AcceleratorConfig,
    bounds: Tuple[int, ...],
    spatial: Tuple[int, ...],
) -> Iterator[Tuple[int, ...]]:
    """Lazily yield one unrolling's distinct tilings, RF growth order
    major and SPM growth order minor, each as the flat factor tuple
    ``spatial + rf + spm + dram``.

    Growth orders that land on an already-yielded ``(rf, spm)`` pair are
    skipped; the pair fixes ``dram``, so each yielded tiling is distinct.
    """
    stride = layer.stride
    dwise = layer.operator is OperatorType.DWCONV
    bpe = config.bytes_per_element
    spm_budget = config.l2_bytes // 2
    remaining0 = tuple(map(floordiv, bounds, spatial))
    seen = set()
    for rf_order in _RF_ORDER_COLS:
        rf = _greedy_tile_counts_cached(
            stride, dwise, remaining0, rf_order, config.l1_bytes,
            _UNIT_TILE, bpe,
        )
        remaining1 = tuple(map(floordiv, remaining0, rf))
        base = tuple(map(mul, rf, spatial))
        for spm_order in _SPM_ORDER_COLS:
            spm = _greedy_tile_counts_cached(
                stride, dwise, remaining1, spm_order, spm_budget, base, bpe,
            )
            if (rf, spm) in seen:
                continue
            seen.add((rf, spm))
            yield spatial + rf + spm + tuple(map(floordiv, remaining1, spm))


def _top_n_batch(
    layer: LayerShape,
    config: AcceleratorConfig,
    max_spatial: int,
    top_n: int,
) -> CandidateBatch:
    """The first ``top_n`` candidates of the pruned (spatial x RF x SPM x
    stationarity) space, as one int64 :class:`CandidateBatch`.

    Candidates are ordered by (pair rank, stationary-code pair, unrolling
    index), where a tiling's pair rank is its position among its
    unrolling's distinct tilings (:func:`_distinct_tilings`).  Every spatial
    unrolling, including the temporal fallback, therefore appears before
    any unrolling's second stationarity variant, so a bounded budget
    still touches every spatial option.  Pair ranks are drawn one at a
    time and only until ``top_n`` rows exist; the rows are then laid out
    by gathering from the small table of drawn tilings.
    """
    bounds = padded_bounds_tuple(layer)
    active = [
        _distinct_tilings(layer, config, bounds, spatial)
        for spatial in _spatial_unrollings_cached(
            tuple(bounds[c] for c in _SPATIAL_COLS),
            config.pes,
            _SPATIAL_OPTIONS_PER_DIM,
            max_spatial,
        )
    ]
    table: List[Tuple[int, ...]] = []
    rows: List[np.ndarray] = []
    codes: List[np.ndarray] = []
    count = 0
    while count < top_n:
        start = len(table)
        drawn = []
        for tilings in active:
            tiling = next(tilings, None)
            if tiling is None:
                continue
            table.append(tiling)
            drawn.append(tilings)
            if count + len(drawn) == top_n:
                break  # the budget ends within this rank's first code pair
        if not drawn:
            break
        active = drawn
        width = len(drawn)
        # Row j of the rank: tiling ``start + j % width``, code ``j // width``.
        j = np.arange(width * _CODE_PAIRS, dtype=np.int64)
        rows.append(start + j % width)
        codes.append(j // width)
        count += width * _CODE_PAIRS
    row = np.concatenate(rows)[:top_n]
    code = np.concatenate(codes)[:top_n]
    levels = np.array(table, dtype=np.int64).reshape(-1, 4, len(LOOP_DIMS))
    levels = levels[row]
    return CandidateBatch(
        dram=levels[:, 3],
        spm=levels[:, 2],
        spatial=levels[:, 0],
        rf=levels[:, 1],
        dram_code=code // len(STATIONARY_CHOICES),
        spm_code=code % len(STATIONARY_CHOICES),
    )


#: Mapping-objective scorers: map an execution to the value minimized by
#: the mapper.  ``edp`` is the energy-delay product — dMazeRunner-class
#: mappers commonly optimize either metric.
def _score_latency(
    layer: LayerShape, execution: ExecutionInfo, config: AcceleratorConfig
) -> float:
    return execution.latency


def _score_energy(
    layer: LayerShape, execution: ExecutionInfo, config: AcceleratorConfig
) -> float:
    return _cost_energy.layer_energy(execution, config).total_pj


def _score_edp(
    layer: LayerShape, execution: ExecutionInfo, config: AcceleratorConfig
) -> float:
    return execution.latency * _cost_energy.layer_energy(
        execution, config
    ).total_pj


MAPPING_OBJECTIVES = {
    "latency": _score_latency,
    "energy": _score_energy,
    "edp": _score_edp,
}


def _resolve_objective(objective: str):
    """The scorer of ``objective``, or a helpful error for unknown names."""
    try:
        return MAPPING_OBJECTIVES[objective]
    except KeyError:
        raise ValueError(
            f"unknown mapping objective {objective!r}; "
            f"available: {sorted(MAPPING_OBJECTIVES)}"
        ) from None


def _select_best(
    layer: LayerShape,
    config: AcceleratorConfig,
    outcomes: Sequence[Tuple[Mapping, ExecutionInfo]],
    scorer,
) -> Tuple[Optional[Mapping], Optional[ExecutionInfo]]:
    """First strictly-best feasible candidate (the scalar tie-breaking)."""
    best_exec: Optional[ExecutionInfo] = None
    best_mapping: Optional[Mapping] = None
    best_score = float("inf")
    for mapping, execution in outcomes:
        score = scorer(layer, execution, config)
        if score < best_score:
            best_exec = execution
            best_mapping = mapping
            best_score = score
    return best_mapping, best_exec


def _best_of_traced_batch(
    layer: LayerShape,
    config: AcceleratorConfig,
    batch: CandidateBatch,
    scorer,
    stats: Optional[BatchEvalStats],
) -> Tuple[MappingResult, SearchTrace]:
    """Batched twin of the scalar loop in :func:`_best_of_traced`.

    Scores the whole materialized candidate set through the vectorized
    kernels, then reconstructs ``Mapping``/``ExecutionInfo`` objects for
    the feasible candidates only (in candidate order, so the trace and
    the first-strictly-best selection are bit-identical to the scalar
    reference).
    """
    started = time.perf_counter()
    evaluation = _cost_batch.evaluate_layer_batch(layer, batch, config)
    feasible = evaluation.feasible_indices
    outcomes: List[Tuple[Mapping, ExecutionInfo]] = list(
        zip(batch.mappings(feasible), evaluation.execution_infos(feasible))
    )
    best_mapping, best_exec = _select_best(layer, config, outcomes, scorer)
    if stats is not None:
        stats.record_batch(
            len(batch), len(outcomes), time.perf_counter() - started
        )
    result = MappingResult(
        mapping=best_mapping,
        execution=best_exec,
        candidates_evaluated=len(batch),
        feasible_candidates=len(outcomes),
    )
    return result, SearchTrace(tuple(outcomes), len(batch))


def _best_of_traced(
    layer: LayerShape,
    config: AcceleratorConfig,
    batch: CandidateBatch,
    objective: str = "latency",
    batch_eval: Optional[bool] = None,
    stats: Optional[BatchEvalStats] = None,
) -> Tuple[MappingResult, SearchTrace]:
    """Evaluate every candidate of ``batch``; return the
    objective-optimal result together with the re-scorable
    :class:`SearchTrace`.

    ``batch_eval`` selects the vectorized kernels explicitly; ``None``
    defers to ``REPRO_BATCH_EVAL`` (default on).  Both paths produce
    bit-identical results; the batch path additionally requires the
    candidate set to be int64-safe and falls back to the scalar
    reference otherwise.
    """
    scorer = _resolve_objective(objective)
    if _cost_batch.batch_eval_enabled(batch_eval):
        if _cost_batch.int64_safe(batch, config):
            return _best_of_traced_batch(layer, config, batch, scorer, stats)
        if stats is not None:
            stats.record_fallback()

    started = time.perf_counter()
    best_exec: Optional[ExecutionInfo] = None
    best_mapping: Optional[Mapping] = None
    best_score = float("inf")
    outcomes: List[Tuple[Mapping, ExecutionInfo]] = []
    for mapping in batch.mappings(range(len(batch))):
        outcome = _cost_latency.evaluate_layer_mapping(layer, mapping, config)
        if isinstance(outcome, InfeasibleMapping):
            continue
        outcomes.append((mapping, outcome))
        score = scorer(layer, outcome, config)
        if score < best_score:
            best_exec = outcome
            best_mapping = mapping
            best_score = score
    if stats is not None:
        stats.record_scalar(len(batch), time.perf_counter() - started)
    result = MappingResult(
        mapping=best_mapping,
        execution=best_exec,
        candidates_evaluated=len(batch),
        feasible_candidates=len(outcomes),
    )
    return result, SearchTrace(tuple(outcomes), len(batch))


class FixedDataflowMapper:
    """One deterministic output-stationary mapping per (layer, hardware)."""

    name = "fixed-dataflow"
    #: The search stream never reads ``layer.name`` (see ``signature``).
    cache_layer_name_relevant = False
    objective = "latency"

    def signature(self) -> Tuple:
        """Cache identity of this mapper (see ``repro.perf.signature``)."""
        return (self.name,)

    def search_with_trace(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> Tuple[MappingResult, SearchTrace]:
        mapping = build_output_stationary_mapping(layer, config)
        if mapping is None:
            return MappingResult(None, None, 0, 0), SearchTrace((), 0)
        outcome = _cost_latency.evaluate_layer_mapping(layer, mapping, config)
        if isinstance(outcome, InfeasibleMapping):
            return MappingResult(None, None, 1, 0), SearchTrace((), 1)
        return (
            MappingResult(mapping, outcome, 1, 1),
            SearchTrace(((mapping, outcome),), 1),
        )

    def __call__(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> MappingResult:
        result, _ = self.search_with_trace(layer, config)
        return result


class TopNMapper:
    """dMazeRunner-style pruned-space mapper with a top-N budget.

    Args:
        top_n: Maximum mappings evaluated per (layer, hardware) pair.
        max_spatial: Spatial-unrolling combinations retained after
            utilization pruning.
        objective: Mapping metric minimized: ``"latency"`` (default),
            ``"energy"``, or ``"edp"``.
        batch_eval: Score candidates through the vectorized batch kernels
            (``repro.cost.batch``).  ``None`` (default) defers to the
            ``REPRO_BATCH_EVAL`` environment variable at search time;
            results are bit-identical either way, so the choice is not
            part of the cache :meth:`signature`.
    """

    name = "top-n"

    def __init__(
        self,
        top_n: int = 200,
        max_spatial: int = 16,
        objective: str = "latency",
        batch_eval: Optional[bool] = None,
    ):
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        _resolve_objective(objective)
        self.top_n = top_n
        self.max_spatial = max_spatial
        self.objective = objective
        self.batch_eval = batch_eval
        self.batch_stats = BatchEvalStats()

    cache_layer_name_relevant = False

    def signature(self) -> Tuple:
        """Cache identity of this mapper (see ``repro.perf.signature``)."""
        return (self.name, self.top_n, self.max_spatial, self.objective)

    def candidate_plan(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> CandidateBatch:
        """The candidate set of one search, at most ``top_n`` rows.

        This is the fused-evaluation protocol (``repro.cost.fused``): a
        caller may score the batch itself; doing so is exactly
        equivalent to :meth:`search_with_trace`.
        """
        return _top_n_batch(layer, config, self.max_spatial, self.top_n)

    def search_with_trace(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> Tuple[MappingResult, SearchTrace]:
        return _best_of_traced(
            layer,
            config,
            self.candidate_plan(layer, config),
            objective=self.objective,
            batch_eval=self.batch_eval,
            stats=self.batch_stats,
        )

    def __call__(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> MappingResult:
        result, _ = self.search_with_trace(layer, config)
        return result


class RandomSearchMapper:
    """Timeloop-like random mapper over the factorization-pruned space.

    Samples random per-dimension divisor splits (DRAM/SPM/SPATIAL/RF) and
    random stationary choices, evaluating ``trials`` candidates.  This is
    the mapping optimizer the paper gives the black-box codesign baselines.
    """

    name = "random"

    def __init__(
        self,
        trials: int = 200,
        seed: int = 0,
        objective: str = "latency",
        batch_eval: Optional[bool] = None,
    ):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        _resolve_objective(objective)
        self.trials = trials
        self.seed = seed
        self.objective = objective
        self.batch_eval = batch_eval
        self.batch_stats = BatchEvalStats()

    def _random_candidate(
        self,
        layer: LayerShape,
        config: AcceleratorConfig,
        rng: random.Random,
    ) -> CandidateSpec:
        bounds = padded_bounds(layer)
        spatial: Dict[Dim, int] = {d: 1 for d in LOOP_DIMS}
        budget = config.pes
        for d in SPATIAL_DIMS:
            opts = [f for f in divisors(bounds[d]) if f <= budget]
            spatial[d] = rng.choice(opts)
            budget //= spatial[d]
        rf: Dict[Dim, int] = {}
        spm: Dict[Dim, int] = {}
        dram: Dict[Dim, int] = {}
        for d in LOOP_DIMS:
            rest = bounds[d] // spatial[d]
            rf[d] = rng.choice(divisors(rest))
            rest //= rf[d]
            spm[d] = rng.choice(divisors(rest))
            dram[d] = rest // spm[d]
        return CandidateSpec.from_level_maps(
            dram=dram,
            spm=spm,
            spatial=spatial,
            rf=rf,
            dram_stationary=rng.choice(STATIONARY_CHOICES),
            spm_stationary=rng.choice(STATIONARY_CHOICES),
        )

    #: The candidate stream is seeded by ``layer.name``, so the mapping
    #: cache must key on it (unlike the shape-only deterministic mappers).
    cache_layer_name_relevant = True

    def signature(self) -> Tuple:
        """Cache identity of this mapper (see ``repro.perf.signature``)."""
        return (self.name, self.trials, self.seed, self.objective)

    def candidate_plan(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> CandidateBatch:
        """The ``trials`` candidates of one search (the fused-evaluation
        protocol; see ``TopNMapper.candidate_plan``).

        Deterministic per (layer, config) stream so evaluations cache.
        The seed is a stable digest, not ``tuple.__hash__``: hashes of str
        members vary per process under PYTHONHASHSEED randomization,
        which would make the "deterministic" stream differ across
        worker processes and runs.
        """
        # Re-validate at plan time: the constructor check can be bypassed
        # by mutating ``trials`` afterwards, and an exhausted budget must be
        # a loud error, not a silent empty MappingResult.
        if self.trials < 1:
            raise ValueError(
                f"RandomSearchMapper: trial budget must be >= 1 to search, "
                f"got {self.trials!r}"
            )
        rng = random.Random(
            _stable_seed(self.seed, layer.name, config.pes, config.l1_bytes)
        )
        return CandidateBatch.from_specs(
            self._random_candidate(layer, config, rng)
            for _ in range(self.trials)
        )

    def search_with_trace(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> Tuple[MappingResult, SearchTrace]:
        return _best_of_traced(
            layer,
            config,
            self.candidate_plan(layer, config),
            objective=self.objective,
            batch_eval=self.batch_eval,
            stats=self.batch_stats,
        )

    def __call__(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> MappingResult:
        result, _ = self.search_with_trace(layer, config)
        return result
