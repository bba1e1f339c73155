"""Mapping optimizers: dMazeRunner-style top-N search and a Timeloop-like
random mapper.

The top-N mapper (paper §4.8) formulates a pruned mapping space —
utilization-pruned spatial unrollings, reuse-maximal loop orderings, and a
small catalog of greedy tile-growth strategies per buffer level — then
evaluates up to N candidates linearly and returns the latency-optimal one.
The random mapper samples the same pruned tiling structure at random, which
is how the paper configures black-box codesign baselines (§F: "Timeloop-like
random search").

Both build a search's candidate set directly as one int64
:class:`CandidateBatch`, never as per-candidate objects: the top-N mapper
gathers rows from the tilings it draws, and the random mapper samples each
trial's factors as plain tuples, from memoized divisor tables, and fills
one array with them.

A top-N plan depends only on the layer signature, four hardware fields
(``pes``, ``l1_bytes``, ``l2_bytes``, ``bytes_per_element``) and the
mapper's ``max_spatial`` and ``top_n`` (:meth:`TopNMapper.plan_key`),
and DNNs repeat layer shapes across layers and design points.  So the
drawn tilings and each row's tiling index and stationary codes are
memoized process-wide in a bounded LRU (:func:`_top_n_plan`, read-only
arrays).  A second bounded memo under the same key, :data:`_top_n_terms`,
holds each plan with the plan-stage terms of the scoring kernel
(:mod:`repro.cost.batch`), which read the same fields.  A per-layer
top-N search and a fused block (:mod:`repro.cost.fused`) both read it
(:func:`top_n_plan_terms`), run only the NoC/bandwidth stage and gather
the rows they pick, so design points that differ only in NoC,
bandwidth or clock fields share every plan-stage pass; ``candidate_plan``
gathers a fresh batch from the plan memo for callers that score a batch
themselves.
"""

from __future__ import annotations

import functools
import itertools
import random
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from operator import floordiv, mul
from typing import (
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.arch.accelerator import AcceleratorConfig
from repro.cost.execution_info import ExecutionInfo, InfeasibleMapping
import repro.cost.batch as _cost_batch
import repro.cost.energy as _cost_energy
import repro.cost.latency as _cost_latency
from repro.mapping.batch_candidates import CandidateBatch, candidate_arrays
from repro.mapping.dataflow import (
    SPATIAL_DIMS,
    _greedy_tile_counts_cached,
    build_output_stationary_mapping,
)
from repro.mapping.factorization import divisors, smooth_pad
from repro.mapping.mapping import (
    STATIONARY_CHOICES,
    Mapping,
    padded_bounds,
    padded_bounds_tuple,
)
from repro.perf.instrumentation import BatchEvalStats
from repro.perf.signature import layer_signature
from repro.workloads.layers import LOOP_DIMS, Dim, LayerShape, OperatorType

__all__ = [
    "MappingResult",
    "top_n_plan_terms",
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
        if len(kept) >= max_combos - 1:
            break
        if used < 2:
            continue
        bucket = used.bit_length()
        if buckets.get(bucket, 0) >= per_bucket:
            continue
        buckets[bucket] = buckets.get(bucket, 0) + 1
        kept.append(spatial)
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
    appended last as the NoC-compatible fallback, so ``max_combos=1``
    keeps it alone.
    """
    if max_combos < 1:
        raise ValueError(f"max_combos must be >= 1, got {max_combos!r}")
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
    stride: int,
    dwise: bool,
    l1_bytes: int,
    spm_budget: int,
    bytes_per_element: int,
    bounds: Tuple[int, ...],
    spatial: Tuple[int, ...],
) -> Iterator[Tuple[int, ...]]:
    """Lazily yield one unrolling's distinct tilings, RF growth order
    major and SPM growth order minor, each as the flat factor tuple
    ``spatial + rf + spm + dram``.

    Growth orders that land on an already-yielded ``(rf, spm)`` pair are
    skipped; the pair fixes ``dram``, so each yielded tiling is distinct.
    """
    remaining0 = tuple(map(floordiv, bounds, spatial))
    seen = set()
    for rf_order in _RF_ORDER_COLS:
        rf = _greedy_tile_counts_cached(
            stride, dwise, remaining0, rf_order, l1_bytes,
            _UNIT_TILE, bytes_per_element,
        )
        remaining1 = tuple(map(floordiv, remaining0, rf))
        base = tuple(map(mul, rf, spatial))
        for spm_order in _SPM_ORDER_COLS:
            spm = _greedy_tile_counts_cached(
                stride, dwise, remaining1, spm_order, spm_budget, base,
                bytes_per_element,
            )
            if (rf, spm) in seen:
                continue
            seen.add((rf, spm))
            yield spatial + rf + spm + tuple(map(floordiv, remaining1, spm))


#: Entries of the top-N plan memo (:func:`_top_n_plan`) and of the terms
#: memo (:data:`_top_n_terms`).  A plan is about 7 KB at ``top_n=150``,
#: so a full plan memo holds under 10 MB.  A terms entry adds 64 B per
#: row (four NoC event counts, three DRAM fetch counts and the off-chip
#: total) plus 145 B per tiling (``t_comp``, the capacity verdict, the
#: PEs used, three NoC group counts, three RF and three SPM tile sizes,
#: the padded output tile and six reuse divisors): about 13 KB more at
#: ``top_n=150``, where a plan averages 147 rows over 23.5 tilings.
_TOP_N_PLANS = 1024


class _MemoInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class _BoundedMemo:
    """A thread-safe LRU map of at most ``maxsize`` entries.

    Unlike ``functools.lru_cache`` it does not compute on a miss:
    :func:`top_n_plan_terms` scores every miss of a fused block in one
    pass and then stores each entry.  Its counters are for tests
    (:meth:`cache_info`), as ``_top_n_plan``'s are; they outlive any one
    campaign, so no journal or ``perf_summary()`` reads them.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def get(self, key: Hashable):
        """The entry of ``key`` (now the most recent), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
            return entry

    def put(self, key: Hashable, entry) -> None:
        """Store ``entry``, evicting the least recent beyond the bound."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def cache_info(self) -> _MemoInfo:
        with self._lock:
            return _MemoInfo(
                self._hits, self._misses, self.maxsize, len(self._entries)
            )

    def cache_clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0


#: Each top-N plan with its plan-stage terms
#: (:class:`repro.cost.batch.PlanTerms`), keyed exactly like
#: :func:`_top_n_plan`; filled and read by :func:`top_n_plan_terms`.
_top_n_terms = _BoundedMemo(_TOP_N_PLANS)


@functools.lru_cache(maxsize=_TOP_N_PLANS)
def _top_n_plan(
    operator: str,
    dims: Tuple[int, ...],
    stride: int,
    pes: int,
    l1_bytes: int,
    l2_bytes: int,
    bytes_per_element: int,
    max_spatial: int,
    top_n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first ``top_n`` candidates of the pruned (spatial x RF x SPM x
    stationarity) space, in compact form, memoized.

    Returns ``(table, row, code)``, all int64 and read-only: the drawn
    tilings as a ``(tilings, 4, 7)`` table of spatial, RF, SPM and DRAM
    factors, and per candidate its tiling's table index and its
    stationary-code pair (``dram_code * 3 + spm_code``).

    The arguments are everything generation reads and nothing else: the
    layer signature (operator value, loop bounds, stride), four hardware
    fields and the mapper's two budgets (see :mod:`repro.perf.signature`).
    A layer's name and ``repeats`` and the NoC, bandwidth and clock
    fields do not change a plan, so layers and design points that differ
    only there share one entry.

    Candidates are ordered by (pair rank, stationary-code pair, unrolling
    index), where a tiling's pair rank is its position among its
    unrolling's distinct tilings (:func:`_distinct_tilings`).  Every spatial
    unrolling, including the temporal fallback, therefore appears before
    any unrolling's second stationarity variant, so a bounded budget
    still touches every spatial option.  Pair ranks are drawn one at a
    time and only until ``top_n`` rows exist.
    """
    bounds = tuple(map(smooth_pad, dims))
    dwise = operator == OperatorType.DWCONV.value
    spm_budget = l2_bytes // 2
    active = [
        _distinct_tilings(
            stride, dwise, l1_bytes, spm_budget, bytes_per_element, bounds,
            spatial,
        )
        for spatial in _spatial_unrollings_cached(
            tuple(bounds[c] for c in _SPATIAL_COLS),
            pes,
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
    # Copies, so that the memo holds no rows past ``top_n``.
    plan = (
        np.array(table, dtype=np.int64).reshape(-1, 4, len(LOOP_DIMS)),
        np.concatenate(rows)[:top_n].copy(),
        np.concatenate(codes)[:top_n].copy(),
    )
    for array in plan:
        array.setflags(write=False)
    return plan


def _top_n_batch(key: Tuple) -> CandidateBatch:
    """The top-N candidates of plan ``key`` (:meth:`TopNMapper.plan_key`)
    as one int64 :class:`CandidateBatch`, gathered from the memoized
    plan (:func:`_top_n_plan`) into fresh arrays: a caller may write
    into the batch without changing any later plan."""
    table, row, code = _top_n_plan(*key)
    return CandidateBatch(**candidate_arrays(table[row], code))


def top_n_plan_terms(
    layers: Sequence[LayerShape],
    keys: Sequence[Tuple],
    config: AcceleratorConfig,
) -> List["_cost_batch.PlanTerms"]:
    """The memoized :class:`~repro.cost.batch.PlanTerms` of each
    layer's top-N plan (``keys[k]`` is ``layers[k]``'s
    :meth:`TopNMapper.plan_key`).

    Every miss is scored in one plan-stage pass
    (:func:`repro.cost.batch.plan_terms`) and stored in
    :data:`_top_n_terms`.  An int64-unsafe plan is stored with its
    verdict and no terms, so the verdict is computed once per plan.
    """
    entries = []
    missing = []
    for k, key in enumerate(keys):
        entry = _top_n_terms.get(key)
        if entry is None:
            table, row, code = _top_n_plan(*key)
            safe = _cost_batch.plan_int64_safe(table, row, config)
            entry = _cost_batch.PlanTerms(table, row, code, safe)
            if safe:
                missing.append(k)
            else:
                _top_n_terms.put(key, entry)
        entries.append(entry)
    if missing:
        scored = _cost_batch.plan_terms(
            [layers[k] for k in missing], [entries[k] for k in missing], config
        )
        for k, entry in zip(missing, scored):
            entries[k] = entry
            _top_n_terms.put(keys[k], entry)
    return entries


@functools.lru_cache(maxsize=65536)
def _divisors_within(n: int, budget: int) -> Tuple[int, ...]:
    """The divisors of ``n`` that are at most ``budget``, ascending."""
    return tuple(f for f in divisors(n) if f <= budget)


#: Stationary-operand codes.  ``rng.choice`` picks by position, so a draw
#: from this tuple matches a draw from :data:`STATIONARY_CHOICES`.
_STATIONARY_CODES = tuple(range(len(STATIONARY_CHOICES)))


def _random_batch(
    bounds: Tuple[int, ...],
    pes: int,
    trials: int,
    rng: random.Random,
) -> CandidateBatch:
    """``trials`` random tilings of a layer with padded loop ``bounds``
    (``LOOP_DIMS`` order) on ``pes`` PEs, as one int64
    :class:`CandidateBatch`.

    Each trial makes 20 ``rng.choice`` calls, in this order: a divisor
    of each spatial dim's bound within the PEs still unused (M, OY, OX,
    N); per loop dim, an RF divisor of what the spatial factor leaves,
    then an SPM divisor of what the RF factor leaves (DRAM takes the
    rest); then the DRAM and the SPM stationary code.
    """
    dims = len(LOOP_DIMS)
    rows = []
    for _ in range(trials):
        spatial = [1] * dims
        budget = pes
        for col in _SPATIAL_COLS:
            factor = rng.choice(_divisors_within(bounds[col], budget))
            spatial[col] = factor
            budget //= factor
        rf, spm, dram = [], [], []
        for bound, factor in zip(bounds, spatial):
            rest = bound // factor
            rf_factor = rng.choice(divisors(rest))
            rest //= rf_factor
            spm_factor = rng.choice(divisors(rest))
            rf.append(rf_factor)
            spm.append(spm_factor)
            dram.append(rest // spm_factor)
        dram_code = rng.choice(_STATIONARY_CODES)
        spm_code = rng.choice(_STATIONARY_CODES)
        rows.append(spatial + rf + spm + dram + [dram_code, spm_code])
    table = np.array(rows, dtype=np.int64)
    return CandidateBatch(
        dram=table[:, 3 * dims:4 * dims],
        spm=table[:, 2 * dims:3 * dims],
        spatial=table[:, :dims],
        rf=table[:, dims:2 * dims],
        dram_code=table[:, 4 * dims],
        spm_code=table[:, 4 * dims + 1],
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


def _best_of_evaluation(
    layer: LayerShape,
    evaluation: "_cost_batch.BatchLayerEvaluation",
    objective: str,
    stats: Optional[BatchEvalStats],
    started: float,
) -> MappingResult:
    """Batched twin of the scalar loop in :func:`_best_of_candidates`.

    Picks the winner of a search's evaluation with
    :func:`repro.cost.batch.best_of_batch` and records the search (begun
    at ``started``).  The result is bit-identical to the scalar
    reference.
    """
    best_mapping, best_exec = _cost_batch.best_of_batch(
        layer,
        evaluation,
        None if objective == "latency" else _resolve_objective(objective),
    )
    feasible = int(np.count_nonzero(evaluation.feasible))
    if stats is not None:
        stats.record_batch(
            len(evaluation), feasible, time.perf_counter() - started
        )
    return MappingResult(
        mapping=best_mapping,
        execution=best_exec,
        candidates_evaluated=len(evaluation),
        feasible_candidates=feasible,
    )


def _best_of_candidates(
    layer: LayerShape,
    config: AcceleratorConfig,
    batch: CandidateBatch,
    objective: str = "latency",
    batch_eval: bool = True,
    stats: Optional[BatchEvalStats] = None,
) -> MappingResult:
    """Evaluate every candidate of ``batch``; return the
    objective-optimal result.

    ``batch_eval`` selects the vectorized kernel (default) or the scalar
    reference loop.  Both produce bit-identical results; the kernel
    additionally requires the candidate set to be int64-safe and falls
    back to the scalar reference otherwise.
    """
    scorer = _resolve_objective(objective)
    if batch_eval:
        if _cost_batch.int64_safe(batch, config):
            started = time.perf_counter()
            return _best_of_evaluation(
                layer,
                _cost_batch.BatchLayerEvaluation(layer, batch, config),
                objective,
                stats,
                started,
            )
        if stats is not None:
            stats.record_fallback()

    started = time.perf_counter()
    best_exec: Optional[ExecutionInfo] = None
    best_mapping: Optional[Mapping] = None
    best_score = float("inf")
    feasible = 0
    for mapping in batch.mappings(range(len(batch))):
        outcome = _cost_latency.evaluate_layer_mapping(layer, mapping, config)
        if isinstance(outcome, InfeasibleMapping):
            continue
        feasible += 1
        score = scorer(layer, outcome, config)
        if score < best_score:
            best_exec = outcome
            best_mapping = mapping
            best_score = score
    if stats is not None:
        stats.record_scalar(len(batch), time.perf_counter() - started)
    return MappingResult(
        mapping=best_mapping,
        execution=best_exec,
        candidates_evaluated=len(batch),
        feasible_candidates=feasible,
    )


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
    ) -> MappingResult:
        """One search: score the layer's output-stationary mapping (see
        :meth:`TopNMapper.search_with_trace` for the method's name)."""
        mapping = build_output_stationary_mapping(layer, config)
        if mapping is None:
            return MappingResult(None, None, 0, 0)
        outcome = _cost_latency.evaluate_layer_mapping(layer, mapping, config)
        if isinstance(outcome, InfeasibleMapping):
            return MappingResult(None, None, 1, 0)
        return MappingResult(mapping, outcome, 1, 1)

    def __call__(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> MappingResult:
        return self.search_with_trace(layer, config)


class TopNMapper:
    """dMazeRunner-style pruned-space mapper with a top-N budget.

    Args:
        top_n: Maximum mappings evaluated per (layer, hardware) pair.
        max_spatial: Spatial-unrolling combinations retained after
            utilization pruning, the temporal fallback included (1 keeps
            the fallback alone).
        objective: Mapping metric minimized: ``"latency"`` (default),
            ``"energy"``, or ``"edp"``.
        batch_eval: Score candidates through the vectorized kernel
            (``repro.cost.batch``, default) or, with False, the scalar
            reference.  Results are bit-identical either way, so the
            choice is not part of the cache :meth:`signature`.
    """

    name = "top-n"

    def __init__(
        self,
        top_n: int = 200,
        max_spatial: int = 16,
        objective: str = "latency",
        batch_eval: bool = True,
    ):
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        if max_spatial < 1:
            raise ValueError(f"max_spatial must be >= 1, got {max_spatial!r}")
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

    def plan_key(self, layer: LayerShape, config: AcceleratorConfig) -> Tuple:
        """The nine plain values one search's plan depends on: the
        :func:`~repro.perf.signature.layer_signature`, ``pes``,
        ``l1_bytes``, ``l2_bytes``, ``bytes_per_element``,
        ``max_spatial`` and ``top_n``.  It keys the plan memo
        (:func:`_top_n_plan`) and the terms memo (:data:`_top_n_terms`);
        every search reads it once."""
        return (
            *layer_signature(layer),
            config.pes,
            config.l1_bytes,
            config.l2_bytes,
            config.bytes_per_element,
            self.max_spatial,
            self.top_n,
        )

    def candidate_plan(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> CandidateBatch:
        """The candidate set of one search, at most ``top_n`` rows.

        This is the fused-evaluation protocol (``repro.cost.fused``): a
        caller may score the batch itself; doing so is exactly
        equivalent to :meth:`search_with_trace`.  Each call returns
        fresh arrays gathered from the process-wide plan memo.  The
        batch searches, per layer and fused, read the terms memo
        through :meth:`plan_key` instead, and gather only the rows they
        pick.
        """
        return _top_n_batch(self.plan_key(layer, config))

    def search_with_trace(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> MappingResult:
        """One search, as a fused block runs it over one layer: look
        up the plan's terms (:func:`top_n_plan_terms`, scoring them on a
        miss), run the NoC/bandwidth stage once per tiling, pick the
        winner (or every feasible row for energy and EDP) and gather the
        result.  The scalar reference (``batch_eval=False``) and an
        int64-unsafe plan score :meth:`candidate_plan` instead.

        Every mapper's search body has this name, and ``__call__``
        delegates to it by attribute lookup: the campaign ledger
        (``benchmarks/ledger/spans.py``) times each mapper's searches by
        wrapping the method of that name in its class body."""
        started = time.perf_counter()
        key = self.plan_key(layer, config)
        if self.batch_eval:
            (terms,) = top_n_plan_terms([layer], [key], config)
            if terms.int64_safe:
                return _best_of_evaluation(
                    layer,
                    _cost_batch.BatchLayerEvaluation.from_terms(
                        terms, config, layer.macs
                    ),
                    self.objective,
                    self.batch_stats,
                    started,
                )
            self.batch_stats.record_fallback()
        return _best_of_candidates(
            layer,
            config,
            _top_n_batch(key),
            objective=self.objective,
            batch_eval=False,
            stats=self.batch_stats,
        )

    def __call__(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> MappingResult:
        return self.search_with_trace(layer, config)


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
        batch_eval: bool = True,
    ):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        _resolve_objective(objective)
        self.trials = trials
        self.seed = seed
        self.objective = objective
        self.batch_eval = batch_eval
        self.batch_stats = BatchEvalStats()

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
        worker processes and runs.  The trials are drawn by
        :func:`_random_batch`.
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
        return _random_batch(
            padded_bounds_tuple(layer), config.pes, self.trials, rng
        )

    def search_with_trace(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> MappingResult:
        """One search over :meth:`candidate_plan` (see
        :meth:`TopNMapper.search_with_trace` for the method's name)."""
        return _best_of_candidates(
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
        return self.search_with_trace(layer, config)
