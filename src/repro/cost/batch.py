"""Vectorized candidate scoring: the one NumPy SoA kernel, in two stages.

Bit-identical array twin of :func:`repro.cost.latency.evaluate_layer_mapping`:
given a set of candidate factor arrays and a hardware configuration,
:class:`BatchLayerEvaluation` derives feasibility (PE / register-file /
scratchpad capacity, NoC virtual-unicast compatibility), the three
latency factors (``t_comp``, per-operand NoC rounds, ``t_dma``), and
every traffic characteristic of
:class:`~repro.cost.execution_info.ExecutionInfo` for the *whole
candidate set* in a handful of array passes instead of one Python
interpreter round-trip per candidate.

The kernel is split along the signature contract of
:mod:`repro.perf.signature`:

* the **plan stage** (:class:`PlanStage`) computes every term that reads
  only the candidates, the layer attributes and the four plan-key
  hardware fields (``pes``, ``l1_bytes``, ``l2_bytes``,
  ``bytes_per_element``): tile sizes, the PE/RF/SPM checks, ``t_comp``,
  the per-operand NoC event counts and the off-chip traffic;
* the **NoC/bandwidth stage** reads the rest of the config: physical
  links, NoC rounds, the four NoC checks, ``t_noc`` and ``t_dma``
  (:meth:`BatchLayerEvaluation._noc_stage` per row,
  :func:`tiling_noc_stage` per tiling).

A per-layer search (:class:`BatchLayerEvaluation`) runs both stages and
then the reuse and utilization terms that only the materializer reads.
A fused block (:mod:`repro.cost.fused`) keeps the plan-stage terms next
to each memoized top-N plan and runs only the NoC/bandwidth stage over
its rows, then the whole kernel
(:class:`repro.cost.fused.FusedBlockEvaluation`, where the layer
attributes — stride, depthwise flag, operator, MACs — are per-row
arrays) over the rows it picked.  Both read their results through one
materializer (:meth:`BatchLayerEvaluation.execution_infos`) and one
latency rule (:func:`latency_winner`, :func:`segment_latency_winners`).

Exactness contract (asserted by ``tests/test_batch_eval.py`` and
``tests/test_fused_eval.py``):

* integer quantities (tile bytes, fetch counts, NoC groups, ``data_noc``)
  are computed in int64 exactly as the scalar model computes them in
  Python ints;
* float quantities replicate the scalar model's *operation order*, so
  IEEE-754 determinism makes them bitwise equal (e.g. ``t_noc`` is
  ``events * ((rounds * tile_bytes) / noc_bytes_per_cycle)`` in exactly
  that association, whichever stage forms the parenthesis);
* :meth:`BatchLayerEvaluation.execution_infos` materializes
  ``ExecutionInfo`` objects with the same Python types (int vs float)
  and dict insertion orders as the scalar path, and
  :meth:`BatchLayerEvaluation.infeasibility` reproduces the scalar
  :class:`InfeasibleMapping` reasons verbatim, including which check
  fires first;
* :func:`best_of_batch` and :func:`segment_latency_winners` keep the
  scalar first-strictly-best tie-breaking for every mapping objective.

Because the kernels run in int64 rather than arbitrary-precision Python
ints, :func:`int64_safe` guards against (pathological) candidate sets
whose traffic products could overflow; callers fall back to the scalar
reference in that case.  ``TopNMapper(batch_eval=False)`` /
``RandomSearchMapper(batch_eval=False)`` select the scalar reference
explicitly.
"""

from __future__ import annotations

import functools
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.arch.accelerator import AcceleratorConfig
from repro.cost.execution_info import ExecutionInfo, InfeasibleMapping
from repro.mapping.batch_candidates import CandidateBatch
from repro.mapping.mapping import (
    STATIONARY_CHOICES,
    Mapping,
    _free_dims,
    _relevant_dims,
)
from repro.workloads.layers import (
    LOOP_DIMS,
    Dim,
    LayerShape,
    Operand,
    OperatorType,
)

__all__ = [
    "int64_safe",
    "plan_int64_safe",
    "latency_winner",
    "segment_latency_winners",
    "best_of_batch",
    "evaluate_layer_mappings_batch",
    "tile_elements_rows",
    "relevant_prod_rows",
    "reuse_rows",
    "tiling_noc_stage",
    "PlanStage",
    "BatchLayerEvaluation",
    "FEASIBLE",
    "FAIL_PES",
    "FAIL_RF",
    "FAIL_SPM",
    "FAIL_NOC_BASE",
]

#: Operands with their own storage footprint (PSUM aliases O's tensor).
_DATA_OPERANDS = (Operand.I, Operand.W, Operand.O)
#: NoC check / dict-population order of the scalar model.
_NOC_OPERANDS = (Operand.I, Operand.W, Operand.O, Operand.PSUM)

#: Per-candidate failure codes (first scalar check that fires).
FEASIBLE = 0
FAIL_PES = 1
FAIL_RF = 2
FAIL_SPM = 3
FAIL_NOC_BASE = 4  # + index into _NOC_OPERANDS

_COL = {d: i for i, d in enumerate(LOOP_DIMS)}

#: A layer attribute: a scalar for one layer, a per-row array for a block.
_PerRow = Union[int, bool, np.ndarray]


def _products_int64_safe(
    per_dim: np.ndarray, config: AcceleratorConfig
) -> bool:
    """The overflow bound of :func:`int64_safe` over ``per_dim``, each
    row's per-dim product of its four levels' factors."""
    totals = per_dim.astype(np.float64).prod(axis=1)
    scale = float(config.pes) * float(config.bytes_per_element) * 64.0
    return bool(float(totals.max()) * scale < 2.0**62)


def int64_safe(batch: CandidateBatch, config: AcceleratorConfig) -> bool:
    """Conservatively check that the batch kernels cannot overflow int64.

    The largest integer the kernels form is operand traffic on the order
    of ``total padded iterations x PE count x bytes per element`` (events
    and tile sizes trade off against each other, so their product is
    bounded by the iteration total times per-candidate halo/byte
    factors).  A generous 64x margin covers halo expansion; anything
    bigger falls back to the scalar path, which computes in Python's
    arbitrary-precision ints.
    """
    if not len(batch):
        return True
    return _products_int64_safe(
        batch.dram * batch.spm * batch.spatial * batch.rf, config
    )


def plan_int64_safe(
    table: np.ndarray, row: np.ndarray, config: AcceleratorConfig
) -> bool:
    """:func:`int64_safe` of the batch a compact plan gathers (a
    ``(tilings, 4, 7)`` factor ``table`` and each row's tiling), from
    its tilings: the level product is taken once per tiling (int64
    products wrap identically in any order) and read per row.  It reads
    only ``pes`` and ``bytes_per_element`` of ``config``."""
    if not len(row):
        return True
    return _products_int64_safe(table.prod(axis=1)[row], config)


def _latency(
    t_comp: np.ndarray, t_noc: Dict[Operand, np.ndarray], t_dma: np.ndarray
) -> np.ndarray:
    """Per-row latency: the chained ``np.maximum`` of the six terms."""
    latency = t_comp
    for op in _NOC_OPERANDS:
        latency = np.maximum(latency, t_noc[op])
    return np.maximum(latency, t_dma)


def latency_winner(
    t_comp: np.ndarray,
    t_noc: Dict[Operand, np.ndarray],
    t_dma: np.ndarray,
    feasible: Optional[np.ndarray] = None,
) -> int:
    """Row of the latency-optimal candidate: the first row at the minimum.

    Latency is the chained ``np.maximum`` of ``t_comp``, the four
    ``t_noc`` arrays and ``t_dma``.  Every term is a finite non-negative
    float, so this equals ``ExecutionInfo.latency``'s ``max(...)``
    exactly; ``np.argmin`` returns the first occurrence of the minimum,
    which is the scalar first-strictly-best rule.  Rows where
    ``feasible`` is False are masked to ``+inf``; the caller guarantees
    at least one feasible row.
    """
    latency = _latency(t_comp, t_noc, t_dma)
    if feasible is not None:
        latency = np.where(feasible, latency, np.inf)
    return int(np.argmin(latency))


def segment_latency_winners(
    t_comp: np.ndarray,
    t_noc: Dict[Operand, np.ndarray],
    t_dma: np.ndarray,
    feasible: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """:func:`latency_winner` of every segment in one pass.

    Segment ``k`` owns rows ``offsets[k]:offsets[k + 1]`` and is not
    empty.  Infeasible rows are masked to ``+inf``, the segment minimum
    comes from ``np.minimum.reduceat``, and a segment's winner is its
    first row equal to that minimum: ``np.argmin``'s rule.  A segment
    without a feasible row gets its first row; the caller drops it.
    """
    latency = np.where(feasible, _latency(t_comp, t_noc, t_dma), np.inf)
    starts = offsets[:-1]
    lows = np.minimum.reduceat(latency, starts)
    at_low = np.flatnonzero(latency == np.repeat(lows, np.diff(offsets)))
    return at_low[np.searchsorted(at_low, starts)]


@functools.lru_cache(maxsize=None)
def _cols(dims: Tuple[Dim, ...]) -> np.ndarray:
    """Column indices of ``dims`` (read-only; memoized per dim tuple)."""
    cols = np.array([_COL[d] for d in dims], dtype=np.intp)
    cols.setflags(write=False)
    return cols


def _prod_dims(arr: np.ndarray, dims: Tuple[Dim, ...]) -> np.ndarray:
    """Row-wise product over the columns of ``dims`` (no dims -> 1)."""
    if not dims:
        return np.ones(arr.shape[0], dtype=np.int64)
    return arr[:, _cols(dims)].prod(axis=1)


def tile_elements_rows(
    tile: np.ndarray, stride: _PerRow, dwise: _PerRow
) -> Dict[Operand, np.ndarray]:
    """Vectorized :func:`repro.mapping.mapping.operand_tile_elements`.

    ``tile`` is an ``(n, 7)`` array of tile extents in ``LOOP_DIMS``
    order; ``stride``/``dwise`` are the layer's (scalars) or per-row
    arrays.  Returns per-operand element counts for I/W/O; the
    arithmetic is the scalar model's verbatim (all int64, so the
    ``np.where`` channel selection is exact).
    """
    n_, m, c = tile[:, _COL[Dim.N]], tile[:, _COL[Dim.M]], tile[:, _COL[Dim.C]]
    oy, ox = tile[:, _COL[Dim.OY]], tile[:, _COL[Dim.OX]]
    fy, fx = tile[:, _COL[Dim.FY]], tile[:, _COL[Dim.FX]]
    if isinstance(dwise, np.ndarray):
        w_channels, i_channels = np.where(dwise, 1, c), np.where(dwise, m, c)
    else:
        w_channels, i_channels = (1, m) if dwise else (c, c)
    rows = (oy - 1) * stride + fy
    cols = (ox - 1) * stride + fx
    return {
        Operand.I: n_ * i_channels * rows * cols,
        Operand.W: m * w_channels * fy * fx,
        Operand.O: n_ * m * oy * ox,
    }


def relevant_prod_rows(
    operators: Sequence[OperatorType],
    opcode: Optional[np.ndarray],
    factors: np.ndarray,
    operand: Operand,
) -> np.ndarray:
    """Row-wise product of ``factors`` over the dims indexing ``operand``.

    ``opcode`` indexes ``operators`` per row; with a single operator it
    is not read (every row has that operator's relevant-dim set).
    """
    if len(operators) == 1:
        return _prod_dims(factors, _relevant_dims(operators[0], operand))
    out = np.ones(factors.shape[0], dtype=np.int64)
    for code, operator in enumerate(operators):
        mask = opcode == code
        if not mask.any():
            continue
        out[mask] = _prod_dims(factors[mask], _relevant_dims(operator, operand))
    return out


def reuse_rows(
    operators: Sequence[OperatorType],
    opcode: Optional[np.ndarray],
    factors: np.ndarray,
    codes: np.ndarray,
    operand: Operand,
) -> np.ndarray:
    """Per-row temporal reuse of ``operand`` at one level.

    Mirrors ``Mapping.reuse_at``: the product of the level's factors over
    dims irrelevant to both the (per-row) stationary operand and
    ``operand``, masking over the operator x stationary product when the
    operator varies row to row (``opcode`` as in
    :func:`relevant_prod_rows`).
    """
    out = np.ones(factors.shape[0], dtype=np.int64)
    for code, operator in enumerate(operators):
        op_mask = None if len(operators) == 1 else opcode == code
        if op_mask is not None and not op_mask.any():
            continue
        for st_code, stationary in enumerate(STATIONARY_CHOICES):
            mask = codes == st_code
            if op_mask is not None:
                mask &= op_mask
            if not mask.any():
                continue
            free = _free_dims(operator, stationary, operand)
            if free:
                out[mask] = _prod_dims(factors[mask], free)
    return out


def _noc_rounds(
    groups: Dict[Operand, np.ndarray], config: AcceleratorConfig
) -> Tuple[Dict[Operand, int], Dict[Operand, np.ndarray]]:
    """NoC/bandwidth stage, first step: each operand's physical links
    and the broadcast rounds its concurrent groups need on them."""
    links = {op: config.physical_links(op) for op in _NOC_OPERANDS}
    rounds = {
        op: np.ceil(groups[op] / links[op]).astype(np.int64)
        for op in _NOC_OPERANDS
    }
    return links, rounds


def _noc_event_cycles(
    rounds: Dict[Operand, np.ndarray],
    tile_bytes: Dict[Operand, np.ndarray],
    config: AcceleratorConfig,
) -> Dict[Operand, np.ndarray]:
    """Cycles of one NoC event per operand: the parenthesis of
    ``t_noc = events * ((rounds * tile_bytes) / noc_bytes_per_cycle)``."""
    noc_bpc = config.noc_bytes_per_cycle
    return {
        op: (rounds[op] * tile_bytes[op]) / noc_bpc for op in _NOC_OPERANDS
    }


def tiling_noc_stage(
    groups: Dict[Operand, np.ndarray],
    tile_bytes: Dict[Operand, np.ndarray],
    fits: np.ndarray,
    config: AcceleratorConfig,
) -> Tuple[np.ndarray, Dict[Operand, np.ndarray]]:
    """The NoC/bandwidth stage over tilings instead of rows.

    Rounds, the four NoC checks and the per-event cycles read only a
    row's tiling (its spatial and RF factors), so a fused block runs
    them once per tiling and gathers per row.  ``groups`` and
    ``tile_bytes`` are per NoC operand (PSUM's are O's), ``fits`` the
    PE/RF/SPM verdict.  Returns the feasibility of each tiling and
    :func:`_noc_event_cycles`, both to be gathered by each row's tiling.
    """
    _links, rounds = _noc_rounds(groups, config)
    feasible = fits.copy()
    for op in _NOC_OPERANDS:
        feasible &= rounds[op] <= config.virt_unicast[op]
    return feasible, _noc_event_cycles(rounds, tile_bytes, config)


class PlanStage:
    """The plan stage of the kernel over the rows of one candidate set.

    Every term here reads only the candidates, the layer attributes and
    the plan-key hardware fields ``pes``, ``l1_bytes``, ``l2_bytes`` and
    ``bytes_per_element`` (see :mod:`repro.perf.signature`).  It fills
    the tile-size, capacity and off-chip attributes of
    :class:`BatchLayerEvaluation`; ``fail_code`` holds only the PE, RF
    and SPM checks, which fire before the NoC checks.  A standalone
    stage also keeps :attr:`events`, the per-operand NoC event counts
    that a fused block memoizes with the plan.
    """

    def __init__(
        self,
        cands,
        config: AcceleratorConfig,
        stride: _PerRow,
        dwise: _PerRow,
        operators: Sequence[OperatorType],
        opcode: Optional[np.ndarray],
    ):
        self.events, _fetches = self._plan_stage(
            cands, config, stride, dwise, operators, opcode
        )

    def _fail(self, ok: np.ndarray, violated: np.ndarray, code: int) -> None:
        """Give ``code`` to the rows still ``ok`` that ``violated``."""
        newly = ok & violated
        self.fail_code[newly] = code
        ok[newly] = False

    def _plan_stage(
        self,
        cands,
        config: AcceleratorConfig,
        stride: _PerRow,
        dwise: _PerRow,
        operators: Sequence[OperatorType],
        opcode: Optional[np.ndarray],
    ) -> Tuple[Dict[Operand, np.ndarray], Tuple[Dict, Dict]]:
        """Fill the plan-stage attributes over the rows of ``cands`` (a
        ``CandidateBatch`` or ``FusedCandidateBlock``).

        Layer attributes are scalars for one layer or per-row arrays for
        a block; ``opcode`` indexes ``operators`` per row (see
        :func:`relevant_prod_rows`).  Returns the per-operand NoC event
        counts and the SPM/DRAM fetch counts, which the NoC stage and
        the reuse terms read; they are not kept, so a search trace does
        not grow.
        """
        n = len(cands)
        bpe = config.bytes_per_element

        # -- resource feasibility (mirrors the scalar check order) ----------
        self.pes_used = cands.spatial.prod(axis=1)
        self.rf_bytes = {
            op: elems * bpe
            for op, elems in tile_elements_rows(cands.rf, stride, dwise).items()
        }
        self.rf_total = (
            self.rf_bytes[Operand.I]
            + self.rf_bytes[Operand.W]
            + self.rf_bytes[Operand.O]
        )
        spm_tile = cands.rf * cands.spatial * cands.spm
        self.spm_bytes = {
            op: elems * bpe
            for op, elems in tile_elements_rows(spm_tile, stride, dwise).items()
        }
        self.spm_total = (
            self.spm_bytes[Operand.I]
            + self.spm_bytes[Operand.W]
            + self.spm_bytes[Operand.O]
        )
        self.groups: Dict[Operand, np.ndarray] = {
            op: relevant_prod_rows(operators, opcode, cands.spatial, op)
            for op in _DATA_OPERANDS
        }
        self.groups[Operand.PSUM] = self.groups[Operand.O]

        self.fail_code = np.zeros(n, dtype=np.int64)
        ok = np.ones(n, dtype=bool)
        self._fail(ok, self.pes_used > config.pes, FAIL_PES)
        self._fail(ok, self.rf_total > config.l1_bytes, FAIL_RF)
        self._fail(ok, 2 * self.spm_total > config.l2_bytes, FAIL_SPM)

        # -- computation ------------------------------------------------------
        iters_dram = cands.dram.prod(axis=1)
        iters_spm = cands.spm.prod(axis=1)
        iters_rf = cands.rf.prod(axis=1)
        t_comp_int = iters_dram * iters_spm * iters_rf
        self.t_comp = t_comp_int.astype(np.float64)

        # -- NoC distribution events -------------------------------------------
        fetches2 = {
            op: iters_spm
            // reuse_rows(operators, opcode, cands.spm, cands.spm_code, op)
            for op in _DATA_OPERANDS
        }
        out_tiles2 = relevant_prod_rows(operators, opcode, cands.spm, Operand.O)
        events = {
            Operand.I: iters_dram * fetches2[Operand.I],
            Operand.W: iters_dram * fetches2[Operand.W],
            Operand.O: iters_dram * fetches2[Operand.O],
            Operand.PSUM: iters_dram
            * np.maximum(0, fetches2[Operand.O] - out_tiles2),
        }
        self.noc_bytes_per_group = {
            Operand.I: self.rf_bytes[Operand.I],
            Operand.W: self.rf_bytes[Operand.W],
            Operand.O: self.rf_bytes[Operand.O],
            Operand.PSUM: self.rf_bytes[Operand.O],
        }

        # -- DMA transfers ----------------------------------------------------
        fetches3 = {
            op: iters_dram
            // reuse_rows(operators, opcode, cands.dram, cands.dram_code, op)
            for op in _DATA_OPERANDS
        }
        self.off_int = {
            Operand.I: fetches3[Operand.I] * self.spm_bytes[Operand.I],
            Operand.W: fetches3[Operand.W] * self.spm_bytes[Operand.W],
        }
        out_writes = fetches3[Operand.O] * self.spm_bytes[Operand.O]
        full_tile = cands.dram * cands.spm * cands.spatial * cands.rf
        padded_out_bytes = (
            tile_elements_rows(full_tile, stride, dwise)[Operand.O] * bpe
        )
        self.off_float = {
            Operand.O: out_writes.astype(np.float64),
            Operand.PSUM: np.maximum(0, out_writes - padded_out_bytes).astype(
                np.float64
            ),
        }
        # Same float-addition order as ``sum(data_offchip.values())``.
        # Kept: it is the only input of ``t_dma`` that a re-score on a
        # new bandwidth or clock needs (``rescore_trace``).
        self.offchip_total = (
            self.off_int[Operand.I].astype(np.float64)
            + self.off_int[Operand.W].astype(np.float64)
            + self.off_float[Operand.O]
            + self.off_float[Operand.PSUM]
        )
        return events, (fetches2, fetches3)


class BatchLayerEvaluation(PlanStage):
    """Kernel results for one candidate set on one hardware config.

    Array attributes are indexed by candidate row; per-operand
    quantities live in dicts of arrays.  Constructed from one layer's
    ``CandidateBatch``; :class:`repro.cost.fused.FusedBlockEvaluation`
    runs the same kernel (:meth:`_score`) over a multi-layer block and
    shares every reader below.
    """

    def __init__(
        self,
        layer: LayerShape,
        batch: CandidateBatch,
        config: AcceleratorConfig,
    ):
        self.layer = layer
        self.batch = batch
        self.config = config
        self._score(
            batch,
            config,
            stride=layer.stride,
            dwise=layer.operator is OperatorType.DWCONV,
            operators=(layer.operator,),
            opcode=None,
            macs=layer.macs,
        )

    def _score(
        self,
        cands,
        config: AcceleratorConfig,
        stride: _PerRow,
        dwise: _PerRow,
        operators: Sequence[OperatorType],
        opcode: Optional[np.ndarray],
        macs: _PerRow,
    ) -> None:
        """The whole candidate-scoring kernel over the rows of ``cands``:
        the plan stage, the NoC/bandwidth stage, then the traffic, reuse
        and utilization terms that only the materializer reads.  Every
        step mirrors the scalar model's check order and operation
        order."""
        events, (fetches2, fetches3) = self._plan_stage(
            cands, config, stride, dwise, operators, opcode
        )
        self._noc_stage(config, events)

        self.data_noc: Dict[Operand, np.ndarray] = {
            op: events[op] * self.groups[op] * self.noc_bytes_per_group[op]
            for op in _NOC_OPERANDS
        }

        # -- remaining (unexploited) reuse -----------------------------------
        self.reuse_rf: Dict[Operand, np.ndarray] = {}
        self.reuse_spm: Dict[Operand, np.ndarray] = {}
        for op in _DATA_OPERANDS:
            min2 = relevant_prod_rows(operators, opcode, cands.spm, op)
            min3 = relevant_prod_rows(operators, opcode, cands.dram, op)
            self.reuse_rf[op] = fetches2[op] / min2
            self.reuse_spm[op] = fetches3[op] / min3
        self.reuse_rf[Operand.PSUM] = self.reuse_rf[Operand.O]
        self.reuse_spm[Operand.PSUM] = self.reuse_spm[Operand.O]

        pes_f = self.pes_used.astype(np.float64)
        denominator = np.where(self.t_comp > 0, self.t_comp * pes_f, 1.0)
        self.utilization = np.where(self.t_comp > 0, macs / denominator, 0.0)

    def _noc_stage(
        self, config: AcceleratorConfig, events: Dict[Operand, np.ndarray]
    ) -> None:
        """The NoC/bandwidth stage per row: links, rounds, the four NoC
        checks (after the plan stage's), ``t_noc`` and ``t_dma``."""
        self.links, self.rounds = _noc_rounds(self.groups, config)
        ok = self.fail_code == FEASIBLE
        for i, op in enumerate(_NOC_OPERANDS):
            violated = self.rounds[op] > config.virt_unicast[op]
            self._fail(ok, violated, FAIL_NOC_BASE + i)
        self.feasible = ok
        cycles = _noc_event_cycles(
            self.rounds, self.noc_bytes_per_group, config
        )
        self.t_noc: Dict[Operand, np.ndarray] = {
            op: events[op] * cycles[op] for op in _NOC_OPERANDS
        }
        self.t_dma = self.offchip_total / config.dram_bytes_per_cycle

    def __len__(self) -> int:
        return len(self.fail_code)

    @property
    def feasible_indices(self) -> np.ndarray:
        """Positions of the feasible candidates, in candidate order."""
        return np.flatnonzero(self.feasible)

    def _macs(self, idx: np.ndarray) -> list:
        """The ``macs`` field of each row in ``idx``: the layer's."""
        return [self.layer.macs] * len(idx)

    def execution_infos(self, indices: Sequence[int]) -> List[ExecutionInfo]:
        """The scalar-identical :class:`ExecutionInfo` of every row in
        ``indices`` (feasible rows only).

        Python types and dict insertion orders mirror
        ``evaluate_layer_mapping`` exactly (e.g. ``data_offchip`` holds
        ints for I/W and floats for O/PSUM).  Converts each field array
        to a Python list once (``.tolist()`` yields exact Python ints
        from int64 and floats from float64, the types the scalar path
        produces) instead of one NumPy scalar round-trip per field per
        candidate, and fills the frozen ``ExecutionInfo`` instances
        directly through ``__dict__`` — the same trusted-constructor
        trick as ``Mapping._trusted``, since the per-field
        ``object.__setattr__`` of the generated ``__init__`` dominates
        construction time at batch sizes.
        """
        idx = np.asarray(indices, dtype=np.intp)
        I, W, O, PSUM = Operand.I, Operand.W, Operand.O, Operand.PSUM

        def _f(arr: np.ndarray) -> list:  # exact int -> float conversion
            return arr[idx].astype(np.float64).tolist()

        t_comp = self.t_comp[idx].tolist()
        t_dma = self.t_dma[idx].tolist()
        tn_i, tn_w, tn_o, tn_p = (
            self.t_noc[op][idx].tolist() for op in _NOC_OPERANDS
        )
        off_i = self.off_int[I][idx].tolist()
        off_w = self.off_int[W][idx].tolist()
        off_o = self.off_float[O][idx].tolist()
        off_p = self.off_float[PSUM][idx].tolist()
        dn_i, dn_w, dn_o, dn_p = (
            self.data_noc[op][idx].tolist() for op in _NOC_OPERANDS
        )
        g_i, g_w, g_o, g_p = (
            self.groups[op][idx].tolist() for op in _NOC_OPERANDS
        )
        nb_i, nb_w, nb_o, nb_p = (
            _f(self.noc_bytes_per_group[op]) for op in _NOC_OPERANDS
        )
        rf_i, rf_w, rf_o = (_f(self.rf_bytes[op]) for op in _DATA_OPERANDS)
        sp_i, sp_w, sp_o = (_f(self.spm_bytes[op]) for op in _DATA_OPERANDS)
        rr_i, rr_w, rr_o = (
            self.reuse_rf[op][idx].tolist() for op in _DATA_OPERANDS
        )
        rs_i, rs_w, rs_o = (
            self.reuse_spm[op][idx].tolist() for op in _DATA_OPERANDS
        )
        pes = self.pes_used[idx].tolist()
        util = self.utilization[idx].tolist()
        macs = self._macs(idx)

        infos: List[ExecutionInfo] = []
        for k in range(len(t_comp)):
            info = object.__new__(ExecutionInfo)
            info.__dict__.update({
                "t_comp": t_comp[k],
                "t_noc": {I: tn_i[k], W: tn_w[k], O: tn_o[k], PSUM: tn_p[k]},
                "t_dma": t_dma[k],
                "data_offchip": {
                    I: off_i[k], W: off_w[k], O: off_o[k], PSUM: off_p[k]
                },
                "data_noc": {
                    I: dn_i[k], W: dn_w[k], O: dn_o[k], PSUM: dn_p[k]
                },
                "noc_groups_needed": {
                    I: g_i[k], W: g_w[k], O: g_o[k], PSUM: g_p[k]
                },
                "noc_bytes_per_group": {
                    I: nb_i[k], W: nb_w[k], O: nb_o[k], PSUM: nb_p[k]
                },
                "data_rf": {
                    I: rf_i[k], W: rf_w[k], O: rf_o[k], PSUM: rf_o[k]
                },
                "data_spm": {
                    I: sp_i[k], W: sp_w[k], O: sp_o[k], PSUM: sp_o[k]
                },
                "reuse_available_rf": {
                    I: rr_i[k], W: rr_w[k], O: rr_o[k], PSUM: rr_o[k]
                },
                "reuse_available_spm": {
                    I: rs_i[k], W: rs_w[k], O: rs_o[k], PSUM: rs_o[k]
                },
                "pes_used": pes[k],
                "macs": macs[k],
                "utilized_macs_fraction": util[k],
            })
            infos.append(info)
        return infos

    def infeasibility(self, i: int) -> InfeasibleMapping:
        """The scalar-identical :class:`InfeasibleMapping` of row ``i``
        (only valid for infeasible rows)."""
        code = int(self.fail_code[i])
        config = self.config
        if code == FAIL_PES:
            return InfeasibleMapping(
                f"spatial unrolling needs {int(self.pes_used[i])} PEs, "
                f"hardware has {config.pes}"
            )
        if code == FAIL_RF:
            return InfeasibleMapping(
                f"RF tile needs {int(self.rf_total[i])} B, "
                f"register file holds {config.l1_bytes} B"
            )
        if code == FAIL_SPM:
            return InfeasibleMapping(
                f"double-buffered SPM tile needs {2 * int(self.spm_total[i])} B, "
                f"scratchpad holds {config.l2_bytes} B"
            )
        op = _NOC_OPERANDS[code - FAIL_NOC_BASE]
        return InfeasibleMapping(
            f"mapping demands {int(self.groups[op][i])} concurrent unicast "
            f"groups; NoC provides {self.links[op]} physical x "
            f"{config.virt_unicast[op]} virtual links",
            operand=op,
        )


#: A mapping-objective scorer: ``(layer, execution, config) -> value``.
Scorer = Callable[[LayerShape, ExecutionInfo, AcceleratorConfig], float]


def _select_best(
    layer: LayerShape,
    config: AcceleratorConfig,
    outcomes: Iterable[Tuple[Mapping, ExecutionInfo]],
    scorer: Scorer,
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


def best_of_batch(
    evaluation: BatchLayerEvaluation,
    scorer: Optional[Scorer] = None,
) -> Tuple[Optional[Mapping], Optional[ExecutionInfo]]:
    """The winner of a per-layer search's evaluation.

    With no ``scorer`` (the latency objective) the winner is picked on
    the arrays by :func:`latency_winner` and only its ``Mapping`` /
    ``ExecutionInfo`` are built.  Energy and EDP pass their scorer,
    which reads whole ``ExecutionInfo`` objects, so every feasible row
    is built and :func:`_select_best` scores them.  Either way the
    result is the scalar reference's, first strictly-best row included;
    ``(None, None)`` when no row is feasible.
    """
    batch, feasible = evaluation.batch, evaluation.feasible
    if scorer is not None:
        rows = np.flatnonzero(feasible)
        return _select_best(
            evaluation.layer,
            evaluation.config,
            zip(batch.mappings(rows), evaluation.execution_infos(rows)),
            scorer,
        )
    if not feasible.any():
        return None, None
    winner = latency_winner(
        evaluation.t_comp, evaluation.t_noc, evaluation.t_dma, feasible
    )
    (execution,) = evaluation.execution_infos((winner,))
    return batch.mapping(winner), execution


def evaluate_layer_mappings_batch(
    layer: LayerShape,
    mappings: Sequence[Mapping],
    config: AcceleratorConfig,
) -> List[Union[ExecutionInfo, InfeasibleMapping]]:
    """Batched drop-in for mapping over ``evaluate_layer_mapping``.

    Convenience API over pre-built ``Mapping`` objects: returns one
    outcome per mapping, each bit-identical to the scalar evaluator.
    Callers should guard with :func:`int64_safe` (the built-in mappers
    do) and fall back to the scalar path when it returns False.
    """
    evaluation = BatchLayerEvaluation(
        layer, CandidateBatch.from_mappings(mappings), config
    )
    infos = iter(evaluation.execution_infos(evaluation.feasible_indices))
    return [
        next(infos) if ok else evaluation.infeasibility(i)
        for i, ok in enumerate(evaluation.feasible.tolist())
    ]
