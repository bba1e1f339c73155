"""Fused cross-layer candidate evaluation (campaign-wide SoA kernels).

PR 2's batch kernels (:mod:`repro.cost.batch`) vectorize candidate
scoring *within* one (layer, mapper-call): ``CostEvaluator`` still loops
layers in Python, re-enters the mapper per layer, and — through the
traced-search protocol — materializes ``Mapping``/``ExecutionInfo``
objects for every feasible candidate even though only the winner reaches
the :class:`~repro.mapping.mapper.MappingResult`.  This module collapses
one design point's *entire* mapping stage into a handful of int64 array
passes:

1. every pending layer's candidate plan (``mapper.candidate_plan``, a
   ready int64 :class:`~repro.mapping.batch_candidates.CandidateBatch`)
   is concatenated into one
   :class:`~repro.mapping.batch_candidates.FusedCandidateBlock` — a
   (sum-of-candidates x dims) SoA block with per-row layer attributes;
2. :class:`FusedBlockEvaluation` runs the latency/traffic/feasibility
   kernels once over all rows (the row-varying twins of the batch
   kernels live in :mod:`repro.cost.batch`);
3. each layer's winner is selected by a masked argmin over its row range
   and only *that* candidate is materialized back into
   ``Mapping``/``ExecutionInfo`` objects.

Exactness contract (asserted by ``tests/test_fused_eval.py``): results
scatter back bit-identically to the per-layer scalar/batch paths — same
values, same Python types, same dict insertion orders, same
first-strictly-best tie-breaking (``np.argmin`` returns the first
occurrence of the minimum, and infeasible rows are masked to ``+inf``),
and :meth:`FusedBlockEvaluation.infeasibility` reproduces the scalar
:class:`InfeasibleMapping` reasons verbatim.

What the fused path *skips* is the re-scorable
:class:`~repro.mapping.mapper.SearchTrace` (all feasible candidates);
layer results stored into the mapping cache therefore populate the exact
tier only.  Correctness is unaffected — a re-score of a trace is
bit-identical to a cold search, so a missing trace merely costs a future
bandwidth-sweep re-score its shortcut.

The path is opt-in via ``REPRO_FUSED_EVAL=1`` or
``CostEvaluator(fused_eval=True)`` and is restricted to
latency-objective mappers exposing ``candidate_plan`` (the built-in
top-N and random mappers); anything else — including int64-unsafe
candidate sets, which fall back per layer — takes the existing paths.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import AcceleratorConfig
from repro.cost.execution_info import ExecutionInfo, InfeasibleMapping
import repro.cost.batch as _batch
from repro.mapping.batch_candidates import CandidateBatch, FusedCandidateBlock
from repro.mapping.mapper import MappingResult
from repro.perf.instrumentation import BatchEvalStats
from repro.workloads.layers import LOOP_DIMS, LayerShape, Operand

__all__ = [
    "supports_fused",
    "FusedBlockEvaluation",
    "ShardedBlockEvaluation",
    "evaluate_fused_block",
    "search_layers_fused",
]

_DATA_OPERANDS = _batch._DATA_OPERANDS
_NOC_OPERANDS = _batch._NOC_OPERANDS


def supports_fused(mapper) -> bool:
    """Whether ``mapper`` can be driven by the fused cross-layer path.

    Requires the candidate-plan protocol (the search must be expressible
    as "score one candidate batch, pick the first strictly-best") and the
    latency objective — energy/EDP scoring runs through the per-layer
    energy model and stays on the existing paths.
    """
    return (
        callable(getattr(mapper, "candidate_plan", None))
        and getattr(mapper, "objective", None) == "latency"
    )


class FusedBlockEvaluation:
    """Kernel results for one (design point, all-layers candidate block).

    The row-varying twin of
    :class:`~repro.cost.batch.BatchLayerEvaluation`: layer attributes
    (stride, depthwise flag, operator, MACs) are per-row arrays from the
    block, hardware parameters are scalars from ``config``, and every
    kernel replicates the batch/scalar operation order so float results
    are bitwise equal.
    """

    def __init__(self, block: FusedCandidateBlock, config: AcceleratorConfig):
        self.block = block
        self.config = config
        n = len(block)
        bpe = config.bytes_per_element
        operators = block.operators
        opcode = block.opcode

        # -- resource feasibility (mirrors the scalar check order) ----------
        self.pes_used = _batch._prod_cols(block.spatial, range(len(LOOP_DIMS)))
        self.rf_bytes = {
            op: elems * bpe
            for op, elems in _batch.tile_elements_rows(
                block.rf, block.stride, block.dwise
            ).items()
        }
        self.rf_total = (
            self.rf_bytes[Operand.I]
            + self.rf_bytes[Operand.W]
            + self.rf_bytes[Operand.O]
        )
        spm_tile = block.rf * block.spatial * block.spm
        self.spm_bytes = {
            op: elems * bpe
            for op, elems in _batch.tile_elements_rows(
                spm_tile, block.stride, block.dwise
            ).items()
        }
        self.spm_total = (
            self.spm_bytes[Operand.I]
            + self.spm_bytes[Operand.W]
            + self.spm_bytes[Operand.O]
        )

        # -- NoC compatibility ----------------------------------------------
        self.groups: Dict[Operand, np.ndarray] = {
            op: _batch.relevant_prod_rows(operators, opcode, block.spatial, op)
            for op in _DATA_OPERANDS
        }
        self.groups[Operand.PSUM] = self.groups[Operand.O]
        self.links = {op: config.physical_links(op) for op in _NOC_OPERANDS}
        self.rounds = {
            op: np.ceil(self.groups[op] / self.links[op]).astype(np.int64)
            for op in _NOC_OPERANDS
        }

        self.fail_code = np.zeros(n, dtype=np.int64)
        ok = np.ones(n, dtype=bool)

        def _check(violated: np.ndarray, code: int) -> None:
            newly = ok & violated
            self.fail_code[newly] = code
            ok[newly] = False

        _check(self.pes_used > config.pes, _batch.FAIL_PES)
        _check(self.rf_total > config.l1_bytes, _batch.FAIL_RF)
        _check(2 * self.spm_total > config.l2_bytes, _batch.FAIL_SPM)
        for i, op in enumerate(_NOC_OPERANDS):
            _check(
                self.rounds[op] > config.virt_unicast[op],
                _batch.FAIL_NOC_BASE + i,
            )
        self.feasible = ok

        # -- computation ------------------------------------------------------
        iters_dram = _batch._prod_cols(block.dram, range(len(LOOP_DIMS)))
        iters_spm = _batch._prod_cols(block.spm, range(len(LOOP_DIMS)))
        iters_rf = _batch._prod_cols(block.rf, range(len(LOOP_DIMS)))
        t_comp_int = iters_dram * iters_spm * iters_rf
        self.t_comp = t_comp_int.astype(np.float64)

        # -- NoC distribution -------------------------------------------------
        fetches2 = {
            op: iters_spm
            // _batch.reuse_rows(
                operators, opcode, block.spm, block.spm_code, op
            )
            for op in _DATA_OPERANDS
        }
        out_tiles2 = _batch.relevant_prod_rows(
            operators, opcode, block.spm, Operand.O
        )
        events = {
            Operand.I: iters_dram * fetches2[Operand.I],
            Operand.W: iters_dram * fetches2[Operand.W],
            Operand.O: iters_dram * fetches2[Operand.O],
            Operand.PSUM: iters_dram
            * np.maximum(0, fetches2[Operand.O] - out_tiles2),
        }
        tile_bytes_for = {
            Operand.I: self.rf_bytes[Operand.I],
            Operand.W: self.rf_bytes[Operand.W],
            Operand.O: self.rf_bytes[Operand.O],
            Operand.PSUM: self.rf_bytes[Operand.O],
        }
        self.noc_bytes_per_group = tile_bytes_for
        noc_bpc = config.noc_bytes_per_cycle
        self.t_noc: Dict[Operand, np.ndarray] = {}
        self.data_noc: Dict[Operand, np.ndarray] = {}
        for op in _NOC_OPERANDS:
            per_event_cycles = (self.rounds[op] * tile_bytes_for[op]) / noc_bpc
            self.t_noc[op] = events[op] * per_event_cycles
            self.data_noc[op] = events[op] * self.groups[op] * tile_bytes_for[op]

        # -- DMA transfers ----------------------------------------------------
        fetches3 = {
            op: iters_dram
            // _batch.reuse_rows(
                operators, opcode, block.dram, block.dram_code, op
            )
            for op in _DATA_OPERANDS
        }
        self.off_int = {
            Operand.I: fetches3[Operand.I] * self.spm_bytes[Operand.I],
            Operand.W: fetches3[Operand.W] * self.spm_bytes[Operand.W],
        }
        out_writes = fetches3[Operand.O] * self.spm_bytes[Operand.O]
        full_tile = block.dram * block.spm * block.spatial * block.rf
        padded_out_bytes = (
            _batch.tile_elements_rows(full_tile, block.stride, block.dwise)[
                Operand.O
            ]
            * bpe
        )
        self.off_float = {
            Operand.O: out_writes.astype(np.float64),
            Operand.PSUM: np.maximum(0, out_writes - padded_out_bytes).astype(
                np.float64
            ),
        }
        # Same float-addition order as ``sum(data_offchip.values())``.
        offchip_total = (
            self.off_int[Operand.I].astype(np.float64)
            + self.off_int[Operand.W].astype(np.float64)
            + self.off_float[Operand.O]
            + self.off_float[Operand.PSUM]
        )
        self.t_dma = offchip_total / config.dram_bytes_per_cycle

        # -- remaining (unexploited) reuse -----------------------------------
        self.reuse_rf: Dict[Operand, np.ndarray] = {}
        self.reuse_spm: Dict[Operand, np.ndarray] = {}
        for op in _DATA_OPERANDS:
            min2 = _batch.relevant_prod_rows(operators, opcode, block.spm, op)
            min3 = _batch.relevant_prod_rows(operators, opcode, block.dram, op)
            self.reuse_rf[op] = fetches2[op] / min2
            self.reuse_spm[op] = fetches3[op] / min3
        self.reuse_rf[Operand.PSUM] = self.reuse_rf[Operand.O]
        self.reuse_spm[Operand.PSUM] = self.reuse_spm[Operand.O]

        pes_f = self.pes_used.astype(np.float64)
        denominator = np.where(self.t_comp > 0, self.t_comp * pes_f, 1.0)
        self.utilization = np.where(
            self.t_comp > 0, block.macs / denominator, 0.0
        )

        # -- latency objective ------------------------------------------------
        # Scalar: ``max(t_comp, max(t_noc.values()), t_dma)``; all terms
        # are finite non-negative floats, so the chained np.maximum is
        # exactly the same value.
        score = self.t_comp
        for op in _NOC_OPERANDS:
            score = np.maximum(score, self.t_noc[op])
        self.latency = np.maximum(score, self.t_dma)

    def __len__(self) -> int:
        return len(self.block)

    def execution_info(self, row: int, layer: LayerShape) -> ExecutionInfo:
        """The scalar-identical :class:`ExecutionInfo` of ``row`` (must be
        feasible).  Same trusted-constructor materialization as
        ``BatchLayerEvaluation.execution_infos`` — ``.tolist()`` /
        ``float()`` / ``int()`` conversions yield the exact Python types
        the scalar path produces."""
        I, W, O, PSUM = Operand.I, Operand.W, Operand.O, Operand.PSUM

        def _f(arr: np.ndarray) -> float:  # exact int -> float conversion
            return float(arr[row])

        info = object.__new__(ExecutionInfo)
        info.__dict__.update({
            "t_comp": float(self.t_comp[row]),
            "t_noc": {op: float(self.t_noc[op][row]) for op in _NOC_OPERANDS},
            "t_dma": float(self.t_dma[row]),
            "data_offchip": {
                I: int(self.off_int[I][row]),
                W: int(self.off_int[W][row]),
                O: float(self.off_float[O][row]),
                PSUM: float(self.off_float[PSUM][row]),
            },
            "data_noc": {
                op: int(self.data_noc[op][row]) for op in _NOC_OPERANDS
            },
            "noc_groups_needed": {
                op: int(self.groups[op][row]) for op in _NOC_OPERANDS
            },
            "noc_bytes_per_group": {
                op: _f(self.noc_bytes_per_group[op]) for op in _NOC_OPERANDS
            },
            "data_rf": {
                I: _f(self.rf_bytes[I]),
                W: _f(self.rf_bytes[W]),
                O: _f(self.rf_bytes[O]),
                PSUM: _f(self.rf_bytes[O]),
            },
            "data_spm": {
                I: _f(self.spm_bytes[I]),
                W: _f(self.spm_bytes[W]),
                O: _f(self.spm_bytes[O]),
                PSUM: _f(self.spm_bytes[O]),
            },
            "reuse_available_rf": {
                I: float(self.reuse_rf[I][row]),
                W: float(self.reuse_rf[W][row]),
                O: float(self.reuse_rf[O][row]),
                PSUM: float(self.reuse_rf[O][row]),
            },
            "reuse_available_spm": {
                I: float(self.reuse_spm[I][row]),
                W: float(self.reuse_spm[W][row]),
                O: float(self.reuse_spm[O][row]),
                PSUM: float(self.reuse_spm[O][row]),
            },
            "pes_used": int(self.pes_used[row]),
            "macs": layer.macs,
            "utilized_macs_fraction": float(self.utilization[row]),
        })
        return info

    def infeasibility(self, row: int) -> InfeasibleMapping:
        """The scalar-identical :class:`InfeasibleMapping` of ``row``
        (only valid for infeasible rows)."""
        code = int(self.fail_code[row])
        config = self.config
        if code == _batch.FAIL_PES:
            return InfeasibleMapping(
                f"spatial unrolling needs {int(self.pes_used[row])} PEs, "
                f"hardware has {config.pes}"
            )
        if code == _batch.FAIL_RF:
            return InfeasibleMapping(
                f"RF tile needs {int(self.rf_total[row])} B, "
                f"register file holds {config.l1_bytes} B"
            )
        if code == _batch.FAIL_SPM:
            return InfeasibleMapping(
                f"double-buffered SPM tile needs "
                f"{2 * int(self.spm_total[row])} B, "
                f"scratchpad holds {config.l2_bytes} B"
            )
        op = _NOC_OPERANDS[code - _batch.FAIL_NOC_BASE]
        return InfeasibleMapping(
            f"mapping demands {int(self.groups[op][row])} concurrent unicast "
            f"groups; NoC provides {self.links[op]} physical x "
            f"{config.virt_unicast[op]} virtual links",
            operand=op,
        )

    def layer_result(self, layer_index: int) -> MappingResult:
        """The :class:`MappingResult` of layer ``layer_index``.

        Winner selection is the first row of the layer's range achieving
        the minimal latency among feasible rows (``np.argmin`` returns
        the first occurrence of the minimum; infeasible rows are masked
        to ``+inf``) — exactly the scalar first-strictly-best rule.
        """
        rows = self.block.rows(layer_index)
        n = rows.stop - rows.start
        feasible = self.feasible[rows]
        feasible_count = int(np.count_nonzero(feasible))
        if feasible_count == 0:
            return MappingResult(
                mapping=None,
                execution=None,
                candidates_evaluated=n,
                feasible_candidates=0,
            )
        scores = np.where(feasible, self.latency[rows], np.inf)
        winner = int(np.argmin(scores))
        layer = self.block.layers[layer_index]
        return MappingResult(
            mapping=self.block.batches[layer_index].mapping(winner),
            execution=self.execution_info(rows.start + winner, layer),
            candidates_evaluated=n,
            feasible_candidates=feasible_count,
        )


def evaluate_fused_block(
    block: FusedCandidateBlock, config: AcceleratorConfig
) -> FusedBlockEvaluation:
    """Evaluate a whole cross-layer candidate block in fused passes."""
    return FusedBlockEvaluation(block, config)


class _BlockRows:
    """A zero-copy row-range view over a fused block's SoA arrays.

    Duck-types the :class:`FusedCandidateBlock` attributes that
    :class:`FusedBlockEvaluation.__init__` consumes (the kernels are
    row-elementwise, so evaluating a slice produces bitwise the same
    per-row values as evaluating the full block).
    """

    __slots__ = (
        "dram", "spm", "spatial", "rf", "dram_code", "spm_code",
        "stride", "dwise", "opcode", "macs", "operators", "_n",
    )

    def __init__(self, block, start: int, stop: int):
        rows = slice(start, stop)
        self.dram = block.dram[rows]
        self.spm = block.spm[rows]
        self.spatial = block.spatial[rows]
        self.rf = block.rf[rows]
        self.dram_code = block.dram_code[rows]
        self.spm_code = block.spm_code[rows]
        self.stride = block.stride[rows]
        self.dwise = block.dwise[rows]
        self.opcode = block.opcode[rows]
        self.macs = block.macs[rows]
        self.operators = block.operators
        self._n = stop - start

    def __len__(self) -> int:
        return self._n


class ShardedBlockEvaluation(FusedBlockEvaluation):
    """A block evaluation assembled from worker-computed shard results.

    The shared-memory fleet (:mod:`repro.perf.shm_fleet`) computes the
    decision arrays — per-row latency, feasibility, and infeasibility
    code — on sibling processes; winner *selection* (the masked argmin
    inherited from :meth:`FusedBlockEvaluation.layer_result`) happens in
    the parent over those arrays, so it is deterministic regardless of
    worker scheduling.  Winner *materialization* re-runs the kernels on
    a one-row slice of the block (:class:`_BlockRows`): the kernels are
    row-elementwise, so the ``ExecutionInfo``/``InfeasibleMapping``
    objects are bit-identical to the single-process fused path — only
    one row per layer pays the scalar materialization cost.
    """

    def __init__(
        self,
        block: FusedCandidateBlock,
        config: AcceleratorConfig,
        latency: np.ndarray,
        fail_code: np.ndarray,
        feasible: np.ndarray,
    ):
        # Deliberately skip FusedBlockEvaluation.__init__: the decision
        # arrays already exist; everything else is derived per winner row.
        self.block = block
        self.config = config
        self.latency = latency
        self.fail_code = fail_code
        self.feasible = feasible
        self._row_cache: Dict[int, FusedBlockEvaluation] = {}

    def _row_evaluation(self, row: int) -> FusedBlockEvaluation:
        cached = self._row_cache.get(row)
        if cached is None:
            cached = FusedBlockEvaluation(
                _BlockRows(self.block, row, row + 1), self.config
            )
            self._row_cache[row] = cached
        return cached

    def execution_info(self, row: int, layer: LayerShape) -> ExecutionInfo:
        return self._row_evaluation(row).execution_info(0, layer)

    def infeasibility(self, row: int) -> InfeasibleMapping:
        return self._row_evaluation(row).infeasibility(0)


def search_layers_fused(
    mapper,
    layers: Sequence[LayerShape],
    config: AcceleratorConfig,
    stats: Optional[BatchEvalStats] = None,
    sharder: Optional[
        Callable[
            [FusedCandidateBlock, AcceleratorConfig],
            Optional[FusedBlockEvaluation],
        ]
    ] = None,
) -> Tuple[List[Tuple[LayerShape, MappingResult]], List[LayerShape]]:
    """Resolve many layers' mapping searches through one fused block.

    Returns ``(fused, remaining)``: per-layer results bit-identical to
    ``mapper(layer, config)`` for every layer whose candidate plan was
    fused, plus the layers handed back for the per-layer path (empty
    plan or int64-unsafe candidate set — the scalar reference computes
    those in arbitrary-precision ints).

    ``sharder`` (the ``REPRO_SHM_EVAL`` hook) is offered the block
    before the in-process evaluation; it returns an evaluation computed
    elsewhere — :class:`ShardedBlockEvaluation` from the shared-memory
    fleet — or None to decline (block too small, fleet unavailable),
    which falls through to the inline :class:`FusedBlockEvaluation`.
    """
    started = time.perf_counter()
    fused_layers: List[LayerShape] = []
    batches: List[CandidateBatch] = []
    remaining: List[LayerShape] = []
    for layer in layers:
        batch = mapper.candidate_plan(layer, config)
        if len(batch) and _batch.int64_safe(batch, config):
            fused_layers.append(layer)
            batches.append(batch)
        else:
            if stats is not None:
                stats.record_fused_fallback()
            remaining.append(layer)
    if not fused_layers:
        return [], remaining
    block = FusedCandidateBlock.from_layer_batches(fused_layers, batches)
    evaluation = sharder(block, config) if sharder is not None else None
    if evaluation is None:
        evaluation = FusedBlockEvaluation(block, config)
    fused: List[Tuple[LayerShape, MappingResult]] = []
    feasible_total = 0
    for index, layer in enumerate(fused_layers):
        result = evaluation.layer_result(index)
        feasible_total += result.feasible_candidates
        fused.append((layer, result))
    if stats is not None:
        stats.record_fused(
            len(fused_layers),
            len(block),
            feasible_total,
            time.perf_counter() - started,
        )
    return fused, remaining
