"""Vectorized batch evaluation of mapping candidates (NumPy SoA kernels).

Bit-identical batch twin of :func:`repro.cost.latency.evaluate_layer_mapping`:
given a layer, a :class:`~repro.mapping.batch_candidates.CandidateBatch`,
and a hardware configuration, it derives feasibility (PE / register-file /
scratchpad capacity, NoC virtual-unicast compatibility), the three latency
factors (``t_comp``, per-operand NoC rounds, ``t_dma``), and every traffic
characteristic of :class:`~repro.cost.execution_info.ExecutionInfo` for the
*whole candidate set* in a handful of array passes instead of one Python
interpreter round-trip per candidate.

Exactness contract (asserted by ``tests/test_batch_eval.py``):

* integer quantities (tile bytes, fetch counts, NoC groups, ``data_noc``)
  are computed in int64 exactly as the scalar model computes them in
  Python ints;
* float quantities replicate the scalar model's *operation order*, so
  IEEE-754 determinism makes them bitwise equal (e.g. ``t_noc`` is
  ``events * ((rounds * tile_bytes) / noc_bytes_per_cycle)`` in exactly
  that association);
* :meth:`BatchLayerEvaluation.execution_info` materializes per-candidate
  ``ExecutionInfo`` objects with the same Python types (int vs float) and
  dict insertion orders as the scalar path, and
  :meth:`BatchLayerEvaluation.infeasibility` reproduces the scalar
  :class:`InfeasibleMapping` reasons verbatim, including which check
  fires first.

Because the kernels run in int64 rather than arbitrary-precision Python
ints, :func:`int64_safe` guards against (pathological) candidate sets
whose traffic products could overflow; callers fall back to the scalar
reference in that case.  The scalar path remains selectable everywhere
with ``REPRO_BATCH_EVAL=0``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

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
from repro.perf.knobs import env_flag
from repro.workloads.layers import (
    LOOP_DIMS,
    Dim,
    LayerShape,
    Operand,
    OperatorType,
)

__all__ = [
    "batch_eval_enabled",
    "int64_safe",
    "latency_winner",
    "evaluate_layer_batch",
    "evaluate_layer_mappings_batch",
    "tile_elements_rows",
    "relevant_prod_rows",
    "reuse_rows",
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


def batch_eval_enabled(override: Optional[bool] = None) -> bool:
    """Whether the batched evaluator is selected.

    ``override`` wins when given; otherwise ``REPRO_BATCH_EVAL`` decides
    (default on; ``0``/``off``/``false``/``no`` select the scalar
    reference path, junk values warn once and keep the default).
    """
    return env_flag("REPRO_BATCH_EVAL", True, override)


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
    per_dim = batch.dram * batch.spm * batch.spatial * batch.rf
    totals = per_dim.astype(np.float64).prod(axis=1)
    scale = float(config.pes) * float(config.bytes_per_element) * 64.0
    return bool(float(totals.max()) * scale < 2.0**62)


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
    latency = t_comp
    for op in _NOC_OPERANDS:
        latency = np.maximum(latency, t_noc[op])
    latency = np.maximum(latency, t_dma)
    if feasible is not None:
        latency = np.where(feasible, latency, np.inf)
    return int(np.argmin(latency))


def _prod_cols(arr: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Row-wise product over the selected columns (empty selection -> 1)."""
    if not cols:
        return np.ones(arr.shape[0], dtype=np.int64)
    return arr[:, list(cols)].prod(axis=1)


def _tile_elements(
    layer: LayerShape, tile: np.ndarray
) -> Dict[Operand, np.ndarray]:
    """Vectorized :func:`repro.mapping.mapping.operand_tile_elements`.

    ``tile`` is an ``(n, 7)`` array of tile extents in ``LOOP_DIMS``
    order; returns per-operand element counts for I/W/O.
    """
    dwise = layer.operator is OperatorType.DWCONV
    n_, m, c = tile[:, _COL[Dim.N]], tile[:, _COL[Dim.M]], tile[:, _COL[Dim.C]]
    oy, ox = tile[:, _COL[Dim.OY]], tile[:, _COL[Dim.OX]]
    fy, fx = tile[:, _COL[Dim.FY]], tile[:, _COL[Dim.FX]]
    w_channels = 1 if dwise else c
    i_channels = m if dwise else c
    rows = (oy - 1) * layer.stride + fy
    cols = (ox - 1) * layer.stride + fx
    return {
        Operand.I: n_ * i_channels * rows * cols,
        Operand.W: m * w_channels * fy * fx,
        Operand.O: n_ * m * oy * ox,
    }


def tile_elements_rows(
    tile: np.ndarray, stride: np.ndarray, dwise: np.ndarray
) -> Dict[Operand, np.ndarray]:
    """Row-varying twin of :func:`_tile_elements` for fused blocks.

    ``stride``/``dwise`` are per-row layer attributes; the arithmetic is
    the scalar model's verbatim (all int64, so the ``np.where`` channel
    selection is exact).
    """
    n_, m, c = tile[:, _COL[Dim.N]], tile[:, _COL[Dim.M]], tile[:, _COL[Dim.C]]
    oy, ox = tile[:, _COL[Dim.OY]], tile[:, _COL[Dim.OX]]
    fy, fx = tile[:, _COL[Dim.FY]], tile[:, _COL[Dim.FX]]
    w_channels = np.where(dwise, 1, c)
    i_channels = np.where(dwise, m, c)
    rows = (oy - 1) * stride + fy
    cols = (ox - 1) * stride + fx
    return {
        Operand.I: n_ * i_channels * rows * cols,
        Operand.W: m * w_channels * fy * fx,
        Operand.O: n_ * m * oy * ox,
    }


def relevant_prod_rows(
    operators: Sequence[OperatorType],
    opcode: np.ndarray,
    factors: np.ndarray,
    operand: Operand,
) -> np.ndarray:
    """Row-wise product of ``factors`` over the dims indexing ``operand``,
    with the operator (and therefore the relevant-dim set) varying per row
    (``opcode`` indexes ``operators``)."""
    out = np.ones(factors.shape[0], dtype=np.int64)
    for code, operator in enumerate(operators):
        mask = opcode == code
        if not mask.any():
            continue
        cols = [_COL[d] for d in _relevant_dims(operator, operand)]
        out[mask] = _prod_cols(factors[mask], cols)
    return out


def reuse_rows(
    operators: Sequence[OperatorType],
    opcode: np.ndarray,
    factors: np.ndarray,
    codes: np.ndarray,
    operand: Operand,
) -> np.ndarray:
    """Row-varying twin of :func:`_reuse`: per-row temporal reuse of
    ``operand`` when both the stationary choice *and* the operator differ
    row to row (masks over the operator x stationary product)."""
    out = np.ones(factors.shape[0], dtype=np.int64)
    for code, operator in enumerate(operators):
        op_mask = opcode == code
        if not op_mask.any():
            continue
        for st_code, stationary in enumerate(STATIONARY_CHOICES):
            mask = op_mask & (codes == st_code)
            if not mask.any():
                continue
            free = [_COL[d] for d in _free_dims(operator, stationary, operand)]
            if free:
                out[mask] = _prod_cols(factors[mask], free)
    return out


def _reuse(
    operator: OperatorType,
    factors: np.ndarray,
    codes: np.ndarray,
    operand: Operand,
) -> np.ndarray:
    """Per-candidate temporal reuse of ``operand`` at one level.

    Mirrors ``Mapping.reuse_at``: the product of the level's factors over
    dims irrelevant to both the (per-candidate) stationary operand and
    ``operand``.
    """
    out = np.ones(factors.shape[0], dtype=np.int64)
    for code, stationary in enumerate(STATIONARY_CHOICES):
        mask = codes == code
        if not mask.any():
            continue
        free = [_COL[d] for d in _free_dims(operator, stationary, operand)]
        if free:
            out[mask] = _prod_cols(factors[mask], free)
    return out


class BatchLayerEvaluation:
    """Batched evaluation result for one (layer, candidate set, config).

    Array attributes are indexed by candidate position; per-operand
    quantities live in dicts of arrays.  :meth:`outcome` reconstructs the
    exact scalar-path result (``ExecutionInfo`` or ``InfeasibleMapping``)
    of any candidate.
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
        n = len(batch)
        bpe = config.bytes_per_element

        # -- resource feasibility (mirrors the scalar check order) ----------
        self.pes_used = _prod_cols(batch.spatial, range(len(LOOP_DIMS)))
        self.rf_bytes = {
            op: elems * bpe for op, elems in _tile_elements(layer, batch.rf).items()
        }
        self.rf_total = (
            self.rf_bytes[Operand.I]
            + self.rf_bytes[Operand.W]
            + self.rf_bytes[Operand.O]
        )
        spm_tile = batch.rf * batch.spatial * batch.spm
        self.spm_bytes = {
            op: elems * bpe for op, elems in _tile_elements(layer, spm_tile).items()
        }
        self.spm_total = (
            self.spm_bytes[Operand.I]
            + self.spm_bytes[Operand.W]
            + self.spm_bytes[Operand.O]
        )

        # -- NoC compatibility ----------------------------------------------
        self.groups: Dict[Operand, np.ndarray] = {
            op: _prod_cols(
                batch.spatial,
                [_COL[d] for d in _relevant_dims(layer.operator, op)],
            )
            for op in (Operand.I, Operand.W, Operand.O)
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

        _check(self.pes_used > config.pes, FAIL_PES)
        _check(self.rf_total > config.l1_bytes, FAIL_RF)
        _check(2 * self.spm_total > config.l2_bytes, FAIL_SPM)
        for i, op in enumerate(_NOC_OPERANDS):
            _check(self.rounds[op] > config.virt_unicast[op], FAIL_NOC_BASE + i)
        self.feasible = ok

        # -- computation ------------------------------------------------------
        iters_dram = _prod_cols(batch.dram, range(len(LOOP_DIMS)))
        iters_spm = _prod_cols(batch.spm, range(len(LOOP_DIMS)))
        iters_rf = _prod_cols(batch.rf, range(len(LOOP_DIMS)))
        t_comp_int = iters_dram * iters_spm * iters_rf
        self.t_comp = t_comp_int.astype(np.float64)

        # -- NoC distribution -------------------------------------------------
        fetches2 = {
            op: iters_spm
            // _reuse(layer.operator, batch.spm, batch.spm_code, op)
            for op in _DATA_OPERANDS
        }
        out_tiles2 = _prod_cols(
            batch.spm, [_COL[d] for d in _relevant_dims(layer.operator, Operand.O)]
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
            // _reuse(layer.operator, batch.dram, batch.dram_code, op)
            for op in _DATA_OPERANDS
        }
        self.off_int = {
            Operand.I: fetches3[Operand.I] * self.spm_bytes[Operand.I],
            Operand.W: fetches3[Operand.W] * self.spm_bytes[Operand.W],
        }
        out_writes = fetches3[Operand.O] * self.spm_bytes[Operand.O]
        full_tile = batch.dram * batch.spm * batch.spatial * batch.rf
        padded_out_bytes = _tile_elements(layer, full_tile)[Operand.O] * bpe
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
        self.t_dma = self.offchip_total / config.dram_bytes_per_cycle

        # -- remaining (unexploited) reuse -----------------------------------
        self.reuse_rf: Dict[Operand, np.ndarray] = {}
        self.reuse_spm: Dict[Operand, np.ndarray] = {}
        for op in _DATA_OPERANDS:
            relevant = [_COL[d] for d in _relevant_dims(layer.operator, op)]
            min2 = _prod_cols(batch.spm, relevant)
            min3 = _prod_cols(batch.dram, relevant)
            self.reuse_rf[op] = fetches2[op] / min2
            self.reuse_spm[op] = fetches3[op] / min3
        self.reuse_rf[Operand.PSUM] = self.reuse_rf[Operand.O]
        self.reuse_spm[Operand.PSUM] = self.reuse_spm[Operand.O]

        pes_f = self.pes_used.astype(np.float64)
        denominator = np.where(self.t_comp > 0, self.t_comp * pes_f, 1.0)
        self.utilization = np.where(
            self.t_comp > 0, layer.macs / denominator, 0.0
        )

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def feasible_indices(self) -> np.ndarray:
        """Positions of the feasible candidates, in candidate order."""
        return np.flatnonzero(self.feasible)

    def mapping(self, i: int) -> Mapping:
        return self.batch.mapping(i)

    def execution_info(self, i: int) -> ExecutionInfo:
        """The scalar-identical :class:`ExecutionInfo` of candidate ``i``.

        Only valid for feasible candidates.  Python types and dict
        insertion orders mirror ``evaluate_layer_mapping`` exactly (e.g.
        ``data_offchip`` holds ints for I/W and floats for O/PSUM).
        """
        return self.execution_infos((i,))[0]

    def execution_infos(self, indices: Sequence[int]) -> List[ExecutionInfo]:
        """Bulk :meth:`execution_info` over ``indices`` (feasible only).

        Converts each field array to a Python list once (``.tolist()``
        yields exact Python ints from int64 and floats from float64, the
        types the scalar path produces) instead of one NumPy scalar
        round-trip per field per candidate, and fills the frozen
        ``ExecutionInfo`` instances directly through ``__dict__`` — the
        same trusted-constructor trick as ``Mapping._trusted``, since the
        per-field ``object.__setattr__`` of the generated ``__init__``
        dominates construction time at batch sizes.
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
        macs = self.layer.macs

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
                "macs": macs,
                "utilized_macs_fraction": util[k],
            })
            infos.append(info)
        return infos

    def infeasibility(self, i: int) -> InfeasibleMapping:
        """The scalar-identical :class:`InfeasibleMapping` of candidate
        ``i`` (only valid for infeasible candidates)."""
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

    def outcome(self, i: int) -> Union[ExecutionInfo, InfeasibleMapping]:
        """What ``evaluate_layer_mapping`` would return for candidate ``i``."""
        if self.feasible[i]:
            return self.execution_info(i)
        return self.infeasibility(i)


def evaluate_layer_batch(
    layer: LayerShape,
    batch: CandidateBatch,
    config: AcceleratorConfig,
) -> BatchLayerEvaluation:
    """Evaluate a whole candidate batch in vectorized passes.

    Callers should guard with :func:`int64_safe` (the built-in mappers
    do) and fall back to the scalar path when it returns False.
    """
    return BatchLayerEvaluation(layer, batch, config)


def evaluate_layer_mappings_batch(
    layer: LayerShape,
    mappings: Sequence[Mapping],
    config: AcceleratorConfig,
) -> List[Union[ExecutionInfo, InfeasibleMapping]]:
    """Batched drop-in for mapping over ``evaluate_layer_mapping``.

    Convenience API over pre-built ``Mapping`` objects: returns one
    outcome per mapping, each bit-identical to the scalar evaluator.
    """
    evaluation = evaluate_layer_batch(
        layer, CandidateBatch.from_mappings(mappings), config
    )
    return [evaluation.outcome(i) for i in range(len(mappings))]
