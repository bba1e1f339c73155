"""Vectorized candidate scoring: the one NumPy SoA kernel, in two stages.

Bit-identical array twin of :func:`repro.cost.latency.evaluate_layer_mapping`:
given a set of candidate factor arrays and a hardware configuration,
the kernel derives feasibility (PE / register-file / scratchpad
capacity, NoC virtual-unicast compatibility), the three latency factors
(``t_comp``, per-operand NoC rounds, ``t_dma``), and every traffic
characteristic of :class:`~repro.cost.execution_info.ExecutionInfo` for
the *whole candidate set* in a handful of array passes instead of one
Python interpreter round-trip per candidate.

The kernel is split along the signature contract of
:mod:`repro.perf.signature`:

* the **plan stage** (:class:`PlanStage`, :func:`plan_terms`) computes
  every term that reads only the candidates, the layer attributes and
  the four plan-key hardware fields (``pes``, ``l1_bytes``,
  ``l2_bytes``, ``bytes_per_element``): tile sizes, the PE/RF/SPM
  checks, ``t_comp``, the NoC event counts, the reuse fetch counts and
  the off-chip traffic.  It keeps them as :class:`PlanTerms`, once per
  tiling where a term does not read the row's stationary codes;
* the **NoC/bandwidth stage** reads the rest of the config: physical
  links, NoC rounds and the four NoC checks, once per tiling
  (:func:`tiling_noc_stage`), then ``t_noc`` and ``t_dma`` per row.
  So a top-N search on a design point that differs from a scored one
  only in these fields (a bandwidth or clock sweep) runs this stage
  alone, over the memoized plan terms.

A :class:`BatchLayerEvaluation` is a plan's terms plus its NoC stage on
one config.  Built from a ``CandidateBatch`` it runs both stages; built
:meth:`~BatchLayerEvaluation.from_terms` (a top-N search, whose terms
are memoized beside its plan) it runs the NoC stage alone.  A fused
block (:mod:`repro.cost.fused`) runs the NoC stage over many layers'
terms at once.  Every path picks with one latency rule
(:func:`latency_winner`, :func:`segment_latency_winners`) and builds
the objects of only the rows it picked with one materializer
(:meth:`BatchLayerEvaluation.execution_infos`), which gathers them
from the terms and the NoC results.

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
import math
from typing import (
    Callable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.arch.accelerator import AcceleratorConfig
from repro.cost.execution_info import ExecutionInfo, InfeasibleMapping
from repro.mapping.batch_candidates import (
    CandidateBatch,
    FusedCandidateBlock,
    candidate_arrays,
    plan_mappings,
)
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
    "PlanTerms",
    "plan_terms",
    "concat_terms",
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
#: Column of each NoC operand in an ``(n, 3)`` I/W/O term: PSUM travels
#: in O's groups and tiles.
_NOC_COLUMNS = [0, 1, 2, 2]

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


def latency_winner(
    latency: np.ndarray, feasible: Optional[np.ndarray] = None
) -> int:
    """Row of the latency-optimal candidate: the first row at the minimum.

    ``latency`` is :meth:`BatchLayerEvaluation.latency`, the maximum of
    ``t_comp``, the four ``t_noc`` terms and ``t_dma``.  Every term is a
    finite non-negative float, so this equals ``ExecutionInfo.latency``'s
    ``max(...)`` exactly; ``np.argmin`` returns the first occurrence of
    the minimum, which is the scalar first-strictly-best rule.  Rows
    where ``feasible`` is False are masked to ``+inf``; the caller
    guarantees at least one feasible row.
    """
    if feasible is not None:
        latency = np.where(feasible, latency, np.inf)
    return int(np.argmin(latency))


def segment_latency_winners(
    latency: np.ndarray, feasible: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """:func:`latency_winner` of every segment in one pass.

    Segment ``k`` owns rows ``offsets[k]:offsets[k + 1]`` and is not
    empty.  Infeasible rows are masked to ``+inf``, the segment minimum
    comes from ``np.minimum.reduceat``, and a segment's winner is its
    first row equal to that minimum: ``np.argmin``'s rule.  A segment
    without a feasible row gets its first row; the caller drops it.
    """
    latency = np.where(feasible, latency, np.inf)
    starts = offsets[:-1]
    lows = np.minimum.reduceat(latency, starts)
    at_low = np.flatnonzero(latency == np.repeat(lows, np.diff(offsets)))
    return at_low[np.searchsorted(at_low, starts)]


def _cols(dims: Tuple[Dim, ...]) -> List[int]:
    """Column indices of ``dims``."""
    return [_COL[d] for d in dims]


@functools.lru_cache(maxsize=None)
def _dim_masks(
    operators: Tuple[OperatorType, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Which loop dims the reuse terms multiply, per operator (read-only,
    memoized per operator tuple).

    ``relevant[o, k]`` (``(operators, 3, 7)``) marks the dims indexing
    data operand ``k`` (I, W, O) under operator ``o``;
    ``free[o, s, k]`` (``(operators, 3, 3, 7)``) marks the dims indexing
    neither stationary choice ``s`` nor operand ``k``: the dims
    ``Mapping.reuse_at`` multiplies.
    """
    relevant = np.zeros((len(operators), 3, len(LOOP_DIMS)), dtype=bool)
    free = np.zeros(
        (len(operators), len(STATIONARY_CHOICES), 3, len(LOOP_DIMS)),
        dtype=bool,
    )
    for o, operator in enumerate(operators):
        for k, operand in enumerate(_DATA_OPERANDS):
            relevant[o, k, _cols(_relevant_dims(operator, operand))] = True
            for st, stationary in enumerate(STATIONARY_CHOICES):
                dims = _free_dims(operator, stationary, operand)
                free[o, st, k, _cols(dims)] = True
    relevant.setflags(write=False)
    free.setflags(write=False)
    return relevant, free


def tile_elements_rows(
    tile: np.ndarray, stride: _PerRow, dwise: _PerRow
) -> np.ndarray:
    """Vectorized :func:`repro.mapping.mapping.operand_tile_elements`.

    ``tile`` is an ``(n, 7)`` array of tile extents in ``LOOP_DIMS``
    order; ``stride``/``dwise`` are the layer's (scalars) or per-row
    arrays.  Returns the ``(n, 3)`` I, W and O element counts; the
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
    out = np.empty((len(tile), 3), dtype=np.int64)
    out[:, 0] = n_ * i_channels * rows * cols
    out[:, 1] = m * w_channels * fy * fx
    out[:, 2] = n_ * m * oy * ox
    return out


def relevant_prod_rows(
    operators: Sequence[OperatorType],
    opcode: Optional[np.ndarray],
    factors: np.ndarray,
) -> np.ndarray:
    """Row-wise product of ``factors`` over the dims indexing I, W and O:
    ``(n, 3)``.

    ``opcode`` indexes ``operators`` per row; with a single operator it
    is not read (every row has that operator's relevant-dim sets).
    """
    relevant = _dim_masks(tuple(operators))[0]
    mask = relevant[0] if len(operators) == 1 else relevant[opcode]
    return np.where(mask, factors[:, None, :], 1).prod(axis=2)


def reuse_rows(
    operators: Sequence[OperatorType],
    opcode: Optional[np.ndarray],
    factors: np.ndarray,
    codes: np.ndarray,
) -> np.ndarray:
    """Per-row temporal reuse of I, W and O at one level: ``(n, 3)``.

    Mirrors ``Mapping.reuse_at``: the product of the level's factors over
    dims irrelevant to both the (per-row) stationary operand ``codes``
    and each operand, under each row's operator (``opcode`` as in
    :func:`relevant_prod_rows`).
    """
    free = _dim_masks(tuple(operators))[1]
    mask = free[0, codes] if len(operators) == 1 else free[opcode, codes]
    return np.where(mask, factors[:, None, :], 1).prod(axis=2)


class PlanTerms(NamedTuple):
    """One candidate plan and the plan-stage terms of its rows.

    ``table``, ``row`` and ``code`` are the plan in the top-N memo's
    compact form: a ``(tilings, 4, 7)`` table of spatial, RF, SPM and
    DRAM factors, and per row its tiling and stationary-code pair
    (``dram_code * 3 + spm_code``).  ``int64_safe`` is the plan's
    overflow verdict (:func:`plan_int64_safe`); an unsafe plan carries
    no terms.

    Terms of a tiling, stored once per tiling because they do not read
    a row's stationary codes: ``t_comp``; ``fail_code``, the first of
    the PE, RF and SPM checks that fails (int8, :data:`FEASIBLE` when
    none does); ``pes_used``; ``groups``, ``rf_bytes`` and
    ``spm_bytes`` (``(tilings, 3)``: the I, W and O NoC group counts, RF
    tile bytes and SPM tile bytes); ``padded_out_bytes``, the bytes of
    the whole padded output tile; and ``spm_relevant`` and
    ``dram_relevant`` (``(tilings, 3)``: the product of the SPM and of
    the DRAM factors over the dims indexing I, W and O, the divisors of
    the remaining-reuse terms).

    Terms of a row: ``events`` (``(rows, 4)``: the I, W, O and PSUM NoC
    event counts), ``dram_fetches`` (``(rows, 3)``: the I, W and O
    fetch counts at the DRAM level) and ``offchip_total``, the off-chip
    bytes that ``t_dma`` divides.  The SPM-level fetch counts are not
    stored: a row's I, W and O event counts are its DRAM iterations
    times them.  Memoized arrays are read-only.
    """

    table: np.ndarray
    row: np.ndarray
    code: np.ndarray
    int64_safe: bool
    t_comp: Optional[np.ndarray] = None
    fail_code: Optional[np.ndarray] = None
    pes_used: Optional[np.ndarray] = None
    groups: Optional[np.ndarray] = None
    rf_bytes: Optional[np.ndarray] = None
    spm_bytes: Optional[np.ndarray] = None
    padded_out_bytes: Optional[np.ndarray] = None
    spm_relevant: Optional[np.ndarray] = None
    dram_relevant: Optional[np.ndarray] = None
    events: Optional[np.ndarray] = None
    dram_fetches: Optional[np.ndarray] = None
    offchip_total: Optional[np.ndarray] = None

    @classmethod
    def from_batch(cls, batch: CandidateBatch, safe: bool) -> "PlanTerms":
        """``batch`` as an unscored plan in which every row is its own
        tiling, with overflow verdict ``safe``."""
        return cls(
            np.stack([batch.spatial, batch.rf, batch.spm, batch.dram], axis=1),
            np.arange(len(batch)),
            batch.dram_code * len(STATIONARY_CHOICES) + batch.spm_code,
            safe,
        )


#: The :class:`PlanTerms` fields held once per tiling, and once per row.
_TILING_TERMS = PlanTerms._fields[4:13]
_ROW_TERMS = PlanTerms._fields[13:]


class PlanStage:
    """The plan stage of the kernel over the rows of one candidate set.

    Every term here reads only the candidates, the layer attributes and
    the plan-key hardware fields ``pes``, ``l1_bytes``, ``l2_bytes`` and
    ``bytes_per_element`` (see :mod:`repro.perf.signature`), and every
    step mirrors the scalar model's check order and operation order.
    Its attributes are the :class:`PlanTerms` fields, one entry per row;
    :func:`plan_terms` keeps the per-tiling ones once per tiling.

    ``cands`` is a ``CandidateBatch`` or ``FusedCandidateBlock``.  Layer
    attributes are scalars for one layer or per-row arrays for a block;
    ``opcode`` indexes ``operators`` per row (see
    :func:`relevant_prod_rows`).
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
        n = len(cands)
        bpe = config.bytes_per_element

        # -- resource feasibility (mirrors the scalar check order) ----------
        self.pes_used = cands.spatial.prod(axis=1)
        self.rf_bytes = tile_elements_rows(cands.rf, stride, dwise) * bpe
        spm_tile = cands.rf * cands.spatial * cands.spm
        self.spm_bytes = tile_elements_rows(spm_tile, stride, dwise) * bpe
        self.groups = relevant_prod_rows(operators, opcode, cands.spatial)

        self.fail_code = np.zeros(n, dtype=np.int8)
        ok = np.ones(n, dtype=bool)
        for violated, code in (
            (self.pes_used > config.pes, FAIL_PES),
            (self.rf_bytes.sum(axis=1) > config.l1_bytes, FAIL_RF),
            (2 * self.spm_bytes.sum(axis=1) > config.l2_bytes, FAIL_SPM),
        ):
            newly = ok & violated
            self.fail_code[newly] = code
            ok[newly] = False

        # -- computation ------------------------------------------------------
        iters_dram = cands.dram.prod(axis=1)
        iters_spm = cands.spm.prod(axis=1)
        iters_rf = cands.rf.prod(axis=1)
        self.t_comp = (iters_dram * iters_spm * iters_rf).astype(np.float64)

        # -- NoC distribution events -------------------------------------------
        self.spm_relevant = relevant_prod_rows(operators, opcode, cands.spm)
        self.dram_relevant = relevant_prod_rows(operators, opcode, cands.dram)
        spm_fetches = iters_spm[:, None] // reuse_rows(
            operators, opcode, cands.spm, cands.spm_code
        )
        self.events = np.empty((n, len(_NOC_OPERANDS)), dtype=np.int64)
        self.events[:, :3] = iters_dram[:, None] * spm_fetches
        # PSUM: the O fetches beyond the SPM-level output tiles.
        self.events[:, 3] = iters_dram * np.maximum(
            0, spm_fetches[:, 2] - self.spm_relevant[:, 2]
        )

        # -- DMA transfers ----------------------------------------------------
        self.dram_fetches = iters_dram[:, None] // reuse_rows(
            operators, opcode, cands.dram, cands.dram_code
        )
        offchip = self.dram_fetches * self.spm_bytes  # I, W and out writes
        full_tile = cands.dram * cands.spm * cands.spatial * cands.rf
        self.padded_out_bytes = (
            tile_elements_rows(full_tile, stride, dwise)[:, 2] * bpe
        )
        # Same float-addition order as ``sum(data_offchip.values())``.
        self.offchip_total = (
            offchip[:, 0].astype(np.float64)
            + offchip[:, 1].astype(np.float64)
            + offchip[:, 2].astype(np.float64)
            + np.maximum(0, offchip[:, 2] - self.padded_out_bytes).astype(
                np.float64
            )
        )


def plan_terms(
    layers: Sequence[LayerShape],
    plans: Sequence[PlanTerms],
    config: AcceleratorConfig,
) -> List[PlanTerms]:
    """The plan stage in one pass over every row of ``plans`` (plan
    ``k`` is layer ``k``'s), split back into one :class:`PlanTerms` per
    plan, with read-only arrays.  Callers score only int64-safe plans.

    A tiling's terms are taken from any one of its rows: they do not
    read the row's stationary codes.  Every tiling of a plan is some
    row's (a top-N plan draws a tiling only for a row).
    """
    tiling_offsets = np.cumsum([0] + [len(plan.table) for plan in plans])
    row_offsets = np.cumsum([0] + [len(plan.row) for plan in plans])
    tiling = np.concatenate(
        [plan.row + start for plan, start in zip(plans, tiling_offsets)]
    )
    levels = np.concatenate([plan.table for plan in plans])[tiling]
    code = np.concatenate([plan.code for plan in plans])
    factors = candidate_arrays(levels, code)
    if len(layers) == 1:  # the layer's attributes as scalars
        (layer,) = layers
        stage = PlanStage(
            CandidateBatch(**factors),
            config,
            layer.stride,
            layer.operator is OperatorType.DWCONV,
            (layer.operator,),
            None,
        )
    else:
        block = FusedCandidateBlock.from_rows(
            layers, [len(plan.row) for plan in plans], **factors
        )
        stage = PlanStage(
            block,
            config,
            block.stride,
            block.dwise,
            block.operators,
            block.opcode,
        )
    any_row = np.zeros(tiling_offsets[-1], dtype=np.intp)
    any_row[tiling] = np.arange(len(tiling))
    per_tiling = [getattr(stage, name)[any_row] for name in _TILING_TERMS]
    per_row = [getattr(stage, name) for name in _ROW_TERMS]
    scored = []
    for k, plan in enumerate(plans):
        if len(plans) == 1:
            terms = per_tiling + per_row
        else:  # copies, so that an entry does not pin the whole pass
            tilings = slice(tiling_offsets[k], tiling_offsets[k + 1])
            rows = slice(row_offsets[k], row_offsets[k + 1])
            terms = [array[tilings].copy() for array in per_tiling]
            terms += [array[rows].copy() for array in per_row]
        for array in terms:
            array.setflags(write=False)
        scored.append(PlanTerms(*plan[:4], *terms))
    return scored


def concat_terms(terms: Sequence[PlanTerms]) -> PlanTerms:
    """One :class:`PlanTerms` over the rows of every plan in ``terms``,
    in order: each plan's tiling indices shift past the earlier plans'
    tables."""
    if len(terms) == 1:
        return terms[0]
    starts = np.cumsum([0] + [len(entry.table) for entry in terms[:-1]])
    fields = {
        name: np.concatenate([getattr(entry, name) for entry in terms])
        for name in ("table", "code") + _TILING_TERMS + _ROW_TERMS
    }
    row = np.concatenate(
        [entry.row + start for entry, start in zip(terms, starts)]
    )
    return PlanTerms(row=row, int64_safe=True, **fields)


def tiling_noc_stage(
    terms: PlanTerms, config: AcceleratorConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """The NoC/bandwidth stage over tilings instead of rows.

    Rounds, the four NoC checks and the per-event cycles read only a
    row's tiling (its spatial and RF factors), so they run once per
    tiling of ``terms`` and are gathered per row.  Returns each tiling's
    feasibility (its plan-stage checks and the NoC checks) and the
    ``(tilings, 4)`` cycles of one I, W, O and PSUM NoC event: the
    parenthesis of ``t_noc = events * ((rounds * tile_bytes) /
    noc_bytes_per_cycle)``.
    """
    links = np.array([config.physical_links(op) for op in _NOC_OPERANDS])
    virt = np.array([config.virt_unicast[op] for op in _NOC_OPERANDS])
    rounds = np.ceil(terms.groups[:, _NOC_COLUMNS] / links).astype(np.int64)
    feasible = (terms.fail_code == FEASIBLE) & (rounds <= virt).all(axis=1)
    tile_bytes = terms.rf_bytes[:, _NOC_COLUMNS]
    return feasible, (rounds * tile_bytes) / config.noc_bytes_per_cycle


class BatchLayerEvaluation:
    """A plan's terms plus its NoC/bandwidth stage on one config.

    ``feasible`` is per candidate row; every other per-row quantity is
    derived from :attr:`terms`, the per-tiling :attr:`cycles` and
    :attr:`config` when it is read.  Constructed from one layer's
    ``CandidateBatch`` it runs the whole kernel (:meth:`_score`);
    :meth:`from_terms` runs the NoC stage over terms already scored.
    :class:`repro.cost.fused.FusedBlockEvaluation` runs the NoC stage
    over a multi-layer block and shares every reader below.
    """

    def __init__(
        self,
        layer: LayerShape,
        batch: CandidateBatch,
        config: AcceleratorConfig,
    ):
        self._score(layer, batch, config)

    @classmethod
    def from_terms(
        cls, terms: PlanTerms, config: AcceleratorConfig, macs: int
    ) -> "BatchLayerEvaluation":
        """The NoC stage over one layer's scored ``terms`` (its layer
        has ``macs`` MACs)."""
        evaluation = cls.__new__(cls)
        evaluation._noc_stage(terms, config, macs)
        return evaluation

    def _score(
        self,
        layer: LayerShape,
        batch: CandidateBatch,
        config: AcceleratorConfig,
    ) -> None:
        """The whole kernel over the rows of ``batch``: the plan stage,
        each row its own tiling, then the NoC/bandwidth stage."""
        (terms,) = plan_terms(
            [layer], [PlanTerms.from_batch(batch, True)], config
        )
        self._noc_stage(terms, config, layer.macs)

    def _noc_stage(
        self, terms: PlanTerms, config: AcceleratorConfig, macs: _PerRow
    ) -> None:
        """The NoC/bandwidth stage once per tiling
        (:func:`tiling_noc_stage`), and each row's feasibility.
        ``macs`` is the layer's MAC count, or a block's per row."""
        self.terms = terms
        self.config = config
        self.macs = macs
        feasible, self.cycles = tiling_noc_stage(terms, config)
        self.feasible = feasible[terms.row]

    def __len__(self) -> int:
        return len(self.feasible)

    @property
    def feasible_indices(self) -> np.ndarray:
        """Positions of the feasible candidates, in candidate order."""
        return np.flatnonzero(self.feasible)

    def latency(self) -> np.ndarray:
        """Per-row latency: the maximum of ``t_comp``, the four
        ``t_noc = events * cycles`` and ``t_dma = offchip_total /
        dram_bytes_per_cycle``."""
        terms = self.terms
        t_noc = terms.events * self.cycles[terms.row]
        latency = np.maximum(terms.t_comp[terms.row], t_noc.max(axis=1))
        return np.maximum(
            latency, terms.offchip_total / self.config.dram_bytes_per_cycle
        )

    def _macs(self, idx: np.ndarray) -> Tuple[_PerRow, list]:
        """The MACs of the rows in ``idx``, as the utilization operand
        and as field values: the layer's."""
        return self.macs, [self.macs] * len(idx)

    def mappings(self, indices: Sequence[int]) -> List[Mapping]:
        """The :class:`Mapping` of every row in ``indices``."""
        idx = np.asarray(indices, dtype=np.intp)
        terms = self.terms
        return plan_mappings(terms.table[terms.row[idx]], terms.code[idx])

    def execution_infos(self, indices: Sequence[int]) -> List[ExecutionInfo]:
        """The scalar-identical :class:`ExecutionInfo` of every row in
        ``indices`` (feasible rows only), gathered from the terms and
        the NoC results: the one materializer of every batch path.

        Python types and dict insertion orders mirror
        ``evaluate_layer_mapping`` exactly (e.g. ``data_offchip`` holds
        ints for I/W and floats for O/PSUM).  The remaining quantities
        are formed over the gathered rows only, in the kernel's
        operation order.  Each field array becomes a Python list once
        (``.tolist()`` yields exact Python ints from int64 and floats
        from float64, the types the scalar path produces) instead of one
        NumPy scalar round-trip per field per candidate, and the frozen
        ``ExecutionInfo`` instances are filled directly through
        ``__dict__`` — the same trusted-constructor trick as
        ``Mapping._trusted``, since the per-field ``object.__setattr__``
        of the generated ``__init__`` dominates construction time at
        batch sizes.
        """
        idx = np.asarray(indices, dtype=np.intp)
        terms = self.terms
        tiling = terms.row[idx]
        I, W, O, PSUM = _NOC_OPERANDS
        f64 = np.float64

        events = terms.events[idx]
        dram_fetches = terms.dram_fetches[idx]
        # The I, W and O events are the DRAM iterations times the SPM
        # fetch counts, so those divide back out exactly.
        dram_iters = terms.table[tiling, 3].prod(axis=1)
        spm_fetches = events[:, :3] // dram_iters[:, None]
        groups = terms.groups[tiling]
        rf_bytes = terms.rf_bytes[tiling]
        spm_bytes = terms.spm_bytes[tiling]
        out_writes = dram_fetches[:, 2] * spm_bytes[:, 2]
        t_comp = terms.t_comp[tiling]
        pes = terms.pes_used[tiling]
        macs, macs_list = self._macs(idx)
        denominator = np.where(t_comp > 0, t_comp * pes.astype(f64), 1.0)

        t_noc = (events * self.cycles[tiling]).tolist()
        t_dma = (
            terms.offchip_total[idx] / self.config.dram_bytes_per_cycle
        ).tolist()
        off_iw = (dram_fetches[:, :2] * spm_bytes[:, :2]).tolist()
        off_o = out_writes.astype(f64).tolist()
        off_p = (
            np.maximum(0, out_writes - terms.padded_out_bytes[tiling])
            .astype(f64)
            .tolist()
        )
        data_noc = (
            events * groups[:, _NOC_COLUMNS] * rf_bytes[:, _NOC_COLUMNS]
        ).tolist()
        group_counts = groups.tolist()
        rf_f = rf_bytes.astype(f64).tolist()
        spm_f = spm_bytes.astype(f64).tolist()
        reuse_rf = (spm_fetches / terms.spm_relevant[tiling]).tolist()
        reuse_spm = (dram_fetches / terms.dram_relevant[tiling]).tolist()
        util = np.where(t_comp > 0, macs / denominator, 0.0).tolist()
        t_comp = t_comp.tolist()
        pes = pes.tolist()

        infos: List[ExecutionInfo] = []
        for k in range(len(t_comp)):
            tn, dn, g = t_noc[k], data_noc[k], group_counts[k]
            rf, sp, rr, rs = rf_f[k], spm_f[k], reuse_rf[k], reuse_spm[k]
            info = object.__new__(ExecutionInfo)
            info.__dict__.update({
                "t_comp": t_comp[k],
                "t_noc": {I: tn[0], W: tn[1], O: tn[2], PSUM: tn[3]},
                "t_dma": t_dma[k],
                "data_offchip": {
                    I: off_iw[k][0],
                    W: off_iw[k][1],
                    O: off_o[k],
                    PSUM: off_p[k],
                },
                "data_noc": {I: dn[0], W: dn[1], O: dn[2], PSUM: dn[3]},
                "noc_groups_needed": {I: g[0], W: g[1], O: g[2], PSUM: g[2]},
                "noc_bytes_per_group": {
                    I: rf[0], W: rf[1], O: rf[2], PSUM: rf[2]
                },
                "data_rf": {I: rf[0], W: rf[1], O: rf[2], PSUM: rf[2]},
                "data_spm": {I: sp[0], W: sp[1], O: sp[2], PSUM: sp[2]},
                "reuse_available_rf": {
                    I: rr[0], W: rr[1], O: rr[2], PSUM: rr[2]
                },
                "reuse_available_spm": {
                    I: rs[0], W: rs[1], O: rs[2], PSUM: rs[2]
                },
                "pes_used": pes[k],
                "macs": macs_list[k],
                "utilized_macs_fraction": util[k],
            })
            infos.append(info)
        return infos

    def infeasibility(self, i: int) -> InfeasibleMapping:
        """The scalar-identical :class:`InfeasibleMapping` of row ``i``
        (only valid for infeasible rows)."""
        terms, config = self.terms, self.config
        tiling = int(terms.row[i])
        code = int(terms.fail_code[tiling])
        if code == FAIL_PES:
            return InfeasibleMapping(
                f"spatial unrolling needs {int(terms.pes_used[tiling])} PEs, "
                f"hardware has {config.pes}"
            )
        if code == FAIL_RF:
            return InfeasibleMapping(
                f"RF tile needs {int(terms.rf_bytes[tiling].sum())} B, "
                f"register file holds {config.l1_bytes} B"
            )
        if code == FAIL_SPM:
            spm_total = int(terms.spm_bytes[tiling].sum())
            return InfeasibleMapping(
                f"double-buffered SPM tile needs {2 * spm_total} B, "
                f"scratchpad holds {config.l2_bytes} B"
            )
        for op, column in zip(_NOC_OPERANDS, _NOC_COLUMNS):
            groups = int(terms.groups[tiling, column])
            links = config.physical_links(op)
            if math.ceil(groups / links) > config.virt_unicast[op]:
                return InfeasibleMapping(
                    f"mapping demands {groups} concurrent unicast groups; "
                    f"NoC provides {links} physical x "
                    f"{config.virt_unicast[op]} virtual links",
                    operand=op,
                )
        raise ValueError(f"row {i} is feasible")


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
    layer: LayerShape,
    evaluation: BatchLayerEvaluation,
    scorer: Optional[Scorer] = None,
) -> Tuple[Optional[Mapping], Optional[ExecutionInfo]]:
    """The winner of a per-layer search's evaluation of ``layer``.

    With no ``scorer`` (the latency objective) the winner is picked on
    the arrays by :func:`latency_winner` and only its ``Mapping`` /
    ``ExecutionInfo`` are gathered.  Energy and EDP pass their scorer,
    which reads whole ``ExecutionInfo`` objects, so every feasible row
    is gathered and :func:`_select_best` scores them.  Either way the
    result is the scalar reference's, first strictly-best row included;
    ``(None, None)`` when no row is feasible.
    """
    feasible = evaluation.feasible
    if scorer is not None:
        rows = np.flatnonzero(feasible)
        return _select_best(
            layer,
            evaluation.config,
            zip(evaluation.mappings(rows), evaluation.execution_infos(rows)),
            scorer,
        )
    if not feasible.any():
        return None, None
    winner = latency_winner(evaluation.latency(), feasible)
    (mapping,) = evaluation.mappings((winner,))
    (execution,) = evaluation.execution_infos((winner,))
    return mapping, execution


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
