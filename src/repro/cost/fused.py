"""Fused cross-layer mapping search: one design point's searches in one block.

The per-layer path scores candidates *within* one (layer, mapper-call):
``CostEvaluator`` loops layers in Python and re-enters the mapper (and
the kernel) once per layer.  This module resolves one design point's
*entire* mapping stage as one block.  ``CostEvaluator`` gives one layer
per distinct :func:`~repro.perf.signature.search_signature` of a design
point's pending layers, as on its per-layer path, and hands each result
to that layer's repeats.

Most of a search's arithmetic reads only the fields a top-N plan is
keyed on (see :mod:`repro.perf.signature`), and campaigns re-run the
same plans on design points that differ elsewhere.  So the scoring
kernel of :mod:`repro.cost.batch` is split into a plan stage and a
NoC/bandwidth stage, and the plan-stage terms a block needs are
memoized beside each top-N plan (:data:`repro.mapping.mapper._top_n_terms`,
keyed by :meth:`~repro.mapping.mapper.TopNMapper.plan_key`).  A block
(:func:`search_layers_fused`) runs five steps:

1. look up each layer's plan and terms: a top-N plan by its plan key; a
   random-mapper plan (``candidate_plan``, seeded by the layer name) is
   never memoized.  A layer whose plan is empty or int64-unsafe is
   handed back; a top-N entry keeps that verdict, so it is computed once
   per plan;
2. score the plan stage (:class:`repro.cost.batch.PlanStage`) in one
   pass over the rows of every layer whose terms are missing — the memo
   misses and any random-mapper plans — and store the top-N ones;
3. gather the block's terms and run only the NoC/bandwidth stage over
   them (:func:`repro.cost.batch.tiling_noc_stage`, once per tiling,
   gathered per row): ``feasible``, ``t_noc`` and ``t_dma``;
4. latency objective: pick every layer's winner in one segmented pass
   (:func:`repro.cost.batch.segment_latency_winners`), and count each
   layer's feasible rows with one ``np.add.reduceat``.  Energy and EDP
   need every feasible row instead;
5. gather only those rows' factors from the plans into one small
   :class:`~repro.mapping.batch_candidates.FusedCandidateBlock` and run
   the whole kernel over it (:class:`FusedBlockEvaluation`).  A latency
   block builds its winners' ``ExecutionInfo``\\ s and ``Mapping``\\ s
   with one bulk call each; energy and EDP build each layer's feasible
   rows and keep the first strictly best by their scorer
   (:meth:`FusedBlockEvaluation.layer_result`).

A top-N layer whose terms are memoized gets no ``CandidateBatch``
gather at all: only its picked rows are gathered.

Exactness contract (asserted by ``tests/test_fused_eval.py``): results
scatter back bit-identically to the per-layer scalar/batch paths — same
values, same Python types, same dict insertion orders, same
first-strictly-best tie-breaking, and the same candidate and feasible
counts.  Both stages run the kernel's operations in its association,
and the picked rows are re-scored by the whole kernel.

What the fused path *skips* is the re-scorable
:class:`~repro.mapping.mapper.SearchTrace` (a per-layer search keeps
its ``BatchLayerEvaluation`` arrays and feasible rows); layer results
stored into the mapping cache therefore populate the exact tier only.
Correctness is unaffected — a re-score of a trace is bit-identical to a
cold search, so a missing trace merely costs a future bandwidth-sweep
re-score its shortcut.  The per-layer path never fills or reads the
terms memo.

The path is opt-in via ``REPRO_FUSED_EVAL=1`` or
``CostEvaluator(fused_eval=True)`` (the campaign service always passes
the latter) and serves every mapper exposing ``candidate_plan`` (the
built-in top-N and random mappers, under any mapping objective);
anything else — including int64-unsafe candidate sets, which fall back
per layer — takes the per-layer path.  A block is always evaluated in
the calling process.
"""

from __future__ import annotations

import functools
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import AcceleratorConfig
import repro.cost.batch as _batch
from repro.cost.execution_info import ExecutionInfo
from repro.mapping.batch_candidates import FusedCandidateBlock
from repro.mapping.mapper import (
    MappingResult,
    _candidate_arrays,
    _resolve_objective,
    _top_n_plan,
    _top_n_terms,
)
from repro.mapping.mapping import STATIONARY_CHOICES, Mapping
from repro.perf.instrumentation import BatchEvalStats
from repro.workloads.layers import LayerShape, Operand

__all__ = [
    "supports_fused",
    "PlanTerms",
    "FusedBlockEvaluation",
    "search_layers_fused",
]

_DATA_OPERANDS = (Operand.I, Operand.W, Operand.O)
_NOC_OPERANDS = (Operand.I, Operand.W, Operand.O, Operand.PSUM)


def supports_fused(mapper) -> bool:
    """Whether ``mapper`` can be driven by the fused cross-layer path:
    it implements the candidate-plan protocol (its search is "score one
    candidate batch, keep the objective's first strictly-best row")."""
    return callable(getattr(mapper, "candidate_plan", None))


class PlanTerms(NamedTuple):
    """One candidate plan and the plan-stage terms a fused block reads.

    ``table``, ``row`` and ``code`` are the plan in the top-N memo's
    compact form: a ``(tilings, 4, 7)`` table of spatial, RF, SPM and
    DRAM factors, and per row its tiling and stationary-code pair
    (``dram_code * 3 + spm_code``).  ``int64_safe`` is the plan's
    overflow verdict (:func:`repro.cost.batch.plan_int64_safe`); an
    unsafe plan carries no terms.

    Terms of a tiling, stored once per tiling: ``t_comp``, ``groups``
    and ``tile_bytes`` (``(tilings, 3)``: the I, W and O NoC group
    counts and RF tile bytes) and ``fits``, the PE/RF/SPM verdict.
    Terms of a row, which read its stationary codes: ``events``
    (``(rows, 4)``: the I, W, O and PSUM NoC event counts) and
    ``offchip_total``.  Memoized arrays are read-only.
    """

    table: np.ndarray
    row: np.ndarray
    code: np.ndarray
    int64_safe: bool
    t_comp: Optional[np.ndarray] = None
    groups: Optional[np.ndarray] = None
    tile_bytes: Optional[np.ndarray] = None
    fits: Optional[np.ndarray] = None
    events: Optional[np.ndarray] = None
    offchip_total: Optional[np.ndarray] = None


class FusedBlockEvaluation(_batch.BatchLayerEvaluation):
    """The whole kernel over a block of rows of many layers.

    Runs :meth:`BatchLayerEvaluation._score
    <repro.cost.batch.BatchLayerEvaluation._score>` — the one
    candidate-scoring kernel — over a block: layer attributes (stride,
    depthwise flag, operator, MACs) are per-row arrays from the block,
    hardware parameters are scalars from ``config``.  In a fused search
    the block holds only the rows the search picked: each layer's
    latency winner, or every feasible row for energy and EDP.
    Materialization and infeasibility decoding are the per-layer
    path's.  ``__init__`` does not chain to the parent's, which builds
    from one layer.
    """

    def __init__(self, block: FusedCandidateBlock, config: AcceleratorConfig):
        self.block = block
        self.config = config
        self._score(
            block,
            config,
            stride=block.stride,
            dwise=block.dwise,
            operators=block.operators,
            opcode=block.opcode,
            macs=block.macs,
        )

    def _macs(self, idx: np.ndarray) -> list:
        return self.block.macs[idx].tolist()

    def _outcomes(
        self, rows: np.ndarray
    ) -> List[Tuple[Mapping, ExecutionInfo]]:
        """The ``(Mapping, ExecutionInfo)`` of ``rows``, built with one
        bulk call each."""
        return list(zip(self.block.mappings(rows), self.execution_infos(rows)))

    @functools.cached_property
    def winners(self) -> List[Tuple[Mapping, ExecutionInfo]]:
        """Every row's objects, built on first access: the latency
        objective's block holds one winner per layer at most."""
        return self._outcomes(np.arange(len(self.block)))

    def layer_result(
        self,
        layer_index: int,
        candidates: int,
        feasible: int,
        scorer: Optional[_batch.Scorer] = None,
    ) -> MappingResult:
        """The :class:`MappingResult` of layer ``layer_index``, whose
        search scored ``candidates`` rows of which ``feasible`` passed.

        With no ``scorer`` (the latency objective) the layer's rows here
        are its winner alone, or none, and every layer's winner is built
        in one bulk call (:attr:`winners`).  Otherwise they are the
        layer's feasible rows, built here, one layer at a time, and the
        first strictly best by ``scorer`` wins.  A block's feasible rows
        run to thousands; building them all at once made an energy
        campaign on EfficientNet-B0 about a fifth slower than building
        them layer by layer.
        """
        rows = self.block.rows(layer_index)
        if scorer is None:
            winner = self.winners[rows]
            mapping, execution = winner[0] if winner else (None, None)
        else:
            mapping, execution = _batch._select_best(
                self.block.layers[layer_index],
                self.config,
                self._outcomes(np.arange(rows.start, rows.stop)),
                scorer,
            )
        return MappingResult(
            mapping=mapping,
            execution=execution,
            candidates_evaluated=candidates,
            feasible_candidates=feasible,
        )


def _noc_columns(per_data_operand: np.ndarray) -> dict:
    """The ``(n, 3)`` I/W/O columns as the NoC stage's per-operand dict
    (PSUM travels in O's groups and tiles)."""
    columns = dict(zip(_DATA_OPERANDS, per_data_operand.T))
    columns[Operand.PSUM] = columns[Operand.O]
    return columns


def _score_plan_stage(
    layers: Sequence[LayerShape],
    plans: Sequence[PlanTerms],
    config: AcceleratorConfig,
) -> List[PlanTerms]:
    """Step 2: the plan stage in one pass over every row of ``plans``,
    split back into one read-only :class:`PlanTerms` per plan.

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
    block = FusedCandidateBlock.from_rows(
        layers,
        [len(plan.row) for plan in plans],
        **_candidate_arrays(levels, code),
    )
    stage = _batch.PlanStage(
        block, config, block.stride, block.dwise, block.operators, block.opcode
    )
    any_row = np.zeros(tiling_offsets[-1], dtype=np.intp)
    any_row[tiling] = np.arange(len(tiling))
    per_tiling = (
        stage.t_comp[any_row],
        np.stack([stage.groups[op][any_row] for op in _DATA_OPERANDS], axis=1),
        np.stack(
            [stage.rf_bytes[op][any_row] for op in _DATA_OPERANDS], axis=1
        ),
        (stage.fail_code == _batch.FEASIBLE)[any_row],
    )
    per_row = (
        np.stack([stage.events[op] for op in _NOC_OPERANDS], axis=1),
        stage.offchip_total,
    )
    scored = []
    for k, plan in enumerate(plans):
        tilings = slice(tiling_offsets[k], tiling_offsets[k + 1])
        rows = slice(row_offsets[k], row_offsets[k + 1])
        terms = [array[tilings].copy() for array in per_tiling]
        terms += [array[rows].copy() for array in per_row]
        for array in terms:
            array.setflags(write=False)
        scored.append(PlanTerms(*plan[:4], *terms))
    return scored


def _block_terms(
    mapper,
    layers: Sequence[LayerShape],
    config: AcceleratorConfig,
    stats: Optional[BatchEvalStats],
) -> Tuple[List[LayerShape], List[PlanTerms], List[LayerShape]]:
    """Steps 1 and 2: ``(searched, terms, remaining)``, the layers the
    block searches with each one's :class:`PlanTerms`, and the layers
    handed back (empty or int64-unsafe plan)."""
    plan_key = getattr(mapper, "plan_key", None)
    searched: List[LayerShape] = []
    terms: List[PlanTerms] = []
    remaining: List[LayerShape] = []
    missing: List[Tuple[int, Optional[Tuple]]] = []
    for layer in layers:
        key = None
        if plan_key is not None:
            key = plan_key(layer, config)
            entry = _top_n_terms.get(key)
            if entry is None:
                table, row, code = _top_n_plan(*key)
                safe = _batch.plan_int64_safe(table, row, config)
                entry = PlanTerms(table, row, code, safe)
                if not entry.int64_safe:
                    _top_n_terms.put(key, entry)
        else:
            batch = mapper.candidate_plan(layer, config)
            entry = PlanTerms(
                np.stack(
                    [batch.spatial, batch.rf, batch.spm, batch.dram], axis=1
                ),
                np.arange(len(batch)),
                batch.dram_code * len(STATIONARY_CHOICES) + batch.spm_code,
                _batch.int64_safe(batch, config),
            )
        if not len(entry.row) or not entry.int64_safe:
            if stats is not None:
                stats.record_fused_fallback()
            remaining.append(layer)
            continue
        if entry.t_comp is None:
            missing.append((len(terms), key))
        searched.append(layer)
        terms.append(entry)
    if missing:
        scored = _score_plan_stage(
            [searched[i] for i, _ in missing],
            [terms[i] for i, _ in missing],
            config,
        )
        for (i, key), entry in zip(missing, scored):
            terms[i] = entry
            if key is not None:
                _top_n_terms.put(key, entry)
    return searched, terms, remaining


def search_layers_fused(
    mapper,
    layers: Sequence[LayerShape],
    config: AcceleratorConfig,
    stats: Optional[BatchEvalStats] = None,
) -> Tuple[List[Tuple[LayerShape, MappingResult]], List[LayerShape]]:
    """Resolve many layers' mapping searches through one fused block.

    Returns ``(fused, remaining)``: per-layer results bit-identical to
    ``mapper(layer, config)`` for every layer whose candidate plan was
    fused, in input order, plus the layers handed back for the
    per-layer path (empty plan or int64-unsafe candidate set — the
    scalar reference computes those in arbitrary-precision ints).

    Every layer given is searched.  ``CostEvaluator`` passes one layer
    per distinct :func:`~repro.perf.signature.search_signature` and gives
    each result to that layer's repeats.  The five steps are in the
    module docstring.
    """
    started = time.perf_counter()
    objective = getattr(mapper, "objective", "latency")
    scorer = None if objective == "latency" else _resolve_objective(objective)
    searched, terms, remaining = _block_terms(mapper, layers, config, stats)
    if not searched:
        return [], remaining

    # -- 3. the NoC/bandwidth stage, once per tiling --------------------------
    counts = [len(entry.row) for entry in terms]
    offsets = np.cumsum([0] + counts)
    tiling_starts = np.cumsum([0] + [len(entry.table) for entry in terms])
    tiling = np.concatenate(
        [entry.row + start for entry, start in zip(terms, tiling_starts)]
    )
    feasible_tiling, cycles = _batch.tiling_noc_stage(
        _noc_columns(np.concatenate([entry.groups for entry in terms])),
        _noc_columns(np.concatenate([entry.tile_bytes for entry in terms])),
        np.concatenate([entry.fits for entry in terms]),
        config,
    )
    feasible = feasible_tiling[tiling]

    # -- 4. every layer's picked rows in one segmented pass -------------------
    feasible_counts = np.add.reduceat(feasible, offsets[:-1], dtype=np.int64)
    if scorer is None:
        events = np.concatenate([entry.events for entry in terms])
        t_noc = {
            op: events[:, i] * cycles[op][tiling]
            for i, op in enumerate(_NOC_OPERANDS)
        }
        t_dma = (
            np.concatenate([entry.offchip_total for entry in terms])
            / config.dram_bytes_per_cycle
        )
        t_comp = np.concatenate([entry.t_comp for entry in terms])[tiling]
        has_winner = feasible_counts > 0
        picked = _batch.segment_latency_winners(
            t_comp, t_noc, t_dma, feasible, offsets
        )[has_winner]
        picked_counts = has_winner.astype(np.int64)
    else:
        picked = np.flatnonzero(feasible)
        picked_counts = feasible_counts

    # -- 5. the whole kernel and the objects of the picked rows only ----------
    levels = np.concatenate([entry.table for entry in terms])[tiling[picked]]
    code = np.concatenate([entry.code for entry in terms])[picked]
    evaluation = FusedBlockEvaluation(
        FusedCandidateBlock.from_rows(
            searched, picked_counts.tolist(), **_candidate_arrays(levels, code)
        ),
        config,
    )
    results = [
        evaluation.layer_result(
            index, counts[index], int(feasible_counts[index]), scorer
        )
        for index in range(len(searched))
    ]
    if stats is not None:
        stats.record_fused(
            len(searched),
            int(offsets[-1]),
            int(feasible_counts.sum()),
            time.perf_counter() - started,
        )
    return list(zip(searched, results)), remaining
