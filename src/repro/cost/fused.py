"""Fused cross-layer candidate evaluation (campaign-wide SoA kernels).

The per-layer path scores candidates *within* one (layer, mapper-call):
``CostEvaluator`` loops layers in Python and re-enters the mapper (and
the kernel) once per layer.  This module collapses one design point's
*entire* mapping stage into a handful of int64 array passes:

1. the candidate plan (``mapper.candidate_plan``, a ready int64
   :class:`~repro.mapping.batch_candidates.CandidateBatch`) of each
   layer given is concatenated into one
   :class:`~repro.mapping.batch_candidates.FusedCandidateBlock` — a
   (sum-of-candidates x dims) SoA block with per-row layer attributes.
   ``CostEvaluator`` gives one layer per distinct
   :func:`~repro.perf.signature.search_signature` of a design point's
   pending layers, as on its per-layer path, and hands each result to
   that layer's repeats;
2. :class:`FusedBlockEvaluation` runs the one candidate-scoring kernel
   of :mod:`repro.cost.batch` once over all rows;
3. each layer's winner is selected over its row range by
   :func:`repro.cost.batch.best_of_rows`, the per-layer path's rule for
   every mapping objective: a latency search materializes only *that*
   candidate's ``Mapping``/``ExecutionInfo``, an energy or EDP search
   the layer's feasible rows, which its scorer reads.

Exactness contract (asserted by ``tests/test_fused_eval.py``): results
scatter back bit-identically to the per-layer scalar/batch paths — same
values, same Python types, same dict insertion orders, same
first-strictly-best tie-breaking, and the same
:class:`InfeasibleMapping` reasons.

What the fused path *skips* is the re-scorable
:class:`~repro.mapping.mapper.SearchTrace` (a per-layer search keeps
its ``BatchLayerEvaluation`` arrays and feasible rows); layer results
stored into the mapping cache therefore populate the exact tier only.
Correctness is unaffected — a re-score of a trace is bit-identical to a
cold search, so a missing trace merely costs a future bandwidth-sweep
re-score its shortcut.

The path is opt-in via ``REPRO_FUSED_EVAL=1`` or
``CostEvaluator(fused_eval=True)`` (the campaign service always passes
the latter) and serves every mapper exposing ``candidate_plan`` (the
built-in top-N and random mappers, under any mapping objective);
anything else — including int64-unsafe candidate sets, which fall back
per layer — takes the per-layer path.  A block is always evaluated in
the calling process.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import AcceleratorConfig
import repro.cost.batch as _batch
from repro.mapping.batch_candidates import CandidateBatch, FusedCandidateBlock
from repro.mapping.mapper import MappingResult, _resolve_objective
from repro.perf.instrumentation import BatchEvalStats
from repro.workloads.layers import LayerShape

__all__ = [
    "supports_fused",
    "FusedBlockEvaluation",
    "search_layers_fused",
]


def supports_fused(mapper) -> bool:
    """Whether ``mapper`` can be driven by the fused cross-layer path:
    it implements the candidate-plan protocol (its search is "score one
    candidate batch, keep the objective's first strictly-best row")."""
    return callable(getattr(mapper, "candidate_plan", None))


class FusedBlockEvaluation(_batch.BatchLayerEvaluation):
    """Kernel results for one (design point, all-layers candidate block).

    Runs :meth:`BatchLayerEvaluation._score
    <repro.cost.batch.BatchLayerEvaluation._score>` — the one
    candidate-scoring kernel — over a block: layer attributes (stride,
    depthwise flag, operator, MACs) are per-row arrays from the block,
    hardware parameters are scalars from ``config``.  Materialization,
    infeasibility decoding and winner selection are the per-layer
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

    def layer_result(
        self, layer_index: int, scorer: Optional[_batch.Scorer] = None
    ) -> MappingResult:
        """The :class:`MappingResult` of layer ``layer_index``: the
        winner of its row range by :func:`repro.cost.batch.best_of_rows`
        (``scorer`` as there; None for the latency objective)."""
        rows = self.block.rows(layer_index)
        mapping, execution = _batch.best_of_rows(
            self,
            rows,
            self.block.batches[layer_index],
            self.block.layers[layer_index],
            self.config,
            scorer,
        )
        return MappingResult(
            mapping=mapping,
            execution=execution,
            candidates_evaluated=rows.stop - rows.start,
            feasible_candidates=int(np.count_nonzero(self.feasible[rows])),
        )


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
    each result to that layer's repeats.
    """
    started = time.perf_counter()
    objective = getattr(mapper, "objective", "latency")
    scorer = None if objective == "latency" else _resolve_objective(objective)
    searched: List[LayerShape] = []
    batches: List[CandidateBatch] = []
    remaining: List[LayerShape] = []
    for layer in layers:
        batch = mapper.candidate_plan(layer, config)
        if len(batch) and _batch.int64_safe(batch, config):
            searched.append(layer)
            batches.append(batch)
        else:
            if stats is not None:
                stats.record_fused_fallback()
            remaining.append(layer)
    if not searched:
        return [], remaining
    block = FusedCandidateBlock.from_layer_batches(searched, batches)
    evaluation = FusedBlockEvaluation(block, config)
    results = [
        evaluation.layer_result(index, scorer) for index in range(len(searched))
    ]
    if stats is not None:
        stats.record_fused(
            len(searched),
            len(block),
            sum(result.feasible_candidates for result in results),
            time.perf_counter() - started,
        )
    return list(zip(searched, results)), remaining
