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
NoC/bandwidth stage, and every plan-stage term is memoized beside each
top-N plan (:data:`repro.mapping.mapper._top_n_terms`, keyed by
:meth:`~repro.mapping.mapper.TopNMapper.plan_key`), which the per-layer
top-N search reads too.  A block (:func:`search_layers_fused`) runs
five steps:

1. look up each layer's plan and terms: a top-N plan by its plan key; a
   random-mapper plan (``candidate_plan``, seeded by the layer name) is
   never memoized.  A layer whose plan is empty or int64-unsafe is
   handed back; a top-N entry keeps that verdict, so it is computed once
   per plan;
2. score the plan stage (:func:`repro.cost.batch.plan_terms`) in one
   pass over the rows of every layer whose terms are missing — the memo
   misses and any random-mapper plans — and store the top-N ones;
3. run only the NoC/bandwidth stage over the block's terms
   (:class:`FusedBlockEvaluation`: once per tiling, gathered per row);
4. latency objective: pick every layer's winner in one segmented pass
   (:func:`repro.cost.batch.segment_latency_winners`); each layer's
   feasible rows are counted with one ``np.add.reduceat``.  Energy and
   EDP need every feasible row instead;
5. gather the ``ExecutionInfo``\\ s and ``Mapping``\\ s of only those
   rows from the terms (:meth:`FusedBlockEvaluation.layer_result`).  A
   latency block gathers its winners with one bulk call each; energy
   and EDP gather each layer's feasible rows and keep the first
   strictly best by their scorer.

No step re-runs the kernel over rows already scored: a top-N layer
whose terms are memoized runs the NoC stage alone, and its picked rows
are gathered, not re-scored.

Exactness contract (asserted by ``tests/test_fused_eval.py``): results
scatter back bit-identically to the per-layer scalar/batch paths — same
values, same Python types, same dict insertion orders, same
first-strictly-best tie-breaking, and the same candidate and feasible
counts.  Both stages run the kernel's operations in its association,
and the gather forms the rest in that association too.

Both paths feed the layer cache the same way: ``CostEvaluator`` stores
each search's result, fused or per layer, in its exact-result LRU.  A
bandwidth or clock variant of a stored design point is a cache miss,
served by the terms memo: its top-N layers run the NoC/bandwidth stage
alone.

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import AcceleratorConfig
import repro.cost.batch as _batch
from repro.cost.batch import PlanTerms
from repro.cost.execution_info import ExecutionInfo
from repro.mapping.mapper import (
    MappingResult,
    _resolve_objective,
    top_n_plan_terms,
)
from repro.mapping.mapping import Mapping
from repro.perf.instrumentation import BatchEvalStats
from repro.workloads.layers import LayerShape

__all__ = [
    "supports_fused",
    "PlanTerms",
    "FusedBlockEvaluation",
    "search_layers_fused",
]


def supports_fused(mapper) -> bool:
    """Whether ``mapper`` can be driven by the fused cross-layer path:
    it implements the candidate-plan protocol (its search is "score one
    candidate batch, keep the objective's first strictly-best row")."""
    return callable(getattr(mapper, "candidate_plan", None))


class FusedBlockEvaluation(_batch.BatchLayerEvaluation):
    """Steps 3 to 5 over a block of many layers' terms.

    ``__init__`` runs the NoC/bandwidth stage over the concatenated
    terms of ``layers`` (layer ``k`` owns rows ``offsets[k]:offsets[k +
    1]``) and counts each layer's feasible rows; :meth:`layer_result`
    picks and gathers a layer's result.  Materialization and the
    latency rule are the per-layer path's.
    """

    def __init__(
        self,
        layers: Sequence[LayerShape],
        terms: Sequence[PlanTerms],
        config: AcceleratorConfig,
    ):
        self.layers = tuple(layers)
        counts = [len(entry.row) for entry in terms]
        self.offsets = np.cumsum([0] + counts)
        macs = np.repeat(
            np.array([layer.macs for layer in layers], dtype=np.int64), counts
        )
        self._noc_stage(_batch.concat_terms(terms), config, macs)
        self.feasible_counts = np.add.reduceat(
            self.feasible, self.offsets[:-1], dtype=np.int64
        )

    def _macs(self, idx: np.ndarray) -> Tuple[np.ndarray, list]:
        macs = self.macs[idx]
        return macs, macs.tolist()

    @functools.cached_property
    def winners(self) -> List[Optional[Tuple[Mapping, ExecutionInfo]]]:
        """Each layer's latency winner, or None when it has no feasible
        row: picked in one segmented pass and gathered with one bulk
        call each."""
        has_winner = self.feasible_counts > 0
        picked = _batch.segment_latency_winners(
            self.latency(), self.feasible, self.offsets
        )[has_winner]
        built = iter(zip(self.mappings(picked), self.execution_infos(picked)))
        return [next(built) if ok else None for ok in has_winner.tolist()]

    def layer_result(
        self, layer_index: int, scorer: Optional[_batch.Scorer] = None
    ) -> MappingResult:
        """The :class:`MappingResult` of layer ``layer_index``.

        With no ``scorer`` (the latency objective) it is the layer's
        entry of :attr:`winners`, which builds every layer's on first
        access.  Otherwise the layer's feasible rows are gathered here,
        one layer at a time, and the first strictly best by ``scorer``
        wins.  A block's feasible rows run to thousands; building them
        all at once made an energy campaign on EfficientNet-B0 about a
        fifth slower than building them layer by layer.
        """
        start, stop = self.offsets[layer_index], self.offsets[layer_index + 1]
        if scorer is None:
            winner = self.winners[layer_index]
            mapping, execution = winner if winner else (None, None)
        else:
            rows = start + np.flatnonzero(self.feasible[start:stop])
            mapping, execution = _batch._select_best(
                self.layers[layer_index],
                self.config,
                zip(self.mappings(rows), self.execution_infos(rows)),
                scorer,
            )
        return MappingResult(
            mapping=mapping,
            execution=execution,
            candidates_evaluated=int(stop - start),
            feasible_candidates=int(self.feasible_counts[layer_index]),
        )


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
    if plan_key is not None:
        entries = top_n_plan_terms(
            layers, [plan_key(layer, config) for layer in layers], config
        )
    else:
        entries = []
        for layer in layers:
            batch = mapper.candidate_plan(layer, config)
            entries.append(
                PlanTerms.from_batch(batch, _batch.int64_safe(batch, config))
            )
        safe = [
            k for k, plan in enumerate(entries)
            if len(plan.row) and plan.int64_safe
        ]
        if safe:
            scored = _batch.plan_terms(
                [layers[k] for k in safe], [entries[k] for k in safe], config
            )
            for k, entry in zip(safe, scored):
                entries[k] = entry
    searched: List[LayerShape] = []
    terms: List[PlanTerms] = []
    remaining: List[LayerShape] = []
    for layer, entry in zip(layers, entries):
        if not len(entry.row) or not entry.int64_safe:
            if stats is not None:
                stats.record_fused_fallback()
            remaining.append(layer)
        else:
            searched.append(layer)
            terms.append(entry)
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
    evaluation = FusedBlockEvaluation(searched, terms, config)
    results = [
        evaluation.layer_result(index, scorer)
        for index in range(len(searched))
    ]
    if stats is not None:
        stats.record_fused(
            len(searched),
            len(evaluation),
            int(evaluation.feasible_counts.sum()),
            time.perf_counter() - started,
        )
    return list(zip(searched, results)), remaining
