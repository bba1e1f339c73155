"""Explainable-DSE: constraints-aware DSE using bottleneck analysis (§4).

Each *acquisition attempt*:

1. evaluate the current solution ``S`` (cost model + per-layer mapping
   optimization — the tightly-coupled codesign loop of §4.8);
2. pick the critical cost ``CR``: the most-violated inequality constraint
   if any, else the objective;
3. run bottleneck analysis through the matching bottleneck model — the
   resource models for area/power violations, the per-layer latency model
   otherwise — obtaining mitigating (parameter, value) predictions;
4. aggregate predictions across bottleneck sub-functions (top-K layers
   above the contribution threshold; minimum value per parameter, §4.4);
5. acquire one candidate per predicted parameter (all other parameters
   keep their ``S`` values), rounding predictions into the design space
   (§4.5);
6. update ``S`` with constraints-budget awareness: among
   all-constraints-feasible candidates pick the lowest
   ``objective x budget``; while infeasible pick the lowest budget (§4.6).

The run log records a human-readable explanation of every decision — the
capability that gives the framework its name.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.design_space import DesignPoint, DesignSpace
from repro.core.bottleneck.api import BottleneckModel
from repro.core.bottleneck.latency_model import (
    LayerExecutionContext,
    build_latency_bottleneck_model,
)
from repro.core.bottleneck.resource_models import (
    ResourceContext,
    build_area_bottleneck_model,
    build_power_bottleneck_model,
)
from repro.core.dse.aggregation import (
    AggregatedPrediction,
    SubFunctionPredictions,
    aggregate_parameter_values,
)
from repro.core.dse.constraints import (
    Constraint,
    all_satisfied,
    constraints_budget,
    violated_constraints,
)
from repro.core.dse.result import DSEResult, TrialRecord, select_best
from repro.cost.evaluator import CostEvaluator, Evaluation
from repro.resilience.errors import as_repro_error
from repro.resilience.supervisor import FailureRateBreaker
from repro.telemetry.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    trials_to_dicts,
    verify_against_journal,
)
from repro.telemetry.events import (
    CandidateEvaluated,
    CandidateFailed,
    deterministic_perf_counters,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["ExplainableDSE"]


#: Ledger costs of a quarantined candidate: infeasible under every
#: constraint form (LEQ bounds see ``inf``, GEQ/throughput bounds see 0),
#: so :func:`select_best` can never pick a design that was not evaluated.
_QUARANTINE_COSTS = {
    "latency_ms": math.inf,
    "area_mm2": math.inf,
    "power_w": math.inf,
    "energy_mj": math.inf,
    "throughput": 0.0,
}

#: Parameters nudged upward when a hardware point cannot map the workload
#: at all (fixed-dataflow incompatibility): more time-shared unicast rounds,
#: more physical links, and a larger register file.
_COMPATIBILITY_PARAMS = (
    "virt_unicast_I",
    "virt_unicast_W",
    "virt_unicast_O",
    "virt_unicast_PSUM",
    "phys_unicast_I",
    "phys_unicast_W",
    "phys_unicast_O",
    "phys_unicast_PSUM",
    "l1_bytes",
)


@dataclass
class _Candidate:
    """One acquired candidate: S with one (occasionally a bundle of)
    parameter(s) replaced."""

    parameter: str
    value: object
    point: DesignPoint
    reason: str


class ExplainableDSE:
    """The Explainable-DSE framework (paper §4).

    Args:
        design_space: Hardware design space (Table 1 for the paper's runs).
        evaluator: Cost evaluator (owns the mapper: fixed dataflow or the
            top-N codesign mapper).
        constraints: Inequality constraints (area / power / throughput).
        objective: Cost key minimized (``"latency_ms"``).
        latency_model: Latency bottleneck model; defaults to the §4.7 model.
        area_model / power_model: Resource bottleneck models for constraint
            mitigation; defaults to the built-in ones.
        top_k: Bottleneck sub-functions considered per attempt (§4.4).
        threshold: Sub-function contribution threshold; default
            ``0.5 / unique_layers``.
        max_evaluations: Evaluation (iteration) budget.
        patience: Attempts without incumbent improvement before stopping.
        max_candidates: Cap on candidates acquired per attempt.
        aggregation_rule: Conflict resolution for multi-layer predictions:
            ``"min"`` (paper default), ``"max"``, or ``"mean"`` (§4.4
            ablation).
        budget_aware: When False, the feasible-phase update minimizes the
            raw objective instead of ``objective x constraints budget``
            (§4.6 ablation).
        tracer: Default telemetry tracer for :meth:`run` (overridable per
            run); ``None`` selects the disabled ``NULL_TRACER``.
    """

    def __init__(
        self,
        design_space: DesignSpace,
        evaluator: CostEvaluator,
        constraints: Sequence[Constraint],
        objective: str = "latency_ms",
        latency_model: Optional[BottleneckModel] = None,
        area_model: Optional[BottleneckModel] = None,
        power_model: Optional[BottleneckModel] = None,
        top_k: int = 5,
        threshold: Optional[float] = None,
        max_evaluations: int = 100,
        patience: int = 3,
        max_candidates: int = 8,
        aggregation_rule: str = "min",
        budget_aware: bool = True,
        tracer: Optional[Tracer] = None,
    ):
        for name, value in (
            ("max_evaluations", max_evaluations),
            ("top_k", top_k),
            ("patience", patience),
            ("max_candidates", max_candidates),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        self.space = design_space
        self.evaluator = evaluator
        self.constraints = list(constraints)
        self.objective = objective
        self.latency_model = latency_model or build_latency_bottleneck_model()
        self.area_model = area_model or build_area_bottleneck_model()
        self.power_model = power_model or build_power_bottleneck_model()
        self.top_k = top_k
        self.threshold = threshold
        self.max_evaluations = max_evaluations
        self.patience = patience
        self.max_candidates = max_candidates
        self.aggregation_rule = aggregation_rule
        self.budget_aware = budget_aware
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- public API ----------------------------------------------------------

    def run(
        self,
        initial_point: Optional[DesignPoint] = None,
        *,
        tracer: Optional[Tracer] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[object] = None,
    ) -> DSEResult:
        """Explore from ``initial_point`` (default: the minimum point).

        Args:
            tracer: Telemetry tracer receiving structured events for every
                analysis/acquisition/update decision (defaults to the
                instance tracer, itself ``NULL_TRACER`` — a no-op — unless
                configured).  Tracing never alters results.
            checkpoint_path: When set, an atomic crash-safe campaign
                snapshot is written here after every ``checkpoint_every``
                completed attempts (and at termination), enabling
                ``resume_from``.
            checkpoint_every: Attempt interval between snapshots.
            resume_from: A :class:`CampaignCheckpoint` or a path to one.
                The campaign state (incumbent, budget, trial history,
                acquisition bookkeeping) is restored and exploration
                continues mid-campaign; re-evaluating the incumbent does
                not consume budget.  When a path with a sibling journal is
                given, the journal is replayed to verify the snapshot
                first.
        """
        # The step loop lives in repro.service.machine: run() drives the
        # same CampaignStateMachine the campaign service schedules, so a
        # straight run and a service-interleaved (or killed-and-resumed)
        # campaign are bit-identical by construction.
        from repro.service.machine import CampaignState, CampaignStateMachine

        machine = CampaignStateMachine(
            self,
            initial_point,
            tracer=tracer,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
        )
        machine.start()
        while machine.state is CampaignState.RUNNING:
            machine.step()
        return machine.result()

    # -- checkpoint/resume plumbing ---------------------------------------------

    def _perf_counters(self) -> Dict[str, object]:
        """Deterministic evaluator counters (empty for duck-typed
        evaluators without ``perf_summary``, e.g. test stubs)."""
        perf_summary = getattr(self.evaluator, "perf_summary", None)
        if perf_summary is None:
            return {}
        return deterministic_perf_counters(perf_summary())

    def _load_resume(self, resume_from: object) -> CampaignCheckpoint:
        """Load (and, when possible, journal-verify) a resume source."""
        if isinstance(resume_from, CampaignCheckpoint):
            checkpoint = resume_from
        else:
            path = str(resume_from)
            checkpoint = load_checkpoint(path)
            journal = path[: -len(".ckpt")] if path.endswith(".ckpt") else None
            if journal and os.path.exists(journal):
                verify_against_journal(checkpoint, journal)
        if checkpoint.model != self.evaluator.workload.name:
            raise CheckpointError(
                f"checkpoint is for model {checkpoint.model!r}, not "
                f"{self.evaluator.workload.name!r}"
            )
        if checkpoint.objective != self.objective:
            raise CheckpointError(
                f"checkpoint optimizes {checkpoint.objective!r}, not "
                f"{self.objective!r}"
            )
        return checkpoint

    def _write_checkpoint(
        self,
        path: str,
        tracer: Tracer,
        *,
        trials: List[TrialRecord],
        explanations: List[str],
        current: DesignPoint,
        exhausted: Set[str],
        tried_points: Set[Tuple],
        attempt: int,
        attempts_without_improvement: int,
        consumed: int,
        finished: bool,
    ) -> None:
        # Flush-with-fsync first: the on-disk journal must cover every
        # event the snapshot's journal_events references.
        tracer.flush(checkpoint=True)
        manifest = self._perf_counters().get("mapping_cache", {})
        save_checkpoint(
            CampaignCheckpoint(
                model=self.evaluator.workload.name,
                objective=self.objective,
                max_evaluations=self.max_evaluations,
                consumed=consumed,
                attempt=attempt,
                attempts_without_improvement=attempts_without_improvement,
                finished=finished,
                current_point=dict(current),
                exhausted=sorted(exhausted),
                tried_keys=[list(key) for key in sorted(tried_points)],
                trials=trials_to_dicts(trials),
                explanations=list(explanations),
                rng_state=None,  # the core loop is deterministic
                mapping_cache_manifest=manifest,
                journal_events=tracer.events_emitted,
            ),
            path,
        )

    def run_multi_start(
        self,
        starts: int = 3,
        seed: int = 0,
        initial_points: Optional[Sequence[DesignPoint]] = None,
    ) -> DSEResult:
        """Explore from a pool of initial points (paper §C).

        Bottleneck-guided search is greedy; restarting from diverse points
        explores distant promising subspaces.  The evaluation budget is
        split evenly across starts (shared evaluator cache makes repeated
        visits free), and the merged trial log yields one result whose
        ``best`` is the best across all starts.
        """
        import random as _random

        if initial_points is None:
            rng = _random.Random(seed)
            initial_points = [self.space.minimum_point()] + [
                self.space.random_point(rng) for _ in range(starts - 1)
            ]
        per_start = max(1, self.max_evaluations // len(initial_points))
        started = time.perf_counter()
        merged_trials: List[TrialRecord] = []
        merged_explanations: List[str] = []
        total_evaluations = 0
        original_budget = self.max_evaluations
        try:
            self.max_evaluations = per_start
            for index, point in enumerate(initial_points):
                result = self.run(initial_point=point)
                total_evaluations += result.evaluations
                merged_explanations.append(
                    f"=== start {index}: {result.best_objective:.4g} "
                    f"in {result.evaluations} evaluations ==="
                )
                merged_explanations.extend(result.explanations)
                for trial in result.trials:
                    merged_trials.append(
                        TrialRecord(
                            index=len(merged_trials),
                            point=trial.point,
                            costs=trial.costs,
                            feasible=trial.feasible,
                            mappable=trial.mappable,
                            utilizations=trial.utilizations,
                            note=f"start{index}: {trial.note}",
                        )
                    )
        finally:
            self.max_evaluations = original_budget
        best = select_best(
            merged_trials, self.constraints, objective=self.objective
        )
        return DSEResult(
            technique="explainable-multistart",
            model=self.evaluator.workload.name,
            trials=merged_trials,
            best=best,
            evaluations=total_evaluations,
            wall_seconds=time.perf_counter() - started,
            explanations=merged_explanations,
        )

    # -- evaluation bookkeeping -------------------------------------------------

    def _budget_left(self, base: int) -> int:
        return self.max_evaluations - (self.evaluator.evaluations - base)

    def _evaluate(
        self,
        point: DesignPoint,
        trials: List[TrialRecord],
        note: str,
        tracer: Tracer = NULL_TRACER,
        step: int = 0,
        candidate_index: int = -1,
        breaker: Optional[FailureRateBreaker] = None,
    ) -> Optional[Evaluation]:
        """Evaluate one point and record the trial.

        With a ``breaker``, a failed evaluation quarantines the candidate
        (infeasible trial + :class:`CandidateFailed` event) and returns
        ``None`` instead of raising, so the campaign degrades gracefully;
        without one (the initial point) failures propagate.
        """
        if breaker is None:
            evaluation = self.evaluator.evaluate(point)
        else:
            try:
                evaluation = self.evaluator.evaluate(point)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                self._quarantine(
                    point,
                    exc,
                    trials,
                    note=note,
                    tracer=tracer,
                    step=step,
                    candidate_index=candidate_index,
                )
                breaker.record_failure()
                return None
            breaker.record_success()
        return self._record_trial(
            point,
            evaluation,
            trials,
            note=note,
            tracer=tracer,
            step=step,
            candidate_index=candidate_index,
        )

    def _record_trial(
        self,
        point: DesignPoint,
        evaluation: Evaluation,
        trials: List[TrialRecord],
        note: str,
        tracer: Tracer = NULL_TRACER,
        step: int = 0,
        candidate_index: int = -1,
    ) -> Evaluation:
        """Record one successful evaluation: trial ledger + event."""
        utilizations = {
            c.name: c.utilization(evaluation.costs) for c in self.constraints
        }
        feasible = all_satisfied(evaluation.costs, self.constraints)
        trials.append(
            TrialRecord(
                index=len(trials),
                point=dict(point),
                costs=dict(evaluation.costs),
                feasible=feasible,
                mappable=evaluation.mappable,
                utilizations=utilizations,
                note=note,
            )
        )
        tracer.emit(
            CandidateEvaluated(
                step=step,
                candidate_index=candidate_index,
                point=dict(point),
                costs=dict(evaluation.costs),
                feasible=feasible,
                mappable=evaluation.mappable,
                note=note,
            )
        )
        return evaluation

    def _quarantine(
        self,
        point: DesignPoint,
        exc: Exception,
        trials: List[TrialRecord],
        note: str,
        tracer: Tracer,
        step: int,
        candidate_index: int,
    ) -> None:
        """Record a failed candidate as an infeasible trial + event."""
        error = as_repro_error(exc, "candidate evaluation failed")
        costs = dict(_QUARANTINE_COSTS)
        for constraint in self.constraints:
            # Whatever the constraint sense, these costs are infeasible.
            costs.setdefault(
                constraint.cost_key,
                0.0 if constraint.sense.name == "GEQ" else math.inf,
            )
        costs.setdefault(self.objective, math.inf)
        utilizations = {
            c.name: c.utilization(costs) for c in self.constraints
        }
        trials.append(
            TrialRecord(
                index=len(trials),
                point=dict(point),
                costs=costs,
                feasible=False,
                mappable=False,
                utilizations=utilizations,
                note=f"quarantined ({type(error).__name__}): {note}",
            )
        )
        tracer.emit(
            CandidateFailed(
                step=step,
                candidate_index=candidate_index,
                point=dict(point),
                error=type(error).__name__,
                message=str(error),
                attempts=int(error.context.get("attempts", 1)),
                retryable=bool(error.retryable),
                note=note,
            )
        )

    # -- step 2-4: bottleneck analysis + aggregation -----------------------------

    def _analyze(
        self, point: DesignPoint, evaluation: Evaluation
    ) -> Tuple[List[AggregatedPrediction], str, Dict[str, object]]:
        """Pick the critical cost and produce aggregated predictions.

        Returns ``(predictions, why, analysis)`` where ``analysis`` is the
        structured form of ``why`` — the field set of
        :class:`~repro.telemetry.events.BottleneckIdentified`."""
        violated = violated_constraints(evaluation.costs, self.constraints)
        resource = [
            c for c in violated if c.cost_key in ("area_mm2", "power_w")
        ]
        if resource:
            worst = resource[0]
            return self._analyze_resource(point, evaluation, worst)
        if not evaluation.mappable:
            return self._analyze_incompatibility(point, evaluation)
        return self._analyze_latency(point, evaluation, violated)

    def _analyze_resource(
        self, point: DesignPoint, evaluation: Evaluation, constraint: Constraint
    ) -> Tuple[List[AggregatedPrediction], str, Dict[str, object]]:
        model = (
            self.area_model
            if constraint.cost_key == "area_mm2"
            else self.power_model
        )
        context = ResourceContext(
            config=evaluation.config,
            area=evaluation.area,
            power=evaluation.power,
        )
        predictions = model.predict(
            context,
            current_values=point,
            target_value=constraint.bound,
            extra={"config": evaluation.config},
        )
        aggregated = [
            AggregatedPrediction(
                parameter=p.parameter,
                value=p.value,
                contributing_subfunctions=("resource-model",),
                candidate_values=(p.value,),
            )
            for p in predictions
        ]
        why = (
            f"critical cost = violated constraint {constraint.name} "
            f"({evaluation.costs[constraint.cost_key]:.3g} vs bound "
            f"{constraint.bound:g}); mitigating via {model.name}"
        )
        overshoot = constraint.utilization(evaluation.costs)
        analysis = {
            "critical_cost": constraint.cost_key,
            "kind": "constraint",
            "model": model.name,
            "dominant": [{"name": constraint.name, "share": 1.0}],
            "scaling": overshoot if math.isfinite(overshoot) else None,
            "detail": why,
        }
        return aggregated, why, analysis

    def _analyze_incompatibility(
        self, point: DesignPoint, evaluation: Evaluation
    ) -> Tuple[List[AggregatedPrediction], str, Dict[str, object]]:
        """No feasible mapping exists: relax NoC/RF compatibility limits."""
        aggregated = []
        for parameter in _COMPATIBILITY_PARAMS:
            if parameter not in point:
                continue
            param = self.space.parameter(parameter)
            neighbors = param.neighbors(point[parameter])
            larger = [v for v in neighbors if v > point[parameter]]
            if larger:
                aggregated.append(
                    AggregatedPrediction(
                        parameter=parameter,
                        value=float(larger[0]),
                        contributing_subfunctions=("compatibility",),
                        candidate_values=(float(larger[0]),),
                    )
                )
        unmapped = [
            name
            for name, res in evaluation.layer_results.items()
            if not res.feasible
        ]
        why = (
            f"hardware cannot map layers {unmapped[:3]}"
            f"{'...' if len(unmapped) > 3 else ''}; raising NoC/RF limits"
        )
        analysis = {
            "critical_cost": "mappability",
            "kind": "incompatibility",
            "model": "compatibility",
            "dominant": [{"name": name, "share": 0.0} for name in unmapped[:3]],
            "scaling": None,
            "detail": why,
        }
        return aggregated, why, analysis

    def _analyze_latency(
        self,
        point: DesignPoint,
        evaluation: Evaluation,
        violated: Sequence[Constraint],
    ) -> Tuple[List[AggregatedPrediction], str, Dict[str, object]]:
        workload = self.evaluator.workload
        # Sub-function weights come from the objective model's own tree
        # values (equal to the layer latency for the latency model, the
        # layer energy for the energy model, ...).
        tree_values: Dict[str, float] = {}
        for layer in workload.layers:
            result = evaluation.layer_results[layer.name]
            if not result.feasible:
                continue
            context = LayerExecutionContext(
                layer=layer,
                execution=result.execution,
                config=evaluation.config,
            )
            tree_values[layer.name] = self.latency_model.build_tree(
                context
            ).value
        total_cycles = sum(
            tree_values.get(layer.name, 0.0) * layer.repeats
            for layer in workload.layers
        )
        # When a throughput constraint is violated the whole latency must
        # shrink by a known ratio; push that target into per-layer analysis.
        needed_scaling: Optional[float] = None
        throughput_violations = [
            c for c in violated if c.cost_key in ("latency_ms", "throughput")
        ]
        if throughput_violations:
            needed_scaling = max(
                c.utilization(evaluation.costs) for c in throughput_violations
            )

        subfunctions: List[SubFunctionPredictions] = []
        for layer in workload.layers:
            result = evaluation.layer_results[layer.name]
            if not result.feasible:
                continue
            weight = (
                tree_values[layer.name] * layer.repeats / total_cycles
                if total_cycles
                else 0.0
            )
            context = LayerExecutionContext(
                layer=layer,
                execution=result.execution,
                config=evaluation.config,
            )
            target = (
                result.latency / needed_scaling if needed_scaling else None
            )
            predictions = self.latency_model.predict(
                context,
                current_values=point,
                target_value=target,
                max_findings=3,
                execution=result.execution,
                extra={"config": evaluation.config},
            )
            subfunctions.append(
                SubFunctionPredictions(
                    name=layer.name,
                    weight=weight,
                    predictions=tuple(predictions),
                )
            )
        aggregated = aggregate_parameter_values(
            subfunctions,
            top_k=self.top_k,
            threshold=self.threshold,
            rule=self.aggregation_rule,
        )
        heavy = sorted(subfunctions, key=lambda sf: -sf.weight)[:3]
        why = (
            "critical cost = objective"
            + (f" (throughput unmet, need {needed_scaling:.2f}x)" if needed_scaling else "")
            + "; bottleneck layers: "
            + ", ".join(f"{sf.name} ({sf.weight * 100:.0f}%)" for sf in heavy)
        )
        analysis = {
            "critical_cost": self.objective,
            "kind": "objective",
            "model": self.latency_model.name,
            "dominant": [
                {"name": sf.name, "share": sf.weight} for sf in heavy
            ],
            "scaling": needed_scaling,
            "detail": why,
        }
        return aggregated, why, analysis

    def _compatibility_bundle(
        self, current: DesignPoint, tried_points: Set[Tuple]
    ) -> List[_Candidate]:
        """A single candidate maximizing every NoC's time-sharing degree.

        Time-shared unicast trades latency for compatibility, so jumping
        straight to the maximum virtual-unicast setting guarantees the
        fixed dataflow can execute; later attempts dial resources back via
        the regular bottleneck path.
        """
        point = dict(current)
        changed = False
        for name in point:
            if not name.startswith("virt_unicast_"):
                continue
            maximum = self.space.parameter(name).maximum
            if point[name] != maximum:
                point[name] = maximum
                changed = True
        key = self.space.point_key(point)
        if not changed or key in tried_points:
            return []
        return [
            _Candidate(
                parameter="virt_unicast_*",
                value=self.space.parameter("virt_unicast_I").maximum,
                point=point,
                reason="compatibility bundle: maximize time-shared unicast",
            )
        ]

    def _neighbor_fallback(
        self, current: DesignPoint, tried_points: Set[Tuple]
    ) -> List[_Candidate]:
        """One-step neighbour candidates for when mitigation runs dry."""
        candidates: List[_Candidate] = []
        for param in self.space.parameters:
            for value in param.neighbors(current[param.name]):
                point = self.space.with_value(current, param.name, value)
                key = self.space.point_key(point)
                if key in tried_points:
                    continue
                candidates.append(
                    _Candidate(
                        parameter=param.name,
                        value=value,
                        point=point,
                        reason=f"neighbor-fallback: {param.name} -> {value}",
                    )
                )
                if len(candidates) >= self.max_candidates:
                    return candidates
        return candidates

    # -- step 5: acquisition ----------------------------------------------------

    def _acquire(
        self,
        current: DesignPoint,
        predictions: Sequence[AggregatedPrediction],
        exhausted: Set[str],
        tried_points: Set[Tuple],
    ) -> List[_Candidate]:
        """One candidate per predicted (parameter, value), rounded into the
        space; no-op predictions fall back to a one-step neighbour move in
        the prediction's direction (§4.3: black-box fallback).  Points
        already acquired in this run are skipped so stalled attempts
        diversify onto the next-ranked bottlenecks."""
        candidates: List[_Candidate] = []
        seen_keys = set(tried_points)
        seen_keys.add(self.space.point_key(current))
        for prediction in predictions:
            if len(candidates) >= self.max_candidates:
                break
            name = prediction.parameter
            if name in exhausted or name not in current:
                continue
            param = self.space.parameter(name)
            current_value = current[name]
            # Ties default upward: latency mitigations grow resources, and
            # resource (down-scaling) mitigations predict strictly smaller
            # values when they have anything to do.
            if prediction.value >= current_value:
                rounded = param.round_up(prediction.value)
                direction = +1
            else:
                rounded = param.round_down(prediction.value)
                direction = -1
            if rounded == current_value:
                neighbors = param.neighbors(current_value)
                stepped = [
                    v
                    for v in neighbors
                    if (v > current_value) == (direction > 0)
                ]
                if not stepped:
                    continue
                rounded = stepped[0]
                source = "neighbor-fallback"
            else:
                source = "mitigation"
            point = self.space.with_value(current, name, rounded)
            key = self.space.point_key(point)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            candidates.append(
                _Candidate(
                    parameter=name,
                    value=rounded,
                    point=point,
                    reason=(
                        f"{source}: {name} {current_value} -> {rounded} "
                        f"(predicted {prediction.value:g}; from "
                        f"{','.join(prediction.contributing_subfunctions[:2])})"
                    ),
                )
            )
        candidates.extend(
            self._unicast_bundle(current, candidates, seen_keys)
        )
        return candidates

    def _unicast_bundle(
        self,
        current: DesignPoint,
        candidates: Sequence[_Candidate],
        seen_keys: Set[Tuple],
    ) -> List[_Candidate]:
        """Combine co-predicted NoC capability moves into one candidate.

        Spatial unrolling is gated by *every* operand NoC simultaneously:
        raising one link budget at a time cannot unlock a wider unrolling,
        so when the analysis predicts increases for several unicast
        parameters in the same attempt, a bundle applying them all is
        acquired alongside the single-parameter candidates.
        """
        moves = {
            c.parameter: c.value
            for c in candidates
            if c.parameter.startswith(("virt_unicast_", "phys_unicast_"))
            and c.value > current[c.parameter]
        }
        if len(moves) < 2:
            return []
        point = dict(current)
        point.update(moves)
        key = self.space.point_key(point)
        if key in seen_keys:
            return []
        seen_keys.add(key)
        return [
            _Candidate(
                parameter="unicast-bundle",
                value=tuple(sorted(moves.items())),
                point=point,
                reason=f"bundle of NoC capability moves: {moves}",
            )
        ]

    # -- step 6: constraints-budget-aware update ---------------------------------

    def _update(
        self,
        current: DesignPoint,
        current_eval: Evaluation,
        evaluated: Sequence[Tuple[_Candidate, Evaluation]],
        exhausted: Set[str],
    ) -> Tuple[DesignPoint, Evaluation, str]:
        def budget(evaluation: Evaluation) -> float:
            return constraints_budget(evaluation.costs, self.constraints)

        def objective(evaluation: Evaluation) -> float:
            return evaluation.costs.get(self.objective, math.inf)

        current_violations = len(
            violated_constraints(current_eval.costs, self.constraints)
        )
        # Mono-modal pruning (§4.6): a candidate violating *more* constraints
        # than the incumbent exhausts its parameter's direction.
        for candidate, evaluation in evaluated:
            if (
                len(violated_constraints(evaluation.costs, self.constraints))
                > current_violations
            ):
                exhausted.add(candidate.parameter)

        feasible: List[Tuple[Optional[_Candidate], Evaluation]] = [
            (cand, ev)
            for cand, ev in evaluated
            if all_satisfied(ev.costs, self.constraints)
        ]
        if all_satisfied(current_eval.costs, self.constraints):
            feasible.append((None, current_eval))
        if feasible:
            # Scenario 2: among feasible candidates that actually improve
            # the objective, minimize objective x constraints budget (the
            # discount steers away from marginal gains that exhaust the
            # budget; requiring improvement first keeps progress monotone
            # once feasible).
            def score(item):
                _, ev = item
                if not self.budget_aware or not self.constraints:
                    return objective(ev)
                return objective(ev) * budget(ev)

            incumbent_feasible = all_satisfied(
                current_eval.costs, self.constraints
            )
            pool = feasible
            if incumbent_feasible:
                improving = [
                    (cand, ev)
                    for cand, ev in feasible
                    if cand is not None
                    and objective(ev) < objective(current_eval)
                ]
                pool = improving or [(None, current_eval)]
            winner, winner_eval = min(pool, key=score)
            if winner is None:
                return current, current_eval, "kept incumbent (still best)"
            return (
                winner.point,
                winner_eval,
                f"updated solution via {winner.parameter}={winner.value} "
                f"(objective {objective(winner_eval):.4g}, "
                f"budget {budget(winner_eval):.3f})",
            )

        # Scenario 1: nothing feasible yet; per §4.6 the new solution is the
        # acquired *candidate* with the least constraints budget (the
        # incumbent does not compete, so exploration always progresses
        # toward feasible subspaces), preferring mappable designs.
        def infeasible_score(item):
            _, ev = item
            b = budget(ev)
            return (not ev.mappable, b if math.isfinite(b) else math.inf)

        if not evaluated:
            return current, current_eval, "kept incumbent (no candidates)"
        winner, winner_eval = min(evaluated, key=infeasible_score)
        return (
            winner.point,
            winner_eval,
            f"moved toward feasibility via {winner.parameter}={winner.value} "
            f"(budget {budget(winner_eval):.3f})",
        )
