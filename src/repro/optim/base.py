"""Shared machinery for the non-explainable baseline optimizers.

Every baseline (grid, random, simulated annealing, genetic, Bayesian,
HyperMapper-like constrained BO, ConfuciuX-like RL) is a black-box
optimizer over the hardware design space: it sees only the scalar costs of
evaluated points — never *why* a point is slow — which is precisely the
limitation the paper attributes their excessive sampling to (§2).

Each baseline expresses its acquisition strategy as a *proposal
generator* (:meth:`BaselineOptimizer._propose`): a generator that yields
:class:`~repro.optim.protocol.Proposal` objects (or lists of them, for
result-independent batches like a GA generation) and receives the
corresponding :class:`~repro.cost.evaluator.Evaluation` (or list) back at
the yield.  :class:`BaselineOptimizer` serves that generator through the
ask/tell :class:`~repro.optim.protocol.SearchEngine` protocol, and
``run()`` is :class:`~repro.optim.protocol.DriverLoop` over it: one
driver, whether the caller is ``run()`` or an external evaluator.
"""

from __future__ import annotations

import abc
import math
import time
from typing import Dict, Generator, List, Optional, Sequence, Union

from repro.arch.design_space import DesignPoint, DesignSpace
from repro.core.dse.constraints import Constraint, all_satisfied
from repro.core.dse.result import DSEResult, TrialRecord, select_best
from repro.cost.evaluator import CostEvaluator, Evaluation
from repro.optim.protocol import DriverLoop, EvalResult, Proposal, SearchEngine
from repro.telemetry.events import (
    CandidateEvaluated,
    IncumbentUpdated,
    RunSummary,
    deterministic_perf_counters,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["BaselineOptimizer", "penalized_objective"]

#: Penalty weight per unit of constraint over-utilization, applied to the
#: log-domain objective of unconstrained optimizers.
PENALTY_WEIGHT = 10.0

#: What ``_propose`` yields: one proposal (evaluated serially, the reply
#: is its Evaluation) or a batch (the reply is the list of Evaluations).
ProposalRequest = Union[Proposal, List[Proposal]]


def penalized_objective(
    costs: Dict[str, float],
    constraints: Sequence[Constraint],
    objective: str = "latency_ms",
) -> float:
    """Log-domain objective with additive constraint-violation penalties.

    Unconstrained black-box methods (SA, GA, plain BO) need a single
    scalar; infeasible points are penalized proportionally to how far each
    constraint is over budget.  Unmappable points (infinite latency) map to
    a large finite value so comparisons stay well-defined.
    """
    value = costs.get(objective, math.inf)
    if not math.isfinite(value) or value <= 0:
        base = 1e9
    else:
        base = value
    score = math.log(base)
    for constraint in constraints:
        utilization = constraint.utilization(costs)
        if not math.isfinite(utilization):
            score += PENALTY_WEIGHT * 10
        elif utilization > 1.0:
            score += PENALTY_WEIGHT * (utilization - 1.0)
    return score


class BaselineOptimizer(SearchEngine):
    """Base class: budget accounting, trial recording, result assembly.

    Subclasses implement :meth:`_propose`, a generator yielding
    :class:`Proposal` requests; the budget is enforced at evaluation
    boundaries (an exhausted budget ends the ask/tell stream, abandoning
    whatever the generator still holds unevaluated).
    """

    #: Short label used in experiment tables.
    name = "baseline"

    def __init__(
        self,
        design_space: DesignSpace,
        evaluator: CostEvaluator,
        constraints: Sequence[Constraint],
        objective: str = "latency_ms",
        max_evaluations: int = 100,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
    ):
        if max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        self.space = design_space
        self.evaluator = evaluator
        self.constraints = list(constraints)
        self.objective = objective
        self.max_evaluations = max_evaluations
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trials: List[TrialRecord] = []
        self._base_evaluations = 0
        self._best_feasible = math.inf
        # Ask/tell protocol state (populated by start()).
        self._gen: Optional[Generator] = None
        self._gen_primed = False
        self._pending: List[Proposal] = []
        self._outstanding: List[Proposal] = []
        self._replies: List[Evaluation] = []
        self._batch_request = False
        self._done = False
        self._final: Optional[DSEResult] = None
        self._started_at = 0.0

    # -- template method --------------------------------------------------------

    def run(self, initial_point: Optional[DesignPoint] = None) -> DSEResult:
        """Run the optimizer until the evaluation budget is exhausted."""
        return DriverLoop(self).run(initial_point)

    def _reset(self) -> None:
        self._trials = []
        self._base_evaluations = self.evaluator.evaluations
        self._best_feasible = math.inf

    def _finalize(self, started: float) -> DSEResult:
        """Run epilogue: best selection, summary event, result."""
        best = select_best(
            self._trials, self.constraints, objective=self.objective
        )
        self.tracer.emit(
            RunSummary(
                step=len(self._trials),
                technique=self.name,
                model=self.evaluator.workload.name,
                evaluations=self.evaluator.evaluations
                - self._base_evaluations,
                best_objective=best.costs.get(self.objective, math.inf)
                if best
                else math.inf,
                found_feasible=best is not None,
                counters=self._perf_counters(),
            )
        )
        self.tracer.flush()
        return DSEResult(
            technique=self.name,
            model=self.evaluator.workload.name,
            trials=self._trials,
            best=best,
            evaluations=self.evaluator.evaluations - self._base_evaluations,
            wall_seconds=time.perf_counter() - started,
        )

    @abc.abstractmethod
    def _propose(
        self, initial_point: Optional[DesignPoint]
    ) -> Generator[ProposalRequest, object, None]:
        """Acquisition generator; yield :class:`Proposal` requests and
        receive their :class:`Evaluation` replies at the yield."""

    # -- ask/tell protocol -------------------------------------------------------

    def start(self, initial_point: Optional[DesignPoint] = None) -> None:
        self._started_at = time.perf_counter()
        self._reset()
        self._gen = self._propose(initial_point)
        self._gen_primed = False
        self._pending = []
        self._outstanding = []
        self._replies = []
        self._batch_request = False
        self._done = False
        self._final = None

    @property
    def finished(self) -> bool:
        return self._done

    def result(self) -> DSEResult:
        if not self._done or self._final is None:
            raise RuntimeError("result() is only valid once finished")
        return self._final

    def ask(self, n: int) -> List[DesignPoint]:
        if n <= 0:
            raise ValueError(f"ask(n) requires n >= 1, got {n}")
        if self._gen is None:
            raise RuntimeError("start() must be called before ask()")
        if self._done:
            return []
        if self._outstanding:
            # Partial tell pending: serve more of the current request
            # only (never advance the generator past unanswered asks).
            return self._serve(n)
        if self.budget_left <= 0:
            # Out of budget: whatever the generator still holds is
            # abandoned unevaluated.
            self._conclude()
            return []
        while not self._pending and not self._done:
            self._advance()
        if self._done:
            return []
        return self._serve(n)

    def _serve(self, n: int) -> List[DesignPoint]:
        count = min(n, max(0, self.budget_left), len(self._pending))
        served = self._pending[:count]
        del self._pending[:count]
        self._outstanding.extend(served)
        return [dict(p.point) for p in served]

    def _advance(self) -> None:
        """Resume the proposal generator with the completed replies."""
        assert self._gen is not None
        try:
            if not self._gen_primed:
                self._gen_primed = True
                request = next(self._gen)
            else:
                reply: object
                if self._batch_request:
                    reply = self._replies
                else:
                    reply = self._replies[0] if self._replies else None
                request = self._gen.send(reply)
        except StopIteration:
            self._conclude()
            return
        self._replies = []
        if isinstance(request, Proposal):
            self._batch_request = False
            self._pending = [request]
        else:
            self._batch_request = True
            self._pending = list(request)

    def tell(self, results: Sequence[EvalResult]) -> None:
        if self._gen is None:
            raise RuntimeError("start() must be called before tell()")
        results = list(results)
        if not results:
            return
        if len(results) > len(self._outstanding):
            raise ValueError(
                f"tell() got {len(results)} results but only "
                f"{len(self._outstanding)} points are outstanding"
            )
        for res in results:
            proposal = self._outstanding[0]
            if self.space.point_key(res.point) != self.space.point_key(
                proposal.point
            ):
                raise ValueError(
                    "stale tell: result for a point that was never asked "
                    "(or out of ask order)"
                )
            self._outstanding.pop(0)
            self._record(proposal.point, res.evaluation, proposal.note)
            self._replies.append(res.evaluation)

    def _conclude(self) -> None:
        if self._done:
            return
        self._done = True
        self._pending = []
        self._outstanding = []
        if self._gen is not None:
            self._gen.close()
        self._final = self._finalize(self._started_at)

    # -- helpers -------------------------------------------------------------------

    @property
    def budget_left(self) -> int:
        """Evaluations left; re-evaluations of cached points are free
        (matching how iteration counts are reported for the paper's
        baselines)."""
        return self.max_evaluations - (
            self.evaluator.evaluations - self._base_evaluations
        )

    def _record(
        self, point: DesignPoint, evaluation: Evaluation, note: str
    ) -> None:
        """Record one told evaluation: trial ledger, events, incumbent."""
        utilizations = {
            c.name: c.utilization(evaluation.costs) for c in self.constraints
        }
        feasible = all_satisfied(evaluation.costs, self.constraints)
        # Baselines acquire one candidate per step, so traces stay
        # comparable with Explainable-DSE journals: step = trial index.
        step = len(self._trials) + 1
        self._trials.append(
            TrialRecord(
                index=len(self._trials),
                point=dict(point),
                costs=dict(evaluation.costs),
                feasible=feasible,
                mappable=evaluation.mappable,
                utilizations=utilizations,
                note=note,
            )
        )
        self.tracer.emit(
            CandidateEvaluated(
                step=step,
                candidate_index=0,
                point=dict(point),
                costs=dict(evaluation.costs),
                feasible=feasible,
                mappable=evaluation.mappable,
                note=note,
            )
        )
        objective = evaluation.costs.get(self.objective, math.inf)
        if feasible and objective < self._best_feasible:
            self._best_feasible = objective
            self.tracer.emit(
                IncumbentUpdated(
                    step=step,
                    point=dict(point),
                    objective=objective,
                    decision=f"best-so-far {self.objective}={objective:.4g}",
                    improved=True,
                )
            )

    def _perf_counters(self) -> Dict[str, object]:
        """Deterministic evaluator counters (empty for duck-typed
        evaluators without ``perf_summary``, e.g. test stubs)."""
        perf_summary = getattr(self.evaluator, "perf_summary", None)
        if perf_summary is None:
            return {}
        return deterministic_perf_counters(perf_summary())

    def _score(self, evaluation: Evaluation) -> float:
        """Penalized log-objective of an evaluation (lower is better)."""
        return penalized_objective(
            evaluation.costs, self.constraints, self.objective
        )
