"""The campaign state machine: ``ExplainableDSE.run()`` as explicit steps.

:class:`CampaignStateMachine` is the step loop of
:meth:`repro.core.dse.explainable.ExplainableDSE.run` lifted into an
object whose lifecycle is externally drivable::

    PENDING --start()--> RUNNING --step()*--> FINISHED
                           |  ^                FAILED (breaker trip)
                  pause()  v  | resume()
                         CHECKPOINTED
                           |
                  cancel() v  (also from RUNNING / PENDING)
                         CANCELLED

Each :meth:`step` performs exactly one acquisition attempt — the unit at
which the campaign checkpoints, pauses, resumes, and cancels — and the
machine's persistent form *is* the existing
:class:`~repro.telemetry.checkpoint.CampaignCheckpoint` schema: pausing
writes one, resuming restores one, and a machine rebuilt from a
checkpoint continues bit-identically.  ``ExplainableDSE.run()`` is now a
thin driver (``start(); while RUNNING: step(); result()``), so a
campaign driven step-by-step — interleaved with other campaigns by the
:mod:`repro.service` scheduler, killed and resumed across processes —
produces byte-identical journals and result fingerprints to a straight
``run()`` *by construction*: both execute this class.

Journal-identity invariant: the machine only flushes its tracer at
attempt boundaries (checkpoints, pause, cancel, termination).  Events
within one attempt share a ``step`` number and are emitted in canonical
order, so any partition of the event stream into attempt-aligned flush
batches serializes to the same bytes as a single end-of-run flush.
"""

from __future__ import annotations

import enum
import math
import time
from typing import List, Optional, Set, Tuple

from repro.core.dse.constraints import all_satisfied
from repro.core.dse.result import DSEResult, TrialRecord, select_best
from repro.resilience.supervisor import FailureRateBreaker
from repro.telemetry.checkpoint import trials_from_dicts
from repro.telemetry.events import (
    BottleneckIdentified,
    BudgetExhausted,
    CandidateGenerated,
    IncumbentUpdated,
    MitigationPredicted,
    RunSummary,
    StepStarted,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "CampaignState",
    "CampaignStateError",
    "CampaignStateMachine",
    "result_fingerprint",
]


class CampaignState(enum.Enum):
    """Lifecycle states of one campaign."""

    PENDING = "pending"
    RUNNING = "running"
    CHECKPOINTED = "checkpointed"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (
            CampaignState.FINISHED,
            CampaignState.CANCELLED,
            CampaignState.FAILED,
        )


class CampaignStateError(RuntimeError):
    """An operation was applied to a campaign in the wrong state."""


def result_fingerprint(result: DSEResult) -> str:
    """Canonical, exact rendering of everything a campaign decides.

    The single definition shared by the differential matrix, the
    campaign service's ``result`` responses, and the service smoke test,
    so "identical fingerprints" always means the same comparison.
    ``repr`` keeps float bit-patterns exact (JSON would need tagged
    inf/nan for unmappable trials).
    """
    payload = {
        "points": [t.point for t in result.trials],
        "costs": [t.costs for t in result.trials],
        "explanations": list(result.explanations),
        "best_point": result.best.point if result.best else None,
        "best_costs": result.best.costs if result.best else None,
        "evaluations": result.evaluations,
    }
    return repr(payload)


def _jsonable(value: object) -> object:
    """Candidate values as JSON scalars (bundles stringify)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class CampaignStateMachine:
    """One Explainable-DSE campaign, drivable one acquisition attempt at
    a time.

    Args:
        dse: The configured :class:`~repro.core.dse.explainable
            .ExplainableDSE` (design space, evaluator, constraints,
            budgets); the machine calls its analysis/acquisition/update
            methods so the per-attempt decisions live in one place.
        initial_point: Starting design point (default: the space
            minimum); ignored on resume.
        tracer: Telemetry tracer (default: the DSE's own).
        checkpoint_path: When set, a crash-safe snapshot is written every
            ``checkpoint_every`` completed attempts, on pause/cancel, and
            at termination.
        checkpoint_every: Attempt interval between periodic snapshots.
        resume_from: A :class:`~repro.telemetry.checkpoint
            .CampaignCheckpoint` or a path to one; :meth:`start` restores
            it instead of evaluating ``initial_point``.
    """

    def __init__(
        self,
        dse,
        initial_point=None,
        *,
        tracer: Optional[Tracer] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[object] = None,
        archive=None,
    ):
        self.dse = dse
        self.initial_point = initial_point
        self.tracer = tracer if tracer is not None else dse.tracer
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.resume_from = resume_from
        #: Optional :class:`repro.optim.archive.ParetoArchive` fed every
        #: feasible trial at attempt boundaries.  On resume the caller
        #: passes a *fresh* (truncated) archive and the machine re-feeds
        #: the restored trial ledger, which reconstructs the frontier —
        #: and its journal — deterministically.
        self.archive = archive
        self._archive_fed = 0

        self.state = CampaignState.PENDING
        self.error: Optional[BaseException] = None

        # Loop state (populated by start()).
        self.trials: List[TrialRecord] = []
        self.explanations: List[str] = []
        self.exhausted: Set[str] = set()
        self.attempt = 0
        self.attempts_without_improvement = 0
        self.breaker = FailureRateBreaker()
        self.finished = False  # checkpoint-schema flag, not machine state
        self.current = None
        self.current_eval = None
        self.tried_points: Set[Tuple] = set()
        self.base_evaluations = 0
        self._started: Optional[float] = None
        self._result: Optional[DSEResult] = None
        self._last_checkpoint_attempt: Optional[int] = None

    # -- derived accounting --------------------------------------------------

    @property
    def consumed(self) -> int:
        """Evaluations this campaign has consumed so far."""
        if self.state is CampaignState.PENDING:
            return 0
        if self._result is not None:
            return self._result.evaluations
        return self.dse.evaluator.evaluations - self.base_evaluations

    def slo_snapshot(self) -> dict:
        """Per-campaign SLO state: the resilience layer's view of this
        campaign (circuit breaker, quarantined trials, retry posture,
        attempt progress)."""
        quarantined = sum(
            1 for t in self.trials if t.note.startswith("quarantined")
        )
        return {
            "breaker": self.breaker.as_dict(),
            "quarantined_trials": quarantined,
            "trials": len(self.trials),
            "attempt": self.attempt,
            "attempts_without_improvement": (
                self.attempts_without_improvement
            ),
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> CampaignState:
        """PENDING -> RUNNING: evaluate the initial point, or restore the
        ``resume_from`` checkpoint (a finished checkpoint goes straight
        to FINISHED with the stored outcome)."""
        if self.state is not CampaignState.PENDING:
            raise CampaignStateError(
                f"cannot start a {self.state.value} campaign"
            )
        dse = self.dse
        self._started = time.perf_counter()
        try:
            if self.resume_from is not None:
                checkpoint = dse._load_resume(self.resume_from)
                self.trials = trials_from_dicts(checkpoint.trials)
                self.explanations = list(checkpoint.explanations)
                if checkpoint.finished:
                    best = select_best(
                        self.trials, dse.constraints, objective=dse.objective
                    )
                    self._result = DSEResult(
                        technique="explainable",
                        model=dse.evaluator.workload.name,
                        trials=self.trials,
                        best=best,
                        evaluations=checkpoint.consumed,
                        wall_seconds=time.perf_counter() - self._started,
                        explanations=self.explanations,
                    )
                    self._feed_archive()
                    self.state = CampaignState.FINISHED
                    return self.state
                self.exhausted = set(checkpoint.exhausted)
                self.tried_points = {
                    tuple(key) for key in checkpoint.tried_keys
                }
                self.attempt = checkpoint.attempt
                self.attempts_without_improvement = (
                    checkpoint.attempts_without_improvement
                )
                self.current = dict(checkpoint.current_point)
                dse.space.validate(self.current)
                # Replay the incumbent through the cost model
                # (bit-identical, and usually a cache hit) without
                # recording a trial or consuming budget.
                self.current_eval = dse.evaluator.evaluate(self.current)
                self.base_evaluations = (
                    dse.evaluator.evaluations - checkpoint.consumed
                )
                self._last_checkpoint_attempt = self.attempt
            else:
                self.base_evaluations = dse.evaluator.evaluations
                self.current = dict(
                    self.initial_point or dse.space.minimum_point()
                )
                dse.space.validate(self.current)
                self.current_eval = dse._evaluate(
                    self.current,
                    self.trials,
                    note="initial point",
                    tracer=self.tracer,
                    step=0,
                    candidate_index=0,
                )
                self.tried_points = {dse.space.point_key(self.current)}
        except BaseException as exc:
            self.state = CampaignState.FAILED
            self.error = exc
            raise
        self._feed_archive()
        self.state = CampaignState.RUNNING
        return self.state

    def step(self) -> CampaignState:
        """Run exactly one acquisition attempt (paper steps 1-6).

        Returns the state after the attempt: still ``RUNNING``,
        ``FINISHED`` (budget/patience/mitigation exhaustion — the result
        is ready), or raises after transitioning to ``FAILED`` when the
        failure-rate circuit breaker trips (a resumable checkpoint is
        written first when configured).

        The attempt is split into :meth:`begin_attempt` (budget gate,
        analysis, acquisition — paper steps 1-5), the candidate
        evaluation loop, and :meth:`finish_attempt` (incumbent update,
        patience, breaker, checkpoint — step 6).  This method is the
        one driver of an Explainable-DSE campaign; the split leaves room
        to evaluate an attempt's candidates as one batch between the two
        halves.
        """
        candidates = self.begin_attempt()
        if candidates is None:
            return self.state
        dse = self.dse
        attempt = self.attempt
        evaluated = []
        for index, candidate in enumerate(candidates):
            if dse._budget_left(self.base_evaluations) <= 0:
                break
            self.tried_points.add(dse.space.point_key(candidate.point))
            evaluation = dse._evaluate(
                candidate.point,
                self.trials,
                note=candidate.reason,
                tracer=self.tracer,
                step=attempt,
                candidate_index=index,
                breaker=self.breaker,
            )
            if evaluation is not None:
                evaluated.append((candidate, evaluation))
            if self.breaker.tripped:
                # Abort at the attempt boundary: finish the update with
                # whatever evaluated, checkpoint, then raise.
                break
        return self.finish_attempt(evaluated)

    def begin_attempt(self):
        """Steps 1-5 of one attempt: budget gate, bottleneck analysis,
        and candidate acquisition.

        Returns the acquired candidate list, or ``None`` when the
        attempt terminated the campaign instead (budget exhausted, or no
        mitigating candidates remain) — the state is then FINISHED and
        the result is ready.  A non-``None`` return leaves an attempt
        *open*: the caller must evaluate (a budget-capped prefix of) the
        candidates and close the attempt with :meth:`finish_attempt`.
        """
        if self.state is not CampaignState.RUNNING:
            raise CampaignStateError(
                f"cannot step a {self.state.value} campaign"
            )
        dse = self.dse
        tracer = self.tracer
        if dse._budget_left(self.base_evaluations) <= 0:
            tracer.emit(
                BudgetExhausted(
                    step=self.attempt,
                    consumed=dse.evaluator.evaluations
                    - self.base_evaluations,
                    budget=dse.max_evaluations,
                )
            )
            self._terminate()
            return None
        self.attempt += 1
        attempt = self.attempt
        current, current_eval = self.current, self.current_eval
        tracer.emit(
            StepStarted(
                step=attempt,
                incumbent=dict(current),
                objective=current_eval.costs.get(dse.objective, math.inf),
                feasible=all_satisfied(current_eval.costs, dse.constraints),
            )
        )
        predictions, why, analysis = dse._analyze(current, current_eval)
        tracer.emit(BottleneckIdentified(step=attempt, **analysis))
        for prediction in predictions:
            tracer.emit(
                MitigationPredicted(
                    step=attempt,
                    parameter=prediction.parameter,
                    value=float(prediction.value),
                    subfunctions=list(prediction.contributing_subfunctions),
                )
            )
        candidates = dse._acquire(
            current, predictions, self.exhausted, self.tried_points
        )
        if not current_eval.mappable:
            candidates = (
                dse._compatibility_bundle(current, self.tried_points)
                + candidates
            )[: dse.max_candidates]
        if not candidates:
            # §4.3: when bottleneck information is exhausted the DSE
            # resorts to its black-box counterpart — neighbour moves.
            candidates = dse._neighbor_fallback(current, self.tried_points)
            if candidates:
                why += "; mitigation exhausted, sampling neighbours"
        for index, candidate in enumerate(candidates):
            tracer.emit(
                CandidateGenerated(
                    step=attempt,
                    candidate_index=index,
                    parameter=candidate.parameter,
                    value=_jsonable(candidate.value),
                    reason=candidate.reason,
                )
            )
        self.explanations.append(
            f"[attempt {attempt}] {why}; acquiring "
            f"{[f'{c.parameter}={c.value}' for c in candidates]}"
        )
        if not candidates:
            self.explanations.append(
                f"[attempt {attempt}] no mitigating candidates remain; "
                "terminating"
            )
            self.finished = True
            self._terminate()
            return None
        return candidates

    def finish_attempt(self, evaluated) -> CampaignState:
        """Step 6 of one attempt: incumbent update, patience, breaker.

        ``evaluated`` is the ``(candidate, evaluation)`` list for the
        candidates of the attempt opened by :meth:`begin_attempt` that
        were successfully evaluated (quarantined candidates are already
        recorded in the trial ledger and excluded here).
        """
        if self.state is not CampaignState.RUNNING:
            raise CampaignStateError(
                f"cannot step a {self.state.value} campaign"
            )
        dse = self.dse
        tracer = self.tracer
        attempt = self.attempt
        current, current_eval = self.current, self.current_eval
        new_point, new_eval, decision = dse._update(
            current, current_eval, evaluated, self.exhausted
        )
        improved = dse.space.point_key(new_point) != dse.space.point_key(
            current
        )
        tracer.emit(
            IncumbentUpdated(
                step=attempt,
                point=dict(new_point),
                objective=new_eval.costs.get(dse.objective, math.inf),
                decision=decision,
                improved=improved,
            )
        )
        self.explanations.append(f"[attempt {attempt}] {decision}")
        if not improved:
            self.attempts_without_improvement += 1
            if self.attempts_without_improvement >= dse.patience:
                self.explanations.append(
                    f"[attempt {attempt}] no improvement for "
                    f"{dse.patience} attempts; terminating"
                )
                self.finished = True
        else:
            self.attempts_without_improvement = 0
            self.exhausted.clear()
            self.current, self.current_eval = dict(new_point), new_eval
        self._feed_archive()
        if self.breaker.tripped and not self.finished:
            # Systemic fault (REPRO_MAX_FAILURE_RATE exceeded): persist a
            # resumable snapshot, then abort instead of grinding on.
            self.explanations.append(
                f"[attempt {attempt}] circuit breaker tripped: "
                f"{self.breaker.failures} of {self.breaker.total} candidate "
                f"evaluations failed; aborting after checkpoint"
            )
            if self.checkpoint_path:
                self._checkpoint(finished=False)
            tracer.flush()
            self.state = CampaignState.FAILED
            self.error = self.breaker.systemic_fault(
                attempt=attempt, checkpoint=self.checkpoint_path
            )
            raise self.error
        if self.finished:
            return self._terminate()
        if self.checkpoint_path and attempt % self.checkpoint_every == 0:
            self._checkpoint(finished=False)
        return self.state

    def pause(self) -> CampaignState:
        """RUNNING -> CHECKPOINTED at the current attempt boundary.

        Persists a resumable snapshot (when a checkpoint path is
        configured and the boundary is not already covered by the
        periodic snapshot) and flushes the journal, so a paused campaign
        survives a process kill exactly like a checkpointed one.
        """
        if self.state is not CampaignState.RUNNING:
            raise CampaignStateError(
                f"cannot pause a {self.state.value} campaign"
            )
        if (
            self.checkpoint_path
            and self._last_checkpoint_attempt != self.attempt
        ):
            self._checkpoint(finished=False)
        else:
            self.tracer.flush(checkpoint=True)
        self.state = CampaignState.CHECKPOINTED
        return self.state

    def resume(self) -> CampaignState:
        """CHECKPOINTED -> RUNNING (in-process; cross-process resume goes
        through ``resume_from`` on a fresh machine)."""
        if self.state is not CampaignState.CHECKPOINTED:
            raise CampaignStateError(
                f"cannot resume a {self.state.value} campaign"
            )
        self.state = CampaignState.RUNNING
        return self.state

    def cancel(self) -> CampaignState:
        """Cancel at the current attempt boundary.

        A cancelled campaign's journal is a strict prefix of the solo
        run's journal (no terminal events are fabricated) and its
        checkpoint remains resumable, so cancellation is reversible by
        resubmission.
        """
        if self.state.terminal:
            raise CampaignStateError(
                f"cannot cancel a {self.state.value} campaign"
            )
        if self.state in (CampaignState.RUNNING, CampaignState.CHECKPOINTED):
            if (
                self.checkpoint_path
                and self._last_checkpoint_attempt != self.attempt
            ):
                self._checkpoint(finished=False)
            else:
                self.tracer.flush(checkpoint=True)
        self.state = CampaignState.CANCELLED
        return self.state

    def result(self) -> DSEResult:
        """The campaign outcome; only a FINISHED campaign has one."""
        if self.state is not CampaignState.FINISHED or self._result is None:
            raise CampaignStateError(
                f"no result: campaign is {self.state.value}"
            )
        return self._result

    # -- internals -----------------------------------------------------------

    def _feed_archive(self) -> None:
        """Feed trials recorded since the last boundary to the Pareto
        archive (no-op without one).  Inserts are idempotent, so crash
        replay through this path is safe."""
        if self.archive is None:
            return
        for trial in self.trials[self._archive_fed:]:
            self.archive.insert_trial(trial)
        self._archive_fed = len(self.trials)
        self.archive.flush()

    def _terminate(self) -> CampaignState:
        """The post-loop epilogue of ``run()``: summary event, final
        checkpoint, flush, result construction."""
        self._feed_archive()
        dse = self.dse
        consumed = dse.evaluator.evaluations - self.base_evaluations
        best = select_best(
            self.trials, dse.constraints, objective=dse.objective
        )
        self.tracer.emit(
            RunSummary(
                step=self.attempt,
                technique="explainable",
                model=dse.evaluator.workload.name,
                evaluations=consumed,
                best_objective=best.objective if best else math.inf,
                found_feasible=best is not None,
                counters=dse._perf_counters(),
            )
        )
        if self.checkpoint_path:
            self._checkpoint(finished=self.finished)
        self.tracer.flush()
        self._result = DSEResult(
            technique="explainable",
            model=dse.evaluator.workload.name,
            trials=self.trials,
            best=best,
            evaluations=consumed,
            wall_seconds=time.perf_counter() - self._started,
            explanations=self.explanations,
        )
        self.state = CampaignState.FINISHED
        return self.state

    def _checkpoint(self, finished: bool) -> None:
        self.dse._write_checkpoint(
            self.checkpoint_path,
            self.tracer,
            trials=self.trials,
            explanations=self.explanations,
            current=self.current,
            exhausted=self.exhausted,
            tried_points=self.tried_points,
            attempt=self.attempt,
            attempts_without_improvement=self.attempts_without_improvement,
            consumed=self.dse.evaluator.evaluations - self.base_evaluations,
            finished=finished,
        )
        self._last_checkpoint_attempt = self.attempt
