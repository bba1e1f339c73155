"""The ask/tell optimizer protocol: inverted-control search engines.

Every black-box baseline in the reproduction is a :class:`SearchEngine`:
instead of owning a run loop that calls the evaluator inline, it proposes
points and is told their costs, the way Optuna-style multi-objective DSE
frameworks and LLM-DSE's external-agent loop do (see PAPERS.md).  That
lets a caller bring its own evaluator and batch evaluations.

* :class:`SearchEngine` — the protocol: ``start()``, ``ask(n)`` returning
  up to ``n`` design points, ``tell(results)`` returning their costs,
  ``finished``/``result()``.
* :class:`DriverLoop` — the one driver: asks, charges the engine's
  evaluator, tells.  A baseline's ``run()`` *is* ``DriverLoop(engine)``;
  ``tests/goldens/baselines.json`` pins one campaign per engine.

Explainable-DSE is not a :class:`SearchEngine`: its one driver is
:meth:`repro.service.machine.CampaignStateMachine.step`, which
``ExplainableDSE.run()`` and the campaign service both call.

Determinism contract: ``ask`` serves candidates in the engine's canonical
acquisition order, capped at the remaining budget, and ``tell`` must
deliver results in ask order (FIFO).  ``ask(n <= 0)`` and a ``tell`` for
a point never asked (or out of order) raise :class:`ValueError` — stale
tells from a confused driver must never corrupt a journal.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.arch.design_space import DesignPoint
from repro.core.dse.result import DSEResult

__all__ = [
    "Proposal",
    "EvalResult",
    "SearchEngine",
    "DriverLoop",
]


@dataclass(frozen=True)
class Proposal:
    """One candidate an engine proposes for evaluation."""

    point: Dict[str, Any]
    note: str = ""


@dataclass
class EvalResult:
    """One evaluation outcome a driver tells back to an engine.

    Failed evaluations are never told: the exception propagates out of
    the driver (baselines have no quarantine path).
    """

    point: Dict[str, Any]
    evaluation: Any


class SearchEngine(abc.ABC):
    """The ask/tell protocol every baseline optimizer implements.

    Lifecycle: ``start(initial_point)`` once, then repeat ``ask(n)`` /
    ``tell(results)`` until ``finished``; ``result()`` yields the
    campaign's :class:`~repro.core.dse.result.DSEResult`.  ``ask`` may
    return fewer than ``n`` points (budget cap) and returns ``[]`` only
    once the engine is finished.
    """

    @abc.abstractmethod
    def start(self, initial_point: Optional[DesignPoint] = None) -> None:
        """Reset run state and begin a search."""

    @abc.abstractmethod
    def ask(self, n: int) -> List[DesignPoint]:
        """Up to ``n`` candidate points; raises ``ValueError`` on
        ``n <= 0``."""

    @abc.abstractmethod
    def tell(self, results: Sequence[EvalResult]) -> None:
        """Deliver evaluation results, in ask (FIFO) order; raises
        ``ValueError`` for results whose points were never asked."""

    @property
    @abc.abstractmethod
    def finished(self) -> bool:
        """True once the search has terminated (budget or convergence)."""

    @abc.abstractmethod
    def result(self) -> DSEResult:
        """The search outcome; only valid once ``finished``."""


class DriverLoop:
    """The driver of every :class:`SearchEngine`.

    Asks for up to ``batch_size`` points, evaluates each through
    ``evaluator`` (default: the engine's own, so budget charging is
    automatic) and tells the results back in ask order.  An evaluation
    exception propagates.
    """

    def __init__(
        self, engine: SearchEngine, evaluator=None, *, batch_size: int = 1
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.engine = engine
        self.evaluator = (
            evaluator if evaluator is not None else engine.evaluator
        )
        self.batch_size = batch_size

    def run(self, initial_point: Optional[DesignPoint] = None) -> DSEResult:
        """Drive the engine to completion; returns its result."""
        engine = self.engine
        engine.start(initial_point)
        while not engine.finished:
            points = engine.ask(self.batch_size)
            if not points:
                if engine.finished:
                    break
                raise RuntimeError(
                    "ask/tell protocol stall: ask() returned no points "
                    "but the engine is not finished"
                )
            engine.tell(
                [
                    EvalResult(point, self.evaluator.evaluate(point))
                    for point in points
                ]
            )
        return engine.result()
