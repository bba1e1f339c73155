"""HyperMapper-2.0-style constrained Bayesian optimization [51].

Like HyperMapper 2.0, the surrogate side keeps one regression model for the
objective and one probabilistic feasibility model per constraint; the
acquisition weighs expected improvement by the joint probability of
feasibility, so the search preferentially samples regions predicted to
satisfy the constraints — without ever *reasoning* about which parameter
causes a violation (that non-explainability is the paper's foil).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

import numpy as np

from repro.arch.design_space import DesignPoint
from repro.optim.base import BaselineOptimizer
from repro.optim.gaussian_process import (
    GaussianProcess,
    expected_improvement,
    normal_cdf,
)
from repro.optim.protocol import Proposal

__all__ = ["HyperMapperDSE"]


class HyperMapperDSE(BaselineOptimizer):
    """Constrained BO: EI x product of per-constraint feasibility odds.

    Per constraint a GP regresses the log-utilization (value/bound in log
    domain); P(feasible) is the predictive probability of log-utilization
    below 0.  Unmappable designs clamp utilization to a large value.

    Args:
        initial_samples: Random evaluations before surrogates kick in.
        candidate_pool: Random candidates scored per acquisition.
        max_train_points: Most recent observations kept per surrogate.
    """

    name = "hypermapper"

    def __init__(
        self,
        *args,
        initial_samples: int = 10,
        candidate_pool: int = 256,
        max_train_points: int = 200,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if candidate_pool < 1:
            raise ValueError("candidate_pool must be >= 1")
        if max_train_points < 1:
            raise ValueError("max_train_points must be >= 1")
        self.initial_samples = initial_samples
        self.candidate_pool = candidate_pool
        self.max_train_points = max_train_points

    def _features(self, point: DesignPoint) -> List[float]:
        out = []
        for param in self.space.parameters:
            idx = param.index_of(point[param.name])
            out.append(idx / max(param.cardinality - 1, 1))
        return out

    @staticmethod
    def _log_clamp(value: float, cap: float = 1e6) -> float:
        if not math.isfinite(value) or value <= 0:
            return math.log(cap)
        return math.log(min(value, cap))

    def _propose(self, initial_point: Optional[DesignPoint]):
        rng = random.Random(self.seed)
        xs: List[List[float]] = []
        objective_log: List[float] = []
        utilization_log: List[List[float]] = []  # per trial, per constraint
        feasible_objectives: List[float] = []
        points: List[DesignPoint] = []

        def observe(point: DesignPoint, evaluation) -> None:
            # Runs after the yield resumes: the trial is already in the
            # ledger (both drivers record before resuming), so the
            # feasibility read below is identical either way.
            xs.append(self._features(point))
            latency = evaluation.costs.get(self.objective, math.inf)
            objective_log.append(self._log_clamp(latency, cap=1e9))
            utilization_log.append(
                [
                    self._log_clamp(c.utilization(evaluation.costs))
                    for c in self.constraints
                ]
            )
            points.append(dict(point))
            if self._trials[-1].feasible:
                feasible_objectives.append(objective_log[-1])

        if initial_point is not None:
            observe(initial_point, (yield Proposal(initial_point, "initial")))
        for _ in range(self.initial_samples):
            if self.budget_left <= 0:
                return
            point = self.space.random_point(rng)
            observe(point, (yield Proposal(point, "hm-init")))

        while self.budget_left > 0:
            keep = min(len(xs), self.max_train_points)
            x_train = np.array(xs[-keep:])
            objective_gp = GaussianProcess().fit(
                x_train, np.array(objective_log[-keep:])
            )
            constraint_gps = []
            for ci in range(len(self.constraints)):
                y = np.array([row[ci] for row in utilization_log[-keep:]])
                constraint_gps.append(GaussianProcess().fit(x_train, y))

            candidates = [
                self.space.random_point(rng)
                for _ in range(self.candidate_pool)
            ]
            features = np.array([self._features(c) for c in candidates])
            mean, var = objective_gp.predict(features)
            if feasible_objectives:
                best = min(feasible_objectives)
                acquisition = expected_improvement(mean, var, best)
            else:
                # No feasible incumbent yet: chase feasibility probability
                # weighted by (mildly) better predicted objective.
                acquisition = np.exp(-0.1 * mean)
            for gp in constraint_gps:
                c_mean, c_var = gp.predict(features)
                # P(log-utilization < 0) == P(feasible).
                acquisition = acquisition * normal_cdf(
                    -c_mean / np.sqrt(c_var)
                )
            chosen = candidates[int(np.argmax(acquisition))]
            observe(chosen, (yield Proposal(chosen, "hm-ei")))
