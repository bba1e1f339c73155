"""Bayesian optimization (black-box baseline; the paper used [52]).

GP surrogate over normalized index vectors, expected-improvement
acquisition maximized over a random candidate pool plus neighbours of the
incumbent.  Constraints enter only through the penalized objective — this
is the *unconstrained* BO variant of the paper's comparison; the
constraint-aware variant is :class:`repro.optim.hypermapper.HyperMapperDSE`.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from repro.arch.design_space import DesignPoint
from repro.optim.base import BaselineOptimizer
from repro.optim.gaussian_process import GaussianProcess, expected_improvement
from repro.optim.protocol import Proposal

__all__ = ["BayesianOptimization"]


class BayesianOptimization(BaselineOptimizer):
    """GP + EI Bayesian optimization.

    Args:
        initial_samples: Random evaluations before the surrogate kicks in.
        candidate_pool: Random candidates scored by EI per acquisition.
        max_train_points: Most recent observations kept for GP fitting
            (cubic-cost cap).
    """

    name = "bayesian"

    def __init__(
        self,
        *args,
        initial_samples: int = 10,
        candidate_pool: int = 256,
        max_train_points: int = 200,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        # candidate_pool may be 0: the incumbent's neighbours still
        # give the acquisition candidates.
        if max_train_points < 1:
            raise ValueError("max_train_points must be >= 1")
        self.initial_samples = initial_samples
        self.candidate_pool = candidate_pool
        self.max_train_points = max_train_points

    # -- feature space -----------------------------------------------------------

    def _features(self, point: DesignPoint) -> List[float]:
        """Normalized index vector in [0, 1]^d."""
        out = []
        for param in self.space.parameters:
            idx = param.index_of(point[param.name])
            out.append(idx / max(param.cardinality - 1, 1))
        return out

    def _candidates(
        self, rng: random.Random, incumbent: Optional[DesignPoint]
    ) -> List[DesignPoint]:
        pool = [
            self.space.random_point(rng) for _ in range(self.candidate_pool)
        ]
        if incumbent is not None:
            pool.extend(self.space.neighbors(incumbent))
        return pool

    # -- main loop -----------------------------------------------------------------

    def _propose(self, initial_point: Optional[DesignPoint]):
        rng = random.Random(self.seed)
        observed_x: List[List[float]] = []
        observed_y: List[float] = []
        points: List[DesignPoint] = []

        def observe(point: DesignPoint, evaluation) -> None:
            # Runs after the yield resumes, so a budget unwind skips the
            # appends exactly like the old exception did.
            observed_x.append(self._features(point))
            observed_y.append(self._score(evaluation))
            points.append(dict(point))

        if initial_point is not None:
            observe(initial_point, (yield Proposal(initial_point, "initial")))
        for _ in range(self.initial_samples):
            if self.budget_left <= 0:
                return
            point = self.space.random_point(rng)
            observe(point, (yield Proposal(point, "bo-init")))

        while self.budget_left > 0:
            keep = min(len(observed_x), self.max_train_points)
            gp = GaussianProcess().fit(
                np.array(observed_x[-keep:]), np.array(observed_y[-keep:])
            )
            best_idx = int(np.argmin(observed_y))
            best_score = observed_y[best_idx]
            incumbent = points[best_idx]
            candidates = self._candidates(rng, incumbent)
            features = np.array([self._features(c) for c in candidates])
            mean, var = gp.predict(features)
            ei = expected_improvement(mean, var, best_score)
            chosen = candidates[int(np.argmax(ei))]
            observe(chosen, (yield Proposal(chosen, "bo-ei")))
