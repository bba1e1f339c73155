"""Simulated annealing (black-box baseline; the paper used SciPy's [75]).

Classic Metropolis acceptance over the penalized log-objective with a
geometric cooling schedule; moves perturb a random subset of parameters by
one or two index steps.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.arch.design_space import DesignPoint
from repro.optim.base import BaselineOptimizer
from repro.optim.protocol import Proposal

__all__ = ["SimulatedAnnealing"]


class SimulatedAnnealing(BaselineOptimizer):
    """Metropolis simulated annealing with geometric cooling.

    Args:
        initial_temperature: Starting temperature in penalized-log-objective
            units (the penalty for one fully-violated constraint is 10).
        cooling: Geometric factor applied per evaluation.
        moves_per_step: How many parameters a neighbour move perturbs.
    """

    name = "annealing"

    def __init__(
        self,
        *args,
        initial_temperature: float = 5.0,
        cooling: float = 0.97,
        moves_per_step: int = 2,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if not 0 < cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if moves_per_step < 1:
            raise ValueError("moves_per_step must be >= 1")
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.moves_per_step = moves_per_step

    def _neighbor(self, point: DesignPoint, rng: random.Random) -> DesignPoint:
        """Perturb 1..moves_per_step parameters by +-1 or +-2 index steps."""
        out = dict(point)
        params = rng.sample(
            list(self.space.parameters),
            k=min(self.moves_per_step, len(self.space)),
        )
        for param in params:
            idx = param.index_of(out[param.name])
            step = rng.choice((-2, -1, 1, 2))
            new_idx = min(max(idx + step, 0), param.cardinality - 1)
            out[param.name] = param.values[new_idx]
        return out

    def _propose(self, initial_point: Optional[DesignPoint]):
        rng = random.Random(self.seed)
        current = dict(initial_point or self.space.random_point(rng))
        evaluation = yield Proposal(current, "initial")
        current_score = self._score(evaluation)
        temperature = self.initial_temperature
        while self.budget_left > 0:
            candidate = self._neighbor(current, rng)
            evaluation = yield Proposal(candidate, "sa-move")
            score = self._score(evaluation)
            delta = score - current_score
            if delta <= 0 or rng.random() < math.exp(
                -delta / max(temperature, 1e-9)
            ):
                current, current_score = candidate, score
            temperature *= self.cooling
