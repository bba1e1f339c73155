"""ConfuciuX-style constrained reinforcement learning [36].

The paper generalized ConfuciuX to arbitrary parameter counts, per-
parameter option-list sizes, and multiple constraints with utilization-
shaped rewards — this module implements that generalized agent: a
factored categorical policy (one softmax head of logits per design
parameter), REINFORCE updates with a moving-average baseline, and a reward
combining the log-objective with constraint-utilization penalties.

The logits change only in the policy update, so each head's softmax and
CDF are computed once per update (:func:`_cdf`), not once per episode.
An episode's actions are then one ``rng.random(len(heads))`` and one
``cdf.searchsorted(u, side="right")`` per head, which is how
``Generator.choice(n, p=p)`` draws a scalar: the ``default_rng(seed)``
stream is consumed, and every action chosen, exactly as by one
``choice`` call per head, and :func:`_cdf` keeps ``choice``'s
probability checks.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.arch.design_space import DesignPoint
from repro.optim.base import BaselineOptimizer
from repro.optim.protocol import Proposal

__all__ = ["ReinforcementLearningDSE"]


class ReinforcementLearningDSE(BaselineOptimizer):
    """Policy-gradient DSE with a factored categorical policy.

    Args:
        learning_rate: Logit step size.
        batch_size: Episodes per policy update.
        entropy_bonus: Entropy regularization weight (keeps exploration up).
        baseline_decay: Moving-average reward baseline decay.
    """

    name = "reinforcement"

    def __init__(
        self,
        *args,
        learning_rate: float = 0.25,
        batch_size: int = 4,
        entropy_bonus: float = 0.01,
        baseline_decay: float = 0.9,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.entropy_bonus = entropy_bonus
        self.baseline_decay = baseline_decay

    # -- policy ------------------------------------------------------------------

    @staticmethod
    def _sample(
        cdfs: List[np.ndarray], rng: np.random.Generator
    ) -> List[int]:
        """One action per head: draws ``len(cdfs)`` uniforms at once."""
        return [
            int(cdf.searchsorted(u, side="right"))
            for cdf, u in zip(cdfs, rng.random(len(cdfs)))
        ]

    def _reward(self, evaluation) -> float:
        """Negated log-objective with constraint-utilization shaping.

        The ConfuciuX-style reward favours meeting constraints first:
        each over-budget constraint subtracts its excess utilization; a
        feasible design earns the (bounded) objective reward.
        """
        costs = evaluation.costs
        value = costs.get(self.objective, math.inf)
        if math.isfinite(value) and value > 0:
            reward = -math.log(value)
        else:
            reward = -25.0
        for constraint in self.constraints:
            utilization = constraint.utilization(costs)
            if not math.isfinite(utilization):
                reward -= 25.0
            elif utilization > 1.0:
                reward -= 2.0 * (utilization - 1.0)
        return reward

    # -- main loop -----------------------------------------------------------------

    def _propose(self, initial_point: Optional[DesignPoint]):
        # Episodes yield serially (not as one batch): the policy sampling
        # interleaves with per-episode budget checks, and each sample
        # must see the live budget exactly where the old loop did.
        rng = np.random.default_rng(self.seed)
        logits = [
            np.zeros(param.cardinality) for param in self.space.parameters
        ]
        baseline = 0.0
        have_baseline = False

        while self.budget_left > 0:
            cdfs = [_cdf(_softmax(head)) for head in logits]
            batch: List[tuple] = []
            for _ in range(self.batch_size):
                if self.budget_left <= 0:
                    break
                actions = self._sample(cdfs, rng)
                point = self.space.from_indices(actions)
                evaluation = yield Proposal(point, "rl-episode")
                batch.append((actions, self._reward(evaluation)))
            if not batch:
                break
            rewards = [r for _, r in batch]
            mean_reward = sum(rewards) / len(rewards)
            if not have_baseline:
                baseline = mean_reward
                have_baseline = True
            else:
                baseline = (
                    self.baseline_decay * baseline
                    + (1 - self.baseline_decay) * mean_reward
                )
            for actions, reward in batch:
                advantage = reward - baseline
                for head, action in zip(logits, actions):
                    probs = _softmax(head)
                    gradient = -probs
                    gradient[action] += 1.0
                    entropy_grad = -probs * (np.log(probs + 1e-12) + 1.0)
                    head += self.learning_rate * (
                        advantage * gradient + self.entropy_bonus * entropy_grad
                    )


def _softmax(x: np.ndarray) -> np.ndarray:
    # The array methods run the same reductions as ``np.max``/``np.sum``
    # without their dispatch wrappers (this runs once per head per
    # episode in the policy update).
    z = x - x.max()
    e = np.exp(z)
    return e / e.sum()


#: ``Generator.choice``'s tolerance on a float64 probability sum.
_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(len(probs), p=probs)`` samples from,
    after its checks: no NaN, no negative, a sum within sqrt(eps) of 1."""
    total = probs.sum()
    if np.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError("probabilities do not sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf
