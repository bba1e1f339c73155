"""Behavioural tests for every baseline optimizer."""

import itertools
from typing import List, Optional

import numpy as np
import pytest

from repro.arch.design_space import DesignPoint, DesignSpace
from repro.arch.parameters import Parameter
from repro.core.dse.constraints import Constraint
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.optim import (
    BayesianOptimization,
    GeneticAlgorithm,
    GridSearch,
    HyperMapperDSE,
    RandomSearch,
    ReinforcementLearningDSE,
    SimulatedAnnealing,
)
from repro.optim.protocol import Proposal
from repro.optim.reinforcement import _cdf, _softmax
from repro.service.machine import result_fingerprint

ALL_OPTIMIZERS = [
    GridSearch,
    RandomSearch,
    SimulatedAnnealing,
    GeneticAlgorithm,
    BayesianOptimization,
    HyperMapperDSE,
    ReinforcementLearningDSE,
]


@pytest.fixture
def make_optimizer(edge_space, tiny_workload):
    def factory(cls, budget=15, seed=3, **kwargs):
        evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=50))
        constraints = [
            Constraint("area", "area_mm2", 75.0),
            Constraint("power", "power_w", 4.0),
        ]
        return cls(
            edge_space,
            evaluator,
            constraints,
            max_evaluations=budget,
            seed=seed,
            **kwargs,
        )

    return factory


@pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
def test_runs_within_budget(make_optimizer, cls):
    result = make_optimizer(cls).run()
    assert 1 <= result.evaluations <= 15
    assert result.technique == cls.name


@pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
def test_points_are_valid(make_optimizer, cls, edge_space):
    result = make_optimizer(cls).run()
    for trial in result.trials:
        edge_space.validate(trial.point)


@pytest.mark.parametrize(
    "cls", [RandomSearch, SimulatedAnnealing, GeneticAlgorithm]
)
def test_deterministic_per_seed(make_optimizer, cls):
    a = make_optimizer(cls, seed=11).run()
    b = make_optimizer(cls, seed=11).run()
    assert [t.point for t in a.trials] == [t.point for t in b.trials]


@pytest.mark.parametrize(
    "cls,kwargs",
    [
        (SimulatedAnnealing, {"moves_per_step": 0}),
        (ReinforcementLearningDSE, {"batch_size": 0}),
        (ReinforcementLearningDSE, {"batch_size": -2}),
        (HyperMapperDSE, {"candidate_pool": 0}),
        (HyperMapperDSE, {"max_train_points": 0}),
        (BayesianOptimization, {"max_train_points": 0}),
    ],
    ids=lambda v: v.name if isinstance(v, type) else "-".join(
        f"{k}={w}" for k, w in v.items()
    ),
)
def test_rejects_degenerate_parameters(edge_space, cls, kwargs):
    """Each of these used to hang, end with no trials, die inside NumPy
    or silently drop the training-window cap."""
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        cls(edge_space, None, [], **kwargs)


def test_bayesian_empty_candidate_pool_stays_legal(make_optimizer):
    """BO also acquires from the incumbent's neighbours, so a pool of 0
    random candidates still proposes."""
    result = make_optimizer(
        BayesianOptimization, budget=6, initial_samples=3, candidate_pool=0
    ).run()
    assert "bo-ei" in [t.note for t in result.trials]


def _grid_proposals(
    space: DesignSpace, points_per_axis: int, budget: int
) -> List[DesignPoint]:
    """Every proposal of a grid search over ``space`` (the grid search
    reads neither evaluator nor constraints to propose)."""
    engine = GridSearch(
        space, None, [], max_evaluations=budget,
        points_per_axis=points_per_axis,
    )
    return [proposal.point for proposal in engine._propose(None)]


#: Axes of cardinality 1, 2 and >= 3, a categorical one among them.
_MIXED_SPACE = DesignSpace(
    [
        Parameter("one", (7,)),
        Parameter("two", (10, 20)),
        Parameter("five", (1, 2, 3, 4, 5)),
        Parameter("kind", ("x", "y", "z"), categorical=True),
        Parameter("seven", tuple(range(7))),
        Parameter("last", (0,)),
    ]
)


class TestGridSearch:
    def test_strided_coverage_varies_leading_params(self, make_optimizer):
        result = make_optimizer(GridSearch, budget=12).run()
        pes_values = {t.point["pes"] for t in result.trials}
        assert len(pes_values) > 1

    def test_rejects_bad_points_per_axis(self, edge_space, tiny_workload):
        evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=40))
        with pytest.raises(ValueError):
            GridSearch(edge_space, evaluator, [], points_per_axis=0)

    @pytest.mark.parametrize("points_per_axis", [1, 2, 3, 4])
    @pytest.mark.parametrize("budget", ["one", "third", "size-1", "size", "size+3"])
    def test_proposals_are_the_strided_grid(self, points_per_axis, budget):
        grid = list(_MIXED_SPACE.grid(points_per_axis))
        size = len(grid)
        budget = max(1, {
            "one": 1,
            "third": size // 3,
            "size-1": size - 1,
            "size": size,
            "size+3": size + 3,
        }[budget])
        stride = max(1, size // budget)
        expected = list(itertools.islice(grid, 0, None, stride))
        proposals = _grid_proposals(_MIXED_SPACE, points_per_axis, budget)
        assert [list(p.items()) for p in proposals] == [
            list(p.items()) for p in expected
        ]

    def test_huge_grid_proposes_without_walking_it(self, monkeypatch):
        """About 2^42.6 lattice points: the k-th proposal is computed,
        not reached by enumerating the grid (which would never end)."""

        def no_walk(self, points_per_axis):
            raise AssertionError("the grid search walked DesignSpace.grid")

        monkeypatch.setattr(DesignSpace, "grid", no_walk)
        space = DesignSpace(
            [Parameter(f"p{i}", (0, 1)) for i in range(40)]
            + [Parameter("wide", tuple(range(10))), Parameter("tail", (5, 6))]
        )
        budget = 1000
        total = 2 ** 40 * 3 * 2  # "wide" keeps 3 of its 10 values
        stride = total // budget
        engine = GridSearch(space, None, [], max_evaluations=budget)
        points = [
            list(proposal.point.values())
            for proposal in itertools.islice(engine._propose(None), 5)
        ]
        expected = []
        for k in range(5):
            index, tail = divmod(k * stride, 2)
            index, wide = divmod(index, 3)
            bits = [int(b) for b in format(index, "040b")]
            expected.append([*bits, (0, 4, 9)[wide], (5, 6)[tail]])
        assert points == expected


class TestSimulatedAnnealing:
    def test_rejects_bad_cooling(self, edge_space, tiny_workload):
        evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=40))
        with pytest.raises(ValueError):
            SimulatedAnnealing(edge_space, evaluator, [], cooling=1.5)

    def test_neighbor_moves_stay_in_space(self, make_optimizer, edge_space):
        result = make_optimizer(SimulatedAnnealing, budget=10).run()
        for trial in result.trials:
            edge_space.validate(trial.point)


class TestGeneticAlgorithm:
    def test_rejects_bad_population(self, edge_space, tiny_workload):
        evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=40))
        with pytest.raises(ValueError):
            GeneticAlgorithm(edge_space, evaluator, [], population_size=1)
        with pytest.raises(ValueError):
            GeneticAlgorithm(
                edge_space, evaluator, [], population_size=4, elites=4
            )

    def test_initial_point_seeded(self, make_optimizer, mid_point):
        optimizer = make_optimizer(GeneticAlgorithm, budget=8)
        result = optimizer.run()  # run() signature: no initial for GA path
        assert result.trials


class TestBayesianFamilies:
    def test_bo_switches_to_surrogate(self, make_optimizer):
        result = make_optimizer(
            BayesianOptimization, budget=14, initial_samples=5
        ).run()
        notes = [t.note for t in result.trials]
        assert "bo-init" in notes
        assert "bo-ei" in notes

    def test_hypermapper_acquires_after_init(self, make_optimizer):
        result = make_optimizer(
            HyperMapperDSE, budget=14, initial_samples=5
        ).run()
        notes = [t.note for t in result.trials]
        assert "hm-init" in notes
        assert "hm-ei" in notes


class _ReferenceRL(ReinforcementLearningDSE):
    """The policy-gradient loop with the sampler the per-update CDFs
    replaced: one ``rng.choice(len(head), p=_softmax(head))`` per head
    per episode."""

    def _propose(self, initial_point: Optional[DesignPoint]):
        rng = np.random.default_rng(self.seed)
        logits = [
            np.zeros(param.cardinality) for param in self.space.parameters
        ]
        baseline = 0.0
        have_baseline = False

        while self.budget_left > 0:
            batch = []
            for _ in range(self.batch_size):
                if self.budget_left <= 0:
                    break
                actions = [
                    int(rng.choice(len(head), p=_softmax(head)))
                    for head in logits
                ]
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


class TestReinforcementLearning:
    def test_policy_improves_reward_signal(self, make_optimizer):
        result = make_optimizer(ReinforcementLearningDSE, budget=20).run()
        assert result.trials
        assert all(t.note == "rl-episode" for t in result.trials)

    @pytest.mark.parametrize("batch_size", [1, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_proposals_match_choice_per_head(
        self, make_optimizer, seed, batch_size
    ):
        runs = [
            make_optimizer(
                cls, budget=14, seed=seed, batch_size=batch_size
            ).run()
            for cls in (_ReferenceRL, ReinforcementLearningDSE)
        ]
        reference, rewritten = ([t.point for t in r.trials] for r in runs)
        assert len(reference) >= 14
        assert rewritten == reference
        assert result_fingerprint(runs[1]) == result_fingerprint(runs[0])

    @pytest.mark.parametrize(
        "probs",
        [
            [0.5, np.nan, 0.5],
            [0.6, -0.1, 0.5],
            [0.5, 0.4],
            [0.5, 0.5 + 1e-7],
        ],
        ids=["nan", "negative", "sum-below-1", "sum-above-1"],
    )
    def test_cdf_guard_rejects_like_generator_choice(self, probs):
        probs = np.array(probs)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(probs), p=probs)
        with pytest.raises(ValueError):
            _cdf(probs)

    def test_cdf_guard_accepts_within_tolerance(self):
        probs = np.array([0.25, 0.75 + 1e-9])
        assert np.random.default_rng(0).choice(len(probs), p=probs) in (0, 1)
        assert _cdf(probs)[-1] == 1.0
