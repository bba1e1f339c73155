"""Non-explainable baseline optimizers the paper compares against.

Every baseline is an ask/tell :class:`SearchEngine`, and its ``run()``
is :class:`DriverLoop` over it — the one driver of every baseline.
"""

from repro.optim.annealing import SimulatedAnnealing
from repro.optim.archive import (
    DEFAULT_OBJECTIVES,
    FrontierEntry,
    ParetoArchive,
)
from repro.optim.base import BaselineOptimizer, penalized_objective
from repro.optim.bayesian import BayesianOptimization
from repro.optim.gaussian_process import GaussianProcess, expected_improvement
from repro.optim.genetic import GeneticAlgorithm
from repro.optim.grid import GridSearch
from repro.optim.hybrid import HybridDSE
from repro.optim.hypermapper import HyperMapperDSE
from repro.optim.local_search import LocalSearch
from repro.optim.protocol import (
    DriverLoop,
    EvalResult,
    Proposal,
    SearchEngine,
)
from repro.optim.random_search import RandomSearch
from repro.optim.reinforcement import ReinforcementLearningDSE

__all__ = [
    "BaselineOptimizer",
    "BayesianOptimization",
    "DEFAULT_OBJECTIVES",
    "DriverLoop",
    "EvalResult",
    "FrontierEntry",
    "GaussianProcess",
    "GeneticAlgorithm",
    "GridSearch",
    "HybridDSE",
    "HyperMapperDSE",
    "LocalSearch",
    "ParetoArchive",
    "Proposal",
    "RandomSearch",
    "ReinforcementLearningDSE",
    "SearchEngine",
    "SimulatedAnnealing",
    "expected_improvement",
    "penalized_objective",
]
