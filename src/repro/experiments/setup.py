"""Experiment setup: Table 1 constraints, evaluators, and run factories.

Centralizes everything the per-figure experiment modules share: the edge
design space, the per-model throughput requirements, the mapper choices
("FixDF" = fixed output-stationary dataflow; "Codesign" = per-hardware
mapping optimization), and uniform runner functions for Explainable-DSE and
every baseline technique.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.arch.accelerator import build_edge_design_space
from repro.arch.design_space import DesignPoint, DesignSpace
from repro.core.dse.constraints import Constraint, Sense
from repro.core.dse.explainable import ExplainableDSE
from repro.core.dse.result import DSEResult
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import (
    FixedDataflowMapper,
    RandomSearchMapper,
    TopNMapper,
)
from repro.optim import (
    BayesianOptimization,
    GeneticAlgorithm,
    GridSearch,
    HyperMapperDSE,
    LocalSearch,
    RandomSearch,
    ReinforcementLearningDSE,
    SimulatedAnnealing,
)
from repro.perf.knobs import numeric_knob
from repro.workloads.registry import load_workload

__all__ = [
    "AREA_BUDGET_MM2",
    "POWER_BUDGET_W",
    "THROUGHPUT_REQUIREMENTS",
    "BASELINE_TECHNIQUES",
    "bench_scale",
    "edge_constraints",
    "make_evaluator",
    "run_explainable_dse",
    "run_baseline",
]

#: Table 1 resource budgets for the edge accelerator.
AREA_BUDGET_MM2 = 75.0
POWER_BUDGET_W = 4.0

#: Minimum single-stream inference throughput (inferences per second).
#:
#: Table 1 states 40/10 FPS for light/large vision models and
#: 120/530/176k *samples* per second for Transformer/BERT/wav2vec2.  NLP
#: samples are tokens (Transformer, BERT) or audio samples (wav2vec2), so
#: the per-inference requirement divides by tokens-per-inference (64 / 384)
#: and by the clip length (64000 samples), respectively.
THROUGHPUT_REQUIREMENTS: Dict[str, float] = {
    "resnet18": 40.0,
    "mobilenetv2": 40.0,
    "efficientnetb0": 40.0,
    "vgg16": 10.0,
    "resnet50": 10.0,
    "vision_transformer": 10.0,
    "fasterrcnn_mobilenetv3": 10.0,
    "yolov5": 10.0,
    "transformer": 120.0 / 64.0,
    "bert": 530.0 / 384.0,
    "wav2vec2": 176000.0 / 64000.0,
}


def bench_scale() -> float:
    """Budget scale factor from ``REPRO_BENCH_SCALE`` (default 1.0).

    Benchmarks default to laptop-friendly budgets; set
    ``REPRO_BENCH_SCALE=10`` (or more) to approach the paper's budgets.
    Junk and non-finite values warn once and keep the default.
    """
    return numeric_knob("REPRO_BENCH_SCALE", 1.0)


def edge_constraints(model: str) -> List[Constraint]:
    """Area, power, and throughput constraints for one benchmark model."""
    if model not in THROUGHPUT_REQUIREMENTS:
        raise KeyError(f"no throughput requirement registered for {model!r}")
    return [
        Constraint("area", "area_mm2", AREA_BUDGET_MM2),
        Constraint("power", "power_w", POWER_BUDGET_W),
        Constraint(
            "throughput",
            "throughput",
            THROUGHPUT_REQUIREMENTS[model],
            Sense.GEQ,
        ),
    ]


def make_evaluator(
    model: str,
    mapping_mode: str = "codesign",
    top_n: int = 150,
    random_mapping_trials: int = 100,
    seed: int = 0,
    objective: str = "latency",
    **evaluator_kwargs,
) -> CostEvaluator:
    """Build a cost evaluator for a model with the chosen mapper.

    Args:
        model: Benchmark model name.
        mapping_mode: ``"fixed"`` for the output-stationary schema,
            ``"codesign"`` for the top-N dMazeRunner-style mapper, or
            ``"random-mapper"`` for the Timeloop-like random mapper the
            paper gives black-box codesign baselines.
        top_n: Mapping budget of the top-N mapper.
        random_mapping_trials: Trials of the random mapper.
        seed: Seed for the random mapper.
        objective: Mapping metric the searching mappers minimize
            (``"latency"``, ``"energy"``, or ``"edp"``; validated with a
            helpful error).  The fixed dataflow is not searched, so the
            objective does not apply to it.
        evaluator_kwargs: Forwarded to :class:`CostEvaluator` (e.g.
            ``mapping_cache``, ``use_mapping_cache``, ``fused_eval``).
    """
    workload = load_workload(model)
    if mapping_mode == "fixed":
        mapper = FixedDataflowMapper()
    elif mapping_mode == "codesign":
        mapper = TopNMapper(top_n=top_n, objective=objective)
    elif mapping_mode == "random-mapper":
        mapper = RandomSearchMapper(
            trials=random_mapping_trials,
            seed=seed,
            objective=objective,
        )
    else:
        raise ValueError(f"unknown mapping mode {mapping_mode!r}")
    return CostEvaluator(workload, mapper, **evaluator_kwargs)


#: Baseline technique registry: label -> optimizer class.
BASELINE_TECHNIQUES = {
    "grid": GridSearch,
    "random": RandomSearch,
    "annealing": SimulatedAnnealing,
    "genetic": GeneticAlgorithm,
    "bayesian": BayesianOptimization,
    "hypermapper": HyperMapperDSE,
    "reinforcement": ReinforcementLearningDSE,
    "local-search": LocalSearch,
}


def run_explainable_dse(
    model: str,
    iterations: int = 100,
    mapping_mode: str = "codesign",
    top_n: int = 150,
    initial_point: Optional[DesignPoint] = None,
    constraints: Optional[Sequence[Constraint]] = None,
    design_space: Optional[DesignSpace] = None,
    evaluator: Optional[CostEvaluator] = None,
    tracer=None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
    **dse_kwargs,
) -> DSEResult:
    """Run Explainable-DSE on one benchmark model with edge defaults.

    ``tracer`` / ``checkpoint_path`` / ``resume_from`` configure the
    telemetry subsystem (:mod:`repro.telemetry`): a structured trace of
    every acquisition decision, crash-safe campaign snapshots, and
    mid-campaign resume.
    """
    space = design_space or build_edge_design_space()
    evaluator = evaluator or make_evaluator(
        model, mapping_mode=mapping_mode, top_n=top_n
    )
    dse = ExplainableDSE(
        space,
        evaluator,
        constraints if constraints is not None else edge_constraints(model),
        max_evaluations=iterations,
        **dse_kwargs,
    )
    result = dse.run(
        initial_point,
        tracer=tracer,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    suffix = "fixdf" if mapping_mode == "fixed" else "codesign"
    result.technique = f"explainable-{suffix}"
    return result


def run_baseline(
    technique: str,
    model: str,
    iterations: int = 100,
    mapping_mode: str = "fixed",
    seed: int = 0,
    random_mapping_trials: int = 100,
    constraints: Optional[Sequence[Constraint]] = None,
    design_space: Optional[DesignSpace] = None,
    evaluator: Optional[CostEvaluator] = None,
    tracer=None,
    **optimizer_kwargs,
) -> DSEResult:
    """Run one non-explainable baseline on one benchmark model.

    Black-box codesign baselines (paper §F) pair the optimizer with the
    Timeloop-like random mapper: pass ``mapping_mode="random-mapper"``.
    ``tracer`` records per-trial :mod:`repro.telemetry` events so baseline
    journals stay comparable with Explainable-DSE traces.
    """
    if technique not in BASELINE_TECHNIQUES:
        raise KeyError(
            f"unknown technique {technique!r}; "
            f"available: {sorted(BASELINE_TECHNIQUES)}"
        )
    space = design_space or build_edge_design_space()
    evaluator = evaluator or make_evaluator(
        model,
        mapping_mode=mapping_mode,
        random_mapping_trials=random_mapping_trials,
        seed=seed,
    )
    optimizer = BASELINE_TECHNIQUES[technique](
        space,
        evaluator,
        constraints if constraints is not None else edge_constraints(model),
        max_evaluations=iterations,
        seed=seed,
        tracer=tracer,
        **optimizer_kwargs,
    )
    result = optimizer.run()
    suffix = "fixdf" if mapping_mode == "fixed" else "codesign"
    result.technique = f"{technique}-{suffix}"
    return result
