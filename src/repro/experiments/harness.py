"""Shared experiment harness: memoized technique x model comparison runs.

Figures 9, 10, 12 and Tables 2, 3 all consume the same underlying runs
(one DSE per technique per model), so the harness memoizes them per
process: an 11-model x 10-technique comparison is executed once and every
experiment module reads from it.

Runs are independent of each other, so :meth:`ComparisonRunner.run_matrix`
can execute them on a worker pool (:mod:`repro.perf.parallel`) sized by
``jobs`` (``--jobs`` on ``repro experiment``) or ``REPRO_JOBS``; this is
the only pool in the pipeline.  Results are collected in submission
order and every run is seeded independently of scheduling, so the
parallel matrix is identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dse.result import DSEResult
from repro.experiments.setup import (
    BASELINE_TECHNIQUES,
    run_baseline,
    run_explainable_dse,
)
from repro.perf.parallel import WorkerPool, resolve_jobs
from repro.workloads.registry import MODEL_NAMES

__all__ = [
    "TechniqueSpec",
    "PAPER_TECHNIQUES",
    "DYNAMIC_TECHNIQUES",
    "ComparisonRunner",
]


@dataclass(frozen=True)
class TechniqueSpec:
    """One (optimizer, mapping mode) combination from the paper's tables."""

    label: str
    kind: str  # "explainable" or a BASELINE_TECHNIQUES key
    mapping_mode: str  # "fixed", "codesign", or "random-mapper"

    def __post_init__(self) -> None:
        if self.kind != "explainable" and self.kind not in BASELINE_TECHNIQUES:
            raise ValueError(f"unknown technique kind {self.kind!r}")


#: The ten technique rows of Fig. 9 / Table 2 (fixed-dataflow baselines,
#: the two black-box codesigns the paper found effective, and
#: Explainable-DSE codesign), plus Explainable-DSE with fixed dataflow.
PAPER_TECHNIQUES: Tuple[TechniqueSpec, ...] = (
    TechniqueSpec("Grid Search-FixDF", "grid", "fixed"),
    TechniqueSpec("Random Search-FixDF", "random", "fixed"),
    TechniqueSpec("Simulated Annealing-FixDF", "annealing", "fixed"),
    TechniqueSpec("Genetic Algorithm-FixDF", "genetic", "fixed"),
    TechniqueSpec("Bayesian Optimization-FixDF", "bayesian", "fixed"),
    TechniqueSpec("HyperMapper 2.0-FixDF", "hypermapper", "fixed"),
    TechniqueSpec("Reinforcement Learning-FixDF", "reinforcement", "fixed"),
    TechniqueSpec("Random Search-Codesign", "random", "random-mapper"),
    TechniqueSpec("HyperMapper 2.0-Codesign", "hypermapper", "random-mapper"),
    TechniqueSpec("ExplainableDSE-FixDF", "explainable", "fixed"),
    TechniqueSpec("ExplainableDSE-Codesign", "explainable", "codesign"),
)

#: Table 2 rows (the dynamic-DSE comparison drops ExplainableDSE-FixDF).
DYNAMIC_TECHNIQUES: Tuple[TechniqueSpec, ...] = tuple(
    spec for spec in PAPER_TECHNIQUES if spec.label != "ExplainableDSE-FixDF"
)


def _execute_spec(
    spec: TechniqueSpec,
    model: str,
    iterations: int,
    top_n: int,
    random_mapping_trials: int,
    seed: int,
) -> DSEResult:
    """Run one (technique, model) pair; module-level so worker processes
    can pickle the call."""
    if spec.kind == "explainable":
        result = run_explainable_dse(
            model,
            iterations=iterations,
            mapping_mode=spec.mapping_mode,
            top_n=top_n,
        )
    else:
        result = run_baseline(
            spec.kind,
            model,
            iterations=iterations,
            mapping_mode=spec.mapping_mode,
            seed=seed,
            random_mapping_trials=random_mapping_trials,
        )
    result.technique = spec.label
    return result


def _run_pair_job(
    iterations: int,
    top_n: int,
    random_mapping_trials: int,
    seed: int,
    pair: Tuple[TechniqueSpec, str],
) -> DSEResult:
    """Picklable worker wrapper over :func:`_execute_spec`."""
    spec, model = pair
    return _execute_spec(
        spec, model, iterations, top_n, random_mapping_trials, seed
    )


class ComparisonRunner:
    """Runs and memoizes (technique, model) DSE results.

    Args:
        iterations: Evaluation budget per run.
        top_n: Mapping budget of Explainable-DSE's codesign mapper.
        random_mapping_trials: Mapping trials of the black-box codesigns.
        seed: Seed shared by all stochastic optimizers.
        jobs: Worker count for :meth:`run_matrix`; None reads
            ``REPRO_JOBS`` (default 1 = serial).
    """

    def __init__(
        self,
        iterations: int = 60,
        top_n: int = 100,
        random_mapping_trials: int = 60,
        seed: int = 0,
        jobs: Optional[object] = None,
    ):
        self.iterations = iterations
        self.top_n = top_n
        self.random_mapping_trials = random_mapping_trials
        self.seed = seed
        self.jobs = resolve_jobs(jobs)
        self._cache: Dict[Tuple[str, str], DSEResult] = {}

    def _execute(self, spec: TechniqueSpec, model: str) -> DSEResult:
        return _execute_spec(
            spec,
            model,
            self.iterations,
            self.top_n,
            self.random_mapping_trials,
            self.seed,
        )

    def run(self, spec: TechniqueSpec, model: str) -> DSEResult:
        """Run (or fetch) one technique on one model."""
        key = (spec.label, model)
        if key not in self._cache:
            self._cache[key] = self._execute(spec, model)
        return self._cache[key]

    def run_matrix(
        self,
        techniques: Sequence[TechniqueSpec],
        models: Optional[Sequence[str]] = None,
        jobs: Optional[object] = None,
    ) -> Dict[str, Dict[str, DSEResult]]:
        """Run a technique x model matrix; returns [label][model] results.

        With ``jobs > 1`` the not-yet-memoized (technique, model) pairs
        execute concurrently on a worker pool; each run is independent
        and internally seeded, so results match the serial path.
        """
        models = list(models or MODEL_NAMES)
        jobs = resolve_jobs(self.jobs if jobs is None else jobs)
        pending: List[Tuple[TechniqueSpec, str]] = [
            (spec, model)
            for spec in techniques
            for model in models
            if (spec.label, model) not in self._cache
        ]
        if jobs > 1 and len(pending) > 1:
            job = partial(
                _run_pair_job,
                self.iterations,
                self.top_n,
                self.random_mapping_trials,
                self.seed,
            )
            with WorkerPool(jobs=jobs) as pool:
                results = pool.map(job, pending)
            for (spec, model), result in zip(pending, results):
                self._cache[(spec.label, model)] = result
        out: Dict[str, Dict[str, DSEResult]] = {}
        for spec in techniques:
            out[spec.label] = {
                model: self.run(spec, model) for model in models
            }
        return out
