"""Ask/tell protocol differential: DriverLoop vs legacy ``run()``.

Every engine — the eight black-box baselines and Explainable-DSE — runs
the *same* campaign twice: once through its legacy inline ``run()`` loop
and once inverted through :class:`~repro.optim.protocol.DriverLoop`
(ask, evaluate externally, tell).  Both runs must produce an identical
result fingerprint and an identical canonical journal (RunSummary perf
counters stripped; the driver's own :class:`AskIssued` /
:class:`TellRecorded` bookkeeping events removed), with a cold and a
warm mapping cache.

The protocol inversion touches only *who calls the evaluator* — the
acquisition decisions, RNG draws, and budget checks execute in the same
generator code either way — so any mismatch here is a protocol-driver
bug, not an engine bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro.arch.accelerator import build_edge_design_space
from repro.core.dse.explainable import ExplainableDSE
from repro.optim import (
    BayesianOptimization,
    DriverLoop,
    ExplainableEngine,
    GeneticAlgorithm,
    GridSearch,
    HyperMapperDSE,
    LocalSearch,
    RandomSearch,
    ReinforcementLearningDSE,
    SimulatedAnnealing,
)
from repro.perf.mapping_cache import MappingCache
from repro.telemetry import JsonlSink, Tracer
from repro.verify.corpus import campaign_workload
from repro.verify.differential import (
    _REFERENCE_ENV,
    _canonical_journal,
    _constraints,
    _evaluator,
    _fingerprint,
    _patched_env,
)

__all__ = ["AskTellReport", "run_ask_tell", "ENGINE_NAMES"]

_BUDGET = 12
_SEED = 7

_BASELINES = (
    ("grid", GridSearch),
    ("random", RandomSearch),
    ("annealing", SimulatedAnnealing),
    ("genetic", GeneticAlgorithm),
    ("bayesian", BayesianOptimization),
    ("hypermapper", HyperMapperDSE),
    ("reinforcement", ReinforcementLearningDSE),
    ("local-search", LocalSearch),
)

#: Every engine the leg proves equivalent, in run order.
ENGINE_NAMES = tuple(name for name, _ in _BASELINES) + ("explainable",)

#: (cell label, warm mapping cache?).
_CELLS = (
    ("cold-serial", False),
    ("warm-serial", True),
)


@dataclass
class AskTellReport:
    """Outcome of the ask/tell differential matrix."""

    engines: List[str] = field(default_factory=list)
    cells: List[str] = field(default_factory=list)
    comparisons: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_ask_tell(
    workdir: Path,
    workload=None,
    max_evaluations: int = _BUDGET,
    log: Optional[Callable[[str], None]] = None,
) -> AskTellReport:
    """Run the full engines x cells equivalence matrix under ``workdir``."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload if workload is not None else campaign_workload()
    space = build_edge_design_space()
    say = log if log is not None else (lambda message: None)
    report = AskTellReport(
        engines=list(ENGINE_NAMES), cells=[cell for cell, _ in _CELLS]
    )

    def evaluator(cache):
        return _evaluator(workload, batch_eval=False, cache=cache)

    def outcome(journal: Path, runner: Callable[[Tracer], object]):
        tracer = Tracer(JsonlSink(journal))
        try:
            with _patched_env(_REFERENCE_ENV):
                result = runner(tracer)
        finally:
            tracer.close()
        return _fingerprint(result), _canonical_journal(journal)

    for cell, warm in _CELLS:
        say(f"ask-tell: cell {cell}")
        for name, cls in _BASELINES:
            def build(tracer, cache):
                return cls(
                    space,
                    evaluator(cache),
                    _constraints(),
                    max_evaluations=max_evaluations,
                    seed=_SEED,
                    tracer=tracer,
                )

            def run_built(tracer, cache, drive):
                return drive(build(tracer, cache))

            cache = MappingCache()
            if warm:
                # Pre-warm with one throwaway legacy run of the same
                # campaign: both compared runs then replay pure hits.
                run_built(None, cache, lambda opt: opt.run())
            legacy = outcome(
                workdir / f"{cell}-{name}-legacy.jsonl",
                lambda tracer: run_built(
                    tracer, cache, lambda opt: opt.run()
                ),
            )
            proto = outcome(
                workdir / f"{cell}-{name}-protocol.jsonl",
                lambda tracer: run_built(
                    tracer, cache, lambda opt: DriverLoop(opt).run(None)
                ),
            )
            _compare(report, cell, name, legacy, proto)

        def run_dse(cache, drive):
            return drive(
                ExplainableDSE(
                    space,
                    evaluator(cache),
                    _constraints(),
                    max_evaluations=max_evaluations,
                )
            )

        cache = MappingCache()
        if warm:
            run_dse(cache, lambda dse: dse.run())
        legacy = outcome(
            workdir / f"{cell}-explainable-legacy.jsonl",
            lambda tracer: run_dse(cache, lambda dse: dse.run(tracer=tracer)),
        )
        proto = outcome(
            workdir / f"{cell}-explainable-protocol.jsonl",
            lambda tracer: run_dse(
                cache,
                lambda dse: DriverLoop(
                    ExplainableEngine(dse, tracer=tracer)
                ).run(None),
            ),
        )
        _compare(report, cell, "explainable", legacy, proto)
    return report


def _compare(
    report: AskTellReport, cell: str, name: str, legacy, proto
) -> None:
    report.comparisons += 1
    if legacy[0] != proto[0]:
        report.mismatches.append(f"{cell}/{name}: result fingerprint")
    if legacy[1] != proto[1]:
        report.mismatches.append(f"{cell}/{name}: canonical journal")
