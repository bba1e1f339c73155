"""Ask/tell protocol equivalence: DriverLoop vs legacy ``run()``.

Every engine (the eight black-box baselines and Explainable-DSE) must
produce a bit-identical campaign — result fingerprint and canonical
journal — whether it drives its own loop (``run()``) or is driven
externally through :class:`repro.optim.DriverLoop`, with a cold and a
warm mapping cache.  Plus
the protocol's negative paths: ``ask(n <= 0)`` and stale tells raise
``ValueError``.
"""

import pytest

from repro.core.dse.constraints import Constraint
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.optim import (
    BayesianOptimization,
    DriverLoop,
    EvalResult,
    ExplainableEngine,
    GeneticAlgorithm,
    GridSearch,
    HyperMapperDSE,
    LocalSearch,
    RandomSearch,
    ReinforcementLearningDSE,
    SearchEngine,
    SimulatedAnnealing,
)
from repro.perf.mapping_cache import MappingCache
from repro.service.machine import result_fingerprint
from repro.telemetry import JsonlSink, Tracer
from repro.verify.differential import _canonical_journal

BUDGET = 8
SEED = 3

BASELINES = [
    GridSearch,
    RandomSearch,
    SimulatedAnnealing,
    GeneticAlgorithm,
    BayesianOptimization,
    HyperMapperDSE,
    ReinforcementLearningDSE,
    LocalSearch,
]

#: (id, warm mapping cache?).
CELLS = [
    ("cold-serial", False),
    ("warm-serial", True),
]


def _constraints():
    return [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
    ]


def _evaluator(workload, cache):
    return CostEvaluator(workload, TopNMapper(top_n=50), mapping_cache=cache)


def _outcome(journal, runner):
    """(fingerprint, canonical journal) of one traced campaign."""
    tracer = Tracer(JsonlSink(journal))
    try:
        result = runner(tracer)
    finally:
        tracer.close()
    return result_fingerprint(result), _canonical_journal(journal)


@pytest.mark.parametrize("cell,warm", CELLS, ids=[cell[0] for cell in CELLS])
@pytest.mark.parametrize("cls", BASELINES, ids=[cls.name for cls in BASELINES])
def test_baseline_protocol_matches_legacy(
    tmp_path, edge_space, tiny_workload, cls, cell, warm
):
    cache = MappingCache()

    def build(tracer):
        return cls(
            edge_space,
            _evaluator(tiny_workload, cache),
            _constraints(),
            max_evaluations=BUDGET,
            seed=SEED,
            tracer=tracer,
        )

    if warm:
        build(None).run()
    legacy = _outcome(tmp_path / "legacy.jsonl", lambda t: build(t).run())
    proto = _outcome(
        tmp_path / "proto.jsonl", lambda t: DriverLoop(build(t)).run(None)
    )
    assert legacy[0] == proto[0], "result fingerprint diverged"
    assert legacy[1] == proto[1], "canonical journal diverged"


@pytest.mark.parametrize("cell,warm", CELLS, ids=[cell[0] for cell in CELLS])
def test_explainable_protocol_matches_legacy(
    tmp_path, edge_space, tiny_workload, cell, warm
):
    cache = MappingCache()

    def build():
        return ExplainableDSE(
            edge_space,
            _evaluator(tiny_workload, cache),
            _constraints(),
            max_evaluations=BUDGET,
        )

    if warm:
        build().run()
    legacy = _outcome(
        tmp_path / "legacy.jsonl", lambda t: build().run(tracer=t)
    )
    proto = _outcome(
        tmp_path / "proto.jsonl",
        lambda t: DriverLoop(ExplainableEngine(build(), tracer=t)).run(None),
    )
    assert legacy[0] == proto[0], "result fingerprint diverged"
    assert legacy[1] == proto[1], "canonical journal diverged"


def test_batched_driver_matches_legacy(edge_space, tiny_workload, tmp_path):
    """A batch_size > 1 driver serves the same FIFO stream, so the
    campaign is unchanged."""

    def build(tracer=None):
        return RandomSearch(
            edge_space,
            _evaluator(tiny_workload, MappingCache()),
            _constraints(),
            max_evaluations=BUDGET,
            seed=SEED,
        )

    legacy = build().run()
    batched = DriverLoop(build(), batch_size=3).run(None)
    assert result_fingerprint(legacy) == result_fingerprint(batched)


class TestProtocolGuards:
    def _engine(self, edge_space, tiny_workload, cls=RandomSearch):
        engine = cls(
            edge_space,
            _evaluator(tiny_workload, MappingCache()),
            _constraints(),
            max_evaluations=BUDGET,
            seed=SEED,
        )
        engine.start(None)
        return engine

    @pytest.mark.parametrize("n", [0, -1])
    def test_baseline_ask_nonpositive_raises(
        self, edge_space, tiny_workload, n
    ):
        engine = self._engine(edge_space, tiny_workload)
        with pytest.raises(ValueError):
            engine.ask(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_explainable_ask_nonpositive_raises(
        self, edge_space, tiny_workload, n
    ):
        dse = ExplainableDSE(
            edge_space,
            _evaluator(tiny_workload, MappingCache()),
            _constraints(),
            max_evaluations=BUDGET,
        )
        engine = ExplainableEngine(dse)
        engine.start(None)
        with pytest.raises(ValueError):
            engine.ask(n)

    def test_stale_tell_raises(self, edge_space, tiny_workload):
        engine = self._engine(edge_space, tiny_workload)
        points = engine.ask(1)
        assert points
        stale = dict(points[0])
        name = edge_space.parameters[0].name
        options = list(edge_space.parameters[0].values)
        stale[name] = next(o for o in options if o != stale[name])
        evaluation = engine.evaluator.evaluate(points[0])
        with pytest.raises(ValueError, match="stale tell"):
            engine.tell([EvalResult(point=stale, evaluation=evaluation)])

    def test_tell_never_asked_raises(self, edge_space, tiny_workload):
        engine = self._engine(edge_space, tiny_workload)
        point = edge_space.minimum_point()
        evaluation = engine.evaluator.evaluate(point)
        with pytest.raises(ValueError):
            engine.tell([EvalResult(point=point, evaluation=evaluation)])

    def test_tell_excess_results_raises(self, edge_space, tiny_workload):
        engine = self._engine(edge_space, tiny_workload)
        points = engine.ask(1)
        evaluation = engine.evaluator.evaluate(points[0])
        results = [
            EvalResult(point=points[0], evaluation=evaluation),
            EvalResult(point=points[0], evaluation=evaluation),
        ]
        with pytest.raises(ValueError):
            engine.tell(results)

    def test_explainable_stale_tell_raises(self, edge_space, tiny_workload):
        dse = ExplainableDSE(
            edge_space,
            _evaluator(tiny_workload, MappingCache()),
            _constraints(),
            max_evaluations=BUDGET,
        )
        engine = ExplainableEngine(dse)
        engine.start(None)
        points = engine.ask(1)
        assert points
        stale = dict(points[0])
        name = edge_space.parameters[0].name
        options = list(edge_space.parameters[0].values)
        stale[name] = next(o for o in options if o != stale[name])
        evaluation = engine.evaluator.evaluate(points[0])
        with pytest.raises(ValueError, match="stale tell"):
            engine.tell([EvalResult(point=stale, evaluation=evaluation)])

    def test_driver_rejects_bad_batch_size(self, edge_space, tiny_workload):
        engine = self._engine(edge_space, tiny_workload)
        with pytest.raises(ValueError):
            DriverLoop(engine, batch_size=0)


class _FlakyEvaluator:
    """Delegates to a real evaluator, raising on chosen call indices."""

    def __init__(self, inner, fail_on):
        self.inner = inner
        self.fail_on = set(fail_on)
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def evaluate(self, point):
        self.calls += 1
        if self.calls in self.fail_on:
            raise RuntimeError(f"injected failure on call {self.calls}")
        return self.inner.evaluate(point)


class _StallingEngine(SearchEngine):
    """Violates the protocol: ask() returns [] while not finished."""

    evaluator = None

    def start(self, initial_point=None):
        pass

    def ask(self, n):
        return []

    def tell(self, results):
        pass

    @property
    def finished(self):
        return False

    def result(self):
        raise AssertionError("unreachable")


class TestDriverLoopPaths:
    def _dse(self, edge_space, tiny_workload):
        return ExplainableDSE(
            edge_space,
            _evaluator(tiny_workload, MappingCache()),
            _constraints(),
            max_evaluations=BUDGET,
        )

    def test_eval_result_ok(self):
        assert EvalResult(point={}).ok
        assert not EvalResult(point={}, error=RuntimeError("x")).ok

    def test_driver_quarantines_captured_failures(
        self, edge_space, tiny_workload
    ):
        """An evaluation exception under a captures_failures engine is
        delivered as an EvalResult error and quarantined, not raised."""
        dse = self._dse(edge_space, tiny_workload)
        flaky = _FlakyEvaluator(dse.evaluator, fail_on={2})
        result = DriverLoop(ExplainableEngine(dse), evaluator=flaky).run(None)
        quarantined = [
            t for t in result.trials if t.note.startswith("quarantined")
        ]
        assert len(quarantined) == 1
        assert not quarantined[0].feasible
        assert flaky.calls >= 2

    def test_driver_propagates_uncaptured_failures(
        self, edge_space, tiny_workload
    ):
        engine = RandomSearch(
            edge_space,
            _evaluator(tiny_workload, MappingCache()),
            _constraints(),
            max_evaluations=BUDGET,
            seed=SEED,
        )
        flaky = _FlakyEvaluator(engine.evaluator, fail_on={1})
        with pytest.raises(RuntimeError, match="injected failure"):
            DriverLoop(engine, evaluator=flaky).run(None)

    def test_driver_feeds_archive(self, edge_space, tiny_workload):
        from repro.experiments.pareto import archive_from_results
        from repro.optim import ParetoArchive

        def build():
            return self._dse(edge_space, tiny_workload)

        reference = build().run()
        archive = ParetoArchive()
        driven = DriverLoop(
            ExplainableEngine(build()), archive=archive
        ).run(None)
        expected = archive_from_results([reference])
        assert archive.snapshot() == expected.snapshot()
        assert result_fingerprint(driven) == result_fingerprint(reference)

    def test_driver_detects_protocol_stall(self):
        with pytest.raises(RuntimeError, match="stall"):
            DriverLoop(_StallingEngine(), evaluator=object()).run(None)

    def test_explainable_guards_before_start(self, edge_space, tiny_workload):
        engine = ExplainableEngine(self._dse(edge_space, tiny_workload))
        assert not engine.finished
        assert engine.step_hint == 0
        with pytest.raises(RuntimeError, match="start"):
            engine.ask(1)
        with pytest.raises(RuntimeError, match="start"):
            engine.tell([EvalResult(point={})])
        with pytest.raises(RuntimeError, match="start"):
            engine.result()

    def test_explainable_empty_tell_is_noop(self, edge_space, tiny_workload):
        engine = ExplainableEngine(self._dse(edge_space, tiny_workload))
        engine.start(None)
        points = engine.ask(1)
        assert points
        engine.tell([])
        evaluation = engine.evaluator.evaluate(points[0])
        engine.tell([EvalResult(point=points[0], evaluation=evaluation)])
