"""Baseline goldens and the ask/tell protocol's guard rails.

Every baseline's ``run()`` is :class:`repro.optim.DriverLoop` over the
engine's ask/tell state, so one campaign per engine pins the whole
path: its result fingerprint and canonical journal (``RunSummary`` perf
counters stripped) must hash to the values in
``tests/goldens/baselines.json``.  Two more cells run codesign engines
over ``RandomSearchMapper``, which pins the random mapper's candidate
stream end to end.  Plus the protocol's negative paths:
``ask(n <= 0)``, stale, unasked and excess tells raise ``ValueError``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.dse.constraints import Constraint
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import RandomSearchMapper, TopNMapper
from repro.optim import (
    BayesianOptimization,
    DriverLoop,
    EvalResult,
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

GOLDENS = Path(__file__).parent / "goldens" / "baselines.json"

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


def _constraints():
    return [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
    ]


#: Engines pinned over the random mapper: ``(engine, golden key)``.
RANDOM_MAPPER_CELLS = [
    (RandomSearch, "random/random-mapper"),
    (HyperMapperDSE, "hypermapper/random-mapper"),
]


def _engine(cls, edge_space, tiny_workload, tracer=None, mapper=None):
    if mapper is None:
        mapper = TopNMapper(top_n=50)
    return cls(
        edge_space,
        CostEvaluator(tiny_workload, mapper, mapping_cache=MappingCache()),
        _constraints(),
        max_evaluations=BUDGET,
        seed=SEED,
        tracer=tracer,
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _assert_matches_golden(key, tmp_path, make_engine):
    journal = tmp_path / "run.jsonl"
    tracer = Tracer(JsonlSink(journal))
    try:
        result = make_engine(tracer).run()
    finally:
        tracer.close()
    observed = {
        "fingerprint": _sha256(result_fingerprint(result).encode("utf-8")),
        "journal": _sha256(_canonical_journal(journal)),
    }
    expected = json.loads(GOLDENS.read_text())[key]
    assert observed == expected, (
        f"{key} differs from {GOLDENS.name}; observed: "
        f"{json.dumps(observed, sort_keys=True)}"
    )


@pytest.mark.parametrize("cls", BASELINES, ids=[cls.name for cls in BASELINES])
def test_baseline_run_matches_golden(tmp_path, edge_space, tiny_workload, cls):
    _assert_matches_golden(
        cls.name,
        tmp_path,
        lambda tracer: _engine(cls, edge_space, tiny_workload, tracer),
    )


@pytest.mark.parametrize(
    "cls,key", RANDOM_MAPPER_CELLS, ids=[key for _, key in RANDOM_MAPPER_CELLS]
)
def test_random_mapper_run_matches_golden(
    tmp_path, edge_space, tiny_workload, cls, key
):
    _assert_matches_golden(
        key,
        tmp_path,
        lambda tracer: _engine(
            cls, edge_space, tiny_workload, tracer,
            mapper=RandomSearchMapper(trials=20),
        ),
    )


def test_batched_driver_matches_legacy(edge_space, tiny_workload):
    """A batch_size > 1 driver serves the same FIFO stream, so the
    campaign equals ``run()`` (a batch_size 1 driver)."""
    serial = _engine(RandomSearch, edge_space, tiny_workload).run()
    batched = DriverLoop(
        _engine(RandomSearch, edge_space, tiny_workload), batch_size=3
    ).run(None)
    assert result_fingerprint(serial) == result_fingerprint(batched)


class TestProtocolGuards:
    def _engine(self, edge_space, tiny_workload):
        engine = _engine(RandomSearch, edge_space, tiny_workload)
        engine.start(None)
        return engine

    @pytest.mark.parametrize("n", [0, -1])
    def test_baseline_ask_nonpositive_raises(
        self, edge_space, tiny_workload, n
    ):
        engine = self._engine(edge_space, tiny_workload)
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
    def test_driver_propagates_uncaptured_failures(
        self, edge_space, tiny_workload
    ):
        """Baselines have no quarantine: an evaluation failure raises
        out of the driver."""
        engine = _engine(RandomSearch, edge_space, tiny_workload)
        flaky = _FlakyEvaluator(engine.evaluator, fail_on={1})
        with pytest.raises(RuntimeError, match="injected failure"):
            DriverLoop(engine, evaluator=flaky).run(None)

    def test_driver_detects_protocol_stall(self):
        with pytest.raises(RuntimeError, match="stall"):
            DriverLoop(_StallingEngine(), evaluator=object()).run(None)
