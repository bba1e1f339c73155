"""Tests for the resilience layer (repro.resilience).

Covers the fault taxonomy, the deterministic fault-injection harness,
worker supervision (retry / timeout / SIGKILL / serial fallback),
self-healing cache persistence, DSE candidate quarantine, and the
campaign circuit breaker.
"""

import os
import pickle
import signal
import time
import warnings

import pytest

from repro.core.dse.constraints import Constraint, Sense
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.perf.mapping_cache import PERSIST_VERSION, MappingCache
from repro.perf.parallel import WorkerPool, resolve_jobs
from repro.resilience import (
    CacheCorruptionError,
    EvaluationError,
    FailureRateBreaker,
    FaultSpecError,
    InjectedCrash,
    MapperFailureError,
    ReproError,
    RetryPolicy,
    SystemicFaultError,
    WorkerCrashError,
    WorkerTimeoutError,
    as_repro_error,
    attempt_scope,
    current_attempt,
    inject,
    is_retryable,
    parse_fault_plan,
    resolve_task_timeout,
)
from repro.resilience.fault_injection import FaultSpec
from repro.telemetry import (
    CandidateFailed,
    JsonlSink,
    Tracer,
    default_checkpoint_path,
    load_checkpoint,
    read_journal,
    verify_against_journal,
)


@pytest.fixture(autouse=True)
def _clean_resilience_env(monkeypatch):
    """Resilience env knobs never leak between tests."""
    for name in (
        "REPRO_FAULT_INJECT",
        "REPRO_TASK_TIMEOUT",
        "REPRO_MAX_RETRIES",
        "REPRO_RETRY_BACKOFF",
        "REPRO_MAX_FAILURE_RATE",
    ):
        monkeypatch.delenv(name, raising=False)
    yield


def _constraints():
    return [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
        Constraint("throughput", "throughput", 200.0, Sense.GEQ),
    ]


def _make_evaluator(workload, cls=CostEvaluator, **kwargs):
    return cls(
        workload,
        TopNMapper(top_n=60),
        mapping_cache=MappingCache(),
        **kwargs,
    )


# -- error taxonomy -----------------------------------------------------------


class TestTaxonomy:
    def test_retryable_defaults(self):
        assert WorkerCrashError("x").retryable
        assert WorkerTimeoutError("x").retryable
        assert not MapperFailureError("x").retryable
        assert not EvaluationError("x").retryable
        assert not CacheCorruptionError("x").retryable
        assert not SystemicFaultError("x").retryable

    def test_explicit_flag_overrides_default(self):
        assert not WorkerCrashError("x", retryable=False).retryable
        assert EvaluationError("x", retryable=True).retryable

    def test_str_renders_sorted_context(self):
        error = MapperFailureError("search failed", layer="conv1", zz=1)
        assert str(error) == "search failed [layer='conv1', zz=1]"
        assert str(MapperFailureError("bare")) == "bare"

    def test_none_context_values_dropped(self):
        error = EvaluationError("x", layer=None, attempts=2)
        assert error.context == {"attempts": 2}

    def test_pickle_roundtrip_preserves_everything(self):
        error = WorkerTimeoutError(
            "task hung", retryable=False, task_index=3, attempts=4
        )
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is WorkerTimeoutError
        assert clone.message == "task hung"
        assert clone.retryable is False
        assert clone.context == {"task_index": 3, "attempts": 4}

    def test_with_context_does_not_overwrite(self):
        error = EvaluationError("x", layer="conv1")
        error.with_context(layer="other", point={"pes": 64})
        assert error.context["layer"] == "conv1"
        assert error.context["point"] == {"pes": 64}

    def test_as_repro_error_passthrough_and_wrap(self):
        original = WorkerCrashError("boom")
        assert as_repro_error(original, point={"pes": 1}) is original
        assert original.context["point"] == {"pes": 1}

        wrapped = as_repro_error(ValueError("bad shape"), "eval failed")
        assert isinstance(wrapped, EvaluationError)
        assert not wrapped.retryable
        assert wrapped.context["cause"] == "ValueError"
        assert "bad shape" in wrapped.message

    def test_is_retryable(self):
        from concurrent.futures import BrokenExecutor
        from concurrent.futures import TimeoutError as FutTimeout

        assert is_retryable(WorkerCrashError("x"))
        assert not is_retryable(MapperFailureError("x"))
        assert is_retryable(BrokenExecutor())
        assert is_retryable(FutTimeout())
        assert not is_retryable(ValueError("x"))


# -- fault spec grammar -------------------------------------------------------


class TestFaultSpecGrammar:
    def test_parse_full_spec(self):
        plan = parse_fault_plan("crash:evaluate:0.05:seed=7")
        (spec,) = plan.specs
        assert spec.kind == "crash"
        assert spec.site == "evaluate"
        assert spec.rate == 0.05
        assert spec.seed == 7

    def test_parse_multiple_specs(self):
        plan = parse_fault_plan(
            "crash:evaluate:0.05:seed=7, hang:mapper:0.02:for=5,"
            "corrupt:cache-load:step=1"
        )
        assert [s.kind for s in plan.specs] == ["crash", "hang", "corrupt"]
        assert plan.specs[1].duration == 5.0
        assert plan.specs[2].step == 1
        assert plan.sites() == ("cache-load", "evaluate", "mapper")

    @pytest.mark.parametrize(
        "text",
        [
            "crash",  # too few tokens
            "explode:evaluate:0.5",  # unknown kind
            "crash:nowhere:0.5",  # unknown site
            "crash:evaluate:2.0",  # rate out of range
            "crash:evaluate:junk",  # unparsable rate
            "crash:evaluate:0.5:bogus=1",  # unknown parameter
            "crash:evaluate:0.5:seed=xyz",  # bad parameter value
            "crash:evaluate",  # never fires
        ],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(FaultSpecError):
            parse_fault_plan(text)

    def test_decision_is_deterministic(self):
        spec = FaultSpec(kind="crash", site="evaluate", rate=0.3, seed=7)
        keys = [f"pes={n}" for n in range(200)]
        first = [spec.should_fire(k, 0, i) for i, k in enumerate(keys)]
        second = [spec.should_fire(k, 0, i) for i, k in enumerate(keys)]
        assert first == second
        # The rate actually thins the firing set.
        assert 0 < sum(first) < len(keys)

    def test_retry_rerolls_the_decision(self):
        spec = FaultSpec(kind="crash", site="evaluate", rate=0.3, seed=7)
        rerolled = [
            spec.should_fire(f"pes={n}", 0, 0)
            != spec.should_fire(f"pes={n}", 1, 0)
            for n in range(200)
        ]
        assert any(rerolled)

    def test_rate_one_fires_every_attempt(self):
        spec = FaultSpec(kind="crash", site="evaluate", rate=1.0)
        assert all(spec.should_fire("k", attempt, 0) for attempt in range(5))

    def test_match_filter(self):
        spec = FaultSpec(
            kind="crash", site="mapper", rate=1.0, match="conv"
        )
        assert spec.should_fire("conv3_x", 0, 0)
        assert not spec.should_fire("fc1", 0, 0)

    def test_step_fires_on_exact_invocation(self):
        spec = FaultSpec(kind="crash", site="mapper", step=2)
        assert [spec.should_fire("k", 0, i) for i in (1, 2, 3)] == [
            False,
            True,
            False,
        ]


class TestInject:
    def test_noop_without_env(self):
        inject("evaluate", key="anything")  # must not raise

    def test_injected_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:evaluate:1.0")
        with pytest.raises(InjectedCrash) as info:
            inject("evaluate", key="pes=64")
        assert info.value.retryable
        assert info.value.context["key"] == "pes=64"
        # Other sites stay clean.
        inject("mapper", key="conv1")

    def test_attempt_scope_feeds_the_decision(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:evaluate:1.0")
        with attempt_scope(2):
            assert current_attempt() == 2
            with pytest.raises(InjectedCrash) as info:
                inject("evaluate", key="k")
            assert info.value.context["attempt"] == 2
        assert current_attempt() == 0

    def test_kill_degrades_to_crash_outside_workers(self, monkeypatch):
        """An injected kill must never SIGKILL the campaign parent."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "kill:evaluate:1.0")
        with pytest.raises(InjectedCrash):
            inject("evaluate", key="k")

    def test_corrupt_kind(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "corrupt:cache-load:1.0")
        with pytest.raises(CacheCorruptionError):
            inject("cache-load", key="/tmp/x.pkl")

    def test_junk_plan_warns_once_and_campaign_completes(
        self, monkeypatch, edge_space, tiny_workload
    ):
        """A malformed plan warns once, naming the variable and the parse
        error, and leaves injection off instead of failing the first
        evaluation with ``FaultSpecError``."""
        from repro.perf import knobs

        monkeypatch.setenv("REPRO_FAULT_INJECT", "junk")
        knobs._WARNED.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = ExplainableDSE(
                edge_space,
                _make_evaluator(tiny_workload),
                _constraints(),
                max_evaluations=6,
            ).run()
        messages = [
            str(w.message)
            for w in caught
            if "REPRO_FAULT_INJECT" in str(w.message)
        ]
        assert len(messages) == 1
        assert "needs at least kind:site" in messages[0]
        assert "fault injection stays off" in messages[0]
        assert len(result.trials) == 6
        assert not any(t.note.startswith("quarantined") for t in result.trials)


# -- supervision policy -------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_doubles(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.05)
        first = policy.backoff_seconds("task-1", 1)
        assert first == policy.backoff_seconds("task-1", 1)
        for attempt in (1, 2, 3):
            base = 0.05 * 2 ** (attempt - 1)
            delay = policy.backoff_seconds("task-1", attempt)
            assert base <= delay <= base * 1.25
        assert policy.backoff_seconds("task-1", 1) != policy.backoff_seconds(
            "task-2", 1
        )

    def test_zero_base_never_sleeps(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.0)
        assert policy.backoff_seconds("x", 2) == 0.0

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.2")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "7.5")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.backoff_base == 0.2
        assert policy.task_timeout == 7.5

    def test_explicit_args_win_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        assert RetryPolicy.from_env(max_retries=1).max_retries == 1

    def test_resolve_task_timeout(self, monkeypatch):
        assert resolve_task_timeout() is None  # unset
        assert resolve_task_timeout(0) is None
        assert resolve_task_timeout(2.5) == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert resolve_task_timeout() is None


class TestFailureRateBreaker:
    def test_needs_minimum_failures(self):
        breaker = FailureRateBreaker(max_failure_rate=0.5)
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.tripped  # below BREAKER_MIN_FAILURES
        breaker.record_failure()
        assert breaker.tripped

    def test_rate_threshold(self):
        breaker = FailureRateBreaker(max_failure_rate=0.5)
        for _ in range(3):
            breaker.record_failure()
        for _ in range(5):
            breaker.record_success()
        assert breaker.failure_rate == pytest.approx(3 / 8)
        assert not breaker.tripped

    def test_disabled_at_one(self):
        breaker = FailureRateBreaker(max_failure_rate=1.0)
        for _ in range(50):
            breaker.record_failure()
        assert not breaker.enabled
        assert not breaker.tripped

    def test_systemic_fault_error(self):
        breaker = FailureRateBreaker(max_failure_rate=0.5)
        for _ in range(4):
            breaker.record_failure()
        error = breaker.systemic_fault(attempt=7)
        assert isinstance(error, SystemicFaultError)
        assert error.context["failures"] == 4
        assert error.context["attempt"] == 7
        assert breaker.as_dict()["tripped"] is True


# -- worker pool supervision --------------------------------------------------
#
# Task functions are module-level so process pools can pickle them; they
# key their behaviour off the ambient retry attempt, which the pool's
# supervision wrapper sets inside the worker.


def _double(x):
    return x * 2


def _kill_self_on_first_attempt(x):
    if current_attempt() == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 2


def _crash_below_attempt_2(x):
    if current_attempt() < 2:
        raise InjectedCrash(f"transient fault on {x}")
    return x + 100


def _always_crash(x):
    raise InjectedCrash(f"permanent fault on {x}")


def _sleep_on_first_attempt(x):
    if current_attempt() == 0:
        time.sleep(10)
    return x * 3


def _always_sleep(x):
    time.sleep(10)
    return x


class TestWorkerPoolSupervision:
    def test_serial_path_untouched(self):
        pool = WorkerPool(jobs=1)
        assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert pool._executor is None
        assert all(v == 0 for v in pool.supervision.values())

    def test_retryable_crash_is_retried(self):
        with WorkerPool(jobs=2, mode="thread", max_retries=3) as pool:
            pool.retry_policy = RetryPolicy(max_retries=3, backoff_base=0.0)
            assert pool.map(_crash_below_attempt_2, [1, 2, 3]) == [
                101,
                102,
                103,
            ]
            assert pool.supervision["retries"] >= 3

    def test_sigkilled_worker_rebuilt_and_retried(self):
        with WorkerPool(jobs=2, mode="process", max_retries=3) as pool:
            pool.retry_policy = RetryPolicy(max_retries=3, backoff_base=0.0)
            assert pool.map(_kill_self_on_first_attempt, [1, 2, 3]) == [
                2,
                4,
                6,
            ]
            assert pool.supervision["pool_rebuilds"] >= 1

    def test_hung_worker_times_out_and_retries(self):
        with WorkerPool(
            jobs=2, mode="process", task_timeout=1.0, max_retries=2
        ) as pool:
            pool.retry_policy = RetryPolicy(
                max_retries=2, backoff_base=0.0, task_timeout=1.0
            )
            assert pool.map(_sleep_on_first_attempt, [7, 8]) == [21, 24]
            assert pool.supervision["timeouts"] >= 1

    def test_permanent_hang_raises_timeout_error(self):
        with WorkerPool(
            jobs=2, mode="process", task_timeout=0.4, max_retries=1
        ) as pool:
            pool.retry_policy = RetryPolicy(
                max_retries=1, backoff_base=0.0, task_timeout=0.4
            )
            with pytest.raises(WorkerTimeoutError) as info:
                pool.map(_always_sleep, [1, 2])
            assert not info.value.retryable  # budget spent: quarantine

    def test_retry_then_quarantine(self):
        """A task failing in every worker AND the serial fallback raises a
        non-retryable error carrying the attempt count."""
        with WorkerPool(jobs=2, mode="thread", max_retries=1) as pool:
            pool.retry_policy = RetryPolicy(max_retries=1, backoff_base=0.0)
            with pytest.raises(WorkerCrashError) as info:
                pool.map(_always_crash, [1, 2])
            assert not info.value.retryable
            assert info.value.context["attempts"] >= 2
            assert pool.supervision["serial_fallbacks"] >= 1

    def test_serial_fallback_recovers(self):
        """When the retry budget is exhausted the task gets one last run in
        the parent; success there completes the map."""
        with WorkerPool(jobs=2, mode="thread", max_retries=1) as pool:
            pool.retry_policy = RetryPolicy(max_retries=1, backoff_base=0.0)
            assert pool.map(_crash_below_attempt_2, [5, 6]) == [105, 106]
            assert pool.supervision["serial_fallbacks"] == 2

    def test_shutdown_idempotent_and_context_manager(self):
        pool = WorkerPool(jobs=2, mode="thread")
        pool.map(_double, [1, 2])
        pool.shutdown()
        pool.shutdown()  # idempotent
        assert pool._executor is None
        with WorkerPool(jobs=2, mode="thread") as ctx_pool:
            assert ctx_pool.map(_double, [3, 4]) == [6, 8]
        assert ctx_pool._executor is None

    def test_junk_jobs_value_warns_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "three-ish")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
            assert resolve_jobs() == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs() == 1  # second resolve is silent


# -- evaluator-level retries --------------------------------------------------


class TestEvaluatorSupervision:
    def test_injected_evaluate_crash_retried_to_success(
        self, tiny_workload, mid_point, monkeypatch
    ):
        """rate=1.0 on attempt 0 only (via match of the re-rolled hash) is
        hard to express, so instead: a 50% rate with retries enabled must
        still evaluate every point (retries re-roll the hash)."""
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "8")
        clean = _make_evaluator(tiny_workload).evaluate(mid_point)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:evaluate:0.5:seed=3")
        faulty = _make_evaluator(tiny_workload).evaluate(mid_point)
        assert faulty.costs == clean.costs

    def test_injected_evaluate_crash_quarantines_at_rate_one(
        self, tiny_workload, mid_point, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "2")
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:evaluate:1.0")
        evaluator = _make_evaluator(tiny_workload)
        with pytest.raises(WorkerCrashError) as info:
            evaluator.evaluate(mid_point)
        assert not info.value.retryable
        assert info.value.context["attempts"] == 3
        assert info.value.context["point"] == dict(mid_point)
        # The failure was never cached; evaluations never counted it.
        assert evaluator.evaluations == 0
        assert evaluator.cache_size() == 0

    def test_mapper_failure_carries_layer_context(
        self, tiny_workload, mid_point, monkeypatch
    ):
        layer = tiny_workload.layers[0].name
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"crash:mapper:1.0:match={layer}"
        )
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        evaluator = _make_evaluator(tiny_workload)
        with pytest.raises(ReproError) as info:
            evaluator.evaluate(mid_point)
        assert info.value.context.get("key") == layer


# -- self-healing cache persistence ------------------------------------------


class TestCacheSelfHealing:
    def test_corrupt_file_quarantined_and_cold(self, tmp_path):
        path = tmp_path / "cache.pkl"
        path.write_bytes(b"\x00this is not a pickle")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = MappingCache(persist_path=str(path))
        assert cache.size() == 0
        assert not path.exists()
        assert (tmp_path / "cache.pkl.corrupt").exists()
        # The next cold start finds no file at all: no warning, no load.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            MappingCache(persist_path=str(path))

    def test_stale_version_ignored_quietly(self, tmp_path):
        path = tmp_path / "cache.pkl"
        with open(path, "wb") as handle:
            pickle.dump(
                {"version": PERSIST_VERSION + 1, "results": {}, "traces": {}},
                handle,
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = MappingCache(persist_path=str(path))
        assert cache.size() == 0
        assert path.exists()  # format evolution, not corruption

    def test_injected_load_corruption(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.pkl"
        cache = MappingCache(persist_path=str(path))
        cache.put_result(("k",), "value")
        cache.save()
        monkeypatch.setenv("REPRO_FAULT_INJECT", "corrupt:cache-load:1.0")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            reloaded = MappingCache(persist_path=str(path))
        assert reloaded.size() == 0
        assert (tmp_path / "cache.pkl.corrupt").exists()

    def test_injected_save_failure_raises(self, tmp_path, monkeypatch):
        cache = MappingCache(persist_path=str(tmp_path / "cache.pkl"))
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:cache-save:1.0")
        with pytest.raises(WorkerCrashError):
            cache.save()

    def test_roundtrip_still_works(self, tmp_path):
        path = tmp_path / "cache.pkl"
        cache = MappingCache(persist_path=str(path))
        cache.put_result(("key",), "result")
        cache.save()
        reloaded = MappingCache(persist_path=str(path))
        assert reloaded.get_result(("key",)) == "result"


# -- DSE quarantine and circuit breaker ---------------------------------------


class FailOnceEvaluator(CostEvaluator):
    """The 3rd unique evaluation raises a (non-retryable) cost-model bug."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failed_once = False

    def _evaluate_uncached(self, point):
        if not self.failed_once and self.evaluations >= 2:
            self.failed_once = True
            raise RuntimeError("injected cost-model bug")
        return super()._evaluate_uncached(point)


class BrokenAfterEvaluator(CostEvaluator):
    """Every evaluation after the Nth unique one fails (systemic fault)."""

    break_after = 2

    def _evaluate_uncached(self, point):
        if self.evaluations >= self.break_after:
            raise RuntimeError("systemic cost-model fault")
        return super()._evaluate_uncached(point)


class TestCandidateQuarantine:
    def test_failed_candidate_is_quarantined_and_campaign_continues(
        self, tmp_path, edge_space, tiny_workload
    ):
        journal = tmp_path / "run.jsonl"
        ckpt = default_checkpoint_path(journal)
        tracer = Tracer(JsonlSink(journal))
        evaluator = _make_evaluator(tiny_workload, cls=FailOnceEvaluator)
        result = ExplainableDSE(
            edge_space, evaluator, _constraints(), max_evaluations=25
        ).run(tracer=tracer, checkpoint_path=ckpt)
        tracer.close()

        quarantined = [
            t for t in result.trials if t.note.startswith("quarantined")
        ]
        assert len(quarantined) == 1
        trial = quarantined[0]
        assert not trial.feasible
        assert not trial.mappable
        assert trial.costs["latency_ms"] == float("inf")
        assert trial.costs["throughput"] == 0.0

        failures = [
            e for e in read_journal(journal) if isinstance(e, CandidateFailed)
        ]
        assert len(failures) == 1
        assert failures[0].error == "EvaluationError"
        assert "RuntimeError" in failures[0].message
        # A quarantined candidate can never be the returned best.
        assert result.best is not None
        assert result.best.point != trial.point
        # verify_against_journal counts CandidateFailed alongside
        # CandidateEvaluated when checking the trial ledger.
        verify_against_journal(load_checkpoint(ckpt), journal)

    def test_env_injected_fault_becomes_retried_then_quarantined_trial(
        self, tmp_path, edge_space, tiny_workload, monkeypatch
    ):
        """End-to-end acceptance path: a fault that fires on every retry
        of one candidate (rate=1.0 + match) surfaces as a quarantined
        trial with a CandidateFailed journal event recording the retry
        count — never an unhandled traceback — and the campaign
        completes around it."""
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", "crash:evaluate:1.0:match=pes=128"
        )
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "2")
        monkeypatch.setenv("REPRO_MAX_FAILURE_RATE", "1")
        journal = tmp_path / "run.jsonl"
        tracer = Tracer(JsonlSink(journal))
        result = ExplainableDSE(
            edge_space,
            _make_evaluator(tiny_workload),
            _constraints(),
            max_evaluations=20,
        ).run(tracer=tracer)
        tracer.close()

        failures = [
            e for e in read_journal(journal) if isinstance(e, CandidateFailed)
        ]
        assert failures
        assert all(f.point["pes"] == 128 for f in failures)
        assert all(f.attempts == 3 for f in failures)  # 1 try + 2 retries
        assert result.best is not None
        assert result.best.point["pes"] != 128

    def test_fault_free_run_has_no_failure_events(
        self, tmp_path, edge_space, tiny_workload
    ):
        journal = tmp_path / "clean.jsonl"
        tracer = Tracer(JsonlSink(journal))
        ExplainableDSE(
            edge_space,
            _make_evaluator(tiny_workload),
            _constraints(),
            max_evaluations=10,
        ).run(tracer=tracer)
        tracer.close()
        assert not any(
            isinstance(e, CandidateFailed) for e in read_journal(journal)
        )


class TestCircuitBreaker:
    def test_systemic_failures_trip_the_breaker(
        self, tmp_path, edge_space, tiny_workload, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MAX_FAILURE_RATE", "0.5")
        ckpt = tmp_path / "broken.ckpt"
        evaluator = _make_evaluator(tiny_workload, cls=BrokenAfterEvaluator)
        with pytest.raises(SystemicFaultError) as info:
            ExplainableDSE(
                edge_space, evaluator, _constraints(), max_evaluations=25
            ).run(checkpoint_path=str(ckpt))
        assert info.value.context["failures"] >= 3
        assert info.value.context["checkpoint"] == str(ckpt)
        # The abort went through the checkpoint path: state is resumable.
        checkpoint = load_checkpoint(ckpt)
        assert not checkpoint.finished
        assert checkpoint.trials  # quarantined trials are in the ledger

    def test_breaker_disabled_lets_campaign_degrade(
        self, edge_space, tiny_workload, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MAX_FAILURE_RATE", "1")
        evaluator = _make_evaluator(tiny_workload, cls=BrokenAfterEvaluator)
        result = ExplainableDSE(
            edge_space, evaluator, _constraints(), max_evaluations=25
        ).run()
        # Patience terminates the campaign; the early successes survive.
        assert result.best is not None
        assert any(t.note.startswith("quarantined") for t in result.trials)


class TestChaosIdentity:
    def test_injected_faults_with_retries_preserve_the_campaign(
        self, tmp_path, edge_space, tiny_workload, monkeypatch
    ):
        """With a 5% injected crash rate and retries enabled, the campaign
        trajectory (trials, incumbent, journal) is identical to the
        fault-free run — the acceptance criterion at test scale."""
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        ref_journal = tmp_path / "ref.jsonl"
        tracer = Tracer(JsonlSink(ref_journal))
        reference = ExplainableDSE(
            edge_space,
            _make_evaluator(tiny_workload),
            _constraints(),
            max_evaluations=20,
        ).run(tracer=tracer)
        tracer.close()

        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", "crash:evaluate:0.05:seed=7"
        )
        chaos_journal = tmp_path / "chaos.jsonl"
        tracer = Tracer(JsonlSink(chaos_journal))
        chaos = ExplainableDSE(
            edge_space,
            _make_evaluator(tiny_workload),
            _constraints(),
            max_evaluations=20,
        ).run(tracer=tracer)
        tracer.close()

        assert chaos.best.point == reference.best.point
        assert chaos.best.costs == reference.best.costs
        assert [t.costs for t in chaos.trials] == [
            t.costs for t in reference.trials
        ]
        assert chaos_journal.read_bytes() == ref_journal.read_bytes()
