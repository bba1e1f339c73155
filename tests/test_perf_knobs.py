"""Validation tests for the fast-path environment knobs.

``REPRO_JOBS``, ``REPRO_FUSED_EVAL``, ``REPRO_TREE_COMPILE``,
``REPRO_MAPPING_CACHE``, the mapping-cache capacity,
``REPRO_MAPPING_CACHE_DIR``, the service knobs, the retry/breaker
knobs, ``REPRO_BENCH_SCALE`` and ``REPRO_FAULT_INJECT`` share one
contract: junk values never raise — they warn once (per knob, per
value) and fall back to the safe path.  Valid values are memoized per
raw string (hot paths re-read knobs), junk values are not (clearing
``_WARNED`` must re-warn).
"""

import os
import warnings

import pytest

from repro.core.dse.constraints import Constraint
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.experiments.setup import bench_scale, run_explainable_dse
from repro.mapping.mapper import TopNMapper
from repro.perf import MappingCache, knobs, resolve_jobs, shared_cache
from repro.perf import mapping_cache as mapping_cache_module
from repro.resilience.supervisor import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_MAX_FAILURE_RATE,
    DEFAULT_MAX_RETRIES,
    FailureRateBreaker,
    RetryPolicy,
    resolve_task_timeout,
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in (
        "REPRO_FUSED_EVAL",
        "REPRO_TREE_COMPILE",
        "REPRO_MAPPING_CACHE",
        "REPRO_MAPPING_CACHE_DIR",
        "REPRO_MAPPING_CACHE_RESULTS",
        "REPRO_JOBS",
        "REPRO_SERVICE_MAX_CONCURRENT",
        "REPRO_SERVICE_STEP_QUANTUM",
        "REPRO_SERVICE_MAX_QUEUE",
        "REPRO_SERVICE_TENANT_INFLIGHT",
        "REPRO_TENANT_QUOTA",
        "REPRO_TASK_TIMEOUT",
        "REPRO_MAX_RETRIES",
        "REPRO_RETRY_BACKOFF",
        "REPRO_MAX_FAILURE_RATE",
        "REPRO_BENCH_SCALE",
        "REPRO_FAULT_INJECT",
    ):
        monkeypatch.delenv(name, raising=False)


class TestEnvFlag:
    def test_defaults(self):
        assert knobs.fused_eval_enabled() is False  # opt-in
        assert knobs.tree_compile_enabled() is True  # default on

    @pytest.mark.parametrize("raw", ["1", "true", "ON", "Yes"])
    def test_true_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FUSED_EVAL", raw)
        assert knobs.fused_eval_enabled() is True

    @pytest.mark.parametrize("raw", ["0", "false", "OFF", "no"])
    def test_false_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TREE_COMPILE", raw)
        assert knobs.tree_compile_enabled() is False

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_EVAL", "0")
        assert knobs.fused_eval_enabled(override=True) is True
        monkeypatch.setenv("REPRO_TREE_COMPILE", "1")
        assert knobs.tree_compile_enabled(override=False) is False

    def test_junk_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_EVAL", "turbo")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_FUSED_EVAL"):
            assert knobs.fused_eval_enabled() is False  # safe default

    def test_junk_preserves_on_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TREE_COMPILE", "sideways")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_TREE_COMPILE"):
            assert knobs.tree_compile_enabled() is True  # default stays on

    def test_junk_warns_only_once_per_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_EVAL", "banana")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning):
            knobs.fused_eval_enabled()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert knobs.fused_eval_enabled() is False  # silent repeat

    def test_junk_rewarns_after_warned_reset(self, monkeypatch):
        """The valid-value memo must not swallow junk: clearing the
        warn-once ledger re-warns (junk parses are never cached)."""
        monkeypatch.setenv("REPRO_FUSED_EVAL", "sideways-again")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_FUSED_EVAL"):
            knobs.fused_eval_enabled()
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_FUSED_EVAL"):
            knobs.fused_eval_enabled()

    def test_valid_values_tracked_across_env_changes(self, monkeypatch):
        """The memo is keyed by raw value, so flipping the environment is
        picked up immediately."""
        monkeypatch.setenv("REPRO_FUSED_EVAL", "1")
        assert knobs.fused_eval_enabled() is True
        monkeypatch.setenv("REPRO_FUSED_EVAL", "0")
        assert knobs.fused_eval_enabled() is False
        monkeypatch.delenv("REPRO_FUSED_EVAL")
        assert knobs.fused_eval_enabled() is False


def _mapping_cache_on(workload) -> bool:
    evaluator = CostEvaluator(workload, TopNMapper(top_n=8))
    return evaluator.mapping_cache is not None


#: Default-on paths whose knob is parsed at its point of use.
_DEFAULT_ON_PATHS = pytest.mark.parametrize(
    "name,path_on",
    [("REPRO_MAPPING_CACHE", _mapping_cache_on)],
    ids=["mapping-cache"],
)


class TestDefaultOnPathKnobs:
    @_DEFAULT_ON_PATHS
    @pytest.mark.parametrize("raw", ["off", "false", "NO"])
    def test_off_spellings(self, monkeypatch, tiny_workload, name, path_on,
                           raw):
        monkeypatch.setenv(name, raw)
        assert path_on(tiny_workload) is False

    @_DEFAULT_ON_PATHS
    def test_junk_warns_once_and_stays_on(self, monkeypatch, tiny_workload,
                                          name, path_on):
        monkeypatch.setenv(name, "sometimes")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match=name):
            assert path_on(tiny_workload) is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert path_on(tiny_workload) is True


class TestMappingCacheCapacityKnobs:
    @pytest.mark.parametrize(
        "name,attr,default",
        [("REPRO_MAPPING_CACHE_RESULTS", "max_results", 32768)],
        ids=["results"],
    )
    @pytest.mark.parametrize("raw", ["-1", "0", "lots"])
    def test_invalid_env_warns_once_and_uses_default(
        self, monkeypatch, name, attr, default, raw
    ):
        monkeypatch.setenv(name, raw)
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match=name):
            assert getattr(MappingCache(), attr) == default
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert getattr(MappingCache(), attr) == default

    def test_valid_env_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAPPING_CACHE_RESULTS", "64")
        assert MappingCache().max_results == 64

    @pytest.mark.parametrize("kwargs", [{"max_results": 0},
                                        {"max_results": -3}])
    def test_explicit_capacity_below_one_rejected(self, kwargs):
        with pytest.raises(ValueError, match="at least 1"):
            MappingCache(**kwargs)

    def test_negative_capacity_campaign_completes(
        self, monkeypatch, edge_space, tiny_workload
    ):
        """A negative capacity used to pop from an empty LRU on the first
        store, failing every layer search with ``KeyError``."""
        monkeypatch.setenv("REPRO_MAPPING_CACHE_RESULTS", "-1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cache = MappingCache()
        evaluator = CostEvaluator(
            tiny_workload, TopNMapper(top_n=8), mapping_cache=cache
        )
        result = ExplainableDSE(
            edge_space,
            evaluator,
            [Constraint("area", "area_mm2", 75.0)],
            max_evaluations=2,
        ).run()
        assert result.evaluations == 2
        assert not any(t.note.startswith("quarantined") for t in result.trials)


class TestServiceKnobs:
    def test_defaults(self):
        assert knobs.service_max_concurrent() == 4
        assert knobs.service_step_quantum() == 1
        assert knobs.tenant_step_quota() is None  # unlimited

    def test_env_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_MAX_CONCURRENT", "8")
        monkeypatch.setenv("REPRO_SERVICE_STEP_QUANTUM", "3")
        monkeypatch.setenv("REPRO_TENANT_QUOTA", "50")
        assert knobs.service_max_concurrent() == 8
        assert knobs.service_step_quantum() == 3
        assert knobs.tenant_step_quota() == 50

    def test_overrides_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_MAX_CONCURRENT", "8")
        monkeypatch.setenv("REPRO_SERVICE_STEP_QUANTUM", "3")
        assert knobs.service_max_concurrent(2) == 2
        assert knobs.service_step_quantum(5) == 5
        assert knobs.tenant_step_quota(9) == 9
        assert knobs.tenant_step_quota(None) is None

    @pytest.mark.parametrize("raw", ["0", "none", "unlimited", "NONE", ""])
    def test_quota_unlimited_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TENANT_QUOTA", raw)
        assert knobs.tenant_step_quota() is None

    @pytest.mark.parametrize(
        "name,func,fallback",
        [
            ("REPRO_SERVICE_MAX_CONCURRENT", "service_max_concurrent", 4),
            ("REPRO_SERVICE_STEP_QUANTUM", "service_step_quantum", 1),
            ("REPRO_SERVICE_MAX_QUEUE", "service_max_queue", 64),
            ("REPRO_SERVICE_TENANT_INFLIGHT", "service_tenant_inflight", 8),
        ],
    )
    def test_junk_warns_and_falls_back(
        self, monkeypatch, name, func, fallback
    ):
        monkeypatch.setenv(name, "lots")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match=name):
            assert getattr(knobs, func)() == fallback

    def test_quota_junk_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TENANT_QUOTA", "infinite")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_TENANT_QUOTA"):
            assert knobs.tenant_step_quota() is None

    def test_junk_warns_once_per_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_STEP_QUANTUM", "-2")
        knobs._WARNED.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            knobs.service_step_quantum()
            knobs.service_step_quantum()
        assert len(caught) == 1

    def test_valid_values_memoized(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_MAX_CONCURRENT", "6")
        knobs._INT_CACHE.clear()
        assert knobs.service_max_concurrent() == 6
        assert ("REPRO_SERVICE_MAX_CONCURRENT", "6") in knobs._INT_CACHE
        # Junk is never cached: it keeps flowing through warn-once.
        monkeypatch.setenv("REPRO_SERVICE_MAX_CONCURRENT", "junk")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning):
            knobs.service_max_concurrent()
        assert (
            "REPRO_SERVICE_MAX_CONCURRENT",
            "junk",
        ) not in knobs._INT_CACHE


class TestMappingCacheDir:
    def test_unset_disables(self):
        assert knobs.mapping_cache_dir() is None

    @pytest.mark.parametrize("raw", ["", "  ", "0", "off", "false", "no"])
    def test_empty_and_false_spellings_disable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_MAPPING_CACHE_DIR", raw)
        assert knobs.mapping_cache_dir() is None

    def test_directory_is_created_and_returned(self, monkeypatch, tmp_path):
        target = tmp_path / "cache" / "nested"
        monkeypatch.setenv("REPRO_MAPPING_CACHE_DIR", str(target))
        assert knobs.mapping_cache_dir() == str(target)
        assert target.is_dir()

    def test_existing_file_warns_and_disables(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        monkeypatch.setenv("REPRO_MAPPING_CACHE_DIR", str(blocker))
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_MAPPING_CACHE_DIR"):
            assert knobs.mapping_cache_dir() is None

    def test_uncreatable_path_warns_and_disables(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        monkeypatch.setenv("REPRO_MAPPING_CACHE_DIR", str(blocker / "child"))
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_MAPPING_CACHE_DIR"):
            assert knobs.mapping_cache_dir() is None

    @pytest.mark.parametrize("raw", ["0", "off"])
    def test_shared_cache_does_not_persist_when_off(self, monkeypatch, raw):
        """``0`` and ``off`` disable the warm-start; they do not name a
        directory ``./0`` or ``./off``."""
        monkeypatch.setattr(mapping_cache_module, "_SHARED", None)
        monkeypatch.setenv("REPRO_MAPPING_CACHE_DIR", raw)
        assert shared_cache().persist_path is None


class TestJobsKnob:
    def test_negative_warns_and_runs_serially(self, monkeypatch):
        """Junk already warns (tests/test_resilience.py); a negative
        count must too, instead of silently running serially."""
        monkeypatch.setenv("REPRO_JOBS", "-3")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
            assert resolve_jobs() == 1

    @pytest.mark.parametrize("raw", ["auto", "0", "00"])
    def test_auto_and_zero_mean_every_core(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs() == (os.cpu_count() or 1)


#: (knob, reader, default) of the numeric knobs parsed by
#: ``knobs.numeric_knob``; each reader goes through the production caller.
_NUMERIC_KNOBS = pytest.mark.parametrize(
    "name,read,default",
    [
        ("REPRO_TASK_TIMEOUT", lambda: resolve_task_timeout(), None),
        ("REPRO_MAX_RETRIES", lambda: RetryPolicy.from_env().max_retries,
         DEFAULT_MAX_RETRIES),
        ("REPRO_RETRY_BACKOFF", lambda: RetryPolicy.from_env().backoff_base,
         DEFAULT_BACKOFF_BASE),
        ("REPRO_MAX_FAILURE_RATE",
         lambda: FailureRateBreaker().max_failure_rate,
         DEFAULT_MAX_FAILURE_RATE),
        ("REPRO_BENCH_SCALE", bench_scale, 1.0),
    ],
    ids=["timeout", "retries", "backoff", "failure-rate", "bench-scale"],
)


class TestNumericKnobs:
    @_NUMERIC_KNOBS
    @pytest.mark.parametrize("raw", ["abc", "inf", "-inf", "nan", "1e999"])
    def test_junk_and_non_finite_warn_once_and_use_default(
        self, monkeypatch, name, read, default, raw
    ):
        monkeypatch.setenv(name, raw)
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match=name):
            assert read() == default
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read() == default

    @_NUMERIC_KNOBS
    @pytest.mark.parametrize("raw", ["", "  "])
    def test_blank_is_default_without_warning(
        self, monkeypatch, name, read, default, raw
    ):
        monkeypatch.setenv(name, raw)
        knobs._WARNED.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read() == default

    def test_valid_values_and_existing_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "-4")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "-1")
        monkeypatch.setenv("REPRO_MAX_FAILURE_RATE", "0.25")
        monkeypatch.setenv("REPRO_BENCH_SCALE", "10")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy = RetryPolicy.from_env()
            assert policy.task_timeout == 2.5
            assert policy.max_retries == 0  # clamped, not rejected
            assert policy.backoff_base == 0.0  # clamped, not rejected
            assert FailureRateBreaker().max_failure_rate == 0.25
            assert bench_scale() == 10.0

    def test_nan_failure_rate_keeps_the_breaker_on(self, monkeypatch):
        """``nan < 1.0`` is False, so a NaN rate used to switch the
        breaker off without a word."""
        monkeypatch.setenv("REPRO_MAX_FAILURE_RATE", "nan")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert FailureRateBreaker().enabled

    def test_infinite_backoff_still_retries_injected_faults(self, monkeypatch):
        """``REPRO_RETRY_BACKOFF=inf`` used to make the first retry's
        ``time.sleep`` raise, so retryable faults were quarantined."""
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", "crash:evaluate:0.12:seed=11"
        )
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "inf")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_explainable_dse("resnet18", iterations=10)
        quarantined = [
            t for t in result.trials if t.note.startswith("quarantined")
        ]
        assert quarantined == []
        assert result.evaluations == 10
