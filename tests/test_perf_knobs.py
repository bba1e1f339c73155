"""Validation tests for the fast-path environment knobs.

``REPRO_FUSED_EVAL``, ``REPRO_TREE_COMPILE``, ``REPRO_BATCH_EVAL``,
``REPRO_MAPPING_CACHE``, ``REPRO_CACHE_PLANE``, ``REPRO_SHM_EVAL``,
``REPRO_FUSED_SHARDS``, and ``REPRO_SHM_MIN_ROWS`` follow the
``resolve_jobs`` contract: junk values never raise — they warn once
(per knob, per value) and fall back to the safe path.  Valid
values are memoized per raw string (hot paths re-read knobs), junk
values are not (clearing ``_WARNED`` must re-warn).
"""

import warnings

import pytest

from repro.cost.batch import batch_eval_enabled
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.perf import knobs


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in (
        "REPRO_FUSED_EVAL",
        "REPRO_TREE_COMPILE",
        "REPRO_BATCH_EVAL",
        "REPRO_MAPPING_CACHE",
        "REPRO_CACHE_PLANE",
        "REPRO_SHM_EVAL",
        "REPRO_FUSED_SHARDS",
        "REPRO_SHM_MIN_ROWS",
        "REPRO_JOBS",
        "REPRO_SERVICE_MAX_CONCURRENT",
        "REPRO_SERVICE_STEP_QUANTUM",
        "REPRO_TENANT_QUOTA",
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


def _batch_eval_on(workload) -> bool:
    return batch_eval_enabled()


def _mapping_cache_on(workload) -> bool:
    evaluator = CostEvaluator(workload, TopNMapper(top_n=8))
    return evaluator.mapping_cache is not None


#: Default-on paths whose knob is parsed at its point of use.
_DEFAULT_ON_PATHS = pytest.mark.parametrize(
    "name,path_on",
    [("REPRO_BATCH_EVAL", _batch_eval_on),
     ("REPRO_MAPPING_CACHE", _mapping_cache_on)],
    ids=["batch-eval", "mapping-cache"],
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


class TestShmKnobs:
    def test_shm_eval_defaults_off(self):
        assert knobs.shm_eval_enabled() is False

    def test_shm_eval_env_and_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_EVAL", "1")
        assert knobs.shm_eval_enabled() is True
        assert knobs.shm_eval_enabled(override=False) is False

    def test_shm_eval_junk_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_EVAL", "warp-speed")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_SHM_EVAL"):
            assert knobs.shm_eval_enabled() is False

    def test_fused_shards_defaults_to_resolved_jobs(self, monkeypatch):
        assert knobs.fused_shards() == 1  # REPRO_JOBS default is serial
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert knobs.fused_shards() == 3

    def test_fused_shards_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_SHARDS", "5")
        assert knobs.fused_shards() == 5

    @pytest.mark.parametrize("raw", ["auto", "0", "AUTO"])
    def test_fused_shards_auto_selects_cpu_count(self, monkeypatch, raw):
        import os

        monkeypatch.setenv("REPRO_FUSED_SHARDS", raw)
        assert knobs.fused_shards() == max(1, os.cpu_count() or 1)

    def test_fused_shards_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_SHARDS", "5")
        assert knobs.fused_shards(2) == 2
        assert knobs.fused_shards(0) == 1  # clamped to at least one

    def test_fused_shards_junk_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_SHARDS", "many")
        monkeypatch.setenv("REPRO_JOBS", "2")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_FUSED_SHARDS"):
            assert knobs.fused_shards() == 2

    def test_fused_shards_negative_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_SHARDS", "-4")
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_FUSED_SHARDS"):
            assert knobs.fused_shards() == 1

    def test_min_rows_default(self):
        assert knobs.shm_min_shard_rows() == 4096

    def test_min_rows_env_and_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_ROWS", "128")
        assert knobs.shm_min_shard_rows() == 128
        assert knobs.shm_min_shard_rows(7) == 7
        assert knobs.shm_min_shard_rows(0) == 1  # clamped

    @pytest.mark.parametrize("raw", ["tiny", "-1", "0"])
    def test_min_rows_junk_warns_and_falls_back(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SHM_MIN_ROWS", raw)
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_SHM_MIN_ROWS"):
            assert knobs.shm_min_shard_rows() == 4096


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


class TestCachePlaneDir:
    def test_unset_disables(self):
        assert knobs.cache_plane_dir() is None

    @pytest.mark.parametrize("raw", ["", "  ", "0", "off", "false", "no"])
    def test_empty_and_false_spellings_disable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CACHE_PLANE", raw)
        assert knobs.cache_plane_dir() is None

    def test_directory_is_created_and_returned(self, monkeypatch, tmp_path):
        target = tmp_path / "plane" / "nested"
        monkeypatch.setenv("REPRO_CACHE_PLANE", str(target))
        assert knobs.cache_plane_dir() == str(target)
        assert target.is_dir()

    def test_existing_file_warns_and_disables(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        monkeypatch.setenv("REPRO_CACHE_PLANE", str(blocker))
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_CACHE_PLANE"):
            assert knobs.cache_plane_dir() is None

    def test_uncreatable_path_warns_and_disables(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        monkeypatch.setenv("REPRO_CACHE_PLANE", str(blocker / "child"))
        knobs._WARNED.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_CACHE_PLANE"):
            assert knobs.cache_plane_dir() is None
