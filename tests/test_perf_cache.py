"""Tests for the layer-level mapping cache (repro.perf).

The load-bearing property: the cache must be invisible in the results —
an in-process hit and a disk warm-start return bit-identical costs
versus a cold search.
"""

import json
import os
import pickle
import subprocess
import sys
import warnings

import pytest

from repro.arch.accelerator import config_from_point
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import (
    FixedDataflowMapper,
    RandomSearchMapper,
    TopNMapper,
    _top_n_terms,
)
from repro.perf import (
    CachingMapper,
    MappingCache,
    config_signature,
    layer_signature,
    mapper_signature,
)
from repro.perf.mapping_cache import PERSIST_VERSION

ALL_MAPPERS = [
    lambda: FixedDataflowMapper(),
    lambda: TopNMapper(top_n=40),
    lambda: RandomSearchMapper(trials=30, seed=3),
    lambda: TopNMapper(top_n=40, objective="edp"),
]


def _bw_variant(point, bw):
    p = dict(point)
    p["offchip_bw_mbps"] = bw
    return p


class TestSignatures:
    def test_full_signature_includes_bandwidth(self, mid_point):
        a = config_from_point(mid_point)
        b = config_from_point(_bw_variant(mid_point, 1024))
        c = config_from_point(mid_point, freq_mhz=800)
        assert a.offchip_bw_mbps in config_signature(a)
        assert len({config_signature(x) for x in (a, b, c)}) == 3

    def test_full_signature_tracks_search_fields(self, mid_point):
        a = config_from_point(mid_point)
        changed = dict(mid_point)
        changed["pes"] = 2048
        b = config_from_point(changed)
        assert config_signature(a) != config_signature(b)

    def test_layer_signature_excludes_name_by_default(self, conv_layer):
        renamed = layer_signature(conv_layer)
        assert conv_layer.name not in renamed
        assert conv_layer.name in layer_signature(
            conv_layer, include_name=True
        )

    def test_mapper_signatures_distinguish_settings(self):
        assert mapper_signature(TopNMapper(top_n=10)) != mapper_signature(
            TopNMapper(top_n=20)
        )
        assert mapper_signature(RandomSearchMapper(seed=0)) != mapper_signature(
            RandomSearchMapper(seed=1)
        )
        assert mapper_signature(lambda layer, config: None) is None

    def test_builtin_mappers_are_cacheable(self):
        for factory in ALL_MAPPERS:
            CachingMapper(factory(), MappingCache())


class TestMappingCacheStore:
    def test_lru_bounds_results(self):
        cache = MappingCache(max_results=2)
        for i in range(4):
            cache.put_result(("k", i), f"r{i}")
        assert cache.size() == 2
        assert cache.get_result(("k", 0)) is None
        assert cache.get_result(("k", 3)) == "r3"

    def test_lru_recency_on_get(self):
        cache = MappingCache(max_results=2)
        cache.put_result(("a",), 1)
        cache.put_result(("b",), 2)
        cache.get_result(("a",))  # refresh 'a'
        cache.put_result(("c",), 3)
        assert cache.get_result(("a",)) == 1
        assert cache.get_result(("b",)) is None

    def test_persistence_roundtrip(self, tmp_path, conv_layer, mid_config):
        path = str(tmp_path / "cache.pkl")
        cache = MappingCache(persist_path=path)
        cold = TopNMapper(top_n=25)(conv_layer, mid_config)
        CachingMapper(TopNMapper(top_n=25), cache).store(
            conv_layer, mid_config, cold
        )
        cache.save()
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert sorted(payload) == ["results", "version"]
        assert payload["version"] == PERSIST_VERSION == 4

        warm_cache = MappingCache(persist_path=path)
        assert warm_cache.size() == 1
        warm_mapper = CachingMapper(TopNMapper(top_n=25), warm_cache)
        warm = warm_mapper.lookup(conv_layer, mid_config)
        assert warm_mapper.exact_hits == 1
        assert warm_mapper.misses == 0
        assert warm == cold

    def test_corrupt_persistence_ignored(self, tmp_path):
        path = tmp_path / "cache.pkl"
        path.write_bytes(b"not a pickle")
        cache = MappingCache(persist_path=str(path))
        assert cache.size() == 0

    def test_version_2_pickle_is_skipped(
        self, tmp_path, conv_layer, mid_config
    ):
        """A version-2 file (traces of whole-kernel arrays) is skipped,
        not loaded and not quarantined."""
        self._assert_skipped(2, tmp_path, conv_layer, mid_config)

    def test_version_3_pickle_is_skipped(
        self, tmp_path, conv_layer, mid_config
    ):
        """A version-3 file (results and re-score traces of plan terms)
        is skipped, not loaded and not quarantined."""
        self._assert_skipped(3, tmp_path, conv_layer, mid_config)

    @staticmethod
    def _assert_skipped(version, tmp_path, conv_layer, mid_config):
        path = tmp_path / "cache.pkl"
        result = TopNMapper(top_n=25)(conv_layer, mid_config)
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "version": version,
                    "results": {("exact",): result},
                    "traces": {("rescore",): object()},
                },
                handle,
            )
        assert PERSIST_VERSION == 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = MappingCache(persist_path=str(path))
        assert cache.size() == 0
        assert path.exists()
        assert not (tmp_path / "cache.pkl.corrupt").exists()


#: One fresh interpreter's run: evaluate a fixed design point of a
#: two-layer workload on the shared cache, print misses and costs.
_PERSIST_SNIPPET = """
import json
from repro.arch.accelerator import build_edge_design_space
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.workloads import Workload, conv2d, gemm

point = build_edge_design_space().minimum_point()
point.update(pes=1024, l1_bytes=256, l2_kb=512, offchip_bw_mbps=8192,
             noc_datawidth=128)
for op in ("I", "W", "O", "PSUM"):
    point[f"phys_unicast_{op}"] = 16
    point[f"virt_unicast_{op}"] = 64
workload = Workload(
    name="tiny",
    layers=(conv2d("conv", 16, 32, (14, 14)), gemm("fc", 64, 32 * 14 * 14, 1)),
    total_layers=2,
    task="test",
)
evaluator = CostEvaluator(workload, TopNMapper(top_n=40))
result = evaluator.evaluate(point)
print(json.dumps({"misses": evaluator.mapping_cache_misses,
                  "costs": result.costs}))
"""


class TestPersistenceAcrossProcesses:
    def _run(self, cache_dir) -> dict:
        env = dict(os.environ)
        env["REPRO_MAPPING_CACHE_DIR"] = str(cache_dir)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", _PERSIST_SNIPPET],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    def test_second_process_warm_starts_from_pickle(self, tmp_path):
        """``shared_cache()`` saves at exit and the next interpreter
        serves every layer search from that file."""
        cold = self._run(tmp_path)
        assert cold["misses"] == 2
        assert (tmp_path / "mapping_cache.pkl").is_file()
        warm = self._run(tmp_path)
        assert warm["misses"] == 0
        assert warm["costs"] == cold["costs"]


def _search_and_store(cached, layer, config):
    """Run ``cached``'s mapper on ``layer`` and store the result, as
    ``CostEvaluator`` does after a lookup misses."""
    result = cached.mapper(layer, config)
    cached.store(layer, config, result)
    return result


class TestCachingMapperIdentity:
    @pytest.mark.parametrize("factory", ALL_MAPPERS)
    def test_exact_hit_matches_cold(self, factory, conv_layer, mid_config):
        cold = factory()(conv_layer, mid_config)
        cached = CachingMapper(factory(), MappingCache())
        assert cached.lookup(conv_layer, mid_config) is None
        first = _search_and_store(cached, conv_layer, mid_config)
        second = cached.lookup(conv_layer, mid_config)
        assert second is first
        assert cached.misses == 1 and cached.exact_hits == 1
        for result in (first, second):
            assert result.latency == cold.latency
            assert result.mapping == cold.mapping
            assert result.candidates_evaluated == cold.candidates_evaluated
            assert result.feasible_candidates == cold.feasible_candidates

    @pytest.mark.parametrize("factory", ALL_MAPPERS)
    def test_bandwidth_rescore_matches_cold(
        self, factory, conv_layer, mid_point
    ):
        """A config differing only in off-chip bandwidth or clock gets
        exactly the cold-search result.  It misses the cache; a top-N
        search on it re-scores the plan's memoized terms."""
        cached = CachingMapper(factory(), MappingCache())
        _search_and_store(cached, conv_layer, config_from_point(mid_point))
        variants = [
            config_from_point(_bw_variant(mid_point, bw))
            for bw in (1024, 6400, 51200)
        ]
        variants.append(config_from_point(mid_point, freq_mhz=800))
        for variant in variants:
            assert cached.lookup(conv_layer, variant) is None
            warm = _search_and_store(cached, conv_layer, variant)
            _top_n_terms.cache_clear()
            assert warm == factory()(conv_layer, variant)
        assert cached.exact_hits == 0
        assert cached.misses == 1 + len(variants)

    def test_bandwidth_variant_is_a_miss(self, tiny_workload, mid_point):
        evaluator = CostEvaluator(
            tiny_workload, TopNMapper(top_n=30), mapping_cache=MappingCache()
        )
        evaluator.evaluate(mid_point)
        evaluator.evaluate(_bw_variant(mid_point, 1024))
        assert evaluator.mapping_cache_hits == 0
        assert evaluator.mapping_cache_misses == 2 * len(tiny_workload.layers)

    def test_rejects_untraceable_mapper(self):
        with pytest.raises(TypeError):
            CachingMapper(lambda layer, config: None, MappingCache())


class TestEvaluatorCacheCorrectness:
    def _points(self, mid_point):
        points = []
        for pes in (512, 1024):
            for bw in (1024, 8192, 51200):
                p = dict(mid_point)
                p["pes"] = pes
                p["offchip_bw_mbps"] = bw
                points.append(p)
        return points

    @pytest.mark.parametrize(
        "factory",
        [lambda: TopNMapper(top_n=30), lambda: RandomSearchMapper(trials=20)],
    )
    def test_cached_costs_identical_to_cold(
        self, factory, tiny_workload, mid_point
    ):
        """Property: the layer cache never changes Evaluation.costs.  The
        second sweep repeats every point on a new evaluator over the same
        cache, so each of its layer searches is a hit."""
        cold = CostEvaluator(
            tiny_workload, factory(), use_mapping_cache=False
        )
        cache = MappingCache()
        for _ in range(2):
            warm = CostEvaluator(tiny_workload, factory(), mapping_cache=cache)
            for point in self._points(mid_point):
                a = cold.evaluate(point)
                b = warm.evaluate(point)
                assert a.costs == b.costs
                assert a.mappable == b.mappable
        assert warm.mapping_cache_misses == 0
        assert warm.mapping_cache_hits == 6 * len(tiny_workload.layers)

    def test_cross_evaluator_sharing(self, tiny_workload, mid_point):
        cache = MappingCache()
        first = CostEvaluator(
            tiny_workload, TopNMapper(top_n=30), mapping_cache=cache
        )
        first.evaluate(mid_point)
        second = CostEvaluator(
            tiny_workload, TopNMapper(top_n=30), mapping_cache=cache
        )
        evaluation = second.evaluate(dict(mid_point))
        assert second.mapping_cache_hits == len(tiny_workload.layers)
        assert second.mapping_cache_misses == 0
        assert evaluation.costs == first.evaluate(mid_point).costs


def _half_warm_evaluator(workload, point):
    """An evaluator whose cache already holds ``point``'s searches, made
    by another evaluator: evaluating ``point`` and then a bandwidth
    variant of it serves half of its layer searches from the cache."""
    cache = MappingCache()
    CostEvaluator(workload, TopNMapper(top_n=30), mapping_cache=cache).evaluate(
        point
    )
    return CostEvaluator(workload, TopNMapper(top_n=30), mapping_cache=cache)


class TestCountersAndReporting:
    def test_counters_and_reset(self, tiny_workload, mid_point):
        evaluator = _half_warm_evaluator(tiny_workload, mid_point)
        evaluator.evaluate(mid_point)
        variant = _bw_variant(mid_point, 1024)
        evaluator.evaluate(variant)
        assert evaluator.mapping_cache_misses == len(tiny_workload.layers)
        assert evaluator.mapping_cache_hits == len(tiny_workload.layers)
        assert 0.0 < evaluator.mapping_cache_hit_rate < 1.0
        assert evaluator.mapping_cache_size() > 0
        assert evaluator.evaluations_per_second > 0

        summary = evaluator.perf_summary()
        assert summary["mapping_cache"]["enabled"]
        assert summary["mapping_cache"]["hit_rate"] == pytest.approx(0.5)
        assert summary["mapping_cache"]["rescore_hits"] == 0
        assert "traces" not in summary["mapping_cache"]
        assert "mapping" in summary["stages"]

        evaluator.reset_counters()
        assert evaluator.mapping_cache_hits == 0
        assert evaluator.mapping_cache_misses == 0
        assert evaluator.evaluations == 0
        # Caches survive the counter reset.
        assert evaluator.cache_size() == 2
        assert evaluator.mapping_cache_size() > 0

    def test_disabled_cache_counters_are_zero(self, tiny_workload, mid_point):
        evaluator = CostEvaluator(
            tiny_workload, TopNMapper(top_n=30), use_mapping_cache=False
        )
        evaluator.evaluate(mid_point)
        assert evaluator.mapping_cache is None
        assert evaluator.mapping_cache_hit_rate == 0.0
        assert evaluator.mapping_cache_size() == 0
        assert not evaluator.perf_summary()["mapping_cache"]["enabled"]

    def test_run_summary_reports_hit_rate(self, tiny_workload, mid_point):
        from repro.core.dse.result import DSEResult
        from repro.experiments.reporting import format_run_summary

        evaluator = _half_warm_evaluator(tiny_workload, mid_point)
        evaluator.evaluate(mid_point)
        evaluator.evaluate(_bw_variant(mid_point, 1024))
        result = DSEResult(
            technique="test",
            model="tiny",
            trials=[],
            best=None,
            evaluations=2,
            wall_seconds=0.1,
        )
        text = format_run_summary(result, evaluator)
        assert "mapping cache: 2 hits, 2 misses (hit rate 50%" in text

    def test_legacy_callable_mapper_still_works(
        self, tiny_workload, mid_point
    ):
        """Plain-callable mappers bypass the cache but keep working."""
        base = TopNMapper(top_n=30)
        evaluator = CostEvaluator(
            tiny_workload, lambda layer, config: base(layer, config)
        )
        assert evaluator.mapping_cache is None
        assert evaluator.evaluate(mid_point).mappable
