"""Equivalence tests for the fused cross-layer evaluation fast path.

The contract under test: with ``REPRO_FUSED_EVAL`` on or off, a
campaign step over a multi-layer workload returns *bit-identical*
results — same per-layer mappings, same ``ExecutionInfo`` values and
Python types, same candidate/feasibility accounting, same design-point
costs.  The fused path concatenates every pending layer's candidate set
into one SoA block (:mod:`repro.cost.fused`) and must be
indistinguishable from the per-layer reference loop in everything but
speed.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import build_edge_design_space, config_from_point
from repro.cost.evaluator import CostEvaluator
from repro.cost.fused import (
    FusedBlockEvaluation,
    search_layers_fused,
    supports_fused,
)
from repro.mapping.batch_candidates import FusedCandidateBlock
from repro.mapping.mapper import (
    FixedDataflowMapper,
    RandomSearchMapper,
    TopNMapper,
)
from repro.perf.instrumentation import BatchEvalStats
from repro.perf.mapping_cache import MappingCache
from repro.perf.signature import layer_signature
from repro.workloads import (
    Workload,
    conv2d,
    depthwise_conv2d,
    gemm,
    load_workload,
)

from tests.test_batch_eval import (
    assert_outcomes_identical,
    assert_results_identical,
)


def _workload(layers) -> Workload:
    return Workload(name="fused-test", layers=tuple(layers))


# -- randomized multi-layer workloads ------------------------------------------

_conv_strategy = st.builds(
    conv2d,
    name=st.just("conv"),
    in_channels=st.sampled_from([4, 8, 16, 32]),
    out_channels=st.sampled_from([8, 16, 64]),
    output_hw=st.sampled_from([(7, 7), (14, 14), (13, 9)]),
    kernel=st.sampled_from([(1, 1), (3, 3)]),
    stride=st.sampled_from([1, 2]),
)
_dwise_strategy = st.builds(
    depthwise_conv2d,
    name=st.just("dw"),
    channels=st.sampled_from([8, 32, 64]),
    output_hw=st.sampled_from([(7, 7), (14, 14)]),
    stride=st.sampled_from([1, 2]),
)
_gemm_strategy = st.builds(
    gemm,
    name=st.just("fc"),
    rows=st.sampled_from([16, 64, 256]),
    inner=st.sampled_from([32, 128]),
    cols=st.sampled_from([1, 8]),
)
_layers_strategy = st.lists(
    st.one_of(_conv_strategy, _dwise_strategy, _gemm_strategy),
    min_size=2,
    max_size=5,
)


def _uniquify(layers):
    """Distinct names (Workload requires them) without changing shapes."""
    import dataclasses

    return [
        dataclasses.replace(layer, name=f"l{i}_{layer.name}")
        for i, layer in enumerate(layers)
    ]


@pytest.fixture(scope="module")
def tiny_config():
    return config_from_point(build_edge_design_space().minimum_point())


def _top_n(**kwargs):
    return TopNMapper(top_n=60, **kwargs)


def _random(**kwargs):
    return RandomSearchMapper(trials=40, seed=7, **kwargs)


class TestSearchLayersFused:
    @pytest.mark.parametrize(
        "make_mapper,objective",
        [
            pytest.param(_top_n, "latency", id="top-n"),
            pytest.param(_random, "latency", id="random"),
            pytest.param(_top_n, "energy", id="top-n-energy"),
            pytest.param(_random, "energy", id="random-energy"),
            pytest.param(_top_n, "edp", id="top-n-edp"),
            pytest.param(_random, "edp", id="random-edp"),
        ],
    )
    def test_fused_matches_per_layer_search(
        self, make_mapper, objective, mid_config, resnet18
    ):
        """Every mapping objective: the fused block's winners are the
        scalar reference's."""
        layers = list(resnet18.layers)
        fused, remaining = search_layers_fused(
            make_mapper(objective=objective), layers, mid_config
        )
        assert remaining == []
        assert [layer for layer, _ in fused] == layers
        reference = make_mapper(objective=objective, batch_eval=False)
        for layer, result in fused:
            expected, _trace = reference.search_with_trace(layer, mid_config)
            assert_results_identical(expected, result)

    @given(layers=_layers_strategy)
    @settings(max_examples=25, deadline=None)
    def test_randomized_workloads_identical(self, layers, mid_config):
        layers = _uniquify(layers)
        fused, remaining = search_layers_fused(
            TopNMapper(top_n=40), layers, mid_config
        )
        assert remaining == []
        reference = TopNMapper(top_n=40, batch_eval=False)
        for layer, result in fused:
            expected, _trace = reference.search_with_trace(layer, mid_config)
            assert_results_identical(expected, result)

    @given(layers=_layers_strategy)
    @settings(max_examples=10, deadline=None)
    def test_randomized_workloads_identical_on_tiny_hw(
        self, layers, tiny_config
    ):
        """The minimum point drives many candidates infeasible, so the
        infeasibility reasons and empty-result paths are exercised."""
        layers = _uniquify(layers)
        fused, remaining = search_layers_fused(
            TopNMapper(top_n=40), layers, tiny_config
        )
        assert remaining == []
        reference = TopNMapper(top_n=40, batch_eval=False)
        for layer, result in fused:
            expected, _trace = reference.search_with_trace(layer, tiny_config)
            assert_results_identical(expected, result)

    def test_random_mapper_searches_each_name(self, resnet18, mid_config):
        """The random mapper seeds its stream with the layer name, so
        same-shape layers with different names are all searched."""
        layers = _uniquify([resnet18.layer("conv3_x")] * 3)
        stats = BatchEvalStats()
        fused, remaining = search_layers_fused(
            _random(), layers, mid_config, stats=stats
        )
        assert remaining == []
        assert stats.fused_layers == 3
        assert stats.fused_candidates == 3 * 40
        reference = _random(batch_eval=False)
        for layer, result in fused:
            expected, _trace = reference.search_with_trace(layer, mid_config)
            assert_results_identical(expected, result)

    def test_infeasibility_reasons_identical(self, tiny_config, resnet18):
        """Winner-less layers still report the scalar path's reason
        strings through the fused block's row diagnostics."""
        layer = resnet18.layer("conv3_x")
        batch = TopNMapper(top_n=30).candidate_plan(layer, tiny_config)
        block = FusedCandidateBlock.from_layer_batches([layer], [batch])
        evaluation = FusedBlockEvaluation(block, tiny_config)
        from repro.cost.latency import evaluate_layer_mapping

        saw_infeasible = False
        for row in range(len(block)):
            outcome = evaluate_layer_mapping(
                layer, batch.mapping(row), tiny_config
            )
            if bool(evaluation.feasible[row]):
                assert not hasattr(outcome, "reason")
            else:
                saw_infeasible = True
                assert_outcomes_identical(outcome, evaluation.infeasibility(row))
        assert saw_infeasible  # the minimum point must reject candidates


class TestEvaluatorIntegration:
    def _evaluate(self, workload, point, batch_eval=True, **kwargs):
        evaluator = CostEvaluator(
            workload,
            TopNMapper(top_n=50, batch_eval=batch_eval),
            use_mapping_cache=False,
            **kwargs,
        )
        return evaluator.evaluate(point), evaluator

    def test_design_point_costs_identical(self, resnet18, mid_point):
        reference, _ = self._evaluate(
            resnet18, mid_point, batch_eval=False, fused_eval=False
        )
        fused, evaluator = self._evaluate(resnet18, mid_point, fused_eval=True)
        assert reference.costs == fused.costs
        assert reference.mappable == fused.mappable
        for name in reference.layer_results:
            assert_results_identical(
                reference.layer_results[name], fused.layer_results[name]
            )
        stats = evaluator.batch_eval_stats
        assert stats.fused_blocks == 1
        assert stats.fused_layers == len(resnet18.layers)
        assert stats.fused_candidates > 0

    def test_env_knob_matches_explicit_override(
        self, resnet18, mid_point, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FUSED_EVAL", "1")
        via_env, _ = self._evaluate(resnet18, mid_point)
        monkeypatch.delenv("REPRO_FUSED_EVAL")
        via_flag, _ = self._evaluate(resnet18, mid_point, fused_eval=True)
        assert via_env.costs == via_flag.costs

    def test_mapping_cache_seeded_by_fused_results(self, resnet18, mid_point):
        from repro.perf.mapping_cache import MappingCache

        evaluator = CostEvaluator(
            resnet18,
            TopNMapper(top_n=50),
            mapping_cache=MappingCache(),
            fused_eval=True,
        )
        evaluator.evaluate(mid_point)
        assert evaluator.mapping_cache_misses == len(resnet18.layers)
        assert evaluator.mapping_cache.size() == len(resnet18.layers)
        # a re-evaluation of the same config is served from the cache
        evaluator2 = CostEvaluator(
            resnet18,
            TopNMapper(top_n=50),
            mapping_cache=evaluator.mapping_cache,
            fused_eval=True,
        )
        reference = CostEvaluator(
            resnet18,
            TopNMapper(top_n=50),
            use_mapping_cache=False,
            fused_eval=False,
        )
        warm = evaluator2.evaluate(mid_point)
        cold = reference.evaluate(mid_point)
        assert evaluator2.mapping_cache_hits == len(resnet18.layers)
        assert warm.costs == cold.costs

    def test_repeated_shapes_count_as_exact_hits(self, mid_point):
        """A layer served by an earlier same-shape layer of its block is
        an exact hit, as the per-layer path counts it, so ``misses``
        equals the searches run."""
        transformer = load_workload("transformer")
        distinct = len({layer_signature(l) for l in transformer.layers})
        repeats = len(transformer.layers) - distinct
        evaluators = [
            CostEvaluator(
                transformer,
                TopNMapper(top_n=50),
                mapping_cache=MappingCache(),
                fused_eval=fused_eval,
            )
            for fused_eval in (True, False)
        ]
        fused, per_layer = (e.evaluate(mid_point) for e in evaluators)
        assert fused.costs == per_layer.costs
        for evaluator in evaluators:
            cache = evaluator.perf_summary()["mapping_cache"]
            assert cache["misses"] == distinct
            assert cache["exact_hits"] == repeats
            assert cache["entries"] == distinct
        assert evaluators[0].batch_eval_stats.fused_layers == distinct

    def test_unsupported_mapper_falls_back_silently(self, resnet18, mid_point):
        fixed = FixedDataflowMapper()
        assert not supports_fused(fixed)
        evaluator = CostEvaluator(
            resnet18, fixed, use_mapping_cache=False, fused_eval=True
        )
        reference = CostEvaluator(
            resnet18, FixedDataflowMapper(), use_mapping_cache=False
        )
        assert (
            evaluator.evaluate(mid_point).costs
            == reference.evaluate(mid_point).costs
        )

    def test_fused_failure_warns_and_uses_reference_path(
        self, resnet18, mid_point, monkeypatch
    ):
        import repro.cost.fused as fused_module

        def boom(*args, **kwargs):
            raise ValueError("injected fused defect")

        monkeypatch.setattr(fused_module, "search_layers_fused", boom)
        evaluator = CostEvaluator(
            resnet18,
            TopNMapper(top_n=50),
            use_mapping_cache=False,
            fused_eval=True,
        )
        reference = CostEvaluator(
            resnet18, TopNMapper(top_n=50), use_mapping_cache=False
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = evaluator.evaluate(mid_point)
        assert any(
            "fused cross-layer evaluation failed" in str(w.message)
            for w in caught
        )
        assert result.costs == reference.evaluate(mid_point).costs
        assert evaluator.batch_eval_stats.fused_fallbacks == len(
            resnet18.layers
        )

    def test_perf_summary_reports_fused_flags(self, resnet18, mid_point):
        _, evaluator = self._evaluate(resnet18, mid_point, fused_eval=True)
        section = evaluator.perf_summary()["batch_eval"]
        assert section["fused_supported"] is True
        assert section["fused_enabled"] is True
        off = CostEvaluator(
            resnet18, TopNMapper(top_n=50), use_mapping_cache=False
        )
        assert off.perf_summary()["batch_eval"]["fused_enabled"] is False


class TestSupportsFused:
    def test_candidate_plan_mappers_supported(self):
        assert supports_fused(TopNMapper(top_n=5))
        assert supports_fused(RandomSearchMapper(trials=5, seed=1))

    def test_energy_objective_runs_fused(self, resnet18, mid_point):
        """Energy mappers take the fused block too, with the scalar
        reference's design-point costs."""
        evaluator = CostEvaluator(
            resnet18,
            TopNMapper(top_n=50, objective="energy"),
            use_mapping_cache=False,
            fused_eval=True,
        )
        reference = CostEvaluator(
            resnet18,
            TopNMapper(top_n=50, objective="energy", batch_eval=False),
            use_mapping_cache=False,
        )
        assert (
            evaluator.evaluate(mid_point).costs
            == reference.evaluate(mid_point).costs
        )
        assert evaluator.batch_eval_stats.fused_blocks == 1

    def test_fixed_dataflow_unsupported(self):
        assert not supports_fused(FixedDataflowMapper())
