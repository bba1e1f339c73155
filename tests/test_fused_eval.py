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

import functools
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cost.fused as fused_module
from repro.arch import build_edge_design_space, config_from_point
from repro.cost.batch import BatchLayerEvaluation, PlanStage, int64_safe
from repro.cost.evaluator import CostEvaluator
from repro.cost.fused import (
    FusedBlockEvaluation,
    PlanTerms,
    search_layers_fused,
    supports_fused,
)
from repro.mapping.mapper import (
    _TOP_N_PLANS,
    FixedDataflowMapper,
    RandomSearchMapper,
    TopNMapper,
    _top_n_terms,
    top_n_plan_terms,
)
from repro.perf.instrumentation import BatchEvalStats
from repro.perf.mapping_cache import MappingCache
from repro.perf.signature import layer_signature
from repro.workloads import (
    conv2d,
    depthwise_conv2d,
    gemm,
    load_workload,
)

from tests.test_batch_eval import (
    assert_mappings_identical,
    assert_outcomes_identical,
    assert_results_identical,
)
from tests.test_candidate_generation import (
    _configs as _plan_configs,
    _layers as _plan_layers,
    _plan_changes,
)


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
            expected = reference.search_with_trace(layer, mid_config)
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
            expected = reference.search_with_trace(layer, mid_config)
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
            expected = reference.search_with_trace(layer, tiny_config)
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
            expected = reference.search_with_trace(layer, mid_config)
            assert_results_identical(expected, result)

    def test_infeasibility_reasons_identical(self, tiny_config, resnet18):
        """Winner-less layers still report the scalar path's reason
        strings through the fused block's row diagnostics, which decode
        them from the memoized terms."""
        layer = resnet18.layer("conv3_x")
        mapper = TopNMapper(top_n=30)
        batch = mapper.candidate_plan(layer, tiny_config)
        terms = top_n_plan_terms(
            [layer], [mapper.plan_key(layer, tiny_config)], tiny_config
        )
        evaluation = FusedBlockEvaluation([layer], terms, tiny_config)
        assert len(evaluation) == len(batch)
        from repro.cost.latency import evaluate_layer_mapping

        saw_infeasible = False
        for row in range(len(batch)):
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


# -- the five steps of a fused block ------------------------------------------

_SPACE = build_edge_design_space()


@st.composite
def _edge_configs(draw):
    """Any point of the edge design space, NoC and bandwidth included."""
    point = _SPACE.minimum_point()
    for parameter in _SPACE.parameters:
        point[parameter.name] = draw(st.sampled_from(parameter.values))
    return config_from_point(point)


#: Mapper name -> factory ``(objective, batch_eval) -> mapper``.
_BLOCK_MAPPERS = {
    "top-n-1": lambda objective, batch_eval=True: TopNMapper(
        top_n=1, objective=objective, batch_eval=batch_eval
    ),
    "top-n-9": lambda objective, batch_eval=True: TopNMapper(
        top_n=9, objective=objective, batch_eval=batch_eval
    ),
    "top-n-150": lambda objective, batch_eval=True: TopNMapper(
        top_n=150, objective=objective, batch_eval=batch_eval
    ),
    "random": lambda objective, batch_eval=True: RandomSearchMapper(
        trials=30, seed=11, objective=objective, batch_eval=batch_eval
    ),
}
_OBJECTIVES = ("latency", "energy", "edp")


def _reference(make, layers, config):
    """The scalar reference's result of every layer, in order."""
    reference = make(batch_eval=False)
    return [reference.search_with_trace(layer, config) for layer in layers]


def _assert_block_matches(make, layers, config, expected, stats=None):
    """One fused block over ``layers`` equals ``expected`` (the scalar
    reference's results), mappings down to their value types."""
    fused, remaining = search_layers_fused(make(), layers, config, stats=stats)
    assert remaining == []
    assert [layer for layer, _ in fused] == list(layers)
    for (_, result), want in zip(fused, expected):
        assert_results_identical(want, result)
        if want.mapping is not None:
            assert_mappings_identical(want.mapping, result.mapping)
    return fused


@pytest.fixture
def cold_terms():
    """An empty terms memo, and an empty one again afterwards."""
    _top_n_terms.cache_clear()
    yield _top_n_terms
    _top_n_terms.cache_clear()


class TestFusedBlockSteps:
    @given(
        layers=st.lists(_plan_layers(), min_size=1, max_size=4),
        config=_edge_configs(),
        mapper=st.sampled_from(sorted(_BLOCK_MAPPERS)),
        objective=st.sampled_from(_OBJECTIVES),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_cold_warm_evicted_and_cleared(
        self, layers, config, mapper, objective
    ):
        """Every operator, stride 1-3 and edge-space config, every
        mapper and objective: the block equals the scalar reference
        whatever the terms memo holds."""
        make = functools.partial(_BLOCK_MAPPERS[mapper], objective)
        expected = _reference(make, layers, config)
        _top_n_terms.cache_clear()
        try:
            _assert_block_matches(make, layers, config, expected)  # cold
            _assert_block_matches(make, layers, config, expected)  # warm
            _top_n_terms.maxsize = 1  # each stored entry evicts the last
            _assert_block_matches(make, layers, config, expected)
            _assert_block_matches(make, layers, config, expected)
            _top_n_terms.maxsize = _TOP_N_PLANS
            _top_n_terms.cache_clear()
            _assert_block_matches(make, layers, config, expected)
        finally:
            _top_n_terms.maxsize = _TOP_N_PLANS
            _top_n_terms.cache_clear()

    @pytest.mark.parametrize("objective", _OBJECTIVES)
    def test_block_mixing_memoized_and_missing_layers(
        self, objective, cold_terms, resnet18, mid_config
    ):
        """Random-mapper and missing top-N plans are scored in one
        plan-stage pass beside memoized ones."""
        make = functools.partial(_BLOCK_MAPPERS["top-n-150"], objective)
        layers = list(resnet18.layers)
        search_layers_fused(make(), layers[::3], mid_config)
        before = cold_terms.cache_info()
        assert before.currsize == len(layers[::3])
        _assert_block_matches(
            make, layers, mid_config, _reference(make, layers, mid_config)
        )
        after = cold_terms.cache_info()
        assert after.hits - before.hits == len(layers[::3])
        assert after.misses - before.misses == len(layers) - len(layers[::3])
        assert after.currsize == len(layers)

    def test_layers_without_a_feasible_row(self, cold_terms, resnet18):
        """At 4096 PEs on the smallest NoC, the first nine top-N rows
        of every layer but ``fc`` fail, so the block's segments are
        empty, non-empty and empty again."""
        point = build_edge_design_space().minimum_point()
        point.update(pes=4096, l1_bytes=256, l2_kb=512)
        config = config_from_point(point)
        layers = [resnet18.layers[0], resnet18.layer("fc"), resnet18.layers[1]]
        for objective in _OBJECTIVES:
            make = functools.partial(_BLOCK_MAPPERS["top-n-9"], objective)
            expected = _reference(make, layers, config)
            assert [r.feasible_candidates for r in expected] == [0, 5, 0]
            for _ in range(2):  # cold, then warm
                fused = _assert_block_matches(make, layers, config, expected)
                for (_, result), want in zip(fused, expected):
                    assert result.candidates_evaluated == 9
                    if not want.feasible_candidates:
                        assert (result.mapping, result.execution) == (
                            None,
                            None,
                        )

    @pytest.mark.parametrize("mapper", ["top-n-9", "random"])
    def test_int64_unsafe_plan_is_handed_back(
        self, mapper, cold_terms, monkeypatch, mid_config
    ):
        """A plan whose traffic could overflow int64 goes back to the
        per-layer path as a fused fallback; a top-N plan's verdict is
        stored with its terms and computed once."""
        huge = gemm("huge", 2**20, 2**20, 2**12)
        small = gemm("small", 64, 128, 8)
        verdicts = []
        plan_int64_safe = fused_module._batch.plan_int64_safe

        def counted(*args):
            verdicts.append(plan_int64_safe(*args))
            return verdicts[-1]

        monkeypatch.setattr(fused_module._batch, "plan_int64_safe", counted)
        make = functools.partial(_BLOCK_MAPPERS[mapper], "latency")
        plan = make().candidate_plan(huge, mid_config)
        assert not int64_safe(plan, mid_config)
        (expected,) = _reference(make, [small], mid_config)
        stats = BatchEvalStats()
        for rep in (1, 2):
            fused, remaining = search_layers_fused(
                make(), [huge, small], mid_config, stats=stats
            )
            assert remaining == [huge]
            assert [layer for layer, _ in fused] == [small]
            assert_results_identical(expected, fused[0][1])
            assert stats.fused_fallbacks == rep
            assert stats.fused_layers == rep
        top_n = mapper != "random"
        assert verdicts == ([False, True] if top_n else [])
        assert cold_terms.cache_info().currsize == (2 if top_n else 0)


class TestPlanTermsMemo:
    @given(
        layer=_plan_layers(),
        config=_plan_configs(),
        top_n=st.sampled_from([1, 9, 150]),
    )
    @settings(max_examples=20, deadline=None)
    def test_keys_on_exactly_the_plan_key(self, layer, config, top_n):
        """Changing the NoC width, either unicast map, the bandwidth or
        the clock (or the layer's name or repeats) reuses the stored
        terms; changing any of the nine key fields misses.  Every
        result equals the scalar reference on its own config."""
        _top_n_terms.cache_clear()
        try:
            budgets = {"top_n": top_n, "max_spatial": 16}
            make = functools.partial(TopNMapper, **budgets)
            search_layers_fused(make(), [layer], config)
            assert _top_n_terms.cache_info()[:2] == (0, 1)
            for field, layer2, config2, changes, read in _plan_changes(
                layer, config
            ):
                changed = functools.partial(
                    TopNMapper, **{**budgets, **changes}
                )
                before = _top_n_terms.cache_info()
                _assert_block_matches(
                    changed,
                    [layer2],
                    config2,
                    _reference(changed, [layer2], config2),
                )
                after = _top_n_terms.cache_info()
                assert after.misses - before.misses == int(read), field
                assert after.hits - before.hits == int(not read), field
        finally:
            _top_n_terms.cache_clear()

    def test_entries_are_read_only(self, cold_terms, resnet18, mid_config):
        layer = resnet18.layer("conv3_x")
        mapper = TopNMapper(top_n=150)
        search_layers_fused(mapper, [layer], mid_config)
        entry = cold_terms.get(mapper.plan_key(layer, mid_config))
        assert isinstance(entry, PlanTerms) and entry.int64_safe
        arrays = [value for value in entry if isinstance(value, np.ndarray)]
        assert len(arrays) == 15
        assert not any(array.flags.writeable for array in arrays)
        tilings, rows = len(entry.table), len(entry.row)
        for name in ("t_comp", "fail_code", "pes_used", "padded_out_bytes"):
            assert getattr(entry, name).shape == (tilings,), name
        for name in (
            "groups", "rf_bytes", "spm_bytes", "spm_relevant", "dram_relevant"
        ):
            assert getattr(entry, name).shape == (tilings, 3), name
        assert entry.events.shape == (rows, 4)
        assert entry.dram_fetches.shape == (rows, 3)
        assert entry.offchip_total.shape == (rows,)
        # The terms stay within about 15 KB of a 150-row plan.
        terms = sum(array.nbytes for array in arrays[3:])
        assert rows == 150 and terms <= 15 * 1024
        assert cold_terms.maxsize == _TOP_N_PLANS

    def test_per_layer_search_fills_one_entry_per_plan_key(
        self, cold_terms, resnet18, mid_config
    ):
        """A per-layer top-N search stores one entry per plan key and
        every later search of that key reads it, whatever its
        objective; the scalar reference touches none."""
        reference = TopNMapper(top_n=60, batch_eval=False)
        for layer in resnet18.layers:
            reference.search_with_trace(layer, mid_config)
        assert cold_terms.cache_info() == (0, 0, _TOP_N_PLANS, 0)

        keys = [
            reference.plan_key(layer, mid_config) for layer in resnet18.layers
        ]
        for objective in _OBJECTIVES:
            mapper = TopNMapper(top_n=60, objective=objective)
            for layer in resnet18.layers:
                mapper.search_with_trace(layer, mid_config)
        info = cold_terms.cache_info()
        assert info.misses == info.currsize == len(set(keys))
        assert info.hits == len(_OBJECTIVES) * len(keys) - len(set(keys))

    def test_threads_share_the_memo_safely(
        self, cold_terms, monkeypatch, resnet18, mid_config
    ):
        """More threads than cores, switching every microsecond, on a
        memo bound that forces evictions: no count is lost, the bound
        holds and every block still equals the scalar reference."""
        layers = list(resnet18.layers)
        make = functools.partial(_BLOCK_MAPPERS["top-n-9"], "latency")
        expected = _reference(make, layers, mid_config)
        monkeypatch.setattr(cold_terms, "maxsize", 4)
        threads_, blocks = 8, 10
        errors = []

        def worker(shift):
            try:
                order = layers[shift:] + layers[:shift]
                want = expected[shift:] + expected[:shift]
                for _ in range(blocks):
                    _assert_block_matches(make, order, mid_config, want)
            except Exception as exc:  # re-raised below, in the test thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=worker, args=(k % len(layers),))
                for k in range(threads_)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert errors == []
        info = cold_terms.cache_info()
        assert info.hits + info.misses == threads_ * blocks * len(layers)
        assert info.currsize <= 4


class TestFusedBlockMechanism:
    """What a block computes, pinned with spies."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = {"kernel_rows": [], "plan_rows": [], "infos": [], "plans": 0}
        score = BatchLayerEvaluation._score
        plan_init = PlanStage.__init__
        infos = BatchLayerEvaluation.execution_infos
        candidate_plan = TopNMapper.candidate_plan

        def spied_score(self, layer, batch, *args, **kwargs):
            calls["kernel_rows"].append(len(batch))
            return score(self, layer, batch, *args, **kwargs)

        def spied_plan_init(self, cands, *args, **kwargs):
            calls["plan_rows"].append(len(cands))
            return plan_init(self, cands, *args, **kwargs)

        def spied_infos(self, indices):
            calls["infos"].append(len(indices))
            return infos(self, indices)

        def spied_candidate_plan(self, *args):
            calls["plans"] += 1
            return candidate_plan(self, *args)

        monkeypatch.setattr(BatchLayerEvaluation, "_score", spied_score)
        monkeypatch.setattr(PlanStage, "__init__", spied_plan_init)
        monkeypatch.setattr(
            BatchLayerEvaluation, "execution_infos", spied_infos
        )
        monkeypatch.setattr(TopNMapper, "candidate_plan", spied_candidate_plan)
        return calls

    @staticmethod
    def _reset(spies):
        for key in spies:
            spies[key] = [] if isinstance(spies[key], list) else 0

    def test_warm_latency_block_gathers_its_winners(
        self, cold_terms, spies, resnet18, mid_config
    ):
        """A cold block scores its plans' rows in one plan-stage pass; a
        warm one scores nothing and gathers one winner per layer, all
        in one call, without a ``CandidateBatch`` gather."""
        layers = list(resnet18.layers)
        mapper = TopNMapper(top_n=150)
        search_layers_fused(mapper, layers, mid_config)
        rows = sum(
            len(mapper.candidate_plan(layer, mid_config)) for layer in layers
        )
        assert spies["plan_rows"] == [rows]  # the misses, in one pass
        assert spies["kernel_rows"] == []
        self._reset(spies)
        fused, _ = search_layers_fused(mapper, layers, mid_config)
        assert all(result.feasible for _, result in fused)
        assert spies == {
            "kernel_rows": [],
            "plan_rows": [],
            "infos": [len(layers)],  # one winner per layer, one call
            "plans": 0,
        }

    @pytest.mark.parametrize("objective", ["energy", "edp"])
    def test_energy_edp_blocks_gather_feasible_rows(
        self, objective, cold_terms, spies, resnet18, mid_config
    ):
        """Energy and EDP gather each layer's feasible rows, one layer
        at a time, and re-score none of them."""
        layers = list(resnet18.layers)
        mapper = TopNMapper(top_n=60, objective=objective)
        search_layers_fused(mapper, layers, mid_config)
        self._reset(spies)
        fused, _ = search_layers_fused(mapper, layers, mid_config)
        assert spies["kernel_rows"] == spies["plan_rows"] == []
        assert spies["infos"] == [
            result.feasible_candidates for _, result in fused
        ]

    @pytest.mark.parametrize("objective", _OBJECTIVES)
    def test_warm_per_layer_search_gathers_its_picked_rows(
        self, objective, cold_terms, spies, resnet18, mid_config
    ):
        """A per-layer top-N search scores its plan once, on the memo
        miss; a warm search scores nothing and gathers its winner (or
        its feasible rows for energy and EDP)."""
        layer = resnet18.layer("conv3_x")
        mapper = TopNMapper(top_n=150, objective=objective)
        mapper.search_with_trace(layer, mid_config)
        assert spies["plan_rows"] == [150]
        self._reset(spies)
        hits = cold_terms.cache_info().hits
        result = mapper.search_with_trace(layer, mid_config)
        gathered = 1 if objective == "latency" else result.feasible_candidates
        assert result.feasible_candidates > 1
        assert spies == {
            "kernel_rows": [],
            "plan_rows": [],
            "infos": [gathered],
            "plans": 0,
        }
        assert cold_terms.cache_info()[:2] == (hits + 1, 1)

    def test_random_mapper_search_scores_its_plan_once(
        self, spies, resnet18, mid_config
    ):
        """Random plans are never memoized: each search runs the whole
        kernel over its rows once, and the terms memo is not touched."""
        layer = resnet18.layer("conv3_x")
        mapper = RandomSearchMapper(trials=40, seed=7)
        before = _top_n_terms.cache_info()
        for _ in range(2):
            mapper.search_with_trace(layer, mid_config)
            assert spies["kernel_rows"] == spies["plan_rows"] == [40]
            assert spies["infos"] == [1]
            self._reset(spies)
        assert _top_n_terms.cache_info() == before


class TestEveryLayerEveryPath:
    @pytest.mark.parametrize("objective", _OBJECTIVES)
    @pytest.mark.parametrize("model", ["resnet18", "efficientnetb0"])
    def test_per_layer_fused_and_scalar_results_equal(
        self, model, objective, cold_terms, mid_config
    ):
        """Every layer of ResNet18 and EfficientNet-B0: the per-layer
        search (cold, then warm), the fused block and the scalar
        reference give equal results."""
        layers = list(load_workload(model).layers)
        make = functools.partial(TopNMapper, top_n=60, objective=objective)
        expected = _reference(make, layers, mid_config)
        for _ in range(2):  # memo cold, then warm
            per_layer = make()
            for layer, want in zip(layers, expected):
                got = per_layer.search_with_trace(layer, mid_config)
                assert_results_identical(want, got)
        _assert_block_matches(make, layers, mid_config, expected)
