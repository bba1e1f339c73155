"""Equivalence and property tests for the vectorized batch evaluator.

The contract under test: with ``REPRO_BATCH_EVAL`` on or off, every
built-in mapper returns *bit-identical* results — same mappings, same
``ExecutionInfo`` values **and Python types**, same infeasibility
reasons, same candidate counts, same re-scorable traces.
"""

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import build_edge_design_space, config_from_point
from repro.cost.batch import (
    batch_eval_enabled,
    evaluate_layer_batch,
    evaluate_layer_mappings_batch,
    int64_safe,
)
from repro.cost.evaluator import CostEvaluator
from repro.cost.execution_info import ExecutionInfo, InfeasibleMapping
from repro.cost.latency import evaluate_layer_mapping
from repro.mapping.batch_candidates import CandidateBatch, CandidateSpec
from repro.mapping.mapper import (
    FixedDataflowMapper,
    MAPPING_OBJECTIVES,
    RandomSearchMapper,
    TopNMapper,
    rescore_trace,
)
from repro.mapping.mapping import padded_bounds, padded_bounds_tuple
from repro.perf.instrumentation import BatchEvalStats
from repro.workloads.layers import (
    LOOP_DIMS,
    conv2d,
    depthwise_conv2d,
    gemm,
)

# Deterministic property-test inputs: one layer per operator type and a
# small and a mid-range hardware point, so both feasible and every
# infeasible branch are exercised.
_LAYERS = (
    conv2d("conv", 16, 32, (14, 14)),
    conv2d("strided", 8, 16, (7, 7), stride=2),
    depthwise_conv2d("dw", 32, (14, 14)),
    gemm("fc", 64, 128, 1),
)


def _tiny_config():
    return config_from_point(build_edge_design_space().minimum_point())


_CONFIGS = None


def _configs():
    global _CONFIGS
    if _CONFIGS is None:
        space = build_edge_design_space()
        mid = space.minimum_point()
        mid.update(
            pes=1024, l1_bytes=256, l2_kb=512,
            offchip_bw_mbps=8192, noc_datawidth=128,
        )
        for op in ("I", "W", "O", "PSUM"):
            mid[f"phys_unicast_{op}"] = 16
            mid[f"virt_unicast_{op}"] = 64
        _CONFIGS = (
            config_from_point(space.minimum_point()),
            config_from_point(mid),
        )
    return _CONFIGS


def assert_outcomes_identical(scalar, batch):
    """Outcome equality including Python types and dict insertion order."""
    assert type(scalar) is type(batch)
    if isinstance(scalar, InfeasibleMapping):
        assert scalar.reason == batch.reason
        assert scalar.operand == batch.operand
        return
    for field, sv in scalar.__dict__.items():
        bv = batch.__dict__[field]
        assert type(sv) is type(bv), field
        if isinstance(sv, dict):
            assert list(sv) == list(bv), field
            for key in sv:
                assert type(sv[key]) is type(bv[key]), (field, key)
                assert sv[key] == bv[key], (field, key)
        else:
            assert sv == bv, field


def assert_mappings_identical(expected, got):
    """Mapping equality including Python value types and dict key order."""
    assert got == expected
    assert list(got.factors) == list(expected.factors)
    for level, factors in expected.factors.items():
        assert list(got.factors[level]) == list(factors), level
        assert all(type(f) is int for f in got.factors[level].values())
    assert got.dram_stationary is expected.dram_stationary
    assert got.spm_stationary is expected.spm_stationary


def assert_results_identical(scalar, batch):
    assert scalar.candidates_evaluated == batch.candidates_evaluated
    assert scalar.feasible_candidates == batch.feasible_candidates
    assert (scalar.mapping is None) == (batch.mapping is None)
    if scalar.mapping is not None:
        assert scalar.mapping == batch.mapping
        assert_outcomes_identical(scalar.execution, batch.execution)


def _spec_grid():
    """~200 deterministic candidate specs spanning all stationarities."""
    factor_sets = [(1, 1, 2, 2, 2, 1, 1), (1, 4, 4, 1, 1, 1, 1),
                   (2, 2, 2, 2, 2, 2, 2), (1, 8, 1, 4, 4, 1, 1)]
    specs = []
    for dram, spm, spatial, rf in itertools.islice(
        itertools.product(factor_sets, repeat=4), 64
    ):
        for dram_code, spm_code in itertools.product(range(3), range(3)):
            specs.append(CandidateSpec(dram, spm, spatial, rf,
                                       dram_code, spm_code))
    return specs


_spec_strategy = st.builds(
    CandidateSpec,
    dram=st.tuples(*[st.integers(1, 4)] * 7),
    spm=st.tuples(*[st.integers(1, 4)] * 7),
    spatial=st.tuples(*[st.integers(1, 6)] * 7),
    rf=st.tuples(*[st.integers(1, 4)] * 7),
    dram_code=st.integers(0, 2),
    spm_code=st.integers(0, 2),
)


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("objective", sorted(MAPPING_OBJECTIVES))
    @pytest.mark.parametrize(
        "make_mapper",
        [
            lambda obj, be: TopNMapper(top_n=80, objective=obj,
                                       batch_eval=be),
            lambda obj, be: RandomSearchMapper(trials=60, seed=3,
                                               objective=obj, batch_eval=be),
        ],
        ids=["top-n", "random"],
    )
    def test_mapper_results_and_traces_identical(
        self, make_mapper, objective, conv_layer, mid_config
    ):
        s_res, s_trace = make_mapper(objective, False).search_with_trace(
            conv_layer, mid_config
        )
        b_res, b_trace = make_mapper(objective, True).search_with_trace(
            conv_layer, mid_config
        )
        assert_results_identical(s_res, b_res)
        assert s_trace.candidates_evaluated == b_trace.candidates_evaluated
        assert len(s_trace.feasible) == len(b_trace.feasible)
        for (sm, se), (bm, be) in zip(s_trace.feasible, b_trace.feasible):
            assert sm == bm
            assert_outcomes_identical(se, be)

    def test_gemm_layer_identical(self, gemm_layer, mid_config):
        scalar = TopNMapper(top_n=80, batch_eval=False)(gemm_layer, mid_config)
        batch = TopNMapper(top_n=80, batch_eval=True)(gemm_layer, mid_config)
        assert_results_identical(scalar, batch)

    def test_env_knob_matches_explicit_override(
        self, conv_layer, mid_config, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BATCH_EVAL", "0")
        via_env = TopNMapper(top_n=40)(conv_layer, mid_config)
        monkeypatch.setenv("REPRO_BATCH_EVAL", "1")
        via_batch = TopNMapper(top_n=40)(conv_layer, mid_config)
        assert_results_identical(via_env, via_batch)

    def test_rescore_trace_parity_across_paths(
        self, mid_point, conv_layer, mid_config
    ):
        """Traces from either path re-score identically on new bandwidth,
        and match a cold search there — the mapping-cache contract."""
        shifted_point = dict(mid_point, offchip_bw_mbps=2048)
        shifted = config_from_point(shifted_point)
        for objective in sorted(MAPPING_OBJECTIVES):
            _, s_trace = TopNMapper(
                top_n=80, objective=objective, batch_eval=False
            ).search_with_trace(conv_layer, mid_config)
            _, b_trace = TopNMapper(
                top_n=80, objective=objective, batch_eval=True
            ).search_with_trace(conv_layer, mid_config)
            s_rescored = rescore_trace(conv_layer, shifted, s_trace, objective)
            b_rescored = rescore_trace(conv_layer, shifted, b_trace, objective)
            assert_results_identical(s_rescored, b_rescored)
            cold = TopNMapper(top_n=80, objective=objective, batch_eval=True)(
                conv_layer, shifted
            )
            assert_results_identical(cold, b_rescored)

    def test_deterministic_spec_grid_outcomes(self):
        specs = _spec_grid()
        mappings = [spec.to_mapping() for spec in specs]
        for layer in _LAYERS:
            for config in _configs():
                batched = evaluate_layer_mappings_batch(
                    layer, mappings, config
                )
                assert len(batched) == len(mappings)
                for mapping, outcome in zip(mappings, batched):
                    scalar = evaluate_layer_mapping(layer, mapping, config)
                    assert_outcomes_identical(scalar, outcome)

    @settings(max_examples=60, deadline=None)
    @given(spec=_spec_strategy, layer_index=st.integers(0, len(_LAYERS) - 1),
           config_index=st.integers(0, 1))
    def test_property_random_specs(self, spec, layer_index, config_index):
        layer = _LAYERS[layer_index]
        config = _configs()[config_index]
        mapping = spec.to_mapping()
        scalar = evaluate_layer_mapping(layer, mapping, config)
        batch = evaluate_layer_mappings_batch(layer, [mapping], config)[0]
        assert_outcomes_identical(scalar, batch)


class TestBatchPrimitives:
    def test_empty_batch(self, conv_layer, mid_config):
        batch = CandidateBatch.from_specs(())
        assert len(batch) == 0
        assert int64_safe(batch, mid_config)
        evaluation = evaluate_layer_batch(conv_layer, batch, mid_config)
        assert len(evaluation) == 0
        assert evaluation.feasible_indices.size == 0
        assert evaluate_layer_mappings_batch(conv_layer, [], mid_config) == []

    def test_round_trip_through_mappings(self):
        specs = _spec_grid()[:30]
        mappings = [spec.to_mapping() for spec in specs]
        batch = CandidateBatch.from_mappings(mappings)
        assert len(batch) == len(mappings)
        for i, mapping in enumerate(mappings):
            assert_mappings_identical(mapping, batch.mapping(i))

    def test_int64_safe_rejects_huge_factors(self, mid_config):
        huge = (2 ** 12,) * 7
        batch = CandidateBatch.from_specs(
            [CandidateSpec(huge, huge, huge, huge, 0, 0)]
        )
        assert not int64_safe(batch, mid_config)

    def test_int64_fallback_still_identical(self, conv_layer, mid_config):
        """An unsafe batch silently falls back to the scalar path."""
        huge = (2 ** 12,) * 7
        specs = [CandidateSpec(huge, huge, huge, huge, 0, 0)]
        specs += _spec_grid()[:20]
        mapper = TopNMapper(top_n=80, batch_eval=True)

        import repro.mapping.mapper as mapper_mod

        batch = CandidateBatch.from_specs(specs)
        result, trace = mapper_mod._best_of_traced(
            conv_layer, mid_config, batch, stats=mapper.batch_stats,
        )
        assert mapper.batch_stats.int64_fallbacks == 1
        assert mapper.batch_stats.scalar_searches == 1
        scalar_result, scalar_trace = mapper_mod._best_of_traced(
            conv_layer, mid_config, batch, batch_eval=False,
        )
        assert_results_identical(scalar_result, result)
        assert trace.candidates_evaluated == scalar_trace.candidates_evaluated

    def test_batch_eval_enabled_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_EVAL", raising=False)
        assert batch_eval_enabled()
        monkeypatch.setenv("REPRO_BATCH_EVAL", "0")
        assert not batch_eval_enabled()
        assert batch_eval_enabled(True)
        monkeypatch.setenv("REPRO_BATCH_EVAL", "1")
        assert batch_eval_enabled()
        assert not batch_eval_enabled(False)


class TestPaddedBoundsMemo:
    def test_memoized_and_read_only(self, conv_layer):
        first = padded_bounds(conv_layer)
        assert padded_bounds(conv_layer) is first
        with pytest.raises(TypeError):
            first[LOOP_DIMS[0]] = 99
        assert tuple(first[d] for d in LOOP_DIMS) == padded_bounds_tuple(
            conv_layer
        )
        assert padded_bounds_tuple(conv_layer) is padded_bounds_tuple(
            conv_layer
        )


class TestObjectiveValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: TopNMapper(objective="thrughput"),
            lambda: RandomSearchMapper(objective="thrughput"),
        ],
        ids=["top-n", "random"],
    )
    def test_ctor_error_lists_choices(self, build):
        with pytest.raises(ValueError, match="edp.*energy.*latency"):
            build()

    def test_rescore_trace_rejects_unknown(self, conv_layer, mid_config):
        _, trace = TopNMapper(top_n=20).search_with_trace(
            conv_layer, mid_config
        )
        with pytest.raises(ValueError, match="unknown mapping objective"):
            rescore_trace(conv_layer, mid_config, trace, objective="speed")

    def test_make_evaluator_rejects_unknown(self):
        from repro.experiments.setup import make_evaluator

        with pytest.raises(ValueError, match="unknown mapping objective"):
            make_evaluator("resnet18", objective="speed")

    def test_cli_rejects_unknown_objective(self, capsys):
        from repro.experiments.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["explore", "resnet18", "--objective", "speed"]
            )
        assert "--objective" in capsys.readouterr().err

    def test_cli_batch_eval_flag_sets_env(self, monkeypatch):
        from repro.experiments.cli import _apply_batch_eval, build_parser

        monkeypatch.delenv("REPRO_BATCH_EVAL", raising=False)
        args = build_parser().parse_args(
            ["explore", "resnet18", "--batch-eval", "off"]
        )
        _apply_batch_eval(args)
        assert batch_eval_enabled() is False
        args = build_parser().parse_args(
            ["explore", "resnet18", "--batch-eval", "on"]
        )
        _apply_batch_eval(args)
        assert batch_eval_enabled() is True


class TestStatsAndSummary:
    def test_counters_and_merge(self):
        stats = BatchEvalStats()
        stats.record_batch(100, 40, 0.5)
        stats.record_scalar(50, 2.0)
        stats.record_fallback()
        assert stats.batches == 1
        assert stats.batch_candidates_per_second == pytest.approx(200.0)
        assert stats.scalar_candidates_per_second == pytest.approx(25.0)
        other = BatchEvalStats()
        other.record_batch(10, 5, 0.1)
        stats.merge(other)
        assert stats.batches == 2
        assert stats.batch_candidates == 110
        as_dict = stats.as_dict()
        assert as_dict["int64_fallbacks"] == 1
        assert as_dict["scalar_searches"] == 1
        stats.reset()
        assert stats.as_dict()["batches"] == 0
        assert stats.batch_candidates_per_second == 0.0

    def test_stats_pickle(self):
        stats = BatchEvalStats()
        stats.record_batch(7, 3, 0.25)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.as_dict() == stats.as_dict()

    def test_mapper_records_batch_path(self, conv_layer, mid_config):
        mapper = TopNMapper(top_n=40, batch_eval=True)
        result = mapper(conv_layer, mid_config)
        assert mapper.batch_stats.batches == 1
        assert mapper.batch_stats.batch_candidates == (
            result.candidates_evaluated
        )
        assert mapper.batch_stats.batch_feasible == (
            result.feasible_candidates
        )
        assert mapper.batch_stats.scalar_searches == 0

    def test_mapper_records_scalar_path(self, conv_layer, mid_config):
        mapper = TopNMapper(top_n=40, batch_eval=False)
        result = mapper(conv_layer, mid_config)
        assert mapper.batch_stats.batches == 0
        assert mapper.batch_stats.scalar_searches == 1
        assert mapper.batch_stats.scalar_candidates == (
            result.candidates_evaluated
        )

    def test_batch_eval_not_in_cache_signature(self):
        assert TopNMapper(batch_eval=True).signature() == TopNMapper(
            batch_eval=False
        ).signature()

    def test_perf_summary_section(self, tiny_workload, mid_point):
        evaluator = CostEvaluator(
            tiny_workload, TopNMapper(top_n=40, batch_eval=True)
        )
        evaluator.evaluate(mid_point)
        section = evaluator.perf_summary()["batch_eval"]
        assert section["supported"] is True
        assert section["enabled"] is True
        assert section["batches"] >= 1
        assert section["batch_candidates"] > 0
        evaluator.reset_counters()
        assert evaluator.perf_summary()["batch_eval"]["batches"] == 0

    @pytest.mark.parametrize("executor_mode", ["process", "thread"])
    def test_worker_pool_stats_flow_back(
        self, tiny_workload, mid_point, executor_mode
    ):
        """Batch counters from pool workers reach the parent exactly once."""
        serial = CostEvaluator(
            tiny_workload,
            TopNMapper(top_n=40, batch_eval=True),
            use_mapping_cache=False,
        )
        serial.evaluate(mid_point)
        pooled = CostEvaluator(
            tiny_workload,
            TopNMapper(top_n=40, batch_eval=True),
            jobs=2,
            executor_mode=executor_mode,
            use_mapping_cache=False,
        )
        pooled.evaluate(mid_point)
        expected = serial.batch_eval_stats
        got = pooled.batch_eval_stats
        assert got.batches == expected.batches
        assert got.batch_candidates == expected.batch_candidates
        assert got.batch_feasible == expected.batch_feasible
        assert got.scalar_searches == expected.scalar_searches

    def test_perf_summary_unsupported_mapper(self, tiny_workload, mid_point):
        evaluator = CostEvaluator(tiny_workload, FixedDataflowMapper())
        evaluator.evaluate(mid_point)
        section = evaluator.perf_summary()["batch_eval"]
        assert section["supported"] is False
        assert "batches" not in section
