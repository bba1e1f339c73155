"""Equivalence and property tests for the vectorized batch evaluator.

The contract under test: on the batch kernel or on the scalar
reference (``batch_eval=False``), every built-in mapper returns
*bit-identical* results — same mappings, same ``ExecutionInfo`` values
**and Python types**, same infeasibility reasons, same candidate
counts.  A latency search on the batch path builds objects for its
winner only.
"""

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import build_edge_design_space, config_from_point
from repro.arch.accelerator import OFFCHIP_BW_VALUES_MBPS
from repro.cost.batch import (
    BatchLayerEvaluation,
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
    _top_n_terms,
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
        """Both paths return the same result, and score the search's
        whole candidate set alike: its trace, the feasible
        ``(mapping, execution)`` pairs in candidate order."""
        scalar = make_mapper(objective, False)
        batched = make_mapper(objective, True)
        assert_results_identical(
            scalar.search_with_trace(conv_layer, mid_config),
            batched.search_with_trace(conv_layer, mid_config),
        )
        batch = batched.candidate_plan(conv_layer, mid_config)
        evaluation = BatchLayerEvaluation(conv_layer, batch, mid_config)
        rows = evaluation.feasible_indices
        b_trace = list(
            zip(evaluation.mappings(rows), evaluation.execution_infos(rows))
        )
        s_trace = []
        for mapping in scalar.candidate_plan(conv_layer, mid_config).mappings(
            range(len(batch))
        ):
            outcome = evaluate_layer_mapping(conv_layer, mapping, mid_config)
            if not isinstance(outcome, InfeasibleMapping):
                s_trace.append((mapping, outcome))
        assert len(s_trace) == len(b_trace) > 1
        for (sm, se), (bm, be) in zip(s_trace, b_trace):
            assert sm == bm
            assert_outcomes_identical(se, be)

    def test_gemm_layer_identical(self, gemm_layer, mid_config):
        scalar = TopNMapper(top_n=80, batch_eval=False)(gemm_layer, mid_config)
        batch = TopNMapper(top_n=80, batch_eval=True)(gemm_layer, mid_config)
        assert_results_identical(scalar, batch)

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


#: The mappers that search on the batch kernel.
_BATCH_MAPPERS = {
    "top-n": lambda objective="latency", batch_eval=True: TopNMapper(
        top_n=150, objective=objective, batch_eval=batch_eval
    ),
    "random": lambda objective="latency", batch_eval=True: RandomSearchMapper(
        trials=150, seed=3, objective=objective, batch_eval=batch_eval
    ),
}


@pytest.fixture
def built(monkeypatch):
    """Counts the ``ExecutionInfo`` and ``Mapping`` objects the batch
    path builds, through every bulk and single-row entry point."""
    counts = {"infos": 0, "mappings": 0}
    infos = BatchLayerEvaluation.execution_infos
    gathered = BatchLayerEvaluation.mappings
    mapping = CandidateBatch.mapping
    mappings = CandidateBatch.mappings

    def counted_infos(self, *args):
        out = infos(self, *args)
        counts["infos"] += len(out)
        return out

    def counted_mapping(self, i):
        counts["mappings"] += 1
        return mapping(self, i)

    def counted_mappings(self, indices):
        out = mappings(self, indices)
        counts["mappings"] += len(out)
        return out

    def counted_gathered(self, indices):
        out = gathered(self, indices)
        counts["mappings"] += len(out)
        return out

    monkeypatch.setattr(BatchLayerEvaluation, "execution_infos", counted_infos)
    monkeypatch.setattr(BatchLayerEvaluation, "mappings", counted_gathered)
    monkeypatch.setattr(CandidateBatch, "mapping", counted_mapping)
    monkeypatch.setattr(CandidateBatch, "mappings", counted_mappings)
    return counts


class TestWinnerOnlyMaterialization:
    @pytest.mark.parametrize("name", sorted(_BATCH_MAPPERS))
    def test_latency_search_builds_one_row(
        self, name, built, conv_layer, mid_config
    ):
        result = _BATCH_MAPPERS[name]().search_with_trace(
            conv_layer, mid_config
        )
        assert result.feasible_candidates > 1
        assert built == {"infos": 1, "mappings": 1}


class TestRescoreParity:
    """A config that differs from a searched one only in off-chip
    bandwidth or clock is a layer-cache miss.  A top-N search on it
    re-scores the plan's memoized terms (``_top_n_terms``) in the
    NoC/bandwidth stage alone; that array re-score must equal the
    scalar reference's object loop and a search on a cold memo."""

    @settings(max_examples=60, deadline=None)
    @given(
        mapper=st.sampled_from(sorted(_BATCH_MAPPERS)),
        objective=st.sampled_from(sorted(MAPPING_OBJECTIVES)),
        layer_index=st.integers(0, len(_LAYERS) - 1),
        config_index=st.integers(0, 1),
        bandwidth=st.sampled_from(OFFCHIP_BW_VALUES_MBPS),
        freq_mhz=st.sampled_from((500, 800)),
    )
    def test_array_rescore_matches_object_loop_and_cold_search(
        self, mapper, objective, layer_index, config_index, bandwidth,
        freq_mhz,
    ):
        make = _BATCH_MAPPERS[mapper]
        layer = _LAYERS[layer_index]
        config = _configs()[config_index]
        variant = dataclasses.replace(
            config, offchip_bw_mbps=bandwidth, freq_mhz=freq_mhz
        )
        make(objective)(layer, config)  # warms the terms memo
        hits = _top_n_terms.cache_info().hits
        array = make(objective)(layer, variant)
        if mapper == "top-n":
            assert _top_n_terms.cache_info().hits == hits + 1
        objects = make(objective, batch_eval=False)(layer, variant)
        _top_n_terms.cache_clear()
        cold = make(objective)(layer, variant)
        assert_results_identical(objects, array)
        assert_results_identical(cold, array)


class TestBatchPrimitives:
    def test_empty_batch(self, conv_layer, mid_config):
        batch = CandidateBatch.from_specs(())
        assert len(batch) == 0
        assert int64_safe(batch, mid_config)
        evaluation = BatchLayerEvaluation(conv_layer, batch, mid_config)
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
        result = mapper_mod._best_of_candidates(
            conv_layer, mid_config, batch, stats=mapper.batch_stats,
        )
        assert mapper.batch_stats.int64_fallbacks == 1
        assert mapper.batch_stats.scalar_searches == 1
        scalar_result = mapper_mod._best_of_candidates(
            conv_layer, mid_config, batch, batch_eval=False,
        )
        assert_results_identical(scalar_result, result)


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


class TestStatsAndSummary:
    def test_counters_and_merge(self):
        stats = BatchEvalStats()
        stats.record_batch(100, 40, 0.5)
        stats.record_scalar(50, 2.0)
        stats.record_fallback()
        assert stats.batches == 1
        assert stats.batch_candidates_per_second == pytest.approx(200.0)
        assert stats.scalar_candidates_per_second == pytest.approx(25.0)
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

    def test_perf_summary_unsupported_mapper(self, tiny_workload, mid_point):
        evaluator = CostEvaluator(tiny_workload, FixedDataflowMapper())
        evaluator.evaluate(mid_point)
        section = evaluator.perf_summary()["batch_eval"]
        assert section["supported"] is False
        assert "batches" not in section
