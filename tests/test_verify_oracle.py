"""Tests for the oracle cost model and its differential checks."""

import dataclasses

import pytest

from repro.arch.accelerator import config_from_point
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.verify.checks import (
    compare_config_models,
    compare_evaluation,
    compare_layer,
    exhaustive_tiny_sweep,
)
from repro.verify.corpus import (
    structured_mappings,
    tiny_space,
    tiny_verify_workload,
)
from repro.verify.oracle import (
    OracleCapacityError,
    OracleInfeasible,
    oracle_layer,
)
from repro.workloads.layers import conv2d


class TestExhaustiveSweep:
    def test_sweep_is_exact(self):
        """Acceptance criterion: the oracle agrees with repro.cost on the
        whole tiny space, bit for bit, on every mapping of the corpus."""
        report = exhaustive_tiny_sweep()
        assert report.points == 64
        assert report.comparisons == report.points * 4 * 9
        assert report.feasible > 0
        assert report.infeasible > 0
        assert report.mismatches == []
        assert report.ok

    def test_sweep_covers_most_infeasibility_gates(self):
        """The corpus trips the PE, RF, and NoC gates on its own (the SPM
        gate needs a crafted case — the tiny tensors never overflow the
        sweep's scratchpads, and the RF gate shadows it in the reference's
        gate order)."""
        kinds = set()
        workload = tiny_verify_workload()
        for point in tiny_space().grid(2):
            config = config_from_point(point)
            for layer in workload.layers:
                for mapping in structured_mappings(layer):
                    outcome = oracle_layer(layer, mapping, config)
                    if isinstance(outcome, OracleInfeasible):
                        kinds.add(outcome.kind)
        assert kinds == {"pes", "rf", "noc"}

    def test_spm_gate_agrees_on_crafted_overflow(self):
        """An all-SPM mapping of a mid-size layer on a 1 KB scratchpad
        trips the SPM gate in both models, with matching diagnostics."""
        from repro.verify.corpus import _single_level_mapping

        layer = conv2d("spmtest", 8, 16, (8, 8))
        mapping = _single_level_mapping(layer, "spm")
        config = config_from_point(next(tiny_space().grid(1)))
        config = dataclasses.replace(config, l2_kb=1)
        outcome = oracle_layer(layer, mapping, config)
        assert isinstance(outcome, OracleInfeasible)
        assert outcome.kind == "spm"
        assert compare_layer(layer, mapping, config) == []


class TestDirectComparisons:
    def test_compare_layer_random_seed_variation(self):
        """A different mapping seed than the sweep's still agrees exactly."""
        config = config_from_point(next(tiny_space().grid(1)))
        for layer in tiny_verify_workload().layers:
            for mapping in structured_mappings(layer, count=4, seed=99):
                assert compare_layer(layer, mapping, config) == []

    def test_compare_config_models_exact(self):
        for point in tiny_space().grid(2):
            assert compare_config_models(config_from_point(point)) == []

    def test_compare_full_evaluation(self):
        """Model-level aggregation (cycles -> ms -> throughput, energy sum
        in workload order) matches the production evaluator exactly."""
        workload = tiny_verify_workload()
        evaluator = CostEvaluator(workload, TopNMapper(top_n=20))
        for point in list(tiny_space().grid(2))[:6]:
            evaluation = evaluator.evaluate(point)
            assert compare_evaluation(evaluation, workload) == []


class TestOracleLimits:
    def test_capacity_error_on_large_layers(self):
        """The oracle refuses walks it cannot finish instead of hanging."""
        layer = conv2d("big", 64, 64, (112, 112))
        config = config_from_point(next(tiny_space().grid(1)))
        mapping = structured_mappings(layer, count=0)[0]
        with pytest.raises(OracleCapacityError):
            oracle_layer(layer, mapping, config)
