"""Tests for the fixed / top-N / random mappers."""

import pytest

from repro.arch.accelerator import config_from_point
from repro.mapping.mapper import (
    FixedDataflowMapper,
    RandomSearchMapper,
    TopNMapper,
    _log_spaced,
    enumerate_spatial_unrollings,
)
from repro.workloads.layers import LOOP_DIMS, Dim


class TestLogSpaced:
    def test_empty_values(self):
        assert _log_spaced([], keep=4) == ()
        assert _log_spaced([], keep=0) == ()

    def test_keep_at_most_one_keeps_largest(self):
        assert _log_spaced([2, 4, 8, 16], keep=1) == (16,)
        assert _log_spaced([2, 4, 8, 16], keep=0) == (16,)
        assert _log_spaced([2, 4, 8, 16], keep=-3) == (16,)

    def test_small_input_passes_through(self):
        assert _log_spaced([3, 5], keep=4) == (3, 5)

    def test_thins_to_budget_keeping_endpoints(self):
        values = list(range(1, 101))
        picked = _log_spaced(values, keep=5)
        assert len(picked) == 5
        assert picked[0] == values[0]
        assert picked[-1] == values[-1]
        assert list(picked) == sorted(picked)


class TestSpatialEnumeration:
    def test_fits_pe_budget(self, conv_layer, mid_config):
        for spatial in enumerate_spatial_unrollings(conv_layer, mid_config):
            used = 1
            for d in LOOP_DIMS:
                used *= spatial[d]
            assert used <= mid_config.pes

    def test_includes_temporal_fallback(self, conv_layer, mid_config):
        unrollings = enumerate_spatial_unrollings(conv_layer, mid_config)
        assert {d: 1 for d in LOOP_DIMS} in unrollings

    def test_no_reduction_dims(self, conv_layer, mid_config):
        for spatial in enumerate_spatial_unrollings(conv_layer, mid_config):
            for d in (Dim.C, Dim.FY, Dim.FX):
                assert spatial[d] == 1

    def test_spans_utilization_tiers(self, conv_layer, mid_config):
        """Both wide and narrow unrollings survive the tiered pruning."""
        unrollings = enumerate_spatial_unrollings(conv_layer, mid_config)
        pes_used = sorted(
            {
                eval_used(spatial)
                for spatial in unrollings
            }
        )
        assert pes_used[0] == 1
        assert pes_used[-1] >= mid_config.pes // 4
        assert len(pes_used) >= 3

    @pytest.mark.parametrize("max_combos", [1, 2, 3, 5, 16, 24])
    def test_keeps_max_combos_including_fallback(
        self, conv_layer, mid_config, max_combos
    ):
        """``max_combos - 1`` spatial unrollings plus the temporal
        fallback, so 1 keeps the fallback alone."""
        unrollings = enumerate_spatial_unrollings(
            conv_layer, mid_config, max_combos=max_combos
        )
        assert len(unrollings) == max_combos
        assert unrollings[-1] == {d: 1 for d in LOOP_DIMS}

    @pytest.mark.parametrize("max_combos", [0, -3])
    def test_rejects_nonpositive_max_combos(
        self, conv_layer, mid_config, max_combos
    ):
        with pytest.raises(ValueError, match="max_combos"):
            enumerate_spatial_unrollings(
                conv_layer, mid_config, max_combos=max_combos
            )


def eval_used(spatial):
    used = 1
    for f in spatial.values():
        used *= f
    return used


class TestFixedDataflowMapper:
    def test_single_candidate(self, conv_layer, mid_config):
        result = FixedDataflowMapper()(conv_layer, mid_config)
        assert result.candidates_evaluated == 1
        assert result.feasible

    def test_incompatible_hardware_fails(self, conv_layer, mid_point):
        """Fixed dataflows cannot adapt around missing unicast links."""
        point = dict(mid_point)
        for op in ("I", "W", "O", "PSUM"):
            point[f"phys_unicast_{op}"] = 1
            point[f"virt_unicast_{op}"] = 1
        result = FixedDataflowMapper()(conv_layer, config_from_point(point))
        assert not result.feasible
        assert result.latency == float("inf")


class TestTopNMapper:
    def test_respects_budget(self, conv_layer, mid_config):
        result = TopNMapper(top_n=37)(conv_layer, mid_config)
        assert result.candidates_evaluated <= 37

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            TopNMapper(top_n=0)

    @pytest.mark.parametrize("max_spatial", [0, -3])
    def test_rejects_nonpositive_max_spatial(self, max_spatial):
        with pytest.raises(ValueError, match="max_spatial"):
            TopNMapper(max_spatial=max_spatial)

    def test_max_spatial_one_searches_the_temporal_fallback_only(
        self, resnet18, edge_space
    ):
        """At the minimum point ``max_spatial=1`` plans every candidate
        on the purely temporal unrolling, and 2 adds one spatial one."""
        layer = resnet18.layers[1]
        config = config_from_point(edge_space.minimum_point())
        temporal = TopNMapper(max_spatial=1).candidate_plan(layer, config)
        assert len(temporal) > 0
        assert (temporal.spatial == 1).all()
        wider = TopNMapper(max_spatial=2).candidate_plan(layer, config)
        assert len(wider) > len(temporal)
        assert len({tuple(row) for row in wider.spatial.tolist()}) == 2
        result = TopNMapper(max_spatial=1)(layer, config)
        assert result.feasible
        assert result.execution.pes_used == 1

    def test_beats_or_matches_fixed_dataflow(self, conv_layer, mid_config):
        fixed = FixedDataflowMapper()(conv_layer, mid_config)
        searched = TopNMapper(top_n=200)(conv_layer, mid_config)
        assert searched.latency <= fixed.latency

    def test_always_maps_on_any_hardware(self, conv_layer, edge_space):
        """The temporal fallback executes even on the minimum point."""
        config = config_from_point(edge_space.minimum_point())
        result = TopNMapper(top_n=120)(conv_layer, config)
        assert result.feasible

    def test_more_budget_never_hurts(self, conv_layer, mid_config):
        small = TopNMapper(top_n=30)(conv_layer, mid_config)
        large = TopNMapper(top_n=300)(conv_layer, mid_config)
        assert large.latency <= small.latency


class TestRandomSearchMapper:
    def test_respects_trials(self, conv_layer, mid_config):
        result = RandomSearchMapper(trials=25, seed=3)(conv_layer, mid_config)
        assert result.candidates_evaluated <= 25

    def test_deterministic_per_seed(self, conv_layer, mid_config):
        a = RandomSearchMapper(trials=40, seed=7)(conv_layer, mid_config)
        b = RandomSearchMapper(trials=40, seed=7)(conv_layer, mid_config)
        assert a.latency == b.latency

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            RandomSearchMapper(trials=0)

    def test_usually_finds_feasible(self, conv_layer, mid_config):
        result = RandomSearchMapper(trials=100, seed=0)(
            conv_layer, mid_config
        )
        assert result.feasible
        assert result.feasible_candidates >= 1
