"""Tests for the persistent shared-memory sharded evaluation fleet.

The contract under test mirrors the fused path's: with ``REPRO_SHM_EVAL``
on, campaign results are *bit-identical* to the single-process fused
path (which is itself bit-identical to the scalar per-layer loop) — the
fleet can change wall-clock time, never results.  On top of that this
file covers the supervision ladder (injected worker crashes and real
SIGKILLs resolve through resubmission to siblings and, once the retry
budget drains, an in-parent serial fallback), adaptive shard sizing,
warm-worker reuse, and — via a subprocess — shared-memory teardown
hygiene: no resource-tracker leak warnings at interpreter shutdown even
after a worker was SIGKILLed while holding live segment attachments.
"""

import os
import subprocess
import sys
import textwrap
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cost.evaluator import CostEvaluator
from repro.cost.fused import (
    FusedBlockEvaluation,
    ShardedBlockEvaluation,
    search_layers_fused,
)
from repro.mapping.batch_candidates import FusedCandidateBlock
from repro.mapping.mapper import TopNMapper
from repro.perf.shm_fleet import (
    _IN_FIELDS,
    _OUT_FIELDS,
    FleetStats,
    ShmFleet,
    _check_header,
    _create_segment,
    _destroy_segment,
    _field_views,
    _layout,
)

from tests.test_batch_eval import (
    assert_outcomes_identical,
    assert_results_identical,
)
from tests.test_fused_eval import _layers_strategy, _uniquify

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)


@pytest.fixture(scope="module")
def fleet():
    """One warm fleet shared by the non-chaos tests in this module."""
    instance = ShmFleet()
    yield instance
    instance.shutdown()


@contextmanager
def _env(**values):
    """Set environment variables for the duration of a block (hypothesis
    tests cannot use the function-scoped ``monkeypatch`` fixture)."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, old in saved.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old


def _block_for(layers, config, top_n=40):
    """The same SoA block ``search_layers_fused`` would build."""
    mapper = TopNMapper(top_n=top_n)
    batches = [mapper.candidate_plan(layer, config) for layer in layers]
    return FusedCandidateBlock.from_layer_batches(list(layers), batches)


def _assert_same_decisions(block, config, sharded):
    """The sharded decision arrays are bitwise equal to the inline fused
    evaluation's, including per-row infeasibility diagnostics."""
    inline = FusedBlockEvaluation(block, config)
    assert isinstance(sharded, ShardedBlockEvaluation)
    for name in ("latency", "fail_code", "feasible"):
        ours, theirs = getattr(sharded, name), getattr(inline, name)
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    for row in range(len(block)):
        if not bool(inline.feasible[row]):
            assert_outcomes_identical(
                inline.infeasibility(row), sharded.infeasibility(row)
            )


# -- segment framing -----------------------------------------------------------


class TestSegmentFraming:
    @pytest.mark.parametrize("fields", [_IN_FIELDS, _OUT_FIELDS])
    @pytest.mark.parametrize("n", [1, 7, 1024])
    def test_layout_is_aligned_and_sized(self, fields, n):
        table, total = _layout(fields, n)
        assert set(table) == {name for name, _dtype, _cols in fields}
        for name, (offset, dtype, ncols) in table.items():
            assert offset % 8 == 0
            assert offset + np.dtype(dtype).itemsize * n * ncols <= total

    def test_layout_deterministic_in_row_count(self):
        assert _layout(_IN_FIELDS, 64) == _layout(_IN_FIELDS, 64)

    def test_header_roundtrip_and_mismatch(self):
        shm = _create_segment(_OUT_FIELDS, 16)
        try:
            _check_header(shm.buf, 16)
            with pytest.raises(RuntimeError, match="header mismatch"):
                _check_header(shm.buf, 17)
        finally:
            _destroy_segment(shm)

    def test_field_views_roundtrip(self):
        n = 9
        shm = _create_segment(_IN_FIELDS, n)
        try:

            def _write():
                views = _field_views(shm.buf, _IN_FIELDS, n)
                for i, (name, _dtype, _cols) in enumerate(_IN_FIELDS):
                    views[name][:] = i % 2

            def _read():
                views = _field_views(shm.buf, _IN_FIELDS, n)
                for i, (name, _dtype, _cols) in enumerate(_IN_FIELDS):
                    assert np.all(views[name] == i % 2)

            _write()
            _read()
        finally:
            _destroy_segment(shm)

    def test_destroy_is_idempotent(self):
        shm = _create_segment(_OUT_FIELDS, 4)
        _destroy_segment(shm)
        _destroy_segment(shm)  # second destroy must not raise


# -- bit-identity --------------------------------------------------------------


class TestShardedEquivalence:
    def test_decision_arrays_bitwise_identical(
        self, fleet, resnet18, mid_config
    ):
        block = _block_for(resnet18.layers[:4], mid_config, top_n=60)
        stats = FleetStats()
        sharded = fleet.evaluate_block(
            block, mid_config, shards=4, min_rows=1, stats=stats
        )
        assert sharded is not None
        assert stats.blocks_sharded == 1
        assert stats.shards_dispatched >= 4
        assert stats.shm_bytes > 0
        _assert_same_decisions(block, mid_config, sharded)

    def test_winner_rows_match_inline_fused(self, fleet, resnet18, mid_config):
        layers = list(resnet18.layers[:3])
        block = _block_for(layers, mid_config)
        sharded = fleet.evaluate_block(block, mid_config, shards=3, min_rows=1)
        inline = FusedBlockEvaluation(block, mid_config)
        for index, _layer in enumerate(layers):
            expected = inline.layer_result(index)
            actual = sharded.layer_result(index)
            assert_results_identical(expected, actual)

    @given(layers=_layers_strategy, k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=12, deadline=None)
    def test_sharded_fused_scalar_identical(
        self, layers, k, fleet, mid_config
    ):
        """The tentpole property: sharded-fused == single-process-fused ==
        scalar reference across random workloads and shard counts 1..8."""
        layers = _uniquify(layers)
        seen = []

        def sharder(block, config):
            result = fleet.evaluate_block(
                block, config, shards=k, min_rows=1
            )
            seen.append(result)
            return result

        fused, remaining = search_layers_fused(
            TopNMapper(top_n=40), layers, mid_config, sharder=sharder
        )
        assert remaining == []
        assert len(seen) == 1
        if k == 1:  # adaptive sizing declines, search falls back inline
            assert seen[0] is None
        else:
            assert isinstance(seen[0], ShardedBlockEvaluation)
        reference = TopNMapper(top_n=40)
        for layer, result in fused:
            expected, _trace = reference.search_with_trace(layer, mid_config)
            assert_results_identical(expected, result)

    @given(layers=_layers_strategy)
    @settings(max_examples=5, deadline=None)
    def test_crash_mid_shard_results_identical(self, layers, mid_config):
        """A worker crashing mid-shard (injected, every attempt) drains
        the retry ledger into the serial fallback without changing a
        single decision array bit."""
        layers = _uniquify(layers)
        block = _block_for(layers, mid_config)
        with _env(
            REPRO_FAULT_INJECT="crash:shm:1.0:match=shard-0-",
            REPRO_RETRY_BACKOFF="0.001",
        ):
            chaos_fleet = ShmFleet()
            try:
                stats = FleetStats()
                sharded = chaos_fleet.evaluate_block(
                    block, mid_config, shards=2, min_rows=1, stats=stats
                )
            finally:
                chaos_fleet.shutdown()
        assert sharded is not None
        assert stats.shard_fallbacks == 1
        assert stats.shard_resubmissions >= 1
        assert stats.worker_crashes >= 1
        _assert_same_decisions(block, mid_config, sharded)


# -- supervision ladder --------------------------------------------------------


class TestSupervision:
    def _chaos_block(self, resnet18, mid_config):
        return _block_for(resnet18.layers[:3], mid_config)

    def test_crash_ladder_counts(self, resnet18, mid_config, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", "crash:shm:1.0:match=shard-0-"
        )
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.001")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "3")
        block = self._chaos_block(resnet18, mid_config)
        chaos_fleet = ShmFleet()
        try:
            stats = FleetStats()
            sharded = chaos_fleet.evaluate_block(
                block, mid_config, shards=3, min_rows=1, stats=stats
            )
        finally:
            chaos_fleet.shutdown()
        # rate=1.0 fires on every attempt: 3 resubmissions burn the retry
        # budget, the 4th failure goes to the in-parent serial fallback.
        assert stats.shard_resubmissions == 3
        assert stats.shard_fallbacks == 1
        assert stats.worker_crashes == 4
        _assert_same_decisions(block, mid_config, sharded)

    def test_sigkill_ladder_resubmits_to_siblings(
        self, resnet18, mid_config, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "kill:shm:1.0:match=shard-0-")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.001")
        block = self._chaos_block(resnet18, mid_config)
        chaos_fleet = ShmFleet()
        try:
            stats = FleetStats()
            sharded = chaos_fleet.evaluate_block(
                block, mid_config, shards=3, min_rows=1, stats=stats
            )
        finally:
            chaos_fleet.shutdown()
        # Real SIGKILLs: the victim worker dies holding live segment
        # attachments; siblings pick up the resubmissions and the other
        # shards' results are untouched.
        assert stats.worker_crashes >= 1
        assert stats.shard_resubmissions == 3
        assert stats.shard_fallbacks == 1
        _assert_same_decisions(block, mid_config, sharded)

    def test_unhealthy_fleet_declines_with_warning(
        self, resnet18, mid_config, monkeypatch
    ):
        block = self._chaos_block(resnet18, mid_config)
        broken = ShmFleet()
        monkeypatch.setattr(
            broken, "_evaluate_sharded", lambda *a, **k: (_ for _ in ()).throw(
                RuntimeError("segment trouble")
            )
        )
        stats = FleetStats()
        with pytest.warns(RuntimeWarning, match="sharded evaluation failed"):
            result = broken.evaluate_block(
                block, mid_config, shards=2, min_rows=1, stats=stats
            )
        assert result is None
        assert stats.block_fallbacks == 1
        broken.shutdown()


# -- adaptive sizing and warmth ------------------------------------------------


class TestFleetLifecycle:
    def test_small_block_stays_inline(self, fleet, resnet18, mid_config):
        block = _block_for(resnet18.layers[:1], mid_config, top_n=10)
        stats = FleetStats()
        assert (
            fleet.evaluate_block(
                block, mid_config, shards=4, min_rows=10**6, stats=stats
            )
            is None
        )
        assert stats.blocks_inline == 1
        assert stats.shards_dispatched == 0

    def test_single_shard_declines(self, fleet, resnet18, mid_config):
        block = _block_for(resnet18.layers[:1], mid_config, top_n=10)
        stats = FleetStats()
        assert (
            fleet.evaluate_block(
                block, mid_config, shards=1, min_rows=1, stats=stats
            )
            is None
        )
        assert stats.blocks_inline == 1

    def test_warm_workers_reused_across_blocks(self, resnet18, mid_config):
        warm_fleet = ShmFleet()
        try:
            block = _block_for(resnet18.layers[:2], mid_config)
            stats = FleetStats()
            warm_fleet.evaluate_block(
                block, mid_config, shards=2, min_rows=1, stats=stats
            )
            first_round_warm = stats.warm_hits
            spawned = stats.cold_spawns
            warm_fleet.evaluate_block(
                block, mid_config, shards=2, min_rows=1, stats=stats
            )
            assert stats.warm_hits > first_round_warm
            assert stats.cold_spawns == spawned  # nobody respawned
        finally:
            warm_fleet.shutdown()

    def test_ensure_prunes_and_respawns(self):
        instance = ShmFleet()
        try:
            stats = FleetStats()
            assert instance.ensure(2, stats) == 2
            victim = instance._workers[0]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            assert instance.ensure(2, stats) == 2
            assert stats.cold_spawns == 3
        finally:
            instance.shutdown()
        assert len(instance) == 0

    def test_shutdown_is_idempotent(self):
        instance = ShmFleet()
        instance.ensure(1)
        instance.shutdown()
        instance.shutdown()
        assert len(instance) == 0


# -- teardown hygiene ----------------------------------------------------------


class TestTeardownHygiene:
    def test_no_resource_tracker_leaks_after_killed_worker(self):
        """End-to-end in a subprocess: a clean block, then a block whose
        shard-0 worker is SIGKILLed on every attempt while holding live
        segment attachments.  Interpreter shutdown must print no
        resource-tracker leak warnings and no tracker KeyError noise."""
        script = textwrap.dedent(
            """
            import os
            os.environ["REPRO_RETRY_BACKOFF"] = "0.001"

            from repro.arch import build_edge_design_space, config_from_point
            from repro.mapping.batch_candidates import FusedCandidateBlock
            from repro.mapping.mapper import TopNMapper
            from repro.perf.shm_fleet import ShmFleet
            from repro.workloads import conv2d

            point = build_edge_design_space().minimum_point()
            point.update(pes=1024, l1_bytes=256, l2_kb=512)
            config = config_from_point(point)
            layer = conv2d("c", 16, 32, (14, 14))
            batch = TopNMapper(top_n=60).candidate_plan(layer, config)
            block = FusedCandidateBlock.from_layer_batches([layer], [batch])

            fleet = ShmFleet()
            # Warm the fleet before any segment exists: forked workers
            # must still share the parent's resource tracker.
            fleet.ensure(2)
            clean = fleet.evaluate_block(block, config, shards=2, min_rows=1)
            assert clean is not None

            os.environ["REPRO_FAULT_INJECT"] = "kill:shm:1.0:match=shard-0-"
            chaos_fleet = ShmFleet()
            chaotic = chaos_fleet.evaluate_block(
                block, config, shards=2, min_rows=1
            )
            assert chaotic is not None
            import numpy as np
            assert np.array_equal(clean.latency, chaotic.latency)
            assert np.array_equal(clean.fail_code, chaotic.fail_code)
            assert np.array_equal(clean.feasible, chaotic.feasible)
            chaos_fleet.shutdown()
            fleet.shutdown()
            print("HYGIENE-OK")
            """
        )
        env = dict(os.environ)
        env.pop("REPRO_FAULT_INJECT", None)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "HYGIENE-OK" in proc.stdout
        lowered = proc.stderr.lower()
        assert "resource_tracker" not in lowered, proc.stderr
        assert "leaked" not in lowered, proc.stderr


# -- evaluator integration -----------------------------------------------------


class TestEvaluatorIntegration:
    def _evaluate(self, workload, point, **kwargs):
        evaluator = CostEvaluator(
            workload, TopNMapper(top_n=50), use_mapping_cache=False, **kwargs
        )
        try:
            return evaluator.evaluate(point), evaluator
        finally:
            evaluator.close()

    def test_shm_results_identical_to_fused_and_reference(
        self, resnet18, mid_point
    ):
        private = ShmFleet()
        try:
            reference, _ = self._evaluate(resnet18, mid_point)
            fused, _ = self._evaluate(resnet18, mid_point, fused_eval=True)
            shm, evaluator = self._evaluate(
                resnet18,
                mid_point,
                shm_eval=True,
                fused_shards=2,
                shm_min_rows=1,
                shm_fleet=private,
            )
        finally:
            private.shutdown()
        assert reference.costs == fused.costs == shm.costs
        assert reference.mappable == shm.mappable
        for name in reference.layer_results:
            assert_results_identical(
                reference.layer_results[name], shm.layer_results[name]
            )
        section = evaluator.perf_summary()["shm_fleet"]
        assert section["enabled"] is True
        assert section["shards"] == 2
        assert section["min_shard_rows"] == 1
        assert section["blocks_sharded"] == 1
        assert section["shards_dispatched"] >= 2
        assert section["shm_bytes"] > 0

    def test_shm_implies_fused_path(self, resnet18, mid_point):
        """``shm_eval`` alone routes through the fused path (the fleet
        shards fused blocks; there is nothing else to shard)."""
        private = ShmFleet()
        try:
            result, evaluator = self._evaluate(
                resnet18,
                mid_point,
                shm_eval=True,
                fused_shards=2,
                shm_min_rows=1,
                shm_fleet=private,
            )
        finally:
            private.shutdown()
        assert evaluator.batch_eval_stats.fused_blocks == 1
        reference, _ = self._evaluate(resnet18, mid_point)
        assert result.costs == reference.costs

    def test_summary_has_no_shm_section_when_off(self, resnet18, mid_point):
        _, evaluator = self._evaluate(resnet18, mid_point, fused_eval=True)
        assert "shm_fleet" not in evaluator.perf_summary()

    def test_reset_counters_clears_fleet_stats(self, resnet18, mid_point):
        private = ShmFleet()
        try:
            _, evaluator = self._evaluate(
                resnet18,
                mid_point,
                shm_eval=True,
                fused_shards=2,
                shm_min_rows=1,
                shm_fleet=private,
            )
        finally:
            private.shutdown()
        assert evaluator.perf_summary()["shm_fleet"]["blocks_sharded"] == 1
        evaluator.reset_counters()
        section = evaluator.perf_summary()["shm_fleet"]
        assert section["blocks_sharded"] == 0
        assert section["shards_dispatched"] == 0

    def test_deterministic_counters_drop_shm_wall_clock(
        self, resnet18, mid_point
    ):
        from repro.telemetry.events import deterministic_perf_counters

        private = ShmFleet()
        try:
            _, evaluator = self._evaluate(
                resnet18,
                mid_point,
                shm_eval=True,
                fused_shards=2,
                shm_min_rows=1,
                shm_fleet=private,
            )
        finally:
            private.shutdown()
        counters = deterministic_perf_counters(evaluator.perf_summary())
        section = counters["shm_fleet"]
        assert "shm_seconds" not in section
        assert section["blocks_sharded"] == 1
