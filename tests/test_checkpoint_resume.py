"""Tests for crash-safe checkpointing and campaign resume."""

import dataclasses
import json
import math

import pytest

from repro.core.dse.constraints import Constraint, Sense
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.perf.mapping_cache import MappingCache
from repro.resilience import SystemicFaultError
from repro.telemetry import (
    CampaignCheckpoint,
    CheckpointError,
    JsonlSink,
    RunSummary,
    Tracer,
    default_checkpoint_path,
    load_checkpoint,
    read_journal,
    save_checkpoint,
    verify_against_journal,
)


def _constraints():
    return [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
        Constraint("throughput", "throughput", 200.0, Sense.GEQ),
    ]


def _make_evaluator(workload, cls=CostEvaluator, **kwargs):
    return cls(
        workload,
        TopNMapper(top_n=60),
        mapping_cache=MappingCache(),
        **kwargs,
    )


def _fingerprint(result):
    return (
        [t.point for t in result.trials],
        [t.costs for t in result.trials],
        result.explanations,
        result.best.point if result.best else None,
        result.best.costs if result.best else None,
        result.evaluations,
    )


class KillableEvaluator(CostEvaluator):
    """Simulates a hard mid-step kill: the Nth uncached evaluation dies."""

    kill_at = None

    def _evaluate_uncached(self, point):
        if self.kill_at is not None and self.evaluations >= self.kill_at:
            raise KeyboardInterrupt("simulated kill")
        return super()._evaluate_uncached(point)


class FlakyEvaluator(CostEvaluator):
    """Simulates a systemic fault: every evaluation from the Nth fails."""

    fail_from = None

    def _evaluate_uncached(self, point):
        if self.fail_from is not None and self.evaluations >= self.fail_from:
            raise RuntimeError("injected systemic fault")
        return super()._evaluate_uncached(point)


def _sample_checkpoint(**overrides):
    base = dict(
        model="tiny",
        objective="latency_ms",
        max_evaluations=25,
        consumed=12,
        attempt=2,
        attempts_without_improvement=0,
        finished=False,
        current_point={"pes": 128},
        exhausted=["l1_bytes"],
        tried_keys=[[0, 1], [0, 2]],
        trials=[],
        explanations=["[attempt 1] ..."],
        journal_events=42,
    )
    base.update(overrides)
    return CampaignCheckpoint(**base)


class TestCheckpointFile:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint = _sample_checkpoint()
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path) == checkpoint

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(_sample_checkpoint(), path)
        save_checkpoint(_sample_checkpoint(consumed=13), path)
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]
        assert load_checkpoint(path).consumed == 13

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_load_corrupt_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(_sample_checkpoint(), path)
        data = json.loads(path.read_text())
        data["schema"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_default_checkpoint_path(self):
        assert default_checkpoint_path("a/b.jsonl") == "a/b.jsonl.ckpt"

    @staticmethod
    def _nested_checkpoint():
        trials = [
            {
                "point": {"pes": 128 * k, "l1_bytes": 64},
                "costs": {"latency_ms": 1.5 / (k + 1), "area_mm2": 10.0 + k},
                "feasible": k % 2 == 0,
                "violations": [{"name": "area", "excess": [0.25, k]}],
                "note": None,
            }
            for k in range(3)
        ]
        return _sample_checkpoint(
            trials=trials,
            rng_state=[3, [1, 2, 3], None],
            mapping_cache_manifest={"entries": 7, "hit_rate": 0.125},
        )

    def test_nested_trials_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint = self._nested_checkpoint()
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path) == checkpoint
        assert json.loads(path.read_text()) == dataclasses.asdict(checkpoint)

    def test_indented_file_still_loads(self, tmp_path):
        """A checkpoint written as indented JSON, as older versions
        wrote it, loads unchanged."""
        path = tmp_path / "run.ckpt"
        checkpoint = self._nested_checkpoint()
        path.write_text(
            json.dumps(dataclasses.asdict(checkpoint), indent=1) + "\n"
        )
        assert load_checkpoint(path) == checkpoint


class TestResume:
    def _run_reference(self, edge_space, tiny_workload, budget=25):
        evaluator = _make_evaluator(tiny_workload)
        return ExplainableDSE(
            edge_space, evaluator, _constraints(), max_evaluations=budget
        ).run()

    def test_resume_after_mid_step_kill_matches_uninterrupted(
        self, tmp_path, edge_space, tiny_workload
    ):
        """A SIGKILL-style death mid-attempt loses nothing that matters:
        resuming from the last checkpoint reproduces the uninterrupted
        campaign exactly (acceptance criterion)."""
        reference = self._run_reference(edge_space, tiny_workload)

        journal = tmp_path / "run.jsonl"
        ckpt = default_checkpoint_path(journal)
        evaluator = _make_evaluator(tiny_workload, cls=KillableEvaluator)
        evaluator.kill_at = 14
        tracer = Tracer(JsonlSink(journal))
        with pytest.raises(KeyboardInterrupt):
            ExplainableDSE(
                edge_space, evaluator, _constraints(), max_evaluations=25
            ).run(tracer=tracer, checkpoint_path=ckpt)

        checkpoint = load_checkpoint(ckpt)
        assert not checkpoint.finished
        assert checkpoint.consumed < 25
        verify_against_journal(checkpoint, journal)

        sink = JsonlSink(journal, resume_events=checkpoint.journal_events)
        resumed_tracer = Tracer(sink, seq_start=checkpoint.journal_events)
        evaluator2 = _make_evaluator(tiny_workload)
        resumed = ExplainableDSE(
            edge_space, evaluator2, _constraints(), max_evaluations=25
        ).run(tracer=resumed_tracer, checkpoint_path=ckpt, resume_from=ckpt)
        resumed_tracer.close()

        assert _fingerprint(resumed) == _fingerprint(reference)
        # Budget accounting: the incumbent re-evaluation on resume does
        # not count as a trial or consume budget.
        assert resumed.evaluations == reference.evaluations

    def test_resumed_journal_matches_uninterrupted_journal(
        self, tmp_path, edge_space, tiny_workload
    ):
        """The stitched journal (checkpoint prefix + resumed suffix) holds
        the same events an uninterrupted traced run writes, up to the
        evaluator-local counters in RunSummary."""
        ref_journal = tmp_path / "ref.jsonl"
        ref_tracer = Tracer(JsonlSink(ref_journal))
        ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=25,
        ).run(tracer=ref_tracer)
        ref_tracer.close()

        journal = tmp_path / "killed.jsonl"
        ckpt = default_checkpoint_path(journal)
        evaluator = _make_evaluator(tiny_workload, cls=KillableEvaluator)
        evaluator.kill_at = 14
        tracer = Tracer(JsonlSink(journal))
        with pytest.raises(KeyboardInterrupt):
            ExplainableDSE(
                edge_space, evaluator, _constraints(), max_evaluations=25
            ).run(tracer=tracer, checkpoint_path=ckpt)
        checkpoint = load_checkpoint(ckpt)
        sink = JsonlSink(journal, resume_events=checkpoint.journal_events)
        ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=25,
        ).run(
            tracer=Tracer(sink, seq_start=checkpoint.journal_events),
            checkpoint_path=ckpt,
            resume_from=ckpt,
        )
        sink.close()

        def strip_counters(events):
            return [
                dataclasses.replace(e, counters={})
                if isinstance(e, RunSummary)
                else e
                for e in events
            ]

        assert strip_counters(read_journal(journal)) == strip_counters(
            read_journal(ref_journal)
        )

    def test_resume_finished_campaign_returns_stored_result(
        self, tmp_path, edge_space, tiny_workload
    ):
        """A campaign that terminated (patience/mitigation exhaustion) is
        not re-explored on resume."""
        ckpt = tmp_path / "done.ckpt"
        evaluator = _make_evaluator(tiny_workload)
        # Budget far beyond what the tiny space needs, so the run ends by
        # termination, not budget exhaustion.
        finished = ExplainableDSE(
            edge_space, evaluator, _constraints(), max_evaluations=500
        ).run(checkpoint_path=str(ckpt))
        assert load_checkpoint(ckpt).finished

        evaluator2 = _make_evaluator(tiny_workload)
        resumed = ExplainableDSE(
            edge_space, evaluator2, _constraints(), max_evaluations=500
        ).run(resume_from=str(ckpt))
        assert evaluator2.evaluations == 0
        assert _fingerprint(resumed) == _fingerprint(finished)

    def test_resume_with_larger_budget_continues(
        self, tmp_path, edge_space, tiny_workload
    ):
        ckpt = tmp_path / "short.ckpt"
        short = ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=8,
        ).run(checkpoint_path=str(ckpt))
        assert short.evaluations == 8  # budget-limited
        evaluator = _make_evaluator(tiny_workload)
        longer = ExplainableDSE(
            edge_space, evaluator, _constraints(), max_evaluations=20
        ).run(resume_from=str(ckpt))
        assert longer.evaluations > 8
        assert longer.trials[:8] == short.trials[:8]

    def test_resume_after_breaker_abort_completes(
        self, tmp_path, edge_space, tiny_workload, monkeypatch
    ):
        """A circuit-breaker abort (too many candidate failures) leaves a
        resumable checkpoint/journal pair; resuming with a healthy
        evaluator finishes the campaign."""
        monkeypatch.setenv("REPRO_MAX_FAILURE_RATE", "0.2")
        journal = tmp_path / "flaky.jsonl"
        ckpt = default_checkpoint_path(journal)
        evaluator = _make_evaluator(tiny_workload, cls=FlakyEvaluator)
        evaluator.fail_from = 13
        tracer = Tracer(JsonlSink(journal))
        with pytest.raises(SystemicFaultError) as info:
            ExplainableDSE(
                edge_space, evaluator, _constraints(), max_evaluations=40
            ).run(tracer=tracer, checkpoint_path=ckpt)
        tracer.close()
        assert info.value.context["checkpoint"] == ckpt

        checkpoint = load_checkpoint(ckpt)
        assert not checkpoint.finished
        verify_against_journal(checkpoint, journal)
        assert any(
            "quarantined" in t.get("note", "") for t in checkpoint.trials
        )

        monkeypatch.delenv("REPRO_MAX_FAILURE_RATE")
        sink = JsonlSink(journal, resume_events=checkpoint.journal_events)
        resumed = ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=40,
        ).run(
            tracer=Tracer(sink, seq_start=checkpoint.journal_events),
            checkpoint_path=ckpt,
            resume_from=ckpt,
        )
        sink.close()

        assert resumed.best is not None
        final = load_checkpoint(ckpt)
        assert final.finished or final.consumed == 40
        verify_against_journal(final, journal)

    def test_model_mismatch_rejected(
        self, tmp_path, edge_space, tiny_workload, resnet18
    ):
        ckpt = tmp_path / "tiny.ckpt"
        ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=5,
        ).run(checkpoint_path=str(ckpt))
        other = _make_evaluator(resnet18)
        with pytest.raises(CheckpointError):
            ExplainableDSE(
                edge_space, other, _constraints(), max_evaluations=5
            ).run(resume_from=str(ckpt))

    def test_objective_mismatch_rejected(self, edge_space, tiny_workload):
        checkpoint = _sample_checkpoint(objective="energy_mj")
        with pytest.raises(CheckpointError):
            ExplainableDSE(
                edge_space, _make_evaluator(tiny_workload), _constraints(),
                max_evaluations=5,
            ).run(resume_from=checkpoint)


class TestJournalVerification:
    def _traced_run(self, tmp_path, edge_space, tiny_workload):
        journal = tmp_path / "run.jsonl"
        ckpt = default_checkpoint_path(journal)
        tracer = Tracer(JsonlSink(journal))
        ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=10,
        ).run(tracer=tracer, checkpoint_path=ckpt)
        tracer.close()
        return journal, load_checkpoint(ckpt)

    def test_consistent_pair_verifies(
        self, tmp_path, edge_space, tiny_workload
    ):
        journal, checkpoint = self._traced_run(
            tmp_path, edge_space, tiny_workload
        )
        verify_against_journal(checkpoint, journal)

    def test_truncated_journal_rejected(
        self, tmp_path, edge_space, tiny_workload
    ):
        journal, checkpoint = self._traced_run(
            tmp_path, edge_space, tiny_workload
        )
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(CheckpointError):
            verify_against_journal(checkpoint, journal)

    def test_tampered_incumbent_rejected(
        self, tmp_path, edge_space, tiny_workload
    ):
        journal, checkpoint = self._traced_run(
            tmp_path, edge_space, tiny_workload
        )
        checkpoint.current_point = dict(
            checkpoint.current_point, pes=999999
        )
        with pytest.raises(CheckpointError):
            verify_against_journal(checkpoint, journal)

    def test_missing_journal_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            verify_against_journal(
                _sample_checkpoint(), tmp_path / "none.jsonl"
            )


class TestResumeUnderCacheFaults:
    """Checkpoint-resume combined with mapping-cache persistence faults
    (``REPRO_FAULT_INJECT`` at the ``cache-save`` site).

    A campaign that dies mid-step *and* fails to persist its warm mapping
    cache must still resume exactly: the cache is a pure accelerator, so
    a cold (or quarantined-corrupt) cache changes wall-clock, never
    results."""

    def _reference(self, edge_space, tiny_workload):
        return ExplainableDSE(
            edge_space,
            _make_evaluator(tiny_workload),
            _constraints(),
            max_evaluations=25,
        ).run()

    def _killed_run(self, journal, cache, edge_space, tiny_workload):
        ckpt = default_checkpoint_path(journal)
        evaluator = KillableEvaluator(
            tiny_workload, TopNMapper(top_n=60), mapping_cache=cache
        )
        evaluator.kill_at = 14
        tracer = Tracer(JsonlSink(journal))
        with pytest.raises(KeyboardInterrupt):
            ExplainableDSE(
                edge_space, evaluator, _constraints(), max_evaluations=25
            ).run(tracer=tracer, checkpoint_path=ckpt)
        return ckpt

    def _resume(self, journal, ckpt, cache, edge_space, tiny_workload):
        checkpoint = load_checkpoint(ckpt)
        sink = JsonlSink(journal, resume_events=checkpoint.journal_events)
        tracer = Tracer(sink, seq_start=checkpoint.journal_events)
        evaluator = CostEvaluator(
            tiny_workload, TopNMapper(top_n=60), mapping_cache=cache
        )
        resumed = ExplainableDSE(
            edge_space, evaluator, _constraints(), max_evaluations=25
        ).run(tracer=tracer, checkpoint_path=ckpt, resume_from=ckpt)
        tracer.close()
        return resumed

    def test_injected_save_corruption_then_resume_matches(
        self, tmp_path, edge_space, tiny_workload, monkeypatch
    ):
        """The warm cache dies with the campaign (its save is corrupted);
        resuming from the checkpoint with a cold cache still reproduces
        the uninterrupted campaign exactly."""
        from repro.resilience.fault_injection import InjectedCorruption

        reference = self._reference(edge_space, tiny_workload)

        cache_path = tmp_path / "mapping_cache.pkl"
        journal = tmp_path / "run.jsonl"
        cache = MappingCache(persist_path=str(cache_path))
        ckpt = self._killed_run(journal, cache, edge_space, tiny_workload)

        monkeypatch.setenv("REPRO_FAULT_INJECT", "corrupt:cache-save:1.0")
        with pytest.raises(InjectedCorruption):
            cache.save()
        assert not cache_path.exists()
        monkeypatch.delenv("REPRO_FAULT_INJECT")

        # Warm-start attempt finds nothing on disk -> cold cache.
        resume_cache = MappingCache(persist_path=str(cache_path))
        resumed = self._resume(
            journal, ckpt, resume_cache, edge_space, tiny_workload
        )
        assert _fingerprint(resumed) == _fingerprint(reference)

    def test_corrupt_cache_file_quarantined_on_resume_and_matches(
        self, tmp_path, edge_space, tiny_workload
    ):
        """A cache file corrupted on disk between kill and resume is
        quarantined with a warning; the resumed campaign still matches."""
        reference = self._reference(edge_space, tiny_workload)

        cache_path = tmp_path / "mapping_cache.pkl"
        journal = tmp_path / "run.jsonl"
        ckpt = self._killed_run(
            journal,
            MappingCache(persist_path=str(cache_path)),
            edge_space,
            tiny_workload,
        )
        cache_path.write_bytes(b"\x80\x04 this is not a pickle")

        with pytest.warns(RuntimeWarning, match="corrupt"):
            resume_cache = MappingCache(persist_path=str(cache_path))
        assert (tmp_path / "mapping_cache.pkl.corrupt").exists()
        assert not cache_path.exists()

        resumed = self._resume(
            journal, ckpt, resume_cache, edge_space, tiny_workload
        )
        assert _fingerprint(resumed) == _fingerprint(reference)
