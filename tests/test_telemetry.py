"""Tests for the telemetry subsystem: events, sinks, tracer, reports."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dse.constraints import Constraint, Sense
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.perf.mapping_cache import MappingCache
from repro.telemetry import (
    BottleneckIdentified,
    BudgetExhausted,
    CandidateEvaluated,
    CandidateGenerated,
    IncumbentUpdated,
    JsonlSink,
    MitigationPredicted,
    NullSink,
    RingBufferSink,
    RunSummary,
    StepStarted,
    TraceEventError,
    Tracer,
    decode_event,
    deterministic_perf_counters,
    encode_event,
    read_journal,
    render_json,
    render_markdown,
)

# -- hypothesis strategies over the event model -------------------------------

_step = st.integers(min_value=0, max_value=10**6)
_index = st.integers(min_value=-1, max_value=10**4)
_floats = st.floats(allow_nan=False)
_name = st.text(min_size=1, max_size=12)
_scalar = st.one_of(
    st.integers(-(10**9), 10**9), _floats, st.booleans(), st.text(max_size=8)
)
_point = st.dictionaries(_name, _scalar, max_size=5)
_costs = st.dictionaries(_name, _floats, max_size=5)

EVENTS = st.one_of(
    st.builds(
        StepStarted,
        step=_step,
        incumbent=_point,
        objective=_floats,
        feasible=st.booleans(),
        candidate_index=_index,
    ),
    st.builds(
        BottleneckIdentified,
        step=_step,
        critical_cost=_name,
        kind=st.sampled_from(("objective", "constraint", "incompatibility")),
        model=_name,
        dominant=st.lists(
            st.fixed_dictionaries(
                {"name": _name, "share": st.floats(0, 1)}
            ),
            max_size=3,
        ),
        detail=st.text(max_size=40),
        scaling=st.none() | _floats,
        candidate_index=_index,
    ),
    st.builds(
        MitigationPredicted,
        step=_step,
        parameter=_name,
        value=_floats,
        subfunctions=st.lists(_name, max_size=3),
        candidate_index=_index,
    ),
    st.builds(
        CandidateGenerated,
        step=_step,
        candidate_index=_index,
        parameter=_name,
        value=_scalar,
        reason=st.text(max_size=30),
    ),
    st.builds(
        CandidateEvaluated,
        step=_step,
        candidate_index=_index,
        point=_point,
        costs=_costs,
        feasible=st.booleans(),
        mappable=st.booleans(),
        note=st.text(max_size=20),
    ),
    st.builds(
        IncumbentUpdated,
        step=_step,
        point=_point,
        objective=_floats,
        decision=st.text(max_size=30),
        improved=st.booleans(),
        candidate_index=_index,
    ),
    st.builds(
        BudgetExhausted,
        step=_step,
        consumed=_step,
        budget=_step,
        candidate_index=_index,
    ),
    st.builds(
        RunSummary,
        step=_step,
        technique=_name,
        model=_name,
        evaluations=_step,
        best_objective=_floats,
        found_feasible=st.booleans(),
        counters=st.dictionaries(_name, st.integers(0, 100), max_size=3),
        candidate_index=_index,
    ),
)


class TestEventCodec:
    @given(event=EVENTS)
    @settings(max_examples=200, deadline=None)
    def test_jsonl_roundtrip(self, event):
        """event == decode(json-line(encode(event))) for any event."""
        line = json.dumps(encode_event(event))
        assert decode_event(json.loads(line)) == event

    def test_nonfinite_floats_roundtrip(self):
        event = CandidateEvaluated(
            step=1,
            candidate_index=0,
            point={"pes": 64},
            costs={"latency_ms": math.inf, "energy_mj": -math.inf},
            feasible=False,
            mappable=False,
        )
        back = decode_event(json.loads(json.dumps(encode_event(event))))
        assert back == event
        assert back.costs["latency_ms"] == math.inf

    def test_nan_roundtrip(self):
        event = IncumbentUpdated(
            step=2,
            point={},
            objective=math.nan,
            decision="x",
            improved=False,
        )
        back = decode_event(json.loads(json.dumps(encode_event(event))))
        assert math.isnan(back.objective)

    def test_rejects_wrong_schema(self):
        record = encode_event(BudgetExhausted(step=1, consumed=5, budget=5))
        record["schema"] = 999
        with pytest.raises(TraceEventError):
            decode_event(record)

    def test_rejects_unknown_kind(self):
        with pytest.raises(TraceEventError):
            decode_event({"schema": 1, "kind": "Nope", "data": {}})

    def test_rejects_missing_fields(self):
        with pytest.raises(TraceEventError):
            decode_event(
                {"schema": 1, "kind": "StepStarted", "data": {"step": 1}}
            )

    def test_rejects_non_event(self):
        with pytest.raises(TraceEventError):
            encode_event({"step": 1})


class TestSinks:
    def test_ring_buffer_canonical_order(self):
        sink = RingBufferSink()
        trailing = IncumbentUpdated(
            step=1, point={}, objective=1.0, decision="kept", improved=False
        )
        late_candidate = CandidateEvaluated(
            step=1, candidate_index=2, point={}, costs={}, feasible=True,
            mappable=True,
        )
        early_candidate = CandidateEvaluated(
            step=1, candidate_index=0, point={}, costs={}, feasible=True,
            mappable=True,
        )
        # recorded in a "parallel completion" order
        sink.record(1, trailing)
        sink.record(2, late_candidate)
        sink.record(3, early_candidate)
        assert sink.events() == [early_candidate, late_candidate, trailing]

    def test_ring_buffer_capacity(self):
        sink = RingBufferSink(capacity=3)
        for step in range(10):
            sink.record(step, BudgetExhausted(step=step, consumed=0, budget=0))
        assert len(sink) == 3
        assert [e.step for e in sink.events()] == [7, 8, 9]

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        events = [
            StepStarted(step=1, incumbent={"pes": 64}, objective=math.inf,
                        feasible=False),
            CandidateEvaluated(step=1, candidate_index=0, point={"pes": 128},
                               costs={"latency_ms": 2.5}, feasible=True,
                               mappable=True),
            IncumbentUpdated(step=1, point={"pes": 128}, objective=2.5,
                             decision="improved", improved=True),
        ]
        sink = JsonlSink(path)
        for seq, event in enumerate(events):
            sink.record(seq, event)
        sink.flush(checkpoint=True)
        assert read_journal(path) == events
        assert sink.events_written == len(events)

    def test_jsonl_sink_sorts_at_flush(self, tmp_path):
        path = tmp_path / "j.jsonl"
        sink = JsonlSink(path)
        b = CandidateEvaluated(step=1, candidate_index=1, point={}, costs={},
                               feasible=True, mappable=True)
        a = CandidateEvaluated(step=1, candidate_index=0, point={}, costs={},
                               feasible=True, mappable=True)
        sink.record(1, b)
        sink.record(2, a)
        sink.close()
        assert read_journal(path) == [a, b]

    def test_jsonl_resume_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        sink = JsonlSink(path)
        for step in range(5):
            sink.record(step, BudgetExhausted(step=step, consumed=0, budget=0))
        sink.close()
        resumed = JsonlSink(path, resume_events=3)
        assert resumed.events_written == 3
        assert [e.step for e in read_journal(path)] == [0, 1, 2]

    def test_jsonl_resume_missing_file(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "missing.jsonl", resume_events=2)

    def test_jsonl_resume_short_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        sink = JsonlSink(path)
        sink.record(1, BudgetExhausted(step=1, consumed=0, budget=0))
        sink.close()
        with pytest.raises(ValueError):
            JsonlSink(path, resume_events=5)

    def test_read_journal_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceEventError):
            read_journal(path)


class TestTracer:
    def test_null_tracer_disabled(self):
        tracer = Tracer()
        tracer.emit(BudgetExhausted(step=1, consumed=0, budget=0))
        assert not tracer.enabled
        assert tracer.events_emitted == 0

    def test_null_sink_keeps_tracer_disabled(self):
        tracer = Tracer(NullSink())
        tracer.emit(BudgetExhausted(step=1, consumed=0, budget=0))
        assert not tracer.enabled
        assert tracer.events_emitted == 0

    def test_span_records_timings_only_when_enabled(self):
        disabled = Tracer()
        with disabled.span("work"):
            pass
        assert "work" not in disabled.timings.as_dict()
        enabled = Tracer(RingBufferSink())
        with enabled.span("work"):
            pass
        assert enabled.timings.as_dict()["work"]["calls"] == 1

    def test_seq_start_offsets_ordering(self):
        tracer = Tracer(RingBufferSink(), seq_start=10)
        tracer.emit(BudgetExhausted(step=1, consumed=0, budget=0))
        assert tracer.events_emitted == 11


class TestDeterministicCounters:
    def test_drops_volatile_keys(self):
        summary = {
            "evaluations": 4,
            "total_seconds": 1.5,
            "evaluations_per_second": 2.7,
            "stages": {"mapping": {}},
            "mapping_cache": {"hits": 3, "seconds_saved": 0.2},
        }
        counters = deterministic_perf_counters(summary)
        assert counters == {
            "evaluations": 4,
            "mapping_cache": {"hits": 3},
        }


# -- end-to-end determinism over a real campaign ------------------------------


def _constraints():
    return [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
        Constraint("throughput", "throughput", 200.0, Sense.GEQ),
    ]


def _make_evaluator(workload):
    # A private MappingCache per evaluator: the process-wide shared cache
    # would couple the compared runs.
    return CostEvaluator(
        workload, TopNMapper(top_n=60), mapping_cache=MappingCache()
    )


def _result_fingerprint(result):
    return (
        [t.point for t in result.trials],
        [t.costs for t in result.trials],
        result.explanations,
        result.best.point if result.best else None,
        result.evaluations,
    )


class TestCampaignDeterminism:
    def test_null_sink_run_bit_identical_to_untraced(
        self, edge_space, tiny_workload
    ):
        untraced = ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=15,
        ).run()
        null_traced = ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=15,
        ).run(tracer=Tracer(NullSink()))
        assert _result_fingerprint(untraced) == _result_fingerprint(
            null_traced
        )

    def test_ring_traced_run_bit_identical_to_untraced(
        self, edge_space, tiny_workload
    ):
        untraced = ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=15,
        ).run()
        tracer = Tracer(RingBufferSink())
        traced = ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), _constraints(),
            max_evaluations=15,
        ).run(tracer=tracer)
        assert _result_fingerprint(untraced) == _result_fingerprint(traced)
        assert tracer.events_emitted > 0

    def test_run_summary_carries_perf_counters(
        self, tmp_path, edge_space, tiny_workload
    ):
        """perf_summary() counters reach the journal (satellite 2)."""
        journal = tmp_path / "run.jsonl"
        evaluator = _make_evaluator(tiny_workload)
        tracer = Tracer(JsonlSink(journal))
        ExplainableDSE(
            edge_space, evaluator, _constraints(), max_evaluations=10
        ).run(tracer=tracer)
        tracer.close()
        summaries = [
            e for e in read_journal(journal) if isinstance(e, RunSummary)
        ]
        assert len(summaries) == 1
        counters = summaries[0].counters
        assert counters["evaluations"] == summaries[0].evaluations > 0
        assert "mapping_cache" in counters
        assert "batch_eval" in counters
        # no wall-clock or worker-pool config in the journal
        flat = json.dumps(counters)
        assert "second" not in flat
        assert "jobs" not in counters and "executor" not in counters


class TestReport:
    @pytest.fixture()
    def journal_events(self, edge_space, tiny_workload):
        # A throughput requirement the minimum point misses, so step 1 is
        # a scaling-bearing bottleneck analysis (paper Fig. 7 shape).
        constraints = [
            Constraint("area", "area_mm2", 75.0),
            Constraint("power", "power_w", 4.0),
            Constraint("throughput", "throughput", 5000.0, Sense.GEQ),
        ]
        tracer = Tracer(RingBufferSink(capacity=100000))
        ExplainableDSE(
            edge_space, _make_evaluator(tiny_workload), constraints,
            max_evaluations=15,
        ).run(tracer=tracer)
        return tracer.events()

    def test_markdown_names_bottleneck_scaling_prediction(
        self, journal_events
    ):
        text = render_markdown(journal_events)
        assert "dominated by" in text
        assert "scaling s=" in text
        assert "proposed" in text
        assert "## Step 1" in text

    def test_json_report_structure(self, journal_events):
        data = render_json(journal_events)
        steps = [s for s in data["steps"] if s["step"] >= 1]
        assert steps
        first = steps[0]
        assert first["critical_cost"]
        assert first["predictions"]
        assert "narrative" in first
        assert data["summary"]["technique"] == "explainable"
