"""Telemetry: structured DSE traces, explanation reports, checkpoints.

The observability subsystem of the reproduction (see
``docs/observability.md``):

* :mod:`.events` — typed, schema-versioned trace events with a lossless
  JSON codec and the canonical ``(step, candidate_index)`` ordering;
* :mod:`.sinks` — null (default), in-memory ring buffer, and append-only
  JSONL journal sinks with deterministic sorted flush;
* :mod:`.tracer` — the :class:`Tracer` (event emission + span timers)
  and the shared disabled ``NULL_TRACER``;
* :mod:`.checkpoint` — atomic crash-safe campaign snapshots and
  journal-replay verification for ``ExplainableDSE.run(resume_from=...)``;
* :mod:`.report` — per-step Markdown/JSON explanation narratives
  (``python -m repro report <journal.jsonl>``).
"""

from repro.telemetry.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    default_checkpoint_path,
    load_checkpoint,
    save_checkpoint,
    verify_against_journal,
)
from repro.telemetry.events import (
    SCHEMA_VERSION,
    BottleneckIdentified,
    BudgetExhausted,
    CandidateEvaluated,
    CandidateFailed,
    CandidateGenerated,
    IncumbentUpdated,
    MitigationPredicted,
    RunSummary,
    StepStarted,
    TraceEventError,
    decode_event,
    deterministic_perf_counters,
    encode_event,
)
from repro.telemetry.report import (
    load_journal,
    render_json,
    render_markdown,
    render_report,
)
from repro.telemetry.sinks import (
    JsonlSink,
    NullSink,
    RingBufferSink,
    read_journal,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "SCHEMA_VERSION",
    "BottleneckIdentified",
    "BudgetExhausted",
    "CampaignCheckpoint",
    "CandidateEvaluated",
    "CandidateFailed",
    "CandidateGenerated",
    "CheckpointError",
    "IncumbentUpdated",
    "JsonlSink",
    "MitigationPredicted",
    "NULL_TRACER",
    "NullSink",
    "RingBufferSink",
    "RunSummary",
    "StepStarted",
    "TraceEventError",
    "Tracer",
    "decode_event",
    "default_checkpoint_path",
    "deterministic_perf_counters",
    "encode_event",
    "load_checkpoint",
    "load_journal",
    "read_journal",
    "render_json",
    "render_markdown",
    "render_report",
    "save_checkpoint",
    "verify_against_journal",
]
