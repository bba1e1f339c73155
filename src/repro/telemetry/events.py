"""Typed, schema-versioned DSE trace events.

Every acquisition step of :class:`~repro.core.dse.explainable.ExplainableDSE`
computes an explanation — the critical cost, the dominant bottleneck
sub-functions, a needed scaling factor, and mitigating (parameter, value)
predictions (paper §4.3–4.6) — and every baseline optimizer evaluates
candidates the same cost model scores.  These dataclasses are the
machine-readable form of that information: a journal of them is sufficient
to re-render the paper's Fig. 7/8-style narratives (:mod:`.report`), to
verify a campaign checkpoint (:mod:`.checkpoint`), and to compare traces
across search algorithms.

Design rules:

* **Deterministic payloads only.**  Events never carry wall-clock times
  or rates, so two runs of the same campaign emit byte-identical
  journals.  Wall-clock lives in
  :attr:`~repro.telemetry.tracer.Tracer.timings` (span timers) and in
  ``perf_summary()`` / ``--perf``, never in the journal.
* **JSON-native field types.**  Fields are ints, floats, bools, strings,
  lists, and string-keyed dicts, so ``event == decode_event(encode_event
  (event))`` holds exactly.  Non-finite floats are encoded as tagged
  objects (``{"$f": "inf"}``) because JSON has no ``inf``/``nan``.
* **Ordering tags.**  Every event carries ``(step, candidate_index)``;
  sinks sort on :func:`sort_key` at flush so any parallel interleaving
  collapses back to the canonical serial order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "TraceEventError",
    "StepStarted",
    "BottleneckIdentified",
    "MitigationPredicted",
    "CandidateGenerated",
    "CandidateEvaluated",
    "CandidateFailed",
    "IncumbentUpdated",
    "BudgetExhausted",
    "RunSummary",
    "encode_event",
    "decode_event",
    "sort_key",
    "deterministic_perf_counters",
]

#: Version of the journal record layout; bump on incompatible change.
SCHEMA_VERSION = 1


class TraceEventError(ValueError):
    """A journal record could not be decoded (schema/kind/field mismatch)."""


# -- the event model ----------------------------------------------------------
#
# ``_phase`` ranks events within a step for the canonical ordering:
# 0 = step-leading (analysis), 1 = candidate-scoped, 2 = step-trailing
# (decision/terminal).  It is a class attribute, not a serialized field.


@dataclass(frozen=True)
class StepStarted:
    """An acquisition attempt begins from the current incumbent."""

    step: int
    incumbent: Dict[str, Any]
    objective: float
    feasible: bool
    candidate_index: int = -1

    _phase = 0


@dataclass(frozen=True)
class BottleneckIdentified:
    """The critical cost and its dominant bottleneck for one step.

    Attributes:
        critical_cost: Cost key driving this step (objective key, violated
            constraint key, or ``"mappability"``).
        kind: ``"objective"`` | ``"constraint"`` | ``"incompatibility"``.
        model: Bottleneck model consulted (e.g. ``dnn-accel-latency``).
        dominant: ``[{"name": ..., "share": ...}]`` — the bottleneck
            sub-functions (layers) or the violated constraint, with their
            fractional cost contribution.
        scaling: Needed improvement factor (e.g. 2.3 = latency must shrink
            2.3x to meet throughput; area overshoot ratio), when known.
        detail: The human-readable explanation line.
    """

    step: int
    critical_cost: str
    kind: str
    model: str
    dominant: List[Dict[str, Any]]
    detail: str
    scaling: Optional[float] = None
    candidate_index: int = -1

    _phase = 0


@dataclass(frozen=True)
class MitigationPredicted:
    """One aggregated (parameter, value) mitigation prediction (§4.4)."""

    step: int
    parameter: str
    value: float
    subfunctions: List[str]
    candidate_index: int = -1

    _phase = 0


@dataclass(frozen=True)
class CandidateGenerated:
    """A candidate acquired from a prediction (rounded into the space)."""

    step: int
    candidate_index: int
    parameter: str
    value: Any
    reason: str

    _phase = 1


@dataclass(frozen=True)
class CandidateEvaluated:
    """A candidate's cost-model outcome."""

    step: int
    candidate_index: int
    point: Dict[str, Any]
    costs: Dict[str, float]
    feasible: bool
    mappable: bool
    note: str = ""

    _phase = 1


@dataclass(frozen=True)
class CandidateFailed:
    """A candidate evaluation was quarantined after exhausting retries.

    Emitted *instead of* :class:`CandidateEvaluated` when the cost model
    could not produce costs for a candidate (worker crashes, timeouts,
    mapper failures — see :mod:`repro.resilience`).  The trial ledger
    records the candidate as infeasible with infinite costs and the
    campaign continues; fault-free journals never contain this event.

    Attributes:
        point: The quarantined design point.
        error: The :class:`~repro.resilience.errors.ReproError` subclass
            name (e.g. ``WorkerTimeoutError``).
        message: The error's human-readable message (context included).
        attempts: Evaluation attempts consumed before quarantine.
        retryable: Whether the final error was still marked transient.
    """

    step: int
    candidate_index: int
    point: Dict[str, Any]
    error: str
    message: str
    attempts: int
    retryable: bool = False
    note: str = ""

    _phase = 1


@dataclass(frozen=True)
class IncumbentUpdated:
    """The step's update decision (§4.6); ``improved`` is False when the
    incumbent was kept."""

    step: int
    point: Dict[str, Any]
    objective: float
    decision: str
    improved: bool
    candidate_index: int = -1

    _phase = 2


@dataclass(frozen=True)
class BudgetExhausted:
    """The evaluation budget ran out."""

    step: int
    consumed: int
    budget: int
    candidate_index: int = -1

    _phase = 2


@dataclass(frozen=True)
class RunSummary:
    """End-of-run record: outcome plus deterministic pipeline counters.

    ``counters`` is the stable subset of
    :meth:`repro.cost.evaluator.CostEvaluator.perf_summary` (see
    :func:`deterministic_perf_counters`); the ``--perf`` stdout path is
    unchanged and remains the home of wall-clock rates.
    """

    step: int
    technique: str
    model: str
    evaluations: int
    best_objective: float
    found_feasible: bool
    counters: Dict[str, Any] = field(default_factory=dict)
    candidate_index: int = -1

    _phase = 2


EVENT_TYPES: Tuple[type, ...] = (
    StepStarted,
    BottleneckIdentified,
    MitigationPredicted,
    CandidateGenerated,
    CandidateEvaluated,
    CandidateFailed,
    IncumbentUpdated,
    BudgetExhausted,
    RunSummary,
)

_REGISTRY: Dict[str, Type] = {cls.__name__: cls for cls in EVENT_TYPES}


# -- ordering -----------------------------------------------------------------


def sort_key(seq: int, event: Any) -> Tuple[int, int, int, int]:
    """Canonical journal order: ``(step, phase, candidate_index, seq)``.

    ``candidate_index`` disambiguates events of parallel candidate
    evaluations within a step; ``seq`` (emission order) breaks the
    remaining ties, so sorting is a stable no-op for serial runs.
    """
    return (
        getattr(event, "step", 0),
        getattr(event, "_phase", 1),
        getattr(event, "candidate_index", -1),
        seq,
    )


# -- JSON codec ---------------------------------------------------------------


def _encode_value(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return {"$f": repr(value)}  # 'inf', '-inf', 'nan'
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$f"}:
            return float(value["$f"])
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def encode_event(event: Any) -> Dict[str, Any]:
    """Serialize an event to a JSON-compatible record (lossless).

    The payload nests under ``"data"`` so event field names can never
    collide with the ``schema``/``kind`` envelope.
    """
    kind = type(event).__name__
    if kind not in _REGISTRY:
        raise TraceEventError(f"not a trace event: {type(event)!r}")
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "data": {
            f.name: _encode_value(getattr(event, f.name))
            for f in dataclasses.fields(event)
        },
    }


def decode_event(record: Dict[str, Any]) -> Any:
    """Rebuild an event from its record; raises :class:`TraceEventError`."""
    schema = record.get("schema")
    if schema != SCHEMA_VERSION:
        raise TraceEventError(
            f"unsupported event schema {schema!r}; expected {SCHEMA_VERSION}"
        )
    kind = record.get("kind")
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise TraceEventError(f"unknown event kind {kind!r}")
    data = record.get("data")
    if not isinstance(data, dict):
        raise TraceEventError(f"malformed {kind} record: no data payload")
    try:
        return cls(
            **{
                f.name: _decode_value(data[f.name])
                for f in dataclasses.fields(cls)
                if f.name in data
            }
        )
    except TypeError as exc:  # missing required field
        raise TraceEventError(f"malformed {kind} record: {exc}") from exc


# -- perf-counter sampling ----------------------------------------------------

#: perf_summary() keys that vary run-to-run (wall clock) and therefore
#: must not enter the journal.
_VOLATILE_KEYS = frozenset({"stages"})


def deterministic_perf_counters(summary: Dict[str, Any]) -> Dict[str, Any]:
    """The run-invariant subset of ``CostEvaluator.perf_summary()``.

    Drops every timing-derived entry (keys containing ``"second"``),
    keeping the cache/batch-eval counters that are bit-identical between
    runs of the same campaign.
    """
    out: Dict[str, Any] = {}
    for key, value in summary.items():
        if key in _VOLATILE_KEYS or "second" in key:
            continue
        if isinstance(value, dict):
            out[key] = deterministic_perf_counters(value)
        else:
            out[key] = value
    return out
