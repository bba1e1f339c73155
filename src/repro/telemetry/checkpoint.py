"""Crash-safe campaign checkpoints for DSE runs.

A :class:`CampaignCheckpoint` snapshots everything
:meth:`~repro.core.dse.explainable.ExplainableDSE.run` needs to continue
mid-campaign: the incumbent, the consumed budget, the acquisition
bookkeeping (tried points, exhausted parameters, patience counter), the
full trial/explanation history, the RNG state (``None`` for the
deterministic core loop), a mapping-cache manifest, and the journal
position the snapshot covers.

Snapshots are written atomically (write to a temp file in the same
directory, ``fsync``, ``os.replace``), so a campaign killed at any
instant — including mid-write — leaves either the previous or the new
checkpoint intact, never a torn file.  :func:`verify_against_journal`
replays the trace journal against a snapshot before a resume, catching
mismatched or stale checkpoint/journal pairs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.events import (
    CandidateEvaluated,
    CandidateFailed,
    IncumbentUpdated,
    TraceEventError,
)
from repro.telemetry.sinks import read_journal

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CampaignCheckpoint",
    "default_checkpoint_path",
    "save_checkpoint",
    "load_checkpoint",
    "verify_against_journal",
]

#: Version of the checkpoint layout; bump on incompatible change.
CHECKPOINT_SCHEMA = 1


class CheckpointError(ValueError):
    """A checkpoint is missing, corrupt, or inconsistent with its journal."""


@dataclass
class CampaignCheckpoint:
    """Resumable snapshot of one DSE campaign.

    Attributes:
        model / objective / max_evaluations: Campaign identity; resume
            validates ``model`` and ``objective`` against the DSE it is
            applied to.
        consumed: Evaluations already spent (budget accounting).
        attempt: Last *completed* acquisition attempt.
        attempts_without_improvement: Patience counter at snapshot time.
        finished: True when the campaign terminated (patience or
            mitigation exhaustion); resuming returns the stored outcome
            without exploring further.
        current_point: The incumbent design point.
        exhausted: Parameters whose mitigation direction is exhausted.
        tried_keys: Canonical design-space index keys of every point
            acquired so far (resume requires the same design space).
        trials / explanations: Full run history, serialized like
            :mod:`repro.core.dse.serialization`.
        rng_state: JSON-able RNG state for stochastic loops (``None``
            for the deterministic core loop).
        mapping_cache_manifest: Deterministic counters of the layer-level
            mapping cache at snapshot time (informational).
        journal_events: Number of journal events this snapshot covers;
            the resumed journal is truncated to it and verification
            replays exactly that prefix.
    """

    model: str
    objective: str
    max_evaluations: int
    consumed: int
    attempt: int
    attempts_without_improvement: int
    finished: bool
    current_point: Dict[str, Any]
    exhausted: List[str]
    tried_keys: List[List[Any]]
    trials: List[Dict[str, Any]]
    explanations: List[str]
    rng_state: Optional[Any] = None
    mapping_cache_manifest: Dict[str, Any] = field(default_factory=dict)
    journal_events: int = 0
    schema: int = CHECKPOINT_SCHEMA


def default_checkpoint_path(trace_path: Union[str, Path]) -> str:
    """The checkpoint file paired with a trace journal path."""
    return str(trace_path) + ".ckpt"


def save_checkpoint(
    checkpoint: CampaignCheckpoint, path: Union[str, Path]
) -> None:
    """Atomically persist a checkpoint (write-temp, fsync, rename).

    A campaign saves one at every attempt, so the payload is built from
    the fields as they are (the trial dicts are fresh per snapshot)
    rather than through ``dataclasses.asdict``, which deep-copies the
    whole history, and written as compact JSON, which the C encoder
    serializes (``indent`` forces the pure-Python one).  The file
    parses to ``dataclasses.asdict(checkpoint)`` either way.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    payload = json.dumps(
        {
            field.name: getattr(checkpoint, field.name)
            for field in dataclasses.fields(checkpoint)
        },
        separators=(",", ":"),
    )
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_checkpoint(path: Union[str, Path]) -> CampaignCheckpoint:
    """Load and validate a checkpoint file.

    Raises:
        CheckpointError: when the file is missing, not JSON, or not a
            compatible checkpoint schema.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path!r}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path!r}: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {data.get('schema')!r} in "
            f"{path!r}; expected {CHECKPOINT_SCHEMA}"
        )
    known = {f.name for f in dataclasses.fields(CampaignCheckpoint)}
    try:
        return CampaignCheckpoint(
            **{k: v for k, v in data.items() if k in known}
        )
    except TypeError as exc:
        raise CheckpointError(
            f"incomplete checkpoint {path!r}: {exc}"
        ) from exc


def verify_against_journal(
    checkpoint: CampaignCheckpoint, journal_path: Union[str, Path]
) -> None:
    """Replay a journal prefix to confirm it produced this checkpoint.

    Checks that the journal holds at least ``journal_events`` records,
    that the number of candidate evaluations in that prefix matches the
    checkpoint's trial count, and that the last incumbent the journal
    records equals the checkpoint's ``current_point``.

    Raises:
        CheckpointError: on any mismatch or an undecodable journal.
    """
    try:
        events = read_journal(journal_path)
    except FileNotFoundError:
        raise CheckpointError(
            f"checkpoint references journal {journal_path!r}, "
            "which does not exist"
        ) from None
    except (TraceEventError, ValueError) as exc:
        raise CheckpointError(
            f"journal {journal_path!r} is undecodable: {exc}"
        ) from exc
    if len(events) < checkpoint.journal_events:
        raise CheckpointError(
            f"journal {journal_path!r} holds {len(events)} events but the "
            f"checkpoint covers {checkpoint.journal_events}"
        )
    prefix = events[: checkpoint.journal_events]
    evaluated = [e for e in prefix if isinstance(e, CandidateEvaluated)]
    # Quarantined candidates (CandidateFailed) enter the trial ledger too.
    failed = [e for e in prefix if isinstance(e, CandidateFailed)]
    if len(evaluated) + len(failed) != len(checkpoint.trials):
        raise CheckpointError(
            f"journal prefix records {len(evaluated)} evaluations and "
            f"{len(failed)} quarantined candidates but the checkpoint "
            f"holds {len(checkpoint.trials)} trials"
        )
    incumbent: Optional[Dict[str, Any]] = None
    for event in prefix:
        if isinstance(event, IncumbentUpdated):
            incumbent = event.point
    if incumbent is None and evaluated:
        incumbent = evaluated[0].point  # initial point, pre-first-decision
    if incumbent is not None and dict(incumbent) != dict(
        checkpoint.current_point
    ):
        raise CheckpointError(
            "journal incumbent does not match the checkpoint snapshot "
            f"({incumbent!r} != {checkpoint.current_point!r})"
        )


def trials_to_dicts(trials) -> List[Dict[str, Any]]:
    """Serialize :class:`~repro.core.dse.result.TrialRecord` instances."""
    from repro.core.dse.serialization import _trial_to_dict

    return [_trial_to_dict(trial) for trial in trials]


def trials_from_dicts(data: List[Dict[str, Any]]):
    """Rebuild :class:`~repro.core.dse.result.TrialRecord` instances."""
    from repro.core.dse.serialization import _trial_from_dict

    return [_trial_from_dict(item) for item in data]
