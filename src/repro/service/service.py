"""The campaign service: async multi-tenant DSE-as-a-service.

:class:`CampaignService` accepts campaign submissions from multiple
tenants and interleaves their acquisition attempts in one process; each
campaign evaluates its design points through the in-process fused
cross-layer kernels (:mod:`repro.cost.fused`).  Scheduling is delegated
to the deterministic :class:`~repro.service.scheduler.CampaignScheduler`;
execution is delegated to
:class:`~repro.service.machine.CampaignStateMachine`, the same object a
straight ``ExplainableDSE.run()`` drives — so a campaign that ran
through the service is bit-identical to one that ran alone.

Slices execute strictly one at a time (``asyncio.to_thread`` keeps the
event loop responsive while a slice computes), and the
one-slice-at-a-time rule is what makes the interleaving — and therefore
every journal — deterministic.

Every campaign gets its own spool directory keyed by campaign id::

    <spool>/<campaign_id>/spec.json           submission record
    <spool>/<campaign_id>/journal.jsonl       telemetry journal
    <spool>/<campaign_id>/journal.jsonl.ckpt  resumable checkpoint
    <spool>/<campaign_id>/state.json          service-level status
    <spool>/<campaign_id>/frontier.jsonl      Pareto-archive journal

Per-campaign journal files are what let N campaigns trace concurrently:
:class:`~repro.telemetry.sinks.JsonlSink` assumes one campaign per file
(its resume truncation rewinds the whole file), so the service never
shares a journal between campaigns and takes the sink's exclusive lock
against accidental collisions.  A service process that dies (SIGTERM,
SIGKILL, power loss) restarts from the spool: campaigns resume from
their checkpoints and finish with the same fingerprints an uninterrupted
service — or a solo run — would produce.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, AsyncIterator, Callable, Dict, List, Optional

from repro.resilience.errors import WorkerCrashError
from repro.resilience.fault_injection import attempt_scope, inject
from repro.service.machine import (
    CampaignState,
    CampaignStateMachine,
    result_fingerprint,
)
from repro.service.scheduler import CampaignScheduler, SchedulerError

__all__ = [
    "CampaignSpec",
    "CampaignService",
    "ServiceError",
    "UnknownCampaignError",
    "ServiceOverloadError",
    "default_campaign_factory",
]


class ServiceError(RuntimeError):
    """An invalid service operation (wrong state, bad argument).

    ``http_status`` is the explicit HTTP mapping the endpoint uses —
    no substring matching on messages.  Subclasses refine it.
    """

    http_status = 409


class UnknownCampaignError(ServiceError):
    """A campaign (or tenant) id the service has never seen."""

    http_status = 404


class ServiceOverloadError(ServiceError):
    """A submission shed by admission control.

    ``http_status`` is 429 when the *tenant's* in-flight cap was hit
    (the tenant's own backlog is the problem) and 503 when the global
    waiting queue is full (the service as a whole is overloaded).
    ``retry_after`` is the server's backoff hint in seconds, surfaced
    as the ``Retry-After`` response header.
    """

    def __init__(self, message: str, *, status: int, retry_after: float):
        super().__init__(message)
        self.http_status = int(status)
        self.retry_after = float(retry_after)


@dataclass
class CampaignSpec:
    """One campaign submission.

    ``tenant_quota`` is the tenant's total step budget (``None`` defers
    to the service default, ``0`` means unlimited) and ``tenant_weight``
    scales the steps granted per scheduler turn; both update the tenant
    record at submission time.

    ``deadline_s`` is the campaign's wall-clock *processing* budget:
    the cumulative time the service may spend executing its slices.
    It is checked only at slice/attempt boundaries; a campaign that
    overruns settles as ``expired`` through a forced checkpoint, so
    :meth:`CampaignService.extend_deadline` (or a service restart plus
    an extension) completes it bit-identically later.

    ``idempotency_key`` makes submission at-most-once: the service
    remembers the key in the spooled submission record, and a retried
    submit with the same key returns the existing campaign id instead
    of starting a second campaign.

    :meth:`CampaignService.submit` checks the fields the service and
    scheduler read (:meth:`validate`) before it queues anything.
    """

    model: str
    tenant: str = "default"
    iterations: int = 40
    mapping_mode: str = "codesign"
    objective: str = "latency"
    top_n: int = 150
    tenant_weight: Optional[int] = None
    tenant_quota: Optional[int] = None
    deadline_s: Optional[float] = None
    idempotency_key: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first malformed field the
        service or scheduler reads.  Such a field would otherwise fail
        inside the scheduling loop that every tenant's campaigns share,
        or starve its tenant silently."""

        def integer(name: str, low: int, optional: bool) -> None:
            value = getattr(self, name)
            if value is None and optional:
                return
            if isinstance(value, bool) or not isinstance(value, int) or (
                value < low
            ):
                allowed = f"an integer >= {low}" + (
                    " or null" if optional else ""
                )
                raise ValueError(f"{name} must be {allowed}, got {value!r}")

        if not isinstance(self.tenant, str):
            raise ValueError(f"tenant must be a string, got {self.tenant!r}")
        integer("iterations", 1, optional=False)
        integer("tenant_weight", 1, optional=True)
        integer("tenant_quota", 0, optional=True)
        deadline = self.deadline_s
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or not math.isfinite(deadline)
            or deadline <= 0
        ):
            raise ValueError(
                "deadline_s must be a finite number > 0 or null, "
                f"got {deadline!r}"
            )
        if self.idempotency_key is not None and not isinstance(
            self.idempotency_key, str
        ):
            raise ValueError(
                "idempotency_key must be a string or null, "
                f"got {self.idempotency_key!r}"
            )


def default_campaign_factory(spec: CampaignSpec):
    """Build the :class:`ExplainableDSE` for one submission.

    Edge design space, Table 1 constraints, and a fresh evaluator per
    campaign (own mapping cache — interleaved campaigns must not warm
    each other's caches, or their journals would diverge from solo
    runs).  Every campaign runs the fused cross-layer path.
    """
    # Heavy imports stay out of module import time (and out of the
    # machine/scheduler import graph).
    from repro.arch.accelerator import build_edge_design_space
    from repro.core.dse.explainable import ExplainableDSE
    from repro.experiments.setup import edge_constraints, make_evaluator
    from repro.perf.mapping_cache import MappingCache

    evaluator = make_evaluator(
        spec.model,
        mapping_mode=spec.mapping_mode,
        top_n=spec.top_n,
        objective=spec.objective,
        fused_eval=True,
        # An explicit private cache: CachingMapper would otherwise fall
        # back to the process-global shared_cache(), whose entry gauge
        # (and, for same-model campaigns, hits) leaks into RunSummary
        # and breaks byte-identity with solo runs.
        mapping_cache=MappingCache(),
    )
    return ExplainableDSE(
        build_edge_design_space(),
        evaluator,
        edge_constraints(spec.model),
        max_evaluations=spec.iterations,
    )


@dataclass
class _CampaignRecord:
    """Service-side bookkeeping for one campaign."""

    campaign_id: str
    spec: CampaignSpec
    machine: Optional[CampaignStateMachine] = None
    sink: Any = None
    status: str = "queued"
    error: Optional[str] = None
    cancel_requested: bool = False
    steps_done: int = 0
    slices: int = 0
    fingerprint: Optional[str] = None
    outcome: Optional[Dict[str, Any]] = None
    done_event: Optional[asyncio.Event] = None
    #: Runtime deadline budget (starts as ``spec.deadline_s``; deadline
    #: extensions move it without rewriting the submission record).
    deadline_s: Optional[float] = None
    #: Cumulative slice wall time charged against the deadline.
    elapsed_s: float = 0.0
    #: Per-record spool-write sequence (the fault-injection attempt).
    persist_seq: int = 0


#: Campaign states the service reports as settled.  ``expired`` is
#: terminal for waiting/recovery purposes but reversible: a fresh
#: deadline re-queues the campaign from its forced checkpoint.
_TERMINAL = {"finished", "cancelled", "failed", "expired"}


class CampaignService:
    """Async multi-tenant campaign service.

    Args:
        spool_dir: Root of the per-campaign spool (created on start;
            restarting on the same spool resumes unfinished campaigns).
        max_concurrent / quantum / default_quota: Scheduler policy
            (``None`` reads the ``REPRO_SERVICE_*`` / ``REPRO_TENANT_*``
            knobs).
        max_queue / tenant_inflight: Admission control —
            submissions past the global waiting-queue bound are shed
            with 503, past the per-tenant in-flight cap with 429
            (``None`` reads ``REPRO_SERVICE_MAX_QUEUE`` /
            ``REPRO_SERVICE_TENANT_INFLIGHT``).
        overload_slice_s: Slice-latency watermark in seconds; when the
            exponentially weighted moving average of slice wall time
            exceeds it, the scheduler quantum is clamped to one attempt
            (load is *absorbed* by finer slicing before any shedding
            happens).
        campaign_factory: ``spec -> ExplainableDSE`` (default:
            :func:`default_campaign_factory`).
    """

    def __init__(
        self,
        spool_dir: os.PathLike,
        *,
        max_concurrent: Optional[int] = None,
        quantum: Optional[int] = None,
        default_quota: Optional[int] = "env",
        max_queue: Optional[int] = None,
        tenant_inflight: Optional[int] = None,
        overload_slice_s: float = 2.0,
        campaign_factory: Optional[Callable] = None,
    ):
        from repro.perf.knobs import (
            service_max_queue,
            service_tenant_inflight,
        )

        self.spool = Path(spool_dir)
        self.scheduler = CampaignScheduler(
            quantum=quantum,
            max_concurrent=max_concurrent,
            default_quota=default_quota,
        )
        self.max_queue = service_max_queue(max_queue)
        self.tenant_inflight = service_tenant_inflight(tenant_inflight)
        self.overload_slice_s = float(overload_slice_s)
        self._factory = campaign_factory or default_campaign_factory
        self._records: Dict[str, _CampaignRecord] = {}
        self._counter = 0
        self._wake: Optional[asyncio.Event] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._stopping = False
        #: (campaign_id, steps) slices in dispatch order, for tests.
        self.slice_log: List[tuple] = []
        #: idempotency key -> campaign id (rebuilt from the spool).
        self._idempotency: Dict[str, str] = {}
        #: idempotency key -> times a submit replayed it (the ambient
        #: fault-injection attempt, so injected submit faults re-roll on
        #: client retries exactly like evaluation retries re-roll).
        self._submit_replays: Dict[str, int] = {}
        #: EWMA of slice wall seconds (None until the first slice).
        self._ewma_slice_s: Optional[float] = None
        #: Resilience counters surfaced through ``healthz()``.
        self.counters: Dict[str, int] = {
            "shed_429": 0,
            "shed_503": 0,
            "expired": 0,
            "deadline_extensions": 0,
            "dedup_hits": 0,
            "slice_faults": 0,
            "spool_write_faults": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Create the spool, recover prior campaigns, start scheduling."""
        if self._loop_task is not None:
            raise ServiceError("service already started")
        self.spool.mkdir(parents=True, exist_ok=True)
        self._wake = asyncio.Event()
        self._stopping = False
        self._recover()
        self._loop_task = asyncio.create_task(self._run_loop())

    async def stop(self) -> None:
        """Stop at the next slice boundary; every running campaign is
        left checkpointed and resumable (a later :meth:`start` on the
        same spool continues it)."""
        if self._loop_task is None:
            return
        self._stopping = True
        self._wake.set()
        await self._loop_task
        self._loop_task = None
        for record in self._records.values():
            self._close_sink(record)

    async def drained(self) -> None:
        """Wait until no submitted campaign can still make progress."""
        while True:
            if self.scheduler.idle or self.scheduler.starved:
                return
            await asyncio.sleep(0.02)

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild records from the spool after a restart (or crash).

        Every spool file is treated as possibly torn: the service's own
        writes are atomic (write-temp/rename), but a SIGKILL may still
        leave artifacts from older writers or a full disk.  A corrupt
        ``tenants.json`` starts tenants fresh; a corrupt ``state.json``
        degrades to "unknown, resume from checkpoint"; a corrupt
        ``spec.json`` means the campaign cannot be rebuilt and is
        skipped with a warning (its directory is preserved for
        inspection).
        """
        tenants_path = self.spool / "tenants.json"
        if tenants_path.exists():
            try:
                entries = json.loads(tenants_path.read_text())
            except (json.JSONDecodeError, OSError) as exc:
                warnings.warn(
                    f"ignoring corrupt tenants record {tenants_path}: "
                    f"{exc}",
                    RuntimeWarning,
                )
                entries = []
            for entry in entries:
                tenant = self.scheduler.register_tenant(
                    entry["tenant"],
                    weight=entry.get("weight"),
                    quota=entry.get("quota"),
                )
                tenant.steps_used = int(entry.get("steps_used", 0))
        for path in sorted(self.spool.iterdir()):
            spec_path = path / "spec.json"
            if not spec_path.is_file():
                continue
            campaign_id = path.name
            try:
                spec = CampaignSpec.from_dict(
                    json.loads(spec_path.read_text())
                )
            except (json.JSONDecodeError, OSError, TypeError) as exc:
                warnings.warn(
                    f"skipping campaign {campaign_id}: corrupt submission "
                    f"record ({exc})",
                    RuntimeWarning,
                )
                continue
            record = _CampaignRecord(campaign_id=campaign_id, spec=spec)
            record.done_event = asyncio.Event()
            record.deadline_s = spec.deadline_s
            state_path = path / "state.json"
            if state_path.exists():
                try:
                    state = json.loads(state_path.read_text())
                except (json.JSONDecodeError, OSError):
                    state = {}
                record.status = state.get("status", "queued")
                record.error = state.get("error")
                record.steps_done = int(state.get("steps_done", 0))
                record.fingerprint = state.get("fingerprint")
                record.outcome = state.get("outcome")
                record.elapsed_s = float(state.get("elapsed_s", 0.0))
                if "deadline_s" in state:
                    record.deadline_s = state["deadline_s"]
            self._records[campaign_id] = record
            self._counter = max(self._counter, int(campaign_id[1:]) + 1)
            if spec.idempotency_key:
                self._idempotency[spec.idempotency_key] = campaign_id
            if record.status in _TERMINAL:
                record.done_event.set()
                continue
            record.status = "queued"
            record.machine = None  # rebuilt (and resumed) at first slice
            self._register_tenant(spec)
            self.scheduler.submit(campaign_id, spec.tenant)

    # -- API -----------------------------------------------------------------

    def _register_tenant(self, spec: CampaignSpec) -> None:
        quota = "default"
        if spec.tenant_quota is not None:
            quota = None if spec.tenant_quota == 0 else spec.tenant_quota
        self.scheduler.register_tenant(
            spec.tenant, weight=spec.tenant_weight, quota=quota
        )

    def _retry_after_hint(self) -> float:
        """Server backoff hint for shed submissions: the expected time
        to drain one queue position, floored at 1s and capped at 60s."""
        per_slice = self._ewma_slice_s if self._ewma_slice_s else 0.5
        backlog = self.scheduler.waiting_count + 1
        return float(min(60, max(1, math.ceil(per_slice * backlog))))

    async def submit(self, spec: CampaignSpec) -> str:
        """Queue a campaign; returns its id (``c0001``, ``c0002``, ...).

        Order of checks matters for at-most-once semantics: an
        idempotent *replay* short-circuits before admission control, so
        a client retrying a submission that already landed can never be
        shed for the load its own first attempt created.  Fresh
        submissions are shed with 429 when the tenant's in-flight cap is
        hit, 503 when the global waiting queue is full.  The spooled
        submission record is durable *before* the ``submit`` fault site
        fires, so a kill there leaves a campaign the client's idempotent
        retry re-discovers.  A malformed spec raises ``ValueError``
        (:meth:`CampaignSpec.validate`) and changes nothing.
        """
        if self._loop_task is None:
            raise ServiceError("service is not running")
        spec.validate()
        key = spec.idempotency_key
        if key and key in self._idempotency:
            self.counters["dedup_hits"] += 1
            replay = self._submit_replays.get(key, 0) + 1
            self._submit_replays[key] = replay
            # The original submit may have crashed between queueing the
            # campaign and waking the loop: re-wake on every replay.
            self._wake.set()
            with attempt_scope(replay, allow_kill=True):
                inject("submit", key=key)
            return self._idempotency[key]
        inflight = sum(
            1
            for r in self._records.values()
            if r.spec.tenant == spec.tenant and r.status not in _TERMINAL
        )
        if inflight >= self.tenant_inflight:
            self.counters["shed_429"] += 1
            raise ServiceOverloadError(
                f"tenant {spec.tenant!r} has {inflight} campaigns in "
                f"flight (cap {self.tenant_inflight})",
                status=429,
                retry_after=self._retry_after_hint(),
            )
        if self.scheduler.waiting_count >= self.max_queue:
            self.counters["shed_503"] += 1
            raise ServiceOverloadError(
                f"waiting queue is full "
                f"({self.scheduler.waiting_count}/{self.max_queue})",
                status=503,
                retry_after=self._retry_after_hint(),
            )
        campaign_id = f"c{self._counter:04d}"
        self._counter += 1
        campaign_dir = self.spool / campaign_id
        campaign_dir.mkdir(parents=True)
        self._write_atomic(
            campaign_dir / "spec.json", json.dumps(spec.to_dict(), indent=2)
        )
        record = _CampaignRecord(campaign_id=campaign_id, spec=spec)
        record.done_event = asyncio.Event()
        record.deadline_s = spec.deadline_s
        self._records[campaign_id] = record
        if key:
            self._idempotency[key] = campaign_id
            self._submit_replays.setdefault(key, 0)
        self._register_tenant(spec)
        self.scheduler.submit(campaign_id, spec.tenant)
        self._persist_state(record)
        self._wake.set()
        with attempt_scope(0, allow_kill=True):
            inject("submit", key=key or campaign_id)
        return campaign_id

    def _record(self, campaign_id: str) -> _CampaignRecord:
        try:
            return self._records[campaign_id]
        except KeyError:
            raise UnknownCampaignError(
                f"unknown campaign {campaign_id!r}"
            ) from None

    def status(self, campaign_id: str) -> Dict[str, Any]:
        """Campaign status, including the resilience layer's SLO view."""
        record = self._record(campaign_id)
        tenant = self.scheduler.tenant(record.spec.tenant)
        status = record.status
        if status not in _TERMINAL and tenant.quota_exhausted:
            status = "starved"
        remaining = None
        if record.deadline_s is not None:
            remaining = max(0.0, record.deadline_s - record.elapsed_s)
        payload = {
            "campaign_id": campaign_id,
            "tenant": record.spec.tenant,
            "model": record.spec.model,
            "status": status,
            "steps_done": record.steps_done,
            "slices": record.slices,
            "error": record.error,
            "deadline_s": record.deadline_s,
            "elapsed_s": record.elapsed_s,
            "deadline_remaining_s": remaining,
            "tenant_state": tenant.as_dict(),
            "slo": record.machine.slo_snapshot() if record.machine else None,
        }
        if record.machine is not None:
            payload["consumed"] = record.machine.consumed
        return payload

    def extend_deadline(
        self, campaign_id: str, extra_s: float
    ) -> Dict[str, Any]:
        """Grant more processing budget.  An ``expired`` campaign
        rejoins the scheduler queue and resumes bit-identically from
        its forced checkpoint; a live campaign just gets more runway."""
        record = self._record(campaign_id)
        extra = float(extra_s)
        if not extra > 0:
            raise ServiceError("deadline extension must be positive")
        if record.status in _TERMINAL and record.status != "expired":
            raise ServiceError(
                f"campaign {campaign_id!r} is already {record.status}"
            )
        if record.deadline_s is None:
            record.deadline_s = record.elapsed_s + extra
        else:
            record.deadline_s = max(
                record.deadline_s, record.elapsed_s
            ) + extra
        self.counters["deadline_extensions"] += 1
        if record.status == "expired":
            record.status = "queued"
            record.machine = None  # rebuilt from the forced checkpoint
            record.done_event.clear()
            try:
                self.scheduler.readmit(campaign_id)
            except SchedulerError:
                # Expired before this service incarnation ever saw it
                # (recovered-terminal): submit it like a new campaign.
                self._register_tenant(record.spec)
                self.scheduler.submit(campaign_id, record.spec.tenant)
        self._persist_state(record)
        if self._wake is not None:
            self._wake.set()
        return self.status(campaign_id)

    def healthz(self) -> Dict[str, Any]:
        """Service health: load, overload state, resilience counters."""
        active = sum(
            1 for r in self._records.values() if r.status not in _TERMINAL
        )
        return {
            "status": "overloaded" if self.scheduler.pressure else "ok",
            "campaigns": len(self._records),
            "active": active,
            "waiting": self.scheduler.waiting_count,
            "max_queue": self.max_queue,
            "tenant_inflight": self.tenant_inflight,
            "ewma_slice_s": self._ewma_slice_s,
            "overload_slice_s": self.overload_slice_s,
            "pressure": self.scheduler.pressure,
            "counters": dict(self.counters),
        }

    def list_campaigns(self) -> List[Dict[str, Any]]:
        return [self.status(cid) for cid in sorted(self._records)]

    async def cancel(self, campaign_id: str) -> Dict[str, Any]:
        """Cancel at the next attempt boundary (immediate when queued)."""
        record = self._record(campaign_id)
        if record.status in _TERMINAL:
            raise ServiceError(
                f"campaign {campaign_id!r} is already {record.status}"
            )
        record.cancel_requested = True
        if record.machine is None and record.status == "queued":
            try:
                phase = self.scheduler.campaign_phase(campaign_id)
            except SchedulerError:
                phase = "waiting"
            if phase == "waiting":
                self.scheduler.remove(campaign_id)
                self._settle(record, "cancelled")
                record.done_event.set()
        self._wake.set()
        return self.status(campaign_id)

    def result(self, campaign_id: str) -> Dict[str, Any]:
        """The finished campaign's outcome (fingerprint + best point)."""
        record = self._record(campaign_id)
        if record.status != "finished" or record.outcome is None:
            raise ServiceError(
                f"no result: campaign {campaign_id!r} is {record.status}"
            )
        return dict(record.outcome, fingerprint=record.fingerprint)

    def frontier(self, campaign_id: str) -> Dict[str, Any]:
        """The campaign's Pareto frontier over the default objectives.

        Live campaigns read the in-memory archive; settled or recovered
        campaigns replay ``frontier.jsonl`` from the spool, so the
        answer is identical across a service restart.
        """
        from repro.optim.archive import DEFAULT_OBJECTIVES, ParetoArchive

        record = self._record(campaign_id)
        machine = record.machine
        if machine is not None and machine.archive is not None:
            snapshot = machine.archive.snapshot()
        else:
            path = self.spool / campaign_id / "frontier.jsonl"
            if path.exists():
                snapshot = ParetoArchive.replay(path).snapshot()
            else:
                snapshot = []
        return {
            "campaign_id": campaign_id,
            "objectives": list(DEFAULT_OBJECTIVES),
            "size": len(snapshot),
            "frontier": snapshot,
        }

    async def wait(self, campaign_id: str) -> Dict[str, Any]:
        """Wait until the campaign settles; returns its final status."""
        record = self._record(campaign_id)
        await record.done_event.wait()
        return self.status(campaign_id)

    def journal_path(self, campaign_id: str) -> Path:
        self._record(campaign_id)
        return self.spool / campaign_id / "journal.jsonl"

    async def stream_journal(
        self, campaign_id: str, offset: int = 0, follow: bool = False
    ) -> AsyncIterator[str]:
        """Yield journal lines from ``offset`` (a line number).

        With ``follow=True`` the stream tails the file until the
        campaign settles; journals only grow at attempt boundaries, so
        a follower sees whole attempts, never torn events.
        """
        record = self._record(campaign_id)
        path = self.journal_path(campaign_id)
        position = offset
        while True:
            lines = []
            if path.exists():
                with open(path) as handle:
                    lines = handle.read().splitlines()
            for line in lines[position:]:
                yield line
            position = max(position, len(lines))
            if not follow or record.done_event.is_set():
                return
            await asyncio.sleep(0.05)

    # -- scheduling loop -----------------------------------------------------

    async def _run_loop(self) -> None:
        while not self._stopping:
            self._sweep_cancellations()
            decision = self.scheduler.next_slice()
            if decision is None:
                self._wake.clear()
                if self._stopping:
                    return
                await self._wake.wait()
                continue
            record = self._records[decision.campaign_id]
            if self._deadline_expired(record):
                # The budget ran out while the campaign sat in the
                # queue; it is already at an attempt boundary, so park
                # it without running the slice.
                self.scheduler.report(decision.campaign_id, 0, done=True)
                self._expire(record)
                self._persist_tenants()
                continue
            self.slice_log.append((decision.campaign_id, decision.steps))
            record.slices += 1
            try:
                # The ambient attempt is the campaign's slice index, so
                # rate-based faults re-roll on the rescheduled slice.
                with attempt_scope(record.slices, allow_kill=True):
                    inject("slice", key=decision.campaign_id)
            except WorkerCrashError:
                self.counters["slice_faults"] += 1
                self.scheduler.report(decision.campaign_id, 0, done=False)
                continue
            started = time.monotonic()
            steps_done, done = await asyncio.to_thread(
                self._run_slice, record, decision.steps
            )
            self._charge_slice(record, time.monotonic() - started)
            record.steps_done += steps_done
            self.scheduler.report(
                decision.campaign_id, steps_done, done=done
            )
            if not done and self._deadline_expired(record):
                self.scheduler.remove(record.campaign_id)
                self._expire(record)
            self._persist_state(record)
            self._persist_tenants()
            if record.status in _TERMINAL:
                record.done_event.set()

    # -- deadlines & overload ------------------------------------------------

    @staticmethod
    def _deadline_expired(record: _CampaignRecord) -> bool:
        return (
            record.deadline_s is not None
            and record.elapsed_s >= record.deadline_s
        )

    def _expire(self, record: _CampaignRecord) -> None:
        """Settle an over-budget campaign as ``expired``.

        Runs on the loop thread between slices, so the machine is
        parked at an attempt boundary: the last slice's
        ``machine.pause()`` already forced its checkpoint to disk.
        Dropping the machine (its sink is closed by ``_settle``) means a
        deadline extension rebuilds it from that checkpoint with a
        fresh sink — the same path a service restart takes — which is
        exactly why resuming later is bit-identical.
        """
        record.machine = None
        self.counters["expired"] += 1
        self._settle(record, "expired")
        record.done_event.set()

    def _charge_slice(self, record: _CampaignRecord, elapsed: float) -> None:
        """Charge slice wall time to the campaign's deadline budget and
        to the overload watermark's moving average."""
        record.elapsed_s += elapsed
        if self._ewma_slice_s is None:
            self._ewma_slice_s = elapsed
        else:
            self._ewma_slice_s = 0.3 * elapsed + 0.7 * self._ewma_slice_s
        self.scheduler.pressure = self._ewma_slice_s > self.overload_slice_s

    def _sweep_cancellations(self) -> None:
        """Settle cancel requests for campaigns not currently sliced —
        queued ones, and parked ones a starved tenant would never get
        another slice for.  Runs on the loop thread between slices, so
        no machine is concurrently executing."""
        for record in self._records.values():
            if not record.cancel_requested or record.status in _TERMINAL:
                continue
            machine = record.machine
            if machine is not None and not machine.state.terminal:
                machine.cancel()
            try:
                self.scheduler.remove(record.campaign_id)
            except SchedulerError:
                pass
            self._settle(record, "cancelled")
            record.done_event.set()

    def _run_slice(self, record: _CampaignRecord, steps: int):
        """Run up to ``steps`` attempts of one campaign (worker thread).

        Returns ``(steps_done, done)``.  The machine is always left at
        an attempt boundary: FINISHED/CANCELLED/FAILED, or paused into
        CHECKPOINTED with its snapshot on disk.
        """
        done_steps = 0
        slice_start = time.monotonic()
        budget = None
        if record.deadline_s is not None:
            budget = max(0.0, record.deadline_s - record.elapsed_s)
        try:
            machine = record.machine
            if machine is None:
                machine = record.machine = self._build_machine(record)
            if machine.state is CampaignState.PENDING:
                record.status = "running"
                machine.start()
            elif machine.state is CampaignState.CHECKPOINTED:
                record.status = "running"
                machine.resume()
            while (
                machine.state is CampaignState.RUNNING
                and done_steps < steps
                and not record.cancel_requested
            ):
                machine.step()
                done_steps += 1
                # Deadlines are honored at attempt boundaries only: a
                # fat quantum stops early rather than overrunning the
                # budget by a whole slice.
                if budget is not None and (
                    time.monotonic() - slice_start >= budget
                ):
                    break
            if record.cancel_requested and not machine.state.terminal:
                machine.cancel()
            elif machine.state is CampaignState.RUNNING:
                machine.pause()
                record.status = "checkpointed"
        except BaseException as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            self._settle(record, "failed")
            return done_steps, True
        if machine.state is CampaignState.FINISHED:
            result = machine.result()
            record.fingerprint = result_fingerprint(result)
            record.outcome = {
                "best_point": result.best.point if result.best else None,
                "best_costs": result.best.costs if result.best else None,
                "evaluations": result.evaluations,
                "trials": len(result.trials),
            }
            self._settle(record, "finished")
            return done_steps, True
        if machine.state is CampaignState.CANCELLED:
            self._settle(record, "cancelled")
            return done_steps, True
        return done_steps, False

    def _build_machine(self, record: _CampaignRecord) -> CampaignStateMachine:
        from repro.optim.archive import ParetoArchive
        from repro.telemetry.checkpoint import load_checkpoint
        from repro.telemetry.sinks import JsonlSink
        from repro.telemetry.tracer import Tracer

        campaign_dir = self.spool / record.campaign_id
        journal = campaign_dir / "journal.jsonl"
        ckpt = str(journal) + ".ckpt"
        dse = self._factory(record.spec)
        # The frontier journal is always rebuilt from the trial ledger:
        # on resume the machine re-feeds every checkpointed trial into a
        # truncated archive, so a kill/restart reconstructs the exact
        # same frontier a straight-through run would have journaled.
        archive = ParetoArchive(
            journal_path=campaign_dir / "frontier.jsonl", truncate=True
        )
        if os.path.exists(ckpt):
            checkpoint = load_checkpoint(ckpt)
            sink = JsonlSink(
                journal,
                resume_events=checkpoint.journal_events,
                exclusive=True,
            )
            tracer = Tracer(sink, seq_start=checkpoint.journal_events)
            machine = CampaignStateMachine(
                dse,
                tracer=tracer,
                checkpoint_path=ckpt,
                resume_from=checkpoint,
                archive=archive,
            )
        else:
            # A journal without a checkpoint is an orphan of a crash
            # before the first attempt completed: restart from scratch.
            if journal.exists():
                journal.unlink()
            sink = JsonlSink(journal, exclusive=True)
            tracer = Tracer(sink)
            machine = CampaignStateMachine(
                dse, tracer=tracer, checkpoint_path=ckpt, archive=archive
            )
        record.sink = sink
        return machine

    # -- persistence ---------------------------------------------------------

    def _settle(self, record: _CampaignRecord, status: str) -> None:
        # Runs on the worker thread too, so it must not touch asyncio
        # primitives: done_event is set by the loop after the slice.
        record.status = status
        self._close_sink(record)
        self._persist_state(record)

    def _close_sink(self, record: _CampaignRecord) -> None:
        if record.sink is not None:
            try:
                record.sink.close()
            finally:
                record.sink = None

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        """Write-temp-then-rename so a SIGKILL mid-write can never
        leave a torn JSON file for recovery to trip over."""
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)

    def _persist_state(self, record: _CampaignRecord) -> None:
        state = {
            "status": record.status,
            "steps_done": record.steps_done,
            "error": record.error,
            "fingerprint": record.fingerprint,
            "outcome": record.outcome,
            "deadline_s": record.deadline_s,
            "elapsed_s": record.elapsed_s,
        }
        record.persist_seq += 1
        try:
            # Ambient attempt = per-record persist count, so rate-based
            # spool faults re-roll on the next persist of this record.
            with attempt_scope(record.persist_seq, allow_kill=True):
                inject("spool-write", key=record.campaign_id)
        except WorkerCrashError:
            # Skip this persist: state.json is one write stale, which
            # recovery already tolerates (resume from the checkpoint).
            self.counters["spool_write_faults"] += 1
            return
        path = self.spool / record.campaign_id / "state.json"
        self._write_atomic(path, json.dumps(state, indent=2))

    def _persist_tenants(self) -> None:
        self._tenants_seq = getattr(self, "_tenants_seq", 0) + 1
        try:
            with attempt_scope(self._tenants_seq, allow_kill=True):
                inject("spool-write", key="tenants")
        except WorkerCrashError:
            self.counters["spool_write_faults"] += 1
            return
        payload = [t.as_dict() for t in self.scheduler.tenants()]
        self._write_atomic(
            self.spool / "tenants.json", json.dumps(payload, indent=2)
        )

    def grant_quota(self, tenant: str, extra_steps: int) -> Dict[str, Any]:
        """Raise a tenant's step budget and wake the scheduler."""
        state = self.scheduler.grant_quota(tenant, extra_steps)
        self._persist_tenants()
        if self._wake is not None:
            self._wake.set()
        return state.as_dict()
