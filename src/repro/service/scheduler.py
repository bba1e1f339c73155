"""Multi-tenant campaign scheduler: deterministic weighted-fair slicing.

The scheduler decides *which campaign runs next and for how many steps*;
it never runs anything itself.  The :class:`~repro.service.service
.CampaignService` asks for one :class:`Slice` at a time, executes it,
reports the outcome, and asks again — so the interleaving of N
campaigns is a pure function of the submission sequence and the
per-slice outcomes, never of wall-clock, thread timing, or dict
iteration order.  Same submissions ⇒ same slice sequence ⇒ the
per-campaign event streams (and therefore journals) are identical to
each campaign running alone.

Policy:

* **Admission** — at most ``max_concurrent`` campaigns are resident
  (interleaving) at once; the rest wait in global submission order
  (``REPRO_SERVICE_MAX_CONCURRENT``).
* **Weighted fairness** — tenants take turns in first-submission order;
  a tenant's turn grants ``quantum x weight`` steps
  (``REPRO_SERVICE_STEP_QUANTUM`` x the tenant's weight) to its
  least-recently-run campaign, round-robin within the tenant.
* **Quotas** — each tenant has an optional total step budget
  (``REPRO_TENANT_QUOTA`` or per-tenant override).  A tenant that
  exhausts its quota is *starved*, not failed: its campaigns stay parked
  (checkpointed, resumable) and are reported as ``quota_exhausted``
  until :meth:`grant_quota` raises the budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.perf.knobs import (
    service_max_concurrent,
    service_step_quantum,
    tenant_step_quota,
)

__all__ = ["Slice", "TenantState", "CampaignScheduler", "SchedulerError"]


class SchedulerError(RuntimeError):
    """An unknown campaign/tenant or an invalid scheduling operation."""


@dataclass(frozen=True)
class Slice:
    """One scheduling decision: run ``campaign_id`` for up to ``steps``
    acquisition attempts."""

    campaign_id: str
    steps: int
    tenant: str


@dataclass
class TenantState:
    """Accounting for one tenant."""

    name: str
    weight: int = 1
    quota: Optional[int] = None  # total step budget; None = unlimited
    steps_used: int = 0
    #: Campaigns of this tenant currently resident, in round-robin order.
    runnable: Deque[str] = field(default_factory=deque)

    @property
    def quota_left(self) -> Optional[int]:
        if self.quota is None:
            return None
        return max(0, self.quota - self.steps_used)

    @property
    def quota_exhausted(self) -> bool:
        return self.quota is not None and self.steps_used >= self.quota

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.name,
            "weight": self.weight,
            "quota": self.quota,
            "steps_used": self.steps_used,
            "quota_exhausted": self.quota_exhausted,
        }


class CampaignScheduler:
    """Deterministic weighted-fair round-robin over tenants' campaigns.

    Args:
        quantum: Steps granted per unit of tenant weight per turn
            (``None`` reads ``REPRO_SERVICE_STEP_QUANTUM``, default 1 —
            attempt-level interleaving).
        max_concurrent: Resident-campaign cap (``None`` reads
            ``REPRO_SERVICE_MAX_CONCURRENT``, default 4).
        default_quota: Step budget for tenants without an explicit one
            (``None`` reads ``REPRO_TENANT_QUOTA``; unset = unlimited).
    """

    def __init__(
        self,
        quantum: Optional[int] = None,
        max_concurrent: Optional[int] = None,
        default_quota: Optional[int] = "env",
    ):
        self.quantum = service_step_quantum(quantum)
        self.max_concurrent = service_max_concurrent(max_concurrent)
        self.default_quota = (
            tenant_step_quota() if default_quota == "env" else default_quota
        )
        #: Tenants in first-submission order (the round-robin ring).
        self._tenant_order: List[str] = []
        self._tenants: Dict[str, TenantState] = {}
        #: Submitted, not yet resident, in global submission order.
        self._waiting: Deque[str] = deque()
        self._tenant_of: Dict[str, str] = {}
        #: Resident campaign ids (admitted, not yet finished).
        self._resident: set = set()
        self._finished: set = set()
        #: Ring position: index of the tenant whose turn is next.
        self._ring = 0
        #: The slice currently in flight (at most one).
        self._in_flight: Optional[str] = None
        #: Overload pressure: when True (the service's slice-latency
        #: watermark tripped), every slice is clamped to one attempt so
        #: latency-sensitive campaigns stop waiting behind fat quanta.
        #: Shrinking the quantum never changes journal bytes — the flush
        #: partition invariance of the state machine guarantees that —
        #: so pressure can flap freely without hurting determinism of
        #: results.
        self.pressure = False

    # -- tenants -------------------------------------------------------------

    def tenant(self, name: str) -> TenantState:
        """The tenant's state (raises for unknown tenants)."""
        try:
            return self._tenants[name]
        except KeyError:
            raise SchedulerError(f"unknown tenant {name!r}") from None

    def register_tenant(
        self,
        name: str,
        weight: Optional[int] = None,
        quota: Optional[int] = "default",
    ) -> TenantState:
        """Register (or update) a tenant.

        First registration fixes the tenant's position in the fairness
        ring.  ``weight``/``quota`` update the existing record when
        given; ``quota="default"`` keeps the current (or default) quota.
        """
        state = self._tenants.get(name)
        if state is None:
            state = TenantState(
                name=name,
                weight=max(1, int(weight)) if weight is not None else 1,
                quota=self.default_quota if quota == "default" else quota,
            )
            self._tenants[name] = state
            self._tenant_order.append(name)
            return state
        if weight is not None:
            state.weight = max(1, int(weight))
        if quota != "default":
            state.quota = quota
        return state

    def grant_quota(self, name: str, extra_steps: int) -> TenantState:
        """Raise a tenant's step budget (un-starves its campaigns)."""
        state = self.tenant(name)
        if state.quota is not None:
            state.quota += int(extra_steps)
        return state

    # -- campaign lifecycle --------------------------------------------------

    def submit(self, campaign_id: str, tenant: str = "default") -> None:
        """Queue a campaign for admission (global submission order)."""
        if campaign_id in self._tenant_of:
            raise SchedulerError(f"duplicate campaign id {campaign_id!r}")
        self.register_tenant(tenant)
        self._tenant_of[campaign_id] = tenant
        self._waiting.append(campaign_id)

    def readmit(self, campaign_id: str) -> None:
        """Re-queue a previously removed/finished campaign (the expired
        -with-fresh-deadline path): it rejoins the waiting queue at the
        back, exactly like a new submission of the same id."""
        tenant = self._tenant_of.get(campaign_id)
        if tenant is None:
            raise SchedulerError(f"unknown campaign {campaign_id!r}")
        if (
            campaign_id in self._waiting
            or campaign_id in self._resident
        ):
            raise SchedulerError(
                f"campaign {campaign_id!r} is still scheduled"
            )
        self._finished.discard(campaign_id)
        self._waiting.append(campaign_id)

    def remove(self, campaign_id: str) -> None:
        """Drop a campaign (cancelled/failed) wherever it is."""
        tenant = self._tenant_of.get(campaign_id)
        if tenant is None:
            raise SchedulerError(f"unknown campaign {campaign_id!r}")
        if campaign_id in self._waiting:
            self._waiting.remove(campaign_id)
        state = self._tenants[tenant]
        if campaign_id in state.runnable:
            state.runnable.remove(campaign_id)
        self._resident.discard(campaign_id)
        self._finished.add(campaign_id)
        if self._in_flight == campaign_id:
            self._in_flight = None

    # -- scheduling ----------------------------------------------------------

    def _admit(self) -> None:
        while self._waiting and len(self._resident) < self.max_concurrent:
            campaign_id = self._waiting.popleft()
            tenant = self._tenants[self._tenant_of[campaign_id]]
            tenant.runnable.append(campaign_id)
            self._resident.add(campaign_id)

    def next_slice(self) -> Optional[Slice]:
        """The next scheduling decision, or ``None`` when no tenant has
        both runnable campaigns and quota.

        At most one slice may be in flight: the previous slice must be
        :meth:`report`-ed before the next one is issued (the service
        executes slices strictly one at a time — that serialization is
        what makes the interleaving deterministic).
        """
        if self._in_flight is not None:
            raise SchedulerError(
                f"slice for {self._in_flight!r} is still in flight"
            )
        self._admit()
        order = self._tenant_order
        for offset in range(len(order)):
            tenant = self._tenants[order[(self._ring + offset) % len(order)]]
            if not tenant.runnable or tenant.quota_exhausted:
                continue
            campaign_id = tenant.runnable.popleft()
            steps = 1 if self.pressure else self.quantum * tenant.weight
            if tenant.quota_left is not None:
                steps = min(steps, tenant.quota_left)
            self._ring = (self._ring + offset + 1) % len(order)
            self._in_flight = campaign_id
            return Slice(
                campaign_id=campaign_id, steps=steps, tenant=tenant.name
            )
        return None

    def report(
        self, campaign_id: str, steps_done: int, *, done: bool = False
    ) -> None:
        """Account a finished slice; re-queues the campaign unless done."""
        if self._in_flight != campaign_id:
            raise SchedulerError(
                f"no slice in flight for campaign {campaign_id!r}"
            )
        self._in_flight = None
        tenant = self._tenants[self._tenant_of[campaign_id]]
        tenant.steps_used += int(steps_done)
        if done:
            self._resident.discard(campaign_id)
            self._finished.add(campaign_id)
        else:
            tenant.runnable.append(campaign_id)

    # -- introspection -------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No waiting or resident campaigns remain."""
        return not self._waiting and not self._resident

    @property
    def waiting_count(self) -> int:
        """Campaigns queued for admission (the shed-bound population)."""
        return len(self._waiting)

    @property
    def starved(self) -> bool:
        """Work remains but every tenant holding it is out of quota."""
        if self.idle or self._in_flight is not None:
            return False
        if any(
            not t.quota_exhausted and t.runnable
            for t in self._tenants.values()
        ):
            return False
        # Waiting campaigns could still be admitted to a tenant with quota.
        for campaign_id in self._waiting:
            if not self._tenants[self._tenant_of[campaign_id]].quota_exhausted:
                if len(self._resident) < self.max_concurrent:
                    return False
        return True

    def campaign_phase(self, campaign_id: str) -> str:
        """``waiting`` | ``resident`` | ``done`` for a known campaign."""
        if campaign_id in self._waiting:
            return "waiting"
        if campaign_id in self._resident:
            return "resident"
        if campaign_id in self._finished:
            return "done"
        raise SchedulerError(f"unknown campaign {campaign_id!r}")

    def tenants(self) -> List[TenantState]:
        return [self._tenants[name] for name in self._tenant_order]
