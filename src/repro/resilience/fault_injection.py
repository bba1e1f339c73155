"""Deterministic fault injection for chaos-testing the evaluation stack.

``REPRO_FAULT_INJECT`` holds a comma-separated list of fault specs::

    kind:site[:rate][:key=value]...

    crash:evaluate:0.05:seed=7      # crash 5% of evaluate() calls
    hang:mapper:0.02:seed=11:for=5  # 2% of mapper searches sleep 5s
    kill:mapper:1.0:match=conv      # SIGKILL the worker on conv layers
    corrupt:cache-load:step=1       # 1st cache load sees a corrupt file
    crash:evaluate:1.0:match=pes=512  # every evaluation of pes=512 points

* ``kind`` — ``crash`` (raise :class:`InjectedCrash`, a retryable
  :class:`~repro.resilience.errors.WorkerCrashError`), ``hang``
  (``time.sleep(for)``, exercising ``REPRO_TASK_TIMEOUT``), ``kill``
  (SIGKILL the current process — only inside a process-pool worker;
  elsewhere it degrades to ``crash`` so injected faults can never kill
  the campaign parent), or ``corrupt`` (raise
  :class:`InjectedCorruption`, which cache load paths treat exactly like
  a truncated pickle).
* ``site`` — a named injection point: ``evaluate`` (the cost evaluator,
  keyed by the design point), ``mapper`` (the per-layer mapping search,
  keyed by the layer name), ``cache-load`` / ``cache-save`` (mapping
  cache persistence, keyed by the file path), plus the four *service-layer*
  sites wired into :mod:`repro.service`: ``submit`` (after the spooled
  submission record is written, keyed by the idempotency key / campaign
  id), ``slice`` (between scheduler slices, keyed by the campaign id),
  ``spool-write`` (per-campaign state persistence, keyed by the campaign
  id or ``tenants``), and ``http-response`` (just before an endpoint
  response is written, keyed by the request path).  Unlike the
  evaluation sites, the service sites run with ``allow_kill`` enabled:
  a ``kill`` fault there SIGKILLs the *server* process by design — the
  spool makes server death recoverable, and the torture harness
  (``benchmarks/service_torture.py``) exercises exactly that.  The
  ambient attempt at these sites is the server-side retry correlator
  (idempotent-submit replay count, per-campaign slice index, per-record
  persist count, per-process response count), so rate-based faults
  re-roll on client retries just like evaluation retries re-roll.
* ``rate`` — firing probability in ``[0, 1]``.  The decision is the
  deterministic hash of ``(seed, site, key, attempt)`` — no global RNG —
  so a given campaign always faults at the same calls regardless of
  worker count or scheduling, and a *retry* of the same call (higher
  ambient attempt, see :func:`attempt_scope`) re-rolls the hash and
  almost always succeeds.  ``rate=1.0`` fires on every attempt: the
  retry budget drains and the candidate is quarantined.
* params — ``seed=N`` (hash seed, default 0), ``match=S`` (fire only
  when the site key contains substring ``S``), ``for=SECONDS`` (hang
  duration, default 30), ``step=N`` (fire on exactly the Nth invocation
  of the site in this process, instead of hashing).

Injection is wired permanently into the hot path but costs one
environment lookup when ``REPRO_FAULT_INJECT`` is unset, and the
decisions never consult wall clock or ``random``, so fault-free runs
stay bit-identical.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.resilience.errors import CacheCorruptionError, WorkerCrashError

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "FaultSpecError",
    "InjectedCrash",
    "InjectedCorruption",
    "attempt_scope",
    "current_attempt",
    "inject",
    "parse_fault_plan",
]

#: Supported fault kinds and the injection sites wired into the pipeline.
FAULT_KINDS = ("crash", "hang", "kill", "corrupt")
FAULT_SITES = (
    "evaluate",
    "mapper",
    "cache-load",
    "cache-save",
    "submit",
    "slice",
    "spool-write",
    "http-response",
)

class FaultSpecError(ValueError):
    """A ``REPRO_FAULT_INJECT`` spec could not be parsed."""


class InjectedCrash(WorkerCrashError):
    """A deterministically injected crash (retryable, like the real fault)."""


class InjectedCorruption(CacheCorruptionError):
    """A deterministically injected cache-corruption fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault directive."""

    kind: str
    site: str
    rate: float = 0.0
    seed: int = 0
    match: str = ""
    duration: float = 30.0
    step: Optional[int] = None

    def should_fire(self, key: str, attempt: int, invocation: int) -> bool:
        if self.match and self.match not in key:
            return False
        if self.step is not None:
            return invocation == self.step
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        digest = zlib.crc32(
            f"{self.seed}|{self.site}|{key}|{attempt}".encode()
        )
        return digest / 2**32 < self.rate


@dataclass
class FaultPlan:
    """All parsed specs plus per-site invocation counters."""

    specs: Tuple[FaultSpec, ...] = ()
    _counters: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def sites(self) -> Tuple[str, ...]:
        return tuple(sorted({spec.site for spec in self.specs}))

    def _next_invocation(self, site: str) -> int:
        with self._lock:
            self._counters[site] = self._counters.get(site, 0) + 1
            return self._counters[site]

    def check(self, site: str, key: str, attempt: int) -> Optional[FaultSpec]:
        """The first spec firing at this call, or None."""
        relevant = [spec for spec in self.specs if spec.site == site]
        if not relevant:
            return None
        invocation = self._next_invocation(site)
        for spec in relevant:
            if spec.should_fire(key, attempt, invocation):
                return spec
        return None


def _parse_one(text: str) -> FaultSpec:
    tokens = text.strip().split(":")
    if len(tokens) < 2:
        raise FaultSpecError(
            f"fault spec {text!r} needs at least kind:site "
            f"(kinds: {', '.join(FAULT_KINDS)})"
        )
    kind, site, rest = tokens[0].strip(), tokens[1].strip(), tokens[2:]
    if kind not in FAULT_KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r} in {text!r}; "
            f"expected one of {', '.join(FAULT_KINDS)}"
        )
    if site not in FAULT_SITES:
        raise FaultSpecError(
            f"unknown fault site {site!r} in {text!r}; "
            f"expected one of {', '.join(FAULT_SITES)}"
        )
    rate = 0.0
    params = {}
    for token in rest:
        token = token.strip()
        if "=" in token:
            name, _, value = token.partition("=")
            params[name.strip()] = value.strip()
        else:
            try:
                rate = float(token)
            except ValueError:
                raise FaultSpecError(
                    f"bad rate {token!r} in fault spec {text!r}"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(
                    f"rate {rate!r} in {text!r} must be within [0, 1]"
                )
    try:
        seed = int(params.pop("seed", 0))
        duration = float(params.pop("for", 30.0))
        step = params.pop("step", None)
        step = int(step) if step is not None else None
    except ValueError as exc:
        raise FaultSpecError(f"bad parameter in {text!r}: {exc}") from None
    match = params.pop("match", "")
    if params:
        raise FaultSpecError(
            f"unknown parameter(s) {sorted(params)} in fault spec {text!r}"
        )
    if step is None and rate == 0.0:
        raise FaultSpecError(
            f"fault spec {text!r} never fires: give a rate or step=N"
        )
    return FaultSpec(
        kind=kind, site=site, rate=rate, seed=seed,
        match=match, duration=duration, step=step,
    )


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse a full ``REPRO_FAULT_INJECT`` value (comma-separated specs)."""
    specs = tuple(
        _parse_one(part) for part in text.split(",") if part.strip()
    )
    return FaultPlan(specs=specs)


# -- ambient state -------------------------------------------------------------
#
# The plan is parsed per (process, env value) by repro.perf.knobs: worker
# processes inherit REPRO_FAULT_INJECT and build their own counters.  The
# retry attempt and the may-SIGKILL flag are ambient per-thread state set
# by the supervision wrappers, so injection sites deep in the pipeline
# need no plumbing.

_STATE = threading.local()


def _active_plan() -> Optional[FaultPlan]:
    """:func:`repro.perf.knobs.fault_plan`, imported at call time
    because ``repro.perf`` imports this module."""
    from repro.perf.knobs import fault_plan

    return fault_plan()


def current_attempt() -> int:
    """The ambient retry attempt (0 on the first try)."""
    return getattr(_STATE, "attempt", 0)


@contextmanager
def attempt_scope(attempt: int, allow_kill: bool = False) -> Iterator[None]:
    """Set the ambient retry attempt (and whether ``kill`` faults may
    really SIGKILL this process) around one supervised call."""
    previous = (
        getattr(_STATE, "attempt", 0), getattr(_STATE, "allow_kill", False)
    )
    _STATE.attempt, _STATE.allow_kill = attempt, allow_kill
    try:
        yield
    finally:
        _STATE.attempt, _STATE.allow_kill = previous


def inject(site: str, key: str = "") -> None:
    """Fault-injection point; a no-op unless ``REPRO_FAULT_INJECT`` names
    this ``site`` and the deterministic decision fires."""
    plan = _active_plan()
    if plan is None:
        return
    spec = plan.check(site, key, current_attempt())
    if spec is None:
        return
    detail = f"injected {spec.kind} at {site}"
    if spec.kind == "hang":
        time.sleep(spec.duration)
        return
    if spec.kind == "kill" and getattr(_STATE, "allow_kill", False):
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies
    if spec.kind == "corrupt":
        raise InjectedCorruption(detail, site=site, key=key)
    # crash, or kill outside a process-pool worker
    raise InjectedCrash(
        detail, site=site, key=key, attempt=current_attempt()
    )
