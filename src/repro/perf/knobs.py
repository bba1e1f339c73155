"""Validated environment knobs for the campaign-wide fast paths.

The perf layer is controlled by environment variables so fast paths can
be toggled without touching call sites.  Knob values arrive from shells,
CI matrices, and worker environments, so a junk value must *never*
raise deep inside an evaluation — it warns once (per knob, per value)
and falls back to the safe default path.

Knobs resolved here:

* ``REPRO_JOBS`` — worker count of the experiment-matrix pool
  (:mod:`repro.perf.parallel`).  Unset means serial; ``0`` and ``auto``
  mean every core; junk and negative values warn and run serially.
* ``REPRO_FUSED_EVAL`` — campaign-wide fused cross-layer candidate
  evaluation (:mod:`repro.cost.fused`).  Default off (opt-in).
* ``REPRO_TREE_COMPILE`` — postfix-compiled bottleneck-tree evaluation
  (:mod:`repro.core.bottleneck.compile`).  Default on; ``0`` selects
  the recursive reference walk.
* ``REPRO_MAPPING_CACHE_RESULTS`` — LRU capacity of the mapping cache
  (:mod:`repro.perf.mapping_cache`); a positive integer.
* ``REPRO_MAPPING_CACHE_DIR`` — directory of the mapping cache's pickle
  warm-start (:func:`repro.perf.mapping_cache.shared_cache`).
  Unset/empty/``0``/``off`` disables; an unusable value (e.g. a path
  that exists as a regular file) warns and disables instead of failing
  the campaign.
* ``REPRO_SERVICE_MAX_CONCURRENT`` — campaign-service admission cap:
  how many campaigns interleave at once (:mod:`repro.service`).
* ``REPRO_SERVICE_STEP_QUANTUM`` — acquisition attempts granted per
  unit of tenant weight per scheduler turn.
* ``REPRO_TENANT_QUOTA`` — default per-tenant total step budget;
  unset/``0``/``none``/``unlimited`` means no quota.
* ``REPRO_SERVICE_MAX_QUEUE`` — bound on the service's waiting queue:
  submissions past it are shed with HTTP 503 + ``Retry-After`` instead
  of queueing unboundedly.
* ``REPRO_SERVICE_TENANT_INFLIGHT`` — per-tenant cap on unsettled
  campaigns; submissions past it are shed with HTTP 429.
* ``REPRO_TASK_TIMEOUT``, ``REPRO_MAX_RETRIES``, ``REPRO_RETRY_BACKOFF``
  and ``REPRO_MAX_FAILURE_RATE`` — the retry and circuit-breaker policy
  (:mod:`repro.resilience.supervisor`), and ``REPRO_BENCH_SCALE`` — the
  paper-figure bench budget scale (:func:`repro.experiments.setup.bench_scale`).
  All five go through :func:`numeric_knob`; their callers keep their
  own clamps.
* ``REPRO_FAULT_INJECT`` — the deterministic fault plan
  (:mod:`repro.resilience.fault_injection`); a malformed plan warns and
  leaves injection off.

Valid values are memoized per ``(knob, raw value)`` so hot paths (the
per-node compiled-tree check, the per-step fused gate) never re-parse an
unchanged environment; junk values stay on the uncached warn-once path.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from typing import Dict, Optional, Set, Tuple

__all__ = [
    "env_flag",
    "fused_eval_enabled",
    "tree_compile_enabled",
    "resolve_executor_mode",
    "mapping_cache_results",
    "mapping_cache_dir",
    "pool_jobs",
    "service_max_concurrent",
    "service_step_quantum",
    "service_max_queue",
    "service_tenant_inflight",
    "tenant_step_quota",
    "numeric_knob",
    "fault_plan",
]

_TRUE = frozenset({"1", "true", "on", "yes"})
_FALSE = frozenset({"0", "false", "off", "no"})

#: (knob, value) pairs already warned about (warn once per junk value).
_WARNED: Set[Tuple[str, str]] = set()

#: Memoized parses of *valid* values, keyed by (knob, raw, default) so an
#: environment change is picked up immediately while repeated reads of an
#: unchanged value cost one dict probe.  Junk values are never cached:
#: they keep flowing through the warn-once path.
_FLAG_CACHE: Dict[Tuple[str, str, bool], bool] = {}

#: Same contract for integer-valued knobs: only valid parses are cached.
_INT_CACHE: Dict[Tuple[str, str], Optional[int]] = {}


def _warn_once(name: str, raw: str, fallback: str) -> None:
    if (name, raw) in _WARNED:
        return
    _WARNED.add((name, raw))
    warnings.warn(
        f"ignoring invalid {name} value {raw!r}; {fallback}",
        RuntimeWarning,
        stacklevel=3,
    )


def env_flag(name: str, default: bool, override: Optional[bool] = None) -> bool:
    """Resolve a boolean knob: explicit ``override`` wins, then the
    environment (``1/true/on/yes`` vs ``0/false/off/no``, case
    insensitive), then ``default``.  Junk values warn once and fall back
    to the default rather than raising inside a worker."""
    if override is not None:
        return bool(override)
    raw = os.environ.get(name)
    if raw is None:
        return default
    cached = _FLAG_CACHE.get((name, raw, default))
    if cached is not None:
        return cached
    value = raw.strip().lower()
    if value in _TRUE:
        _FLAG_CACHE[(name, raw, default)] = True
        return True
    if value in _FALSE:
        _FLAG_CACHE[(name, raw, default)] = False
        return False
    _warn_once(
        name,
        raw,
        f"falling back to the default path ({'on' if default else 'off'}) "
        "— use 0/1, on/off, true/false, or yes/no",
    )
    return default


def fused_eval_enabled(override: Optional[bool] = None) -> bool:
    """Whether the fused cross-layer evaluation path is selected.

    Opt-in: defaults off so campaigns change behaviour only when asked;
    results are bit-identical either way (see :mod:`repro.cost.fused`).
    """
    return env_flag("REPRO_FUSED_EVAL", False, override)


def tree_compile_enabled(override: Optional[bool] = None) -> bool:
    """Whether bottleneck trees evaluate through compiled postfix
    programs (default) or the recursive reference walk (``0``)."""
    return env_flag("REPRO_TREE_COMPILE", True, override)


_EXECUTOR_MODES = ("process", "thread")


def resolve_executor_mode(mode: Optional[str] = None) -> str:
    """The worker-pool executor kind: ``process`` (the default) or
    ``thread``.  An explicit ``mode`` must name a known kind (anything
    else is a caller bug and raises ``ValueError``)."""
    if not mode:
        return "process"
    value = mode.strip().lower()
    if value not in _EXECUTOR_MODES:
        raise ValueError(f"unknown executor mode {mode!r}")
    return value


def _positive_int_knob(name: str, default: int, override: Optional[int]) -> int:
    """Shared parser for positive-integer knobs: explicit
    ``override`` wins, junk values warn once and fall back to
    ``default``, results are always at least 1."""
    if override is not None:
        return max(1, int(override))
    raw = os.environ.get(name)
    if raw is None:
        return default
    cached = _INT_CACHE.get((name, raw))
    if cached is not None:
        return cached
    try:
        value = int(raw.strip())
    except ValueError:
        value = 0
    if value <= 0:
        _warn_once(
            name,
            raw,
            f"falling back to the default ({default}) — use a positive "
            "integer",
        )
        return default
    _INT_CACHE[(name, raw)] = value
    return value


def numeric_knob(name: str, default: float, parse=float) -> float:
    """Shared parser for numeric knobs read as given (``parse`` is
    ``float`` or ``int``; callers apply their own clamps).  Unset and
    blank values give ``default``; junk and non-finite values (``inf``,
    ``nan``, ``1e999``) warn once and give ``default`` too."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = parse(raw.strip())
    except (ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        _warn_once(
            name,
            raw,
            f"falling back to the default ({default}) — use a finite "
            f"{'integer' if parse is int else 'number'}",
        )
        return default
    return value


def mapping_cache_results() -> int:
    """Capacity of a :class:`~repro.perf.mapping_cache.MappingCache`
    (``REPRO_MAPPING_CACHE_RESULTS``, default 32768).  Junk values and
    values below 1 warn once and fall back to the default."""
    return _positive_int_knob("REPRO_MAPPING_CACHE_RESULTS", 32768, None)


def service_max_concurrent(override: Optional[int] = None) -> int:
    """Campaign-service admission cap (``REPRO_SERVICE_MAX_CONCURRENT``).

    How many campaigns may be resident (interleaving slice by slice) at
    once; further submissions wait in submission order.
    Junk values warn once and fall back to the default (4).
    """
    return _positive_int_knob("REPRO_SERVICE_MAX_CONCURRENT", 4, override)


def service_step_quantum(override: Optional[int] = None) -> int:
    """Steps granted per unit of tenant weight per scheduler turn
    (``REPRO_SERVICE_STEP_QUANTUM``).

    The default (1) interleaves at acquisition-attempt granularity —
    the finest slicing the checkpoint schema supports.  Junk values
    warn once and fall back to the default.
    """
    return _positive_int_knob("REPRO_SERVICE_STEP_QUANTUM", 1, override)


def service_max_queue(override: Optional[int] = None) -> int:
    """Bound on the campaign-service waiting queue
    (``REPRO_SERVICE_MAX_QUEUE``).

    Submissions arriving while this many campaigns are already waiting
    for admission are *shed* — rejected with HTTP 503 and a
    ``Retry-After`` hint — instead of queueing without bound.  Junk
    values warn once and fall back to the default (64).
    """
    return _positive_int_knob("REPRO_SERVICE_MAX_QUEUE", 64, override)


def service_tenant_inflight(override: Optional[int] = None) -> int:
    """Per-tenant cap on unsettled campaigns
    (``REPRO_SERVICE_TENANT_INFLIGHT``).

    A tenant already holding this many queued/running/starved campaigns
    has further submissions shed with HTTP 429 (the tenant's fault, so
    the global queue bound stays available to other tenants).  Junk
    values warn once and fall back to the default (8).
    """
    return _positive_int_knob("REPRO_SERVICE_TENANT_INFLIGHT", 8, override)


def tenant_step_quota(override: Optional[int] = "env") -> Optional[int]:
    """Default per-tenant total step budget (``REPRO_TENANT_QUOTA``).

    ``None`` (the default when unset) means unlimited; so do ``0``,
    ``none``, and ``unlimited``.  A tenant that exhausts its quota is
    starved — its campaigns park at a checkpoint — never failed.  Junk
    values warn once and fall back to unlimited.
    """
    if override != "env":
        return None if override is None else max(1, int(override))
    raw = os.environ.get("REPRO_TENANT_QUOTA")
    if raw is None:
        return None
    cached = _INT_CACHE.get(("REPRO_TENANT_QUOTA", raw))
    if cached is not None:
        return cached
    value = raw.strip().lower()
    if value in {"", "0", "none", "unlimited"}:
        return None
    try:
        quota = int(value)
    except ValueError:
        quota = -1
    if quota < 0:
        _warn_once(
            "REPRO_TENANT_QUOTA",
            raw,
            "falling back to no quota (unlimited) — use a positive "
            "integer, or 0/none/unlimited",
        )
        return None
    _INT_CACHE[("REPRO_TENANT_QUOTA", raw)] = quota
    return quota


def pool_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial); ``0``
    (also for ``auto``) means every core, which
    :func:`repro.perf.parallel.resolve_jobs` resolves.  Junk and
    negative values warn once and run serially."""
    raw = os.environ.get("REPRO_JOBS")
    if raw is None:
        return 1
    value = raw.strip().lower()
    if value == "auto":
        return 0
    try:
        jobs = int(value)
    except ValueError:
        jobs = -1
    if jobs < 0:
        _warn_once(
            "REPRO_JOBS",
            raw,
            "running serially (1 worker) — use an integer >= 0, or auto",
        )
        return 1
    return jobs


def mapping_cache_dir() -> Optional[str]:
    """The validated ``REPRO_MAPPING_CACHE_DIR`` directory, or None.

    Unset, empty, and the usual false spellings disable persistence.  A
    value that cannot be used as a directory (it exists as a regular
    file, or cannot be created) warns once and disables persistence —
    the campaign continues on the per-process cache.
    """
    raw = os.environ.get("REPRO_MAPPING_CACHE_DIR")
    if raw is None:
        return None
    value = raw.strip()
    if not value or value.lower() in _FALSE:
        return None
    if os.path.exists(value) and not os.path.isdir(value):
        _warn_once(
            "REPRO_MAPPING_CACHE_DIR",
            raw,
            "it exists but is not a directory; the mapping cache is not "
            "persisted",
        )
        return None
    try:
        os.makedirs(value, exist_ok=True)
    except OSError as exc:
        _warn_once(
            "REPRO_MAPPING_CACHE_DIR",
            raw,
            f"the directory cannot be created ({exc}); the mapping cache "
            "is not persisted",
        )
        return None
    return value


#: The fault plan of the current ``REPRO_FAULT_INJECT`` value, as
#: ``(raw, plan)``.  A plan counts site invocations (``step=N``), so it
#: is rebuilt only when the value changes.
_FAULT_PLAN: Tuple[Optional[str], object] = (None, None)
_FAULT_PLAN_LOCK = threading.Lock()


def fault_plan():
    """The :class:`~repro.resilience.fault_injection.FaultPlan` that
    ``REPRO_FAULT_INJECT`` arms, or None when it is unset or blank.

    A malformed plan warns once, naming the parse error, and leaves
    injection off; an explicit
    :func:`~repro.resilience.fault_injection.parse_fault_plan` call
    still raises ``FaultSpecError``.
    """
    global _FAULT_PLAN
    raw = os.environ.get("REPRO_FAULT_INJECT")
    if not raw:
        return None
    with _FAULT_PLAN_LOCK:
        if _FAULT_PLAN[0] == raw:
            return _FAULT_PLAN[1]
        # Imported at call time: repro.resilience stays off this leaf
        # module's import graph.
        from repro.resilience.fault_injection import (
            FaultSpecError,
            parse_fault_plan,
        )

        try:
            plan = parse_fault_plan(raw)
        except FaultSpecError as exc:
            _warn_once(
                "REPRO_FAULT_INJECT", raw, f"fault injection stays off ({exc})"
            )
            return None
        _FAULT_PLAN = (raw, plan)
        return plan
