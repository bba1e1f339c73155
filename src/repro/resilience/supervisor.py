"""Worker supervision policy: retries, backoff, timeouts, circuit breaker.

The policy objects here are consumed by
:class:`repro.perf.parallel.WorkerPool` (per-task supervision),
:class:`repro.cost.evaluator.CostEvaluator` (whole-evaluation retries),
and :class:`repro.core.dse.explainable.ExplainableDSE` (campaign-level
circuit breaking).  Environment knobs:

* ``REPRO_TASK_TIMEOUT`` — per-task wall-clock budget in seconds
  (unset/``0`` disables timeouts).
* ``REPRO_MAX_RETRIES`` — retry budget per task/evaluation (default 3).
* ``REPRO_RETRY_BACKOFF`` — base backoff delay in seconds (default
  0.05); attempt ``n`` sleeps ``base * 2**(n-1)`` plus up to 25%
  deterministic jitter derived from the task signature, so re-runs of
  the same campaign back off identically.
* ``REPRO_MAX_FAILURE_RATE`` — quarantined-candidate fraction above
  which the campaign circuit breaker trips (default 0.5; ``>= 1``
  disables the breaker).

All four are parsed by :func:`repro.perf.knobs.numeric_knob`: junk and
non-finite values warn once and keep the default.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.resilience.errors import SystemicFaultError

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_MAX_FAILURE_RATE",
    "RetryPolicy",
    "FailureRateBreaker",
    "resolve_task_timeout",
]

DEFAULT_MAX_RETRIES = 3
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_MAX_FAILURE_RATE = 0.5
#: Minimum quarantined candidates before the breaker may trip, so one
#: early straggler cannot abort a long campaign.
BREAKER_MIN_FAILURES = 3


def _numeric_knob(name: str, default: float, parse=float) -> float:
    """:func:`repro.perf.knobs.numeric_knob`, imported at call time
    because ``repro.perf`` imports this module."""
    from repro.perf.knobs import numeric_knob as parse_knob

    return parse_knob(name, default, parse)


def resolve_task_timeout(timeout: Optional[object] = None) -> Optional[float]:
    """Per-task timeout in seconds; None/0 (or unset env) disables it."""
    if timeout is None:
        timeout = _numeric_knob("REPRO_TASK_TIMEOUT", 0.0)
    timeout = float(timeout)
    return timeout if timeout > 0 else None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    Attributes:
        max_retries: Retries after the first attempt (0 = fail fast).
        backoff_base: First-retry delay in seconds; doubles per retry.
        task_timeout: Per-task wall-clock budget (None = unbounded).
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base: float = DEFAULT_BACKOFF_BASE
    task_timeout: Optional[float] = None

    @classmethod
    def from_env(
        cls,
        max_retries: Optional[int] = None,
        backoff_base: Optional[float] = None,
        task_timeout: Optional[object] = None,
    ) -> "RetryPolicy":
        return cls(
            max_retries=max(
                0,
                _numeric_knob("REPRO_MAX_RETRIES", DEFAULT_MAX_RETRIES, int)
                if max_retries is None
                else int(max_retries),
            ),
            backoff_base=max(
                0.0,
                _numeric_knob("REPRO_RETRY_BACKOFF", DEFAULT_BACKOFF_BASE)
                if backoff_base is None
                else float(backoff_base),
            ),
            task_timeout=resolve_task_timeout(task_timeout),
        )

    def backoff_seconds(self, signature: str, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), with jitter seeded
        from the task signature so repeated runs back off identically."""
        if attempt <= 0 or self.backoff_base <= 0:
            return 0.0
        jitter = zlib.crc32(f"{signature}|{attempt}".encode()) / 2**32
        return self.backoff_base * 2 ** (attempt - 1) * (1.0 + 0.25 * jitter)

    def sleep_before_retry(self, signature: str, attempt: int) -> None:
        delay = self.backoff_seconds(signature, attempt)
        if delay > 0:
            time.sleep(delay)


class FailureRateBreaker:
    """Campaign-level circuit breaker over candidate-evaluation outcomes.

    Counts quarantined vs. successful evaluations; once at least
    ``BREAKER_MIN_FAILURES`` candidates failed *and* the failure fraction
    exceeds ``max_failure_rate``, :attr:`tripped` turns True and the DSE
    aborts cleanly through its checkpoint path (raising
    :class:`~repro.resilience.errors.SystemicFaultError`) instead of
    grinding through a systemically broken evaluator.
    """

    def __init__(self, max_failure_rate: Optional[float] = None):
        self.max_failure_rate = (
            _numeric_knob("REPRO_MAX_FAILURE_RATE", DEFAULT_MAX_FAILURE_RATE)
            if max_failure_rate is None
            else float(max_failure_rate)
        )
        self.failures = 0
        self.successes = 0

    @property
    def total(self) -> int:
        return self.failures + self.successes

    @property
    def failure_rate(self) -> float:
        return self.failures / self.total if self.total else 0.0

    @property
    def enabled(self) -> bool:
        return self.max_failure_rate < 1.0

    @property
    def tripped(self) -> bool:
        return (
            self.enabled
            and self.failures >= BREAKER_MIN_FAILURES
            and self.failure_rate > self.max_failure_rate
        )

    def record_success(self) -> None:
        self.successes += 1

    def record_failure(self) -> None:
        self.failures += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "failures": self.failures,
            "successes": self.successes,
            "failure_rate": self.failure_rate,
            "max_failure_rate": self.max_failure_rate,
            "tripped": self.tripped,
        }

    def systemic_fault(self, **context) -> SystemicFaultError:
        """The error to raise when tripped (context merged in)."""
        return SystemicFaultError(
            f"circuit breaker tripped: {self.failures} of {self.total} "
            f"candidate evaluations failed "
            f"(rate {self.failure_rate:.0%} > "
            f"limit {self.max_failure_rate:.0%})",
            failures=self.failures,
            evaluations=self.total,
            rate=round(self.failure_rate, 4),
            **context,
        )
