"""Executor abstraction: opt-in parallelism with a bit-identical serial path.

The one pool in the pipeline runs independent (technique x model)
campaigns of :meth:`repro.experiments.harness.ComparisonRunner.run_matrix`.
Layer searches never go through it: they run in the evaluating process.

* ``REPRO_JOBS`` — worker count of that pool.  Unset or ``1`` selects
  the serial path (a plain loop: no pool, no pickling).  ``0`` or
  ``auto`` selects ``os.cpu_count()``; junk and negative values warn
  once and run serially (:func:`repro.perf.knobs.pool_jobs`).
* ``WorkerPool(mode=...)`` picks ``process`` (the default) or
  ``thread`` executors.

Work is always dispatched and collected in input order, so parallel
results are deterministic regardless of completion order.

Parallel maps are *supervised* (see :mod:`repro.resilience`): each task
gets a wall-clock budget (``REPRO_TASK_TIMEOUT``), bounded retries with
deterministic exponential backoff (``REPRO_MAX_RETRIES``,
``REPRO_RETRY_BACKOFF``), an automatic executor rebuild after a broken
pool or a hung worker, and a last-resort in-parent serial fallback for a
task that crashed in every worker.  Fault-free runs take none of these
paths and stay bit-identical to the unsupervised pipeline.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.perf.knobs import pool_jobs, resolve_executor_mode
from repro.resilience.errors import (
    WorkerCrashError,
    WorkerTimeoutError,
    as_repro_error,
    is_retryable,
)
from repro.resilience.fault_injection import attempt_scope
from repro.resilience.supervisor import RetryPolicy

__all__ = ["resolve_jobs", "parallel_map", "WorkerPool"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[object] = None) -> int:
    """Resolve a worker count from an explicit value or ``REPRO_JOBS``.

    An explicit value is an integer (``0`` means every core, negatives
    clamp to 1) or ``"auto"``; anything else is a caller bug and raises
    ``ValueError``.  None reads the validated knob
    (:func:`repro.perf.knobs.pool_jobs`).
    """
    if jobs is None:
        jobs = pool_jobs()
    elif isinstance(jobs, str) and jobs.strip().lower() == "auto":
        jobs = 0
    jobs = int(jobs)
    return (os.cpu_count() or 1) if jobs == 0 else max(1, jobs)


def _supervised_task(
    fn: Callable[[T], R], item: T, attempt: int, allow_kill: bool
) -> R:
    """Worker-side wrapper: runs ``fn(item)`` under the ambient fault-
    injection attempt, so a retried task re-rolls its injected faults.
    Module-level so process pools can pickle it."""
    with attempt_scope(attempt, allow_kill=allow_kill):
        return fn(item)


_UNSET = object()


class WorkerPool:
    """Lazily created, reusable executor with a serial fallback.

    With ``jobs <= 1`` no executor is ever created and :meth:`map` is a
    plain list comprehension — the exact pre-existing serial semantics.
    Parallel maps are supervised per ``retry_policy``.

    Args:
        jobs: Worker count (None reads ``REPRO_JOBS``).
        mode: ``process``/``thread`` (None selects ``process``).
        task_timeout: Per-task seconds before a worker is declared hung
            (None reads ``REPRO_TASK_TIMEOUT``; 0/unset disables).
        max_retries: Per-task retry budget (None reads
            ``REPRO_MAX_RETRIES``, default 3).
    """

    def __init__(
        self,
        jobs: Optional[object] = None,
        mode: Optional[str] = None,
        task_timeout: Optional[object] = None,
        max_retries: Optional[int] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.mode = resolve_executor_mode(mode)
        self.retry_policy = RetryPolicy.from_env(
            max_retries=max_retries, task_timeout=task_timeout
        )
        self._executor: Optional[Executor] = None
        #: Supervision counters (all zero on a fault-free run).
        self.supervision: Dict[str, int] = {
            "retries": 0,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "serial_fallbacks": 0,
        }

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self.mode == "process":
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            else:
                self._executor = ThreadPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _abandon_executor(self) -> None:
        """Tear down a broken/hung executor; the next round rebuilds it.

        Process workers are killed outright (a hung worker never drains
        on its own); thread workers cannot be killed, so their executor
        is abandoned without waiting and the threads die with the task.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        self.supervision["pool_rebuilds"] += 1
        processes = list(getattr(executor, "_processes", {}).values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for process in processes:
            try:
                process.kill()
            except Exception:  # pragma: no cover - already dead
                pass

    # -- mapping ---------------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Order-preserving map (serial when ``jobs <= 1``)."""
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [fn(item) for item in items]
        return self._supervised_map(fn, items)

    def _serial_fallback(self, fn, item, attempt: int, index: int):
        """Last resort: run a task that failed in every worker in the
        parent process; a failure here is deterministic, so the wrapped
        error is marked non-retryable (quarantine upstream)."""
        self.supervision["serial_fallbacks"] += 1
        try:
            return _supervised_task(fn, item, attempt, False)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            error = as_repro_error(
                exc,
                "task failed in every worker and in the serial fallback",
                task_index=index,
                attempts=attempt + 1,
            )
            error.retryable = False
            raise error from exc

    def _supervised_map(self, fn, items: List) -> List:
        policy = self.retry_policy
        allow_kill = self.mode == "process"
        count = len(items)
        results: List = [_UNSET] * count
        attempts = [0] * count
        remaining = list(range(count))
        while remaining:
            executor = self._ensure_executor()
            futures = {
                i: executor.submit(
                    _supervised_task, fn, items[i], attempts[i], allow_kill
                )
                for i in remaining
            }
            retry: List[int] = []
            abandoned = False
            for i in remaining:
                future = futures[i]
                if abandoned:
                    # The executor was torn down mid-round: harvest tasks
                    # that already finished, resubmit the rest next round
                    # without charging their retry budget (they are
                    # victims, not culprits).
                    if future.done() and not future.cancelled() and (
                        future.exception() is None
                    ):
                        results[i] = future.result()
                    else:
                        retry.append(i)
                    continue
                try:
                    results[i] = future.result(timeout=policy.task_timeout)
                except FutureTimeoutError:
                    self.supervision["timeouts"] += 1
                    self._abandon_executor()
                    abandoned = True
                    attempts[i] += 1
                    if attempts[i] > policy.max_retries:
                        raise WorkerTimeoutError(
                            f"task exceeded REPRO_TASK_TIMEOUT="
                            f"{policy.task_timeout:g}s on every attempt",
                            retryable=False,
                            task_index=i,
                            attempts=attempts[i],
                        ) from None
                    self.supervision["retries"] += 1
                    retry.append(i)
                except BrokenExecutor as exc:
                    # The pool died (SIGKILLed/crashed worker).  Rebuild
                    # and retry every uncollected task; the culprit is
                    # unknowable, so all of them pay one attempt.
                    self._abandon_executor()
                    abandoned = True
                    attempts[i] += 1
                    if attempts[i] > policy.max_retries:
                        results[i] = self._serial_fallback(
                            fn, items[i], attempts[i], i
                        )
                    else:
                        self.supervision["retries"] += 1
                        retry.append(i)
                    del exc
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    # The task itself raised inside a healthy worker.
                    if not is_retryable(exc):
                        raise
                    attempts[i] += 1
                    if attempts[i] > policy.max_retries:
                        results[i] = self._serial_fallback(
                            fn, items[i], attempts[i], i
                        )
                    else:
                        self.supervision["retries"] += 1
                        policy.sleep_before_retry(f"task-{i}", attempts[i])
                        retry.append(i)
            remaining = retry
        crashed = [i for i, r in enumerate(results) if r is _UNSET]
        if crashed:  # pragma: no cover - defensive (all paths fill or raise)
            raise WorkerCrashError(
                f"tasks {crashed} never completed", retryable=False
            )
        return results

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Release the executor; idempotent (safe to call repeatedly)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    #: Backwards-compatible alias.
    close = shutdown

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.shutdown()
        except Exception:
            pass


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[object] = None,
    mode: Optional[str] = None,
) -> List[R]:
    """One-shot order-preserving map over a temporary :class:`WorkerPool`."""
    with WorkerPool(jobs=jobs, mode=mode) as pool:
        return pool.map(fn, items)
