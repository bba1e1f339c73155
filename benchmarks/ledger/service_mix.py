"""One rep of the ``service-mix`` workload.

``repro serve --port 0`` runs as a subprocess on a fresh spool.  One
closed-loop client (this process) submits eight default campaign specs
from two tenants at t=0, alternating between the tenants, polls
``status`` every 50 ms until every campaign settles, fetches results and
journals, reads ``/v1/healthz`` and sends SIGTERM.  Eight campaigns over
a scheduler admitting four at a time keep a waiting queue; every attempt
writes the journal and an fsync'd checkpoint to the spool.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional

#: (tenant, model, evaluation budget) of the eight campaigns, in
#: submission order.  The order is fixed: shuffling it moved the median
#: settle time between 5.0 and 7.9 s across seeds 0-9, far beyond any
#: regression bound.
CAMPAIGNS = (
    ("alice", "resnet18", 40),
    ("bob", "transformer", 100),
    ("alice", "mobilenetv2", 30),
    ("bob", "bert", 100),
    ("alice", "efficientnetb0", 30),
    ("bob", "resnet18", 40),
    ("alice", "resnet50", 30),
    ("bob", "mobilenetv2", 30),
)
POLL_S = 0.05
_TERMINAL = ("finished", "cancelled", "failed", "expired")
HERE = Path(__file__).resolve().parent


def label_of(tenant: str, model: str, budget: int) -> str:
    return f"{tenant}/{model}@{budget}"


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` and return its resource usage (SIGKILL after
    ``timeout``)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.02)


def start_server(argv: List[str], env: dict, log_path: Path, timeout: float = 60.0):
    """Spawn a server; returns ``(proc, url, seconds to its listening line)``."""
    started = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=log, text=True
        )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("service listening on "):
                url = line.split()[3]
                return proc, url, time.perf_counter() - started
    finally:
        watchdog.cancel()
    _reap(proc, 10.0)
    raise RuntimeError(f"server exited before listening (see {log_path})")


def stop_server(proc: subprocess.Popen, timeout: float = 60.0):
    """SIGTERM the server, drain its output and return its resource usage."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    usage = _reap(proc, timeout)
    proc.stdout.close()
    return usage


def setup_sample(workdir: Path, env: dict) -> float:
    """Set-up time of one server that is stopped right after it listens."""
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=workdir))
    try:
        proc, _, seconds = start_server(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--spool", str(spool)],
            env, workdir / "serve.log",
        )
        stop_server(proc)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    return seconds


class _Client:
    """The closed-loop client: counts HTTP operations and failures."""

    def __init__(self, url: str):
        from repro.service.client import ServiceClient, ServiceClientError

        self.client = ServiceClient(url, retries=0)
        self.error = ServiceClientError
        self.requests = 0
        self.failed = 0

    def call(self, method: str, *args):
        self.requests += 1
        try:
            return getattr(self.client, method)(*args)
        except self.error:
            self.failed += 1
            return None


def _summarize(label: str, status: Optional[dict], result: Optional[dict],
               journal: Optional[List[str]]) -> dict:
    trials = []
    for line in journal or ():
        event = json.loads(line)
        if event["kind"] in ("CandidateEvaluated", "CandidateFailed"):
            trials.append(event)
    best_point = (result or {}).get("best_point")
    best_costs = (result or {}).get("best_costs")
    evals_to_best = None
    if best_point is not None:
        evals_to_best = next(
            (i + 1 for i, e in enumerate(trials)
             if e["data"]["point"] == best_point),
            None,
        )
    return {
        "label": label,
        "status": (status or {}).get("status", "unknown"),
        "fingerprint": hashlib.sha256(result["fingerprint"].encode()).hexdigest()
        if result
        else None,
        "evaluations": (result or {}).get("evaluations", 0),
        "trials": len(trials),
        "feasible": sum(
            1 for e in trials
            if e["kind"] == "CandidateEvaluated" and e["data"]["feasible"]
        ),
        "quarantined": sum(1 for e in trials if e["kind"] == "CandidateFailed"),
        "best_latency_ms": best_costs["latency_ms"] if best_costs else None,
        "evals_to_best": evals_to_best,
    }


def run_rep(workdir: Path, env: dict, budget: Optional[int] = None,
            trace: bool = False, timeout: float = 150.0) -> dict:
    """One service-mix rep; returns its record (spans included if traced).
    Campaigns not settled ``timeout`` seconds after submission are
    reported unsettled."""
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=workdir))
    ledger_out = spool.with_name(spool.name + "-server.json")
    if trace:
        argv = [sys.executable, str(HERE / "serve_traced.py"),
                "--ledger-out", str(ledger_out)]
    else:
        argv = [sys.executable, "-m", "repro"]
    argv += ["serve", "--port", "0", "--spool", str(spool)]
    specs = [
        (label_of(t, m, budget or b), {"tenant": t, "model": m,
                                       "iterations": budget or b})
        for t, m, b in CAMPAIGNS
    ]
    recorder = installation = None
    proc, url, setup_s = start_server(argv, env, workdir / "serve.log")
    try:
        if trace:
            import spans

            recorder = spans.SpanRecorder(trace="service-mix")
            installation = spans.install(recorder)
        client = _Client(url)
        root_span = recorder.open("campaign") if recorder else None
        submitted = {}
        first_submit = time.perf_counter()
        for label, spec in specs:
            at = time.perf_counter()
            cid = client.call("submit", spec)
            if cid is not None:
                submitted[cid] = (label, at)
        settled, statuses = {}, {}
        deadline = time.monotonic() + timeout
        while len(settled) < len(submitted) and time.monotonic() < deadline:
            for cid in submitted:
                if cid in settled:
                    continue
                status = client.call("status", cid)
                if status is not None and status["status"] in _TERMINAL:
                    settled[cid] = time.perf_counter()
                    statuses[cid] = status
            if len(settled) < len(submitted):
                time.sleep(POLL_S)
        last_settle = max(settled.values(), default=time.perf_counter())
        if root_span is not None:
            recorder.close(root_span)
        health = client.call("healthz") or {}
        campaigns = []
        for cid, (label, _) in submitted.items():
            status = statuses.get(cid)
            finished = status is not None and status["status"] == "finished"
            result = client.call("result", cid) if finished else None
            journal = client.call("journal", cid)
            campaigns.append(_summarize(label, status, result, journal))
    finally:
        if installation is not None:
            installation.restore()
        usage = stop_server(proc)
    journal_bytes = sum(
        path.stat().st_size for path in spool.glob("*/journal.jsonl")
    )
    shutil.rmtree(spool, ignore_errors=True)
    missing = len(specs) - len(submitted)
    record = {
        "workload": "service-mix",
        "setup_s": setup_s,
        "campaign_s": last_settle - first_submit,
        "settle_s": [settled[cid] - at for cid, (_, at) in submitted.items()
                     if cid in settled],
        "campaigns": campaigns,
        "explainable": [c["label"] for c in campaigns],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "http_requests": client.requests,
        "http_failed": client.failed,
        "unsubmitted": missing,
        "server_exit": proc.returncode,
    }
    if trace:
        server = json.loads(ledger_out.read_text())
        ledger_out.unlink()
        label_of_cid = {cid: label for cid, (label, _) in submitted.items()}
        for span in server["spans"]:
            span["pid"] = server["pid"]
            span["trace"] = label_of_cid.get(span["trace"], span["trace"])
        for span in recorder.spans:
            span["pid"] = os.getpid()
        counters = dict(server["counters"])
        counters.update(
            journal_bytes=journal_bytes,
            ewma_slice_s=health.get("ewma_slice_s") or 0.0,
            shed=sum(health.get("counters", {}).get(k, 0)
                     for k in ("shed_429", "shed_503")),
            slice_faults=health.get("counters", {}).get("slice_faults", 0),
        )
        record["spans"] = recorder.spans + server["spans"]
        record["counters"] = counters
    return record
