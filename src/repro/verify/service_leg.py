"""Service leg of the verification pipeline.

Runs N campaigns *through the campaign service* — interleaved by the
multi-tenant scheduler, with the service process "killed" (stopped) mid
run and a fresh service resumed on the same spool — and asserts each
campaign's result fingerprint and canonical journal are identical to a
solo ``ExplainableDSE.run()`` with the same configuration.  This is the
end-to-end differential for :mod:`repro.service`: whatever the
interleaving, the quantum, or the restart point, the service must be
undetectable in the results.

The campaigns deliberately differ in budget (so their reference
fingerprints differ — a swapped journal or crossed spool directory
cannot pass) and span two tenants (so the weighted-fair ring actually
interleaves).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.verify.differential import (
    _REFERENCE_ENV,
    _canonical_journal,
    _constraints,
    _evaluator,
    _fingerprint,
    _patched_env,
)

__all__ = ["ServiceReport", "run_service_differential"]

#: (tenant, max_evaluations) per campaign; two tenants, unequal budgets.
_CAMPAIGNS = [("alice", 12), ("bob", 10), ("alice", 8)]


@dataclass
class ServiceReport:
    """Outcome of the service differential."""

    campaigns: int = 0
    slices: int = 0
    interleaved: bool = False
    restarted: bool = False
    expired_resumed: bool = False
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.mismatches
            and self.interleaved
            and self.restarted
            and self.expired_resumed
            and self.campaigns == len(_CAMPAIGNS)
        )


def _make_factory():
    """A campaign factory matching the differential reference exactly
    (same workload, mapper, cold cache) so solo and service runs are
    comparable."""
    from repro.arch.accelerator import build_edge_design_space
    from repro.core.dse.explainable import ExplainableDSE
    from repro.verify.corpus import campaign_workload

    def factory(spec):
        return ExplainableDSE(
            build_edge_design_space(),
            _evaluator(campaign_workload(), batch_eval=False),
            _constraints(),
            max_evaluations=spec.iterations,
        )

    return factory


def _solo_references(workdir: Path) -> Dict[int, tuple]:
    """Fingerprint + canonical journal of each campaign run alone."""
    from repro.arch.accelerator import build_edge_design_space
    from repro.core.dse.explainable import ExplainableDSE
    from repro.telemetry import JsonlSink, Tracer
    from repro.verify.corpus import campaign_workload

    references = {}
    space = build_edge_design_space()
    for index, (_tenant, budget) in enumerate(_CAMPAIGNS):
        journal = workdir / f"solo-{index}.jsonl"
        evaluator = _evaluator(campaign_workload(), batch_eval=False)
        tracer = Tracer(JsonlSink(journal))
        try:
            result = ExplainableDSE(
                space, evaluator, _constraints(), max_evaluations=budget
            ).run(tracer=tracer)
        finally:
            tracer.close()
        references[index] = (_fingerprint(result), _canonical_journal(journal))
    return references


async def _drive_service(spool: Path, factory) -> tuple:
    """Submit all campaigns, stop the service mid-run, resume on a fresh
    service over the same spool, and drain.  Returns
    ``(campaign_ids, slice_log, restarted, resumed_service)``."""
    from repro.service.service import CampaignService, CampaignSpec

    service = CampaignService(
        spool, campaign_factory=factory, quantum=1, default_quota=None
    )
    await service.start()
    ids = []
    for tenant, budget in _CAMPAIGNS:
        ids.append(
            await service.submit(
                CampaignSpec(model="service-leg", tenant=tenant,
                             iterations=budget)
            )
        )
    # Let the interleaving get going, then stop mid-run — the moral
    # equivalent of SIGTERMing the server (the subprocess version lives
    # in benchmarks/service_smoke.py).
    while len(service.slice_log) < 4:
        await asyncio.sleep(0.01)
    await service.stop()
    first_slices = list(service.slice_log)
    restarted = any(
        service.status(cid)["status"] not in ("finished", "cancelled")
        for cid in ids
    )

    resumed = CampaignService(
        spool, campaign_factory=factory, quantum=1, default_quota=None
    )
    await resumed.start()
    for cid in ids:
        await resumed.wait(cid)
    # Deadline leg: a campaign with an impossibly small processing
    # budget expires at its first attempt boundary (through a forced
    # checkpoint); a deadline extension must resume it to the same
    # fingerprint and journal a straight run produces.  Its budget
    # matches _CAMPAIGNS[1], so references[1] is its solo reference.
    expired_id = await resumed.submit(
        CampaignSpec(
            model="service-leg",
            tenant="alice",
            iterations=_CAMPAIGNS[1][1],
            deadline_s=1e-6,
        )
    )
    expired_status = (await resumed.wait(expired_id))["status"]
    resumed.extend_deadline(expired_id, 3600.0)
    await resumed.wait(expired_id)
    await resumed.stop()
    return (
        ids,
        first_slices + list(resumed.slice_log),
        restarted,
        resumed,
        expired_id,
        expired_status,
    )


def run_service_differential(
    workdir,
    log: Optional[Callable[[str], None]] = None,
) -> ServiceReport:
    """Run the service differential; see the module docstring."""
    say = log if log is not None else (lambda message: None)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report = ServiceReport()

    with _patched_env(_REFERENCE_ENV):
        say("service: solo reference campaigns")
        references = _solo_references(workdir)

        say(
            f"service: {len(_CAMPAIGNS)} campaigns, 2 tenants, "
            "stop + resume mid-run"
        )
        spool = workdir / "spool"
        (
            ids,
            slice_log,
            restarted,
            resumed,
            expired_id,
            expired_status,
        ) = asyncio.run(_drive_service(spool, _make_factory()))

    report.campaigns = len(ids)
    report.slices = len(slice_log)
    report.restarted = restarted
    # Interleaved = some other campaign ran between two slices of one.
    for cid in ids:
        positions = [i for i, (c, _) in enumerate(slice_log) if c == cid]
        if len(positions) > 1 and positions[-1] - positions[0] >= len(
            positions
        ):
            report.interleaved = True
            break
    if not restarted:
        report.mismatches.append(
            "service stopped after every campaign already settled; "
            "the restart path was not exercised"
        )

    for index, cid in enumerate(ids):
        expected_fp, expected_journal = references[index]
        status = resumed.status(cid)
        if status["status"] != "finished":
            report.mismatches.append(
                f"campaign {cid}: ended {status['status']} "
                f"({status['error']})"
            )
            continue
        actual_fp = resumed.result(cid)["fingerprint"]
        if actual_fp != expected_fp:
            report.mismatches.append(
                f"campaign {cid}: result fingerprint diverged from the "
                "solo run"
            )
        journal = spool / cid / "journal.jsonl"
        if _canonical_journal(journal) != expected_journal:
            report.mismatches.append(
                f"campaign {cid}: canonical journal diverged from the "
                "solo run"
            )

    # Expired-then-resumed leg: same reference as campaign index 1.
    expected_fp, expected_journal = references[1]
    final = resumed.status(expired_id)
    if expired_status != "expired":
        report.mismatches.append(
            f"deadline campaign {expired_id}: settled {expired_status!r} "
            "instead of expiring"
        )
    elif final["status"] != "finished":
        report.mismatches.append(
            f"deadline campaign {expired_id}: ended {final['status']} "
            f"after extension ({final['error']})"
        )
    else:
        report.expired_resumed = True
        if resumed.result(expired_id)["fingerprint"] != expected_fp:
            report.mismatches.append(
                f"deadline campaign {expired_id}: fingerprint diverged "
                "from the straight run after expire + extend"
            )
        if (
            _canonical_journal(spool / expired_id / "journal.jsonl")
            != expected_journal
        ):
            report.mismatches.append(
                f"deadline campaign {expired_id}: canonical journal "
                "diverged from the straight run after expire + extend"
            )
    say(
        f"service: done ({report.campaigns} campaigns, {report.slices} "
        f"slices, {len(report.mismatches)} mismatches)"
    )
    return report
