"""Differential campaign runner: every fast path vs the reference path.

Runs the *same* DSE campaign through each accelerated configuration the
perf/telemetry/resilience layers added — vectorized batch scoring, warm
mapping cache, checkpoint-resume, fused cross-layer evaluation
(``REPRO_FUSED_EVAL``), compiled bottleneck trees
(``REPRO_TREE_COMPILE``), and all of them at once on a half-warm cache
loaded from a pickle (the ``REPRO_MAPPING_CACHE_DIR`` warm-start) — and
asserts the outputs are identical to the scalar/cold-cache/recursive
reference:

* **results** (trial points/costs, explanations, incumbent, budget
  accounting) must be byte-identical for every variant;
* **journals** must be byte-identical for variants that share the
  reference's counter values (compiled trees);
* for variants whose ``RunSummary`` perf counters legitimately differ
  (batch kernels count batches, warm caches count hits, resumed runs
  split counters across two evaluator lifetimes), the journals must be
  byte-identical after stripping the counters — the established
  equivalence the checkpoint-resume tests verify.

Every reference-side leg pins ``REPRO_TREE_COMPILE=0`` so the recursive
tree walk stays the ground truth regardless of the ambient environment;
the ``compiled-tree`` and ``all-on`` legs re-enable it explicitly.  The
``all-on`` leg must also serve exact cache hits *and* run fused blocks:
a leg that never reaches its fast paths is reported as a mismatch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.arch.accelerator import build_edge_design_space
from repro.core.dse.constraints import Constraint, Sense
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.perf.mapping_cache import MappingCache
from repro.telemetry import (
    JsonlSink,
    RunSummary,
    Tracer,
    default_checkpoint_path,
    encode_event,
    load_checkpoint,
    read_journal,
)
from repro.verify.corpus import campaign_workload
from repro.workloads.layers import Workload

__all__ = ["VariantOutcome", "DifferentialReport", "run_differential"]

#: Campaign settings shared by every variant (small but non-trivial: the
#: reference finishes in a few seconds and exercises mitigation steps).
_BUDGET = 25
_KILL_AT = 14


#: Environment pinned around every reference-side campaign so the
#: recursive tree walk is the ground truth even when the ambient
#: environment enables the compiled path.
_REFERENCE_ENV = {"REPRO_TREE_COMPILE": "0"}


@contextlib.contextmanager
def _patched_env(pairs: Dict[str, Optional[str]]):
    """Temporarily pin environment variables (None removes)."""
    saved = {name: os.environ.get(name) for name in pairs}
    try:
        for name, value in pairs.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _constraints() -> List[Constraint]:
    return [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
        Constraint("throughput", "throughput", 200.0, Sense.GEQ),
    ]


class _KillableEvaluator(CostEvaluator):
    """Raises mid-campaign to simulate a hard kill (for the resume leg)."""

    kill_at: Optional[int] = None

    def _evaluate_uncached(self, point):
        if self.kill_at is not None and self.evaluations >= self.kill_at:
            raise KeyboardInterrupt("differential-runner simulated kill")
        return super()._evaluate_uncached(point)


@dataclass
class VariantOutcome:
    """Comparable artifacts of one campaign variant."""

    name: str
    fingerprint: str
    raw_journal: bytes
    canonical_journal: bytes
    #: Whether the raw journal (counters included) must match the baseline.
    expect_raw_identity: bool


@dataclass
class DifferentialReport:
    """Outcome of the differential matrix."""

    variants: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _fingerprint(result) -> str:
    """Canonical, exact rendering of everything a campaign decides.

    One shared definition (:func:`repro.service.machine
    .result_fingerprint`) serves the differential matrix, the campaign
    service's result responses, and the service smoke test, so
    "identical fingerprints" always means the same comparison.
    """
    from repro.service.machine import result_fingerprint

    return result_fingerprint(result)


def _canonical_journal(path: Path) -> bytes:
    """Journal bytes with RunSummary perf counters stripped: the
    counter-free form every fast path must reproduce."""
    lines = []
    for event in read_journal(path):
        if isinstance(event, RunSummary):
            event = dataclasses.replace(event, counters={})
        lines.append(json.dumps(encode_event(event), sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _evaluator(
    workload: Workload,
    batch_eval: bool,
    cache: Optional[MappingCache] = None,
    cls=CostEvaluator,
    **kwargs,
) -> CostEvaluator:
    return cls(
        workload,
        TopNMapper(top_n=60, batch_eval=batch_eval),
        mapping_cache=cache if cache is not None else MappingCache(),
        **kwargs,
    )


def run_differential(
    workdir: Path,
    workload: Optional[Workload] = None,
    max_evaluations: int = _BUDGET,
    log: Optional[Callable[[str], None]] = None,
) -> DifferentialReport:
    """Run the full differential matrix under ``workdir``.

    Returns a report whose ``mismatches`` list is empty when every
    variant reproduced the reference campaign.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload if workload is not None else campaign_workload()
    space = build_edge_design_space()
    say = log if log is not None else (lambda message: None)

    def campaign(
        name: str,
        evaluator: CostEvaluator,
        env: Optional[Dict[str, Optional[str]]] = None,
    ) -> VariantOutcome:
        journal = workdir / f"{name}.jsonl"
        tracer = Tracer(JsonlSink(journal))
        try:
            with _patched_env(env if env is not None else _REFERENCE_ENV):
                result = ExplainableDSE(
                    space, evaluator, _constraints(), max_evaluations=max_evaluations
                ).run(tracer=tracer)
        finally:
            tracer.close()
        return VariantOutcome(
            name=name,
            fingerprint=_fingerprint(result),
            raw_journal=journal.read_bytes(),
            canonical_journal=_canonical_journal(journal),
            expect_raw_identity=False,
        )

    say("differential: baseline (scalar, cold cache)")
    baseline = campaign("baseline", _evaluator(workload, batch_eval=False))
    outcomes = [baseline]

    say("differential: batch kernel (the default scoring path)")
    outcomes.append(campaign("batch", _evaluator(workload, batch_eval=True)))

    say("differential: warm mapping cache (second run on a shared cache)")
    shared = MappingCache()
    with _patched_env(_REFERENCE_ENV):
        ExplainableDSE(
            space,
            _evaluator(workload, batch_eval=False, cache=shared),
            _constraints(),
            max_evaluations=max_evaluations,
        ).run()
    outcomes.append(
        campaign("warm-cache", _evaluator(workload, batch_eval=False, cache=shared))
    )

    say("differential: checkpoint-resume (kill mid-campaign, resume)")
    journal = workdir / "resume.jsonl"
    ckpt = default_checkpoint_path(journal)
    # Checkpoints are written at attempt boundaries, so a too-early kill
    # leaves nothing to resume from; push the kill later until one exists.
    kill_at = min(_KILL_AT, max(2, max_evaluations // 2))
    while True:
        if journal.exists():
            journal.unlink()
        if Path(ckpt).exists():
            Path(ckpt).unlink()
        killable = _evaluator(workload, batch_eval=False, cls=_KillableEvaluator)
        killable.kill_at = kill_at
        tracer = Tracer(JsonlSink(journal))
        try:
            with _patched_env(_REFERENCE_ENV):
                ExplainableDSE(
                    space, killable, _constraints(), max_evaluations=max_evaluations
                ).run(tracer=tracer, checkpoint_path=ckpt)
            raise RuntimeError(
                "differential resume leg: the killable evaluator never fired"
            )
        except KeyboardInterrupt:
            pass
        finally:
            tracer.close()
        if Path(ckpt).exists():
            break
        kill_at += 2
        if kill_at >= max_evaluations:
            raise RuntimeError(
                "differential resume leg: budget too small — the campaign "
                "ends before its first attempt-boundary checkpoint"
            )
    checkpoint = load_checkpoint(ckpt)
    sink = JsonlSink(journal, resume_events=checkpoint.journal_events)
    resumed_tracer = Tracer(sink, seq_start=checkpoint.journal_events)
    evaluator = _evaluator(workload, batch_eval=False)
    try:
        with _patched_env(_REFERENCE_ENV):
            result = ExplainableDSE(
                space, evaluator, _constraints(), max_evaluations=max_evaluations
            ).run(tracer=resumed_tracer, checkpoint_path=ckpt, resume_from=ckpt)
    finally:
        resumed_tracer.close()
    outcomes.append(
        VariantOutcome(
            name="resume",
            fingerprint=_fingerprint(result),
            raw_journal=journal.read_bytes(),
            canonical_journal=_canonical_journal(journal),
            expect_raw_identity=False,
        )
    )

    say("differential: fused cross-layer evaluation (REPRO_FUSED_EVAL path)")
    outcomes.append(
        campaign(
            "fused",
            _evaluator(workload, batch_eval=True, fused_eval=True),
        )
    )

    say("differential: compiled bottleneck trees (REPRO_TREE_COMPILE path)")
    compiled = campaign(
        "compiled-tree",
        _evaluator(workload, batch_eval=False),
        env={"REPRO_TREE_COMPILE": "1"},
    )
    # The compiled walk changes no counter the journal keeps (its memo
    # counters never reach perf_summary()), so the raw bytes must match
    # the recursive reference, not just the canonical form.
    compiled.expect_raw_identity = True
    outcomes.append(compiled)

    say("differential: all fast paths on a half-warm pickled cache")
    # A campaign at half the budget fills a cache that all-on loads from
    # a pickle, so all-on serves exact hits and runs fused blocks on the
    # layer searches the prefill never reached.
    prefill = MappingCache()
    with _patched_env(_REFERENCE_ENV):
        ExplainableDSE(
            space,
            _evaluator(workload, batch_eval=True, cache=prefill),
            _constraints(),
            max_evaluations=max_evaluations // 2,
        ).run()
    pickle_path = prefill.save(str(workdir / "all-on-cache.pkl"))
    all_on = _evaluator(
        workload,
        batch_eval=True,
        fused_eval=True,
        cache=MappingCache(persist_path=pickle_path),
    )
    outcomes.append(
        campaign("all-on", all_on, env={"REPRO_TREE_COMPILE": "1"})
    )

    report = DifferentialReport(variants=[o.name for o in outcomes])
    for outcome in outcomes[1:]:
        if outcome.fingerprint != baseline.fingerprint:
            report.mismatches.append(
                f"{outcome.name}: campaign results differ from baseline"
            )
        if outcome.canonical_journal != baseline.canonical_journal:
            report.mismatches.append(
                f"{outcome.name}: journal (counters stripped) differs from baseline"
            )
        if outcome.expect_raw_identity and outcome.raw_journal != baseline.raw_journal:
            report.mismatches.append(
                f"{outcome.name}: raw journal bytes differ from baseline"
            )
    perf = all_on.perf_summary()
    exact_hits = perf["mapping_cache"]["exact_hits"]
    fused_blocks = perf["batch_eval"]["fused_blocks"]
    if not (exact_hits and fused_blocks):
        report.mismatches.append(
            f"all-on: served {exact_hits} exact hits and ran {fused_blocks} "
            "fused blocks; the leg must run both"
        )
    return report
