"""Golden traces: the reference campaign pinned into the repository.

A deterministic serial campaign (same settings as the differential
baseline) is run and compared byte-for-byte against fixtures under
``tests/goldens/``:

* ``tiny_campaign.jsonl`` — the canonical journal (RunSummary perf
  counters stripped, the counter-free equivalence every fast path must
  reproduce);
* ``tiny_campaign.json`` — metadata plus the exact result fingerprint
  (trial points/costs/explanations/incumbent, rendered by ``repr`` so
  float bit-patterns are preserved).

Any intentional change to search order, cost arithmetic, explanation
text, or journal schema shows up as a golden diff; regenerate with
``python -m repro.experiments.cli verify --update-goldens`` and review
the diff like any other source change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.arch.accelerator import build_edge_design_space
from repro.core.dse.explainable import ExplainableDSE
from repro.telemetry import JsonlSink, Tracer
from repro.verify.corpus import campaign_workload
from repro.verify.differential import (
    _BUDGET,
    _canonical_journal,
    _constraints,
    _evaluator,
    _fingerprint,
)

__all__ = ["GoldenReport", "default_golden_dir", "run_golden_campaign", "check_goldens"]

_JOURNAL_NAME = "tiny_campaign.jsonl"
_META_NAME = "tiny_campaign.json"


def default_golden_dir() -> Path:
    """``tests/goldens/`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


@dataclass
class GoldenReport:
    """Outcome of a golden comparison (or regeneration)."""

    golden_dir: str = ""
    updated: bool = False
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_golden_campaign(workdir: Path) -> Tuple[bytes, str]:
    """Run the reference campaign; returns (canonical journal bytes,
    result fingerprint)."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal = workdir / "golden_run.jsonl"
    evaluator = _evaluator(campaign_workload(), batch_eval=False)
    tracer = Tracer(JsonlSink(journal))
    try:
        result = ExplainableDSE(
            build_edge_design_space(),
            evaluator,
            _constraints(),
            max_evaluations=_BUDGET,
        ).run(tracer=tracer)
    finally:
        tracer.close()
    return _canonical_journal(journal), _fingerprint(result)


def check_goldens(
    workdir: Path,
    golden_dir: Optional[Path] = None,
    update: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> GoldenReport:
    """Compare a fresh reference campaign against the pinned goldens.

    With ``update=True`` the goldens are rewritten instead and the report
    comes back clean (review the resulting diff before committing).
    """
    golden_dir = Path(golden_dir) if golden_dir is not None else default_golden_dir()
    say = log if log is not None else (lambda message: None)
    report = GoldenReport(golden_dir=str(golden_dir))
    journal_bytes, fingerprint = run_golden_campaign(Path(workdir))
    journal_path = golden_dir / _JOURNAL_NAME
    meta_path = golden_dir / _META_NAME

    if update:
        golden_dir.mkdir(parents=True, exist_ok=True)
        journal_path.write_bytes(journal_bytes)
        meta_path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "campaign": {
                        "workload": campaign_workload().name,
                        "max_evaluations": _BUDGET,
                        "journal": _JOURNAL_NAME,
                    },
                    "fingerprint": fingerprint,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        report.updated = True
        say(f"goldens: regenerated under {golden_dir}")
        return report

    if not journal_path.exists() or not meta_path.exists():
        report.mismatches.append(
            f"goldens missing under {golden_dir} "
            "(generate with `verify --update-goldens`)"
        )
        return report
    golden_journal = journal_path.read_bytes()
    if journal_bytes != golden_journal:
        report.mismatches.append(
            f"canonical journal differs from golden {journal_path}"
        )
    golden_meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if fingerprint != golden_meta.get("fingerprint"):
        report.mismatches.append(
            f"campaign result fingerprint differs from golden {meta_path}"
        )
    if report.ok:
        say("goldens: reference campaign matches pinned traces")
    return report
