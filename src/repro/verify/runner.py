"""The `verify` pipeline: every oracle-backed check behind one entry point.

Stage order (cheapest diagnostics first):

1. **sweep** — exhaustive tiny-space differential against the oracle;
2. **invariants** — bottleneck-tree algebra on trees built from real
   mapper-optimized executions;
3. **differential** — the fast-path campaign matrix (batch / warm cache /
   resume / fused / compiled trees / all on a pickled half-warm cache)
   against the reference;
4. **service** — N campaigns through the campaign service (interleaved,
   service stopped and resumed mid-run) against solo runs;
5. **goldens** — the reference campaign against the pinned traces under
   ``tests/goldens/`` (or regeneration with ``update_goldens=True``);
6. **fuzz** — the seeded design-point/mapping fuzzer, shrunk failures
   written under ``failures_dir``.

Used by ``python -m repro.experiments.cli verify`` and the CI `verify`
job; each stage's report is kept on the returned :class:`VerifyReport`
for tests and triage.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro.arch.accelerator import build_edge_design_space, config_from_point
from repro.core.bottleneck.latency_model import (
    LayerExecutionContext,
    build_latency_tree,
)
from repro.mapping.mapper import TopNMapper
from repro.verify.checks import SweepReport, exhaustive_tiny_sweep
from repro.verify.corpus import campaign_workload, tiny_verify_workload
from repro.verify.differential import DifferentialReport, run_differential
from repro.verify.fuzzer import FuzzReport, run_fuzz
from repro.verify.goldens import GoldenReport, check_goldens
from repro.verify.invariants import check_all
from repro.verify.service_leg import ServiceReport, run_service_differential

__all__ = ["VerifyReport", "check_campaign_invariants", "run_verify"]


@dataclass
class VerifyReport:
    """Aggregated outcome of every verification stage."""

    sweep: Optional[SweepReport] = None
    invariant_trees: int = 0
    invariant_violations: List[str] = field(default_factory=list)
    differential: Optional[DifferentialReport] = None
    service: Optional[ServiceReport] = None
    goldens: Optional[GoldenReport] = None
    fuzz: Optional[FuzzReport] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            (self.sweep is None or self.sweep.ok)
            and not self.invariant_violations
            and (self.differential is None or self.differential.ok)
            and (self.service is None or self.service.ok)
            and (self.goldens is None or self.goldens.ok)
            and (self.fuzz is None or self.fuzz.ok)
        )

    def summary_lines(self) -> List[str]:
        lines: List[str] = []
        if self.sweep is not None:
            lines.append(
                f"sweep: {self.sweep.comparisons} comparisons over "
                f"{self.sweep.points} points "
                f"({self.sweep.feasible} feasible / {self.sweep.infeasible} "
                f"infeasible), {len(self.sweep.mismatches)} mismatches"
            )
        lines.append(
            f"invariants: {self.invariant_trees} bottleneck trees, "
            f"{len(self.invariant_violations)} violations"
        )
        if self.differential is not None:
            lines.append(
                f"differential: {len(self.differential.variants)} variants "
                f"({', '.join(self.differential.variants)}), "
                f"{len(self.differential.mismatches)} mismatches"
            )
        if self.service is not None:
            lines.append(
                f"service: {self.service.campaigns} campaigns over "
                f"{self.service.slices} slices "
                f"(interleaved={self.service.interleaved}, "
                f"restarted={self.service.restarted}, "
                f"expired_resumed={self.service.expired_resumed}), "
                f"{len(self.service.mismatches)} mismatches"
            )
        if self.goldens is not None:
            if self.goldens.updated:
                lines.append(f"goldens: regenerated under {self.goldens.golden_dir}")
            else:
                lines.append(
                    f"goldens: {len(self.goldens.mismatches)} mismatches "
                    f"against {self.goldens.golden_dir}"
                )
        if self.fuzz is not None:
            lines.append(
                f"fuzz: {self.fuzz.cases} cases "
                f"({self.fuzz.feasible} feasible / {self.fuzz.infeasible} "
                f"infeasible / {self.fuzz.skipped} skipped), "
                f"{len(self.fuzz.failures)} failures"
            )
            for failure in self.fuzz.failures:
                lines.append(
                    f"  fuzz failure #{failure.index} [{failure.stage}] "
                    f"-> {failure.repro_path}"
                )
        lines.append("VERIFY " + ("PASS" if self.ok else "FAIL"))
        return lines


def check_campaign_invariants(
    points: int = 6, seed: int = 0, top_n: int = 30
) -> tuple:
    """Build latency trees from mapper-optimized executions on random
    design points and run every bottleneck-tree invariant on them.

    Returns ``(trees_checked, violations)``.
    """
    rng = random.Random(seed)
    space = build_edge_design_space()
    mapper = TopNMapper(top_n=top_n)
    layers = list(tiny_verify_workload().layers) + list(campaign_workload().layers)
    trees = 0
    violations: List[str] = []
    for _ in range(points):
        config = config_from_point(space.random_point(rng))
        for layer in layers:
            result = mapper(layer, config)
            if result.execution is None:
                continue
            tree = build_latency_tree(
                LayerExecutionContext(layer, result.execution, config)
            )
            trees += 1
            for violation in check_all(tree):
                violations.append(f"layer={layer.name} config={config.describe()}: {violation}")
    return trees, violations


def run_verify(
    fuzz_iters: int = 250,
    update_goldens: bool = False,
    failures_dir="verify-failures",
    seed: int = 0,
    workdir=None,
    golden_dir=None,
    fuzz_time_budget_s: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
) -> VerifyReport:
    """Run the whole verification pipeline; see the module docstring."""
    say = log if log is not None else (lambda message: None)
    report = VerifyReport()
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as scratch:
        base = Path(workdir) if workdir is not None else Path(scratch)
        base.mkdir(parents=True, exist_ok=True)

        say("verify: oracle sweep over the exhaustive tiny space")
        report.sweep = exhaustive_tiny_sweep(seed=seed)
        say(
            f"verify: sweep done "
            f"({report.sweep.comparisons} comparisons, "
            f"{len(report.sweep.mismatches)} mismatches)"
        )

        say("verify: bottleneck-tree invariants on mapper-optimized executions")
        report.invariant_trees, report.invariant_violations = (
            check_campaign_invariants(seed=seed)
        )
        say(
            f"verify: invariants done ({report.invariant_trees} trees, "
            f"{len(report.invariant_violations)} violations)"
        )

        say("verify: differential campaign matrix")
        report.differential = run_differential(base / "differential", log=log)

        say("verify: campaign service differential (interleave + restart)")
        report.service = run_service_differential(base / "service", log=log)

        say("verify: golden traces")
        report.goldens = check_goldens(
            base / "goldens",
            golden_dir=golden_dir,
            update=update_goldens,
            log=log,
        )

        if fuzz_iters > 0:
            say(f"verify: fuzzing {fuzz_iters} design-point/mapping cases")
            report.fuzz = run_fuzz(
                fuzz_iters,
                seed=seed,
                failures_dir=failures_dir,
                time_budget_s=fuzz_time_budget_s,
                log=log,
            )
    report.elapsed_s = time.monotonic() - started
    return report
