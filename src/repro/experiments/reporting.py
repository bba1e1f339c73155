"""Plain-text table / series rendering for experiment outputs.

The paper's figures are bar charts and convergence curves; the harness
prints the same rows and series as aligned text tables so results can be
compared without a plotting dependency.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_cell",
    "format_series",
    "format_run_summary",
]


def format_cell(value, precision: int = 3) -> str:
    """Render one table cell; infeasible results become the paper's dash."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "-*"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    rows: Mapping[str, Mapping[str, object]],
    columns: Sequence[str],
    row_header: str = "technique",
    precision: int = 3,
) -> str:
    """Render ``rows[row][column]`` as an aligned text table."""
    header = [row_header] + list(columns)
    body: List[List[str]] = []
    for row_name, cells in rows.items():
        body.append(
            [row_name]
            + [format_cell(cells.get(col), precision) for col in columns]
        )
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_run_summary(result, evaluator=None) -> str:
    """Render one DSE run's summary, including evaluation-pipeline
    performance counters when the run's evaluator is provided.

    Args:
        result: A :class:`repro.core.dse.result.DSEResult`.
        evaluator: The :class:`repro.cost.evaluator.CostEvaluator` the
            run used; adds evaluations/sec and the layer-level
            mapping-cache hit-rate to the summary.
    """
    lines = [
        f"{result.technique} on {result.model}: "
        f"{result.evaluations} evaluations, {result.wall_seconds:.1f}s",
        f"best objective (latency_ms): {format_cell(result.best_objective)}",
        f"feasible fraction: {result.feasibility_fraction():.2f}",
    ]
    if evaluator is not None:
        perf = evaluator.perf_summary()
        cache = perf["mapping_cache"]
        lines.append(
            f"cost model: {perf['evaluations']} unique evaluations in "
            f"{perf['total_seconds']:.2f}s "
            f"({perf['evaluations_per_second']:.1f} eval/s)"
        )
        if cache["enabled"]:
            lines.append(
                "mapping cache: "
                f"{cache['exact_hits']} hits, "
                f"{cache['misses']} misses "
                f"(hit rate {cache['hit_rate']:.0%}, "
                f"{cache['entries']} entries)"
            )
        else:
            lines.append("mapping cache: disabled")
        batch = perf["batch_eval"]
        if batch["supported"]:
            if batch["enabled"]:
                parts = [
                    f"{batch['batch_candidates']} candidates in "
                    f"{batch['batches']} batches "
                    f"({batch['batch_candidates_per_second']:.0f} cand/s)"
                ]
                if batch["scalar_searches"]:
                    parts.append(
                        f"{batch['scalar_candidates']} scalar-scored "
                        f"({batch['int64_fallbacks']} int64 fallbacks)"
                    )
                lines.append("batch eval: " + ", ".join(parts))
                if batch.get("fused_blocks"):
                    fused = (
                        f"fused eval: {batch['fused_candidates']} candidates "
                        f"in {batch['fused_blocks']} cross-layer blocks "
                        f"({batch['fused_layers']} layer searches)"
                    )
                    if batch["fused_fallbacks"]:
                        fused += (
                            f", {batch['fused_fallbacks']} per-layer fallbacks"
                        )
                    lines.append(fused)
            else:
                lines.append("batch eval: disabled (scalar reference path)")
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    max_points: int = 20,
    label: str = "iteration",
) -> str:
    """Render convergence curves as a compact text table, subsampled."""
    lines = []
    for name, values in series.items():
        values = list(values)
        if not values:
            lines.append(f"{name}: (empty)")
            continue
        step = max(1, len(values) // max_points)
        picks = list(range(0, len(values), step))
        if picks[-1] != len(values) - 1:
            picks.append(len(values) - 1)
        rendered = ", ".join(
            f"{i}:{format_cell(values[i])}" for i in picks
        )
        lines.append(f"{name} ({label}:value): {rendered}")
    return "\n".join(lines)
