"""Compare two sets of ledger runs (A/B), or check that two sets of the
same code agree (A/A).

Usage::

    python3 benchmarks/ledger/compare.py A B          # A/B verdicts
    python3 benchmarks/ledger/compare.py --aa A B     # A/A agreement

``A`` and ``B`` are each a result file of ``run.py`` (one run, or an
all-workload ledger), or a directory of them.  Runs are paired in file
order.  For every workload and end-to-end metric the tool prints both
medians and quartiles, the share of pairs B wins, and a verdict:

* ``improved``: at least ten pairs, B wins at least 90% of them, and the
  medians differ by more than A's quartile distance;
* ``unresolved``: either side's quartile distance, as a share of its
  median, exceeds the metric's bound, unless every B run reads better
  than every A run;
* ``regressed``: B's median is worse than A's by more than the bound;
* ``unchanged``: otherwise.

Metrics with a deterministic unit (``count``, ``ratio``, ``B``,
``sim_ms``) must repeat bit for bit: they read ``unchanged`` or
``differs``.  The same holds for per-layer counts of traced runs.
Bounds come from ``BENCHMARK.json``.  The exit code is 1 when a metric
regressed or differs, or (with ``--aa``) when a median moved by more
than its bound in either direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
EXACT_UNITS = ("count", "ratio", "B", "sim_ms")


def load_runs(path: Path) -> List[dict]:
    """Every run record in a result file, a ledger, or a directory."""
    if path.is_dir():
        return [run for child in sorted(path.glob("*.json"))
                for run in load_runs(child)]
    data = json.loads(path.read_text())
    if isinstance(data, list):
        return data
    if "runs" in data:
        return data["runs"]
    return [data]


def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value stands for all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def win_fraction(a: List[float], b: List[float], better: str) -> float:
    """Share of (A, B) pairs in which B reads better; ties count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    if not pairs:
        return 0.0
    return sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs)


def verdict(a: List[float], b: List[float], better: str, bound: float,
            exact: bool = False) -> str:
    """The verdict on one metric of one workload (see module docstring)."""
    if exact:
        return "unchanged" if len(set(a) | set(b)) <= 1 else "differs"
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    worse = sign * (mb - ma) / ma if ma else 0.0
    pairs = min(len(a), len(b))
    if (
        pairs >= 10
        and worse < 0
        and win_fraction(a, b, better) >= 0.9
        and abs(mb - ma) > _iqr(a)
    ):
        return "improved"
    spread = max(_iqr(a) / ma if ma else 0.0, _iqr(b) / mb if mb else 0.0)
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not every_b_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "unchanged"


def _samples(runs: List[dict], trace: bool) -> Dict[str, Dict[str, List[float]]]:
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if bool(run.get("trace")) != trace:
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def compare(a_runs: List[dict], b_runs: List[dict], spec: dict,
            aa: bool = False) -> Tuple[List[str], bool]:
    """Report lines and whether the comparison passed."""
    lines: List[str] = []
    ok = True
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    a, b = _samples(a_runs, False), _samples(b_runs, False)
    lines.append(
        f"{'workload':<20} {'metric':<16} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'B wins':>7}  verdict"
    )
    for workload in sorted(set(a) & set(b)):
        for name, metric in e2e.items():
            va, vb = a[workload].get(name), b[workload].get(name)
            if not va or not vb:
                continue
            exact = metric["unit"] in EXACT_UNITS
            result = verdict(va, vb, metric["better"], metric["bound"], exact)
            qa, qb = quartiles(va), quartiles(vb)
            lines.append(
                f"{workload:<20} {name:<16} "
                f"{qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f" {qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                f" {win_fraction(va, vb, metric['better']):>7.0%}  {result}"
            )
            moved = abs(qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if result in ("regressed", "differs") or (
                aa and moved > metric["bound"]
            ):
                ok = False
    la, lb = _samples(a_runs, True), _samples(b_runs, True)
    for workload in sorted(set(la) & set(lb)):
        for name in sorted(set(la[workload]) & set(lb[workload])):
            if units.get(name) not in EXACT_UNITS:
                continue
            va, vb = la[workload][name], lb[workload][name]
            if len(set(va) | set(vb)) > 1:
                ok = False
                lines.append(
                    f"{workload:<20} {name:<36} per-layer count differs: "
                    f"A {sorted(set(va))} B {sorted(set(vb))}"
                )
    failed_a = sum(run.get("failed", 0) for run in a_runs)
    failed_b = sum(run.get("failed", 0) for run in b_runs)
    attempted_a = sum(run.get("attempted", 0) for run in a_runs)
    attempted_b = sum(run.get("attempted", 0) for run in b_runs)
    lines.append(
        f"failed operations: A {failed_a}/{attempted_a}, "
        f"B {failed_b}/{attempted_b}"
    )
    if failed_b > failed_a:
        ok = False
    for side, runs in (("A", a_runs), ("B", b_runs)):
        wrong = [r["workload"] for r in runs if not r.get("correct", False)]
        if wrong:
            ok = False
            lines.append(f"{side}: incorrect runs: {sorted(set(wrong))}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of ledger runs"
    )
    parser.add_argument("a", type=Path, help="parent (or first A/A) runs")
    parser.add_argument("b", type=Path, help="change (or second A/A) runs")
    parser.add_argument("--aa", action="store_true",
                        help="fail when any median moved by more than its bound")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    lines, ok = compare(load_runs(args.a), load_runs(args.b), spec, args.aa)
    print("\n".join(lines))
    print(("A/A" if args.aa else "A/B") + (": ok" if ok else ": FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
