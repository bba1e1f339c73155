"""Tests of the campaign ledger (about 35 s).

    PYTHONPATH=src python -m pytest -q benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """All four workloads at budget 3 with the shortest runs, untraced and
    traced, with two knobs set that the benchmark must scrub."""
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    env = dict(os.environ, REPRO_FUSED_EVAL="1", REPRO_JOBS="2")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0",
         "--seconds", "0", "--budget", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), last, out.parent


def test_every_metric_is_emitted_with_its_unit(ledger):
    data, last, _ = ledger
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    seen = {(r["workload"], r["trace"]) for r in data["runs"]}
    assert seen == {(w, t) for w in run.WORKLOADS for t in (False, True)}
    for record in data["runs"]:
        table = SPEC["per_layer"] if record["trace"] else SPEC["end_to_end"]
        assert {
            name: metric["unit"] for name, metric in record["metrics"].items()
        } == {m["name"]: m["unit"] for m in table}
        for metric in record["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_traced_pass_writes_spans_for_every_workload(ledger):
    data, _, outdir = ledger
    for workload in run.WORKLOADS:
        lines = (outdir / f"{workload}-seed0-spans.jsonl").read_text()
        names = {json.loads(line)["name"] for line in lines.splitlines()}
        assert "campaign" in names and "cost.evaluate" in names
    for record in data["runs"]:
        for rep in record["reps"]:
            if rep["traced"]:
                assert rep["self_sum_error"] <= 0.01


def test_repro_knobs_are_scrubbed(ledger, monkeypatch):
    data, _, _ = ledger
    assert data["env"]["scrubbed_env"] == ["REPRO_FUSED_EVAL", "REPRO_JOBS"]
    traced = {r["workload"]: r for r in data["runs"] if r["trace"]}
    # REPRO_FUSED_EVAL=1 would route explore campaigns through fused blocks.
    assert traced["explore-effnet"]["metrics"]["cost.fused_blocks"]["value"] == 0
    monkeypatch.setenv("REPRO_MAX_RETRIES", "7")
    env = run.child_env(5)
    assert not any(key.startswith("REPRO_") for key in env)
    assert env["PYTHONHASHSEED"] == "5"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_per_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        spans.PER_LAYER
    )


def _span(id, parent, start, end, name="cost.x"):
    return {"id": id, "parent": parent, "start": start, "end": end,
            "name": name, "trace": "t"}


def test_self_time_arithmetic():
    tree = [
        _span(1, None, 0.0, 10.0, "campaign"),
        _span(2, 1, 1.0, 4.0, "dse.step"),
        _span(3, 2, 2.0, 3.0, "cost.evaluate"),
        _span(4, 1, 5.0, 9.0, "mapping.search"),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {(None, 1): 3.0, (None, 2): 2.0, (None, 3): 1.0,
                     (None, 4): 4.0}
    assert spans.self_sum_error(tree) == 0.0
    assert spans.coverage(tree) == pytest.approx(0.7)
    assert spans.layer_self_seconds(tree) == {
        "campaign": 3.0, "dse": 2.0, "cost": 1.0, "mapping": 4.0,
    }
    value, percentile, n = spans.tail_percentile([float(i) for i in range(40)])
    assert (value, percentile, n) == (29.0, 75.0, 40)


def _fingerprint():
    from repro.experiments.setup import make_evaluator, run_explainable_dse
    from repro.perf.mapping_cache import MappingCache
    from repro.service.machine import result_fingerprint

    evaluator = make_evaluator("resnet18", mapping_cache=MappingCache())
    return result_fingerprint(
        run_explainable_dse("resnet18", iterations=4, evaluator=evaluator)
    )


def test_wrappers_keep_fingerprints_and_are_removed():
    import importlib

    reference = _fingerprint()
    recorder = spans.SpanRecorder("test")
    installation = spans.install(recorder)
    try:
        traced = _fingerprint()
    finally:
        installation.restore()
    assert traced == reference
    assert {"cost.evaluate", "mapping.search", "dse.step"} <= {
        span["name"] for span in recorder.spans
    }
    for module_name, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__ledger_original__"), attr
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for value in vars(module).values():
                assert not hasattr(value, "__ledger_original__"), name
    assert _fingerprint() == reference


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    wide = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 10.0, 8.0, 12.0]
    assert compare.verdict(base, faster, "lower", 0.1) == "improved"
    assert compare.verdict(base, slower, "lower", 0.1) == "regressed"
    assert compare.verdict(base, list(base), "lower", 0.1) == "unchanged"
    assert compare.verdict(base, wide, "lower", 0.1) == "unresolved"
    assert compare.verdict(base, slower, "higher", 0.1) == "improved"
    # Fewer than ten pairs never claim a gain.
    assert compare.verdict(base[:5], faster[:5], "lower", 0.1) == "unchanged"
    assert compare.verdict([3, 3], [3, 3], "lower", 0.0, exact=True) == "unchanged"
    assert compare.verdict([3, 3], [3, 4], "lower", 0.0, exact=True) == "differs"


def test_compare_aa_flags_moved_medians_and_counts():
    def record(value, count, trace=False):
        name = "mapping.searches" if trace else "campaign_s"
        return {"workload": "w", "trace": trace, "correct": True,
                "attempted": 1, "failed": 0,
                "metrics": {name: {"value": count if trace else value,
                                   "unit": "count" if trace else "s"}}}

    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "campaign_s")
    a = [record(10.0, 5), record(10.0, 5, trace=True)]
    within, beyond = 10.0 * (1 + bound / 2), 10.0 * (1 + 2 * bound)
    assert compare.compare(a, [record(within, 5), record(0, 5, True)],
                           SPEC, aa=True)[1]
    assert not compare.compare(a, [record(beyond, 5), record(0, 5, True)],
                               SPEC, aa=True)[1]
    assert not compare.compare(a, [record(10.0, 5), record(0, 6, True)],
                               SPEC, aa=True)[1]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "explore-effnet", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
