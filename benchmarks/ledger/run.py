"""Campaign ledger: the repository's end-to-end and per-layer benchmark.

Runs the default configuration a user gets on four workloads, checks the
results against ``expected.json`` and prints every metric with its unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

One workload, as the benchmark contract runs it (``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones)::

    python3 benchmarks/ledger/run.py --workload explore-effnet --seed 0 \\
        --seconds 30 --trace 0

All four workloads, each untraced and then traced, into one ledger file::

    python3 benchmarks/ledger/run.py --seed 0 --out ledger.json

Every rep runs in a fresh interpreter with ``PYTHONPATH=src``, every
``REPRO_*`` variable removed and ``PYTHONHASHSEED`` set to the seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORKLOADS = (
    "explore-effnet",
    "explore-transformer",
    "compare-resnet18",
    "service-mix",
)
#: Untraced reps every run makes, so that its median rejects one outlier.
MIN_REPS = 3
#: Set-up samples per run (reps are topped up with set-up-only starts).
SETUP_SAMPLES = 5
#: A run ends within this many seconds even if a child hangs.
RUN_DEADLINE_S = 170.0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(seed: int) -> dict:
    """The environment of every child: no ``REPRO_*`` knob, the sources
    on ``PYTHONPATH`` and the seed as ``PYTHONHASHSEED``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed)
    return env


def run_info(scrubbed: List[str]) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "scrubbed_env": scrubbed,
    }


# -- reps --------------------------------------------------------------------


class Runner:
    """Runs reps of one workload and keeps the run's working directory."""

    def __init__(self, workload: str, seed: int, budget: Optional[int],
                 workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.budget = budget
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env(seed)

    def _timeout(self) -> float:
        return max(5.0, self.deadline - time.monotonic())

    def _rep_process(self, *extra: str) -> dict:
        argv = [sys.executable, str(HERE / "rep.py"), self.workload, *extra]
        if self.budget:
            argv += ["--budget", str(self.budget)]
        done = subprocess.run(
            argv, env=self.env, capture_output=True, text=True,
            timeout=self._timeout(),
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{self.workload} rep failed ({done.returncode}): "
                f"{done.stderr.strip()[-2000:]}"
            )
        return json.loads(done.stdout.strip().splitlines()[-1])

    def setup_sample(self) -> float:
        if self.workload == "service-mix":
            import service_mix

            return service_mix.setup_sample(self.workdir, self.env)
        return self._rep_process("--setup-only")["setup_s"]

    def rep(self, trace: bool = False) -> dict:
        if self.workload == "service-mix":
            import service_mix

            record = service_mix.run_rep(
                self.workdir, self.env, self.budget, trace, self._timeout()
            )
        elif trace:
            spans_path = self.workdir / "rep-spans.jsonl"
            record = self._rep_process("--trace", str(spans_path))
            with open(spans_path) as handle:
                record["spans"] = [json.loads(line) for line in handle]
            spans_path.unlink()
        else:
            record = self._rep_process()
        record["traced"] = trace
        return record


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Reps for ``seconds``: at least ``MIN_REPS`` untraced reps, or at
    least one pair in a traced run, which alternates an untraced and a
    traced rep.  Returns the run record."""
    runner.setup_sample()  # untimed warm-up: byte-compile, page cache
    load_before = os.getloadavg()
    reps: List[dict] = []
    steps: List[float] = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        reps.append(runner.rep(trace=False))
        if trace:
            reps.append(runner.rep(trace=True))
        steps.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - started
        enough = trace or len(reps) >= MIN_REPS
        if enough and elapsed + statistics.median(steps) > seconds:
            break
        if time.monotonic() > runner.deadline:
            break
    setup = [r["setup_s"] for r in reps if not r["traced"]]
    if not trace:
        while len(setup) < SETUP_SAMPLES:
            setup.append(runner.setup_sample())
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "trace": trace,
        "budget": runner.budget,
        "seconds": seconds,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "setup_samples": setup,
        "reps": reps,
    }


# -- metrics -----------------------------------------------------------------


def end_to_end(run: dict) -> Dict[str, float]:
    reps = [r for r in run["reps"] if not r["traced"]]
    first = reps[0]
    explainable = [
        c for c in first["campaigns"] if c["label"] in first["explainable"]
    ]
    best = [c["best_latency_ms"] for c in explainable if c["best_latency_ms"]]
    to_best = [c["evals_to_best"] for c in explainable if c["evals_to_best"]]
    trials = sum(c["trials"] for c in explainable)
    return {
        "setup_s": statistics.median(run["setup_samples"]),
        "campaign_s": statistics.median(r["campaign_s"] for r in reps),
        "evals_per_s": statistics.median(
            sum(c["evaluations"] for c in r["campaigns"]) / r["campaign_s"]
            for r in reps
        ),
        "settle_s_p50": statistics.median(
            s for r in reps for s in r["settle_s"]
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "best_latency_ms": math.exp(
            sum(math.log(v) for v in best) / len(best)
        ) if best else 0.0,
        "feasible_frac": sum(c["feasible"] for c in explainable) / trials
        if trials
        else 0.0,
        "evals_to_best": statistics.median(to_best) if to_best else 0.0,
    }


def per_layer(run: dict) -> Dict[str, float]:
    import spans

    untraced = statistics.median(
        r["campaign_s"] for r in run["reps"] if not r["traced"]
    )
    samples: Dict[str, List[float]] = {}
    for rep in run["reps"]:
        if not rep["traced"]:
            continue
        values, rep["tails"] = spans.layer_metrics(
            rep["spans"], rep["counters"],
            traced_campaign_s=rep["campaign_s"],
            untraced_campaign_s=untraced,
        )
        rep["layer_self_s"] = spans.layer_self_seconds(rep["spans"])
        rep["self_sum_error"] = spans.self_sum_error(rep["spans"])
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    # The lower median is one of the samples, so counts stay whole numbers.
    return {name: statistics.median_low(v) for name, v in samples.items()}


def operations(run: dict):
    """``(attempted, failed)``: trials, plus campaigns and HTTP requests
    on the service; failures are quarantined trials, campaigns that did
    not finish and failed HTTP requests."""
    attempted = failed = 0
    for rep in run["reps"]:
        for campaign in rep["campaigns"]:
            attempted += campaign["trials"]
            failed += campaign["quarantined"]
        if rep["workload"] == "service-mix":
            attempted += len(rep["campaigns"]) + rep["unsubmitted"]
            attempted += rep["http_requests"]
            failed += rep["unsubmitted"] + rep["http_failed"]
            failed += sum(
                1 for c in rep["campaigns"] if c["status"] != "finished"
            )
    return attempted, failed


def check(run: dict, expected: Optional[Dict[str, str]]) -> List[str]:
    """Correctness errors of one run (empty when correct)."""
    errors = []
    reference = None
    for index, rep in enumerate(run["reps"]):
        prints = {c["label"]: c["fingerprint"] for c in rep["campaigns"]}
        for campaign in rep["campaigns"]:
            if campaign["status"] != "finished":
                errors.append(
                    f"rep {index}: {campaign['label']} is {campaign['status']}"
                )
        if rep.get("unsubmitted"):
            errors.append(f"rep {index}: {rep['unsubmitted']} submits failed")
        if rep.get("server_exit"):
            errors.append(f"rep {index}: server exited {rep['server_exit']}")
        if reference is None:
            reference = prints
        elif prints != reference:
            kind = "traced" if rep["traced"] else "untraced"
            errors.append(f"rep {index} ({kind}) disagrees with rep 0")
        if rep.get("self_sum_error", 0.0) > 0.01:
            errors.append(
                f"rep {index}: self times miss the root span by "
                f"{rep['self_sum_error']:.2%}"
            )
    if expected is not None and reference != expected:
        wrong = sorted(
            label
            for label in set(expected) | set(reference or {})
            if (reference or {}).get(label) != expected.get(label)
        )
        errors.append(f"fingerprints differ from expected.json: {wrong}")
    return errors


def finish(run: dict) -> dict:
    """Attach metrics, operation counts and correctness to a run."""
    spec = benchmark_spec()
    table = spec["per_layer"] if run["trace"] else spec["end_to_end"]
    values = per_layer(run) if run["trace"] else end_to_end(run)
    run["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in table
    }
    from compare import quartiles

    untraced = [r for r in run["reps"] if not r["traced"]]
    samples = {
        "campaign_s": [r["campaign_s"] for r in untraced],
        "setup_s": run["setup_samples"],
        "settle_s": [s for r in untraced for s in r["settle_s"]],
    }
    run["quartiles"] = {
        name: list(quartiles(values)) if values else []
        for name, values in samples.items()
    }
    run["fingerprints"] = {
        c["label"]: c["fingerprint"] for c in run["reps"][0]["campaigns"]
    }
    expected = None
    if not run["budget"]:
        expected = json.loads((HERE / "expected.json").read_text()).get(
            run["workload"], {}
        )
    run["errors"] = check(run, expected)
    run["correct"] = not run["errors"]
    run["attempted"], run["failed"] = operations(run)
    return run


def strip_spans(run: dict) -> Optional[List[dict]]:
    """Remove span lists from the record; returns the last traced rep's."""
    last = None
    for rep in run["reps"]:
        if "spans" in rep:
            last = rep.pop("spans")
    return last


def print_run(run: dict) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(f"== {run['workload']} seed {run['seed']}: {kind}, "
          f"{len(run['reps'])} reps, correct={run['correct']}")
    for error in run["errors"]:
        print(f"   ERROR {error}")
    for name, metric in run["metrics"].items():
        print(f"   {name:<36} {metric['value']:>16.6g} {metric['unit']}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })


def run_workload(workload: str, args, trace: bool, outdir: Path) -> dict:
    """Measure one run; its spans go to ``outdir`` as
    ``<workload>-seed<seed>-spans.jsonl``."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=outdir))
    try:
        runner = Runner(workload, args.seed, args.budget, workdir,
                        time.monotonic() + RUN_DEADLINE_S)
        run = finish(measure(runner, args.seconds, trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans_list = strip_spans(run)
    if spans_list is not None:
        import spans

        spans.write_spans(
            outdir / f"{workload}-seed{args.seed}-spans.jsonl", spans_list
        )
    print_run(run)
    return run


def _output(args, default_name: str) -> Path:
    out = Path(args.out) if args.out else RUNS / default_name
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def one_workload(args, info: dict) -> int:
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    out = _output(args, f"{stem}.json")
    run = run_workload(args.workload, args, bool(args.trace), out.parent)
    run["env"] = info
    out.write_text(json.dumps(run, indent=1) + "\n")
    print(result_line(run["correct"], run["attempted"], run["failed"],
                      run["metrics"]))
    return 0 if run["correct"] else 1


def all_workloads(args, info: dict) -> int:
    out = _output(args, f"ledger-seed{args.seed}.json")
    ledger = {"seed": args.seed, "env": info, "runs": []}
    metrics = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            run = run_workload(workload, args, trace, out.parent)
            ledger["runs"].append(run)
            for name, metric in run["metrics"].items():
                metrics[f"{workload}/{name}"] = metric
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"ledger written to {out}")
    correct = all(run["correct"] for run in ledger["runs"])
    print(result_line(
        correct,
        sum(run["attempted"] for run in ledger["runs"]),
        sum(run["failed"] for run in ledger["runs"]),
        metrics,
    ))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(
        description="Campaign ledger benchmark (see README.md)"
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four, each "
                             "untraced and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of traced reps")
    parser.add_argument("--budget", type=int, default=None,
                        help="override every campaign's evaluation budget "
                             "(quick checks; skips expected.json)")
    parser.add_argument("--out", default=None, help="result JSON path")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources at {SRC}", file=sys.stderr)
        return 2
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    info = run_info(scrubbed)
    if args.workload:
        return one_workload(args, info)
    return all_workloads(args, info)


if __name__ == "__main__":
    sys.exit(main())
