"""One rep of an ``explore-*`` or ``compare-*`` workload in a fresh process.

``run.py`` starts one interpreter per rep so caches start cold, as they
do for a CLI user, and reads the JSON record this prints last::

    PYTHONPATH=src python benchmarks/ledger/rep.py explore-effnet
    PYTHONPATH=src python benchmarks/ledger/rep.py compare-resnet18 --trace spans.jsonl

``setup_s`` runs from the first line of this file to a constructed
evaluator (explore) or comparison runner (compare); ``campaign_s`` is the
host wall time of the campaign itself.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402

#: workload -> (model, default evaluation budget)
WORKLOADS = {
    "explore-effnet": ("efficientnetb0", 30),
    "explore-transformer": ("transformer", 150),
    "compare-resnet18": ("resnet18", 40),
}


def fingerprint_sha(result) -> str:
    from repro.service.machine import result_fingerprint

    return hashlib.sha256(result_fingerprint(result).encode()).hexdigest()


def summarize(label: str, result) -> dict:
    """What the benchmark keeps of one finished campaign."""
    best = result.best
    evals_to_best = None
    if best is not None:
        evals_to_best = next(
            i + 1 for i, t in enumerate(result.trials) if t.point == best.point
        )
    return {
        "label": label,
        "fingerprint": fingerprint_sha(result),
        "evaluations": result.evaluations,
        "trials": len(result.trials),
        "feasible": sum(1 for t in result.trials if t.feasible),
        "quarantined": sum(
            1 for t in result.trials if t.note.startswith("quarantined")
        ),
        "best_latency_ms": best.objective if best else None,
        "evals_to_best": evals_to_best,
        "wall_s": result.wall_seconds,
        "status": "finished",
    }


def run(workload: str, budget=None, trace_path=None, setup_only=False) -> dict:
    from repro.experiments import fig3
    from repro.experiments.harness import PAPER_TECHNIQUES, ComparisonRunner
    from repro.experiments.setup import make_evaluator, run_explainable_dse

    import_s = time.perf_counter() - _STARTED
    model, default_budget = WORKLOADS[workload]
    budget = budget or default_budget
    recorder = installation = None
    if trace_path:
        import spans

        recorder = spans.SpanRecorder(trace=workload)
        installation = spans.install(recorder)
    try:
        if workload.startswith("explore-"):
            evaluator = make_evaluator(model)
        else:
            runner = ComparisonRunner(iterations=budget)
        setup_s = time.perf_counter() - _STARTED
        record = {"workload": workload, "import_s": import_s, "setup_s": setup_s}
        if setup_only:
            return record
        label = f"{model}@{budget}"
        with recorder.span("campaign", label) if recorder else nullcontext():
            started = time.perf_counter()
            if workload.startswith("explore-"):
                results = [
                    (label, run_explainable_dse(
                        model, iterations=budget, evaluator=evaluator
                    ))
                ]
            else:
                fig3.run(runner, model=model)
                results = [
                    (spec.label, runner.run(spec, model))
                    for spec in PAPER_TECHNIQUES
                ]
            campaign_s = time.perf_counter() - started
    finally:
        if installation is not None:
            installation.restore()
    campaigns = [summarize(name, result) for name, result in results]
    record.update(
        campaign_s=campaign_s,
        # One rep is one request, so it settles when the campaign ends.
        settle_s=[campaign_s],
        campaigns=campaigns,
        explainable=[
            c["label"] for c in campaigns
            if workload.startswith("explore-") or c["label"].startswith("ExplainableDSE")
        ],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if recorder is not None:
        import spans

        spans.write_spans(trace_path, recorder.spans)
        counters = spans.collect_counters(recorder)
        counters["import_s"] = import_s
        record["counters"] = counters
    return record


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--budget", type=int, default=None,
                        help="evaluation budget (default: the workload's)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record spans and write them to PATH")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (a set-up time sample)")
    args = parser.parse_args(argv)
    record = run(args.workload, args.budget, args.trace, args.setup_only)
    print(json.dumps(record), flush=True)
    # Skip interpreter teardown: freeing the campaign's objects (0.7 GB for
    # EfficientNet-B0) takes seconds that no metric includes.
    os._exit(0)


if __name__ == "__main__":
    main()
