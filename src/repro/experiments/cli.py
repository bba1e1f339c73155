"""Command-line interface: run any paper experiment or a single DSE.

Usage::

    python -m repro explore resnet18 --iterations 60
    python -m repro explore resnet18 --trace runs/resnet18.jsonl
    python -m repro explore resnet18 --resume runs/resnet18.jsonl
    python -m repro report runs/resnet18.jsonl --format md
    python -m repro compare efficientnetb0 --iterations 40
    python -m repro experiment table7
    python -m repro experiment fig4
    python -m repro serve --spool runs/spool
    python -m repro submit resnet18 --server http://127.0.0.1:8321 --wait
    python -m repro list-models

The heavyweight matrix experiments (fig9/fig10/fig11/fig12/table2/table3)
share one comparison run per invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments import (
    fig3,
    fig4,
    fig9,
    fig10,
    fig11,
    fig12,
    fig14,
    fig15,
    table2,
    table3,
    table7,
)
from repro.experiments.harness import ComparisonRunner
from repro.experiments.setup import make_evaluator, run_explainable_dse
from repro.mapping.mapper import MAPPING_OBJECTIVES
from repro.workloads.registry import MODEL_NAMES

__all__ = ["main", "build_parser"]

#: Experiments runnable via ``python -m repro experiment <name>``.
MATRIX_EXPERIMENTS = {
    "fig3": fig3,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "table2": table2,
    "table3": table3,
}
STANDALONE_EXPERIMENTS = {
    "fig4": lambda args: fig4.run(iterations=args.iterations),
    "fig14": lambda args: fig14.run(iterations=args.iterations),
    "fig15": lambda args: fig15.run(),
    "table7": lambda args: table7.run(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Explainable-DSE (ASPLOS 2023) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explore = sub.add_parser(
        "explore", help="run Explainable-DSE on one benchmark model"
    )
    explore.add_argument("model", choices=MODEL_NAMES)
    explore.add_argument("--iterations", type=_positive_int, default=60)
    explore.add_argument(
        "--mapping", choices=("codesign", "fixed"), default="codesign"
    )
    explore.add_argument("--explain", action="store_true",
                         help="print the full explanation log")
    explore.add_argument("--save", metavar="PATH", default=None,
                         help="persist the run to a JSON file")
    explore.add_argument("--perf", action="store_true",
                         help="print evaluation-pipeline performance "
                              "counters (cache hit-rate, eval/s)")
    explore.add_argument(
        "--objective",
        choices=sorted(MAPPING_OBJECTIVES),
        default="latency",
        help="mapping metric minimized by the searching mappers",
    )
    trace_group = explore.add_mutually_exclusive_group()
    trace_group.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL decision journal to PATH "
             "(crash-safe checkpoint at PATH.ckpt)",
    )
    trace_group.add_argument(
        "--resume", metavar="PATH", default=None,
        help="resume an interrupted traced campaign from its journal PATH "
             "(reads PATH.ckpt, verifies it against the journal, and "
             "continues appending to both)",
    )

    compare = sub.add_parser(
        "compare", help="compare all techniques on one model (Fig. 3 slice)"
    )
    compare.add_argument("model", choices=MODEL_NAMES)
    compare.add_argument("--iterations", type=_positive_int, default=40)

    experiment = sub.add_parser(
        "experiment", help="regenerate paper tables/figures ('all' for a report)"
    )
    experiment.add_argument(
        "name",
        choices=sorted({**MATRIX_EXPERIMENTS, **STANDALONE_EXPERIMENTS})
        + ["all"],
    )
    experiment.add_argument("--iterations", type=_positive_int, default=60)
    experiment.add_argument(
        "--models", default=None, help="comma-separated model subset"
    )
    experiment.add_argument(
        "--out", default=None, help="write the 'all' report to this file"
    )
    experiment.add_argument(
        "--jobs",
        type=_jobs,
        default=None,
        metavar="N",
        help="worker count for the technique x model matrix "
             "('auto' = all cores; default: $REPRO_JOBS or 1 = serial)",
    )

    report = sub.add_parser(
        "report",
        help="render a traced campaign's journal as an explanation "
             "narrative",
    )
    report.add_argument(
        "journal", help="JSONL journal written by 'explore --trace'"
    )
    report.add_argument(
        "--format", choices=("md", "json"), default="md",
        help="output format (default: md)",
    )
    report.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report to PATH instead of stdout",
    )

    verify = sub.add_parser(
        "verify",
        help="oracle-backed verification: exhaustive cost-model sweep, "
             "bottleneck-tree invariants, fast-path differential matrix, "
             "golden traces, and a seeded design-point fuzzer",
    )
    verify.add_argument(
        "--fuzz-iters", type=int, default=250, metavar="N",
        help="fuzz cases to run (0 disables the fuzz stage; default: 250)",
    )
    verify.add_argument(
        "--fuzz-time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock cap on the fuzz stage (default: none)",
    )
    verify.add_argument(
        "--update-goldens", action="store_true",
        help="regenerate tests/goldens/ from the current code instead of "
             "comparing against it (review the diff before committing)",
    )
    verify.add_argument(
        "--failures-dir", default="verify-failures", metavar="DIR",
        help="directory for shrunk fuzz reproducers (default: "
             "verify-failures)",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="seed for the sweep mapping set, invariant sampling, and "
             "fuzzer corpus (default: 0)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the campaign service: accept DSE submissions over HTTP "
             "and interleave tenants' campaigns",
    )
    serve.add_argument(
        "--spool", default="service-spool", metavar="DIR",
        help="per-campaign spool directory (journals, checkpoints, "
             "status); restarting on the same spool resumes unfinished "
             "campaigns (default: service-spool)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (0 picks a free one; the bound address is printed "
             "on startup)",
    )
    serve.add_argument(
        "--max-concurrent", type=_positive_int, default=None, metavar="N",
        help="campaigns interleaving at once "
             "(default: $REPRO_SERVICE_MAX_CONCURRENT or 4)",
    )
    serve.add_argument(
        "--quantum", type=_positive_int, default=None, metavar="N",
        help="steps per unit of tenant weight per scheduler turn "
             "(default: $REPRO_SERVICE_STEP_QUANTUM or 1)",
    )
    serve.add_argument(
        "--tenant-quota", type=_quota, default=None, metavar="N",
        help="default per-tenant total step budget, 0 = unlimited "
             "(default: $REPRO_TENANT_QUOTA or unlimited)",
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=None, metavar="N",
        help="waiting-queue bound; submissions past it are shed with 503 "
             "(default: $REPRO_SERVICE_MAX_QUEUE or 64)",
    )
    serve.add_argument(
        "--tenant-inflight", type=_positive_int, default=None, metavar="N",
        help="per-tenant in-flight campaign cap; submissions past it are "
             "shed with 429 (default: $REPRO_SERVICE_TENANT_INFLIGHT or 8)",
    )
    serve.add_argument(
        "--overload-slice-s", type=float, default=2.0, metavar="SECONDS",
        help="slice-latency watermark; above it the scheduler quantum is "
             "clamped to one attempt (default: 2.0)",
    )

    submit = sub.add_parser(
        "submit", help="submit a campaign to a running campaign service"
    )
    submit.add_argument("model", choices=MODEL_NAMES)
    submit.add_argument(
        "--server", required=True, metavar="URL",
        help="service base URL, e.g. http://127.0.0.1:8321",
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--iterations", type=_positive_int, default=40)
    submit.add_argument(
        "--mapping", choices=("codesign", "fixed"), default="codesign"
    )
    submit.add_argument(
        "--objective",
        choices=sorted(MAPPING_OBJECTIVES),
        default="latency",
    )
    submit.add_argument(
        "--weight", type=_positive_int, default=None,
        help="tenant scheduling weight (steps per turn scale with it)",
    )
    submit.add_argument(
        "--quota", type=_quota, default=None,
        help="tenant total step budget (0 = unlimited)",
    )
    submit.add_argument(
        "--deadline-s", type=float, default=None, metavar="SECONDS",
        help="processing budget; the campaign settles as 'expired' when "
             "cumulative slice time exceeds it (extendable later)",
    )
    submit.add_argument(
        "--idempotency-key", default=None, metavar="KEY",
        help="makes the submit at-most-once (the server dedups replays) "
             "and therefore safe to retry on transient failures",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the campaign settles and print its outcome",
    )
    submit.add_argument(
        "--follow", action="store_true",
        help="stream the campaign's journal to stdout until it settles "
             "(implies --wait)",
    )

    pareto = sub.add_parser(
        "pareto",
        help="multi-objective frontier: run Explainable-DSE and feed its "
             "trials into a journaled Pareto archive, or replay an "
             "existing frontier journal",
    )
    pareto.add_argument(
        "model", nargs="?", choices=MODEL_NAMES, default=None,
        help="benchmark model to explore (omit with --replay)",
    )
    pareto.add_argument("--iterations", type=_positive_int, default=40)
    pareto.add_argument(
        "--mapping", choices=("codesign", "fixed"), default="codesign"
    )
    pareto.add_argument(
        "--capacity", type=_positive_int, default=64, metavar="N",
        help="frontier size cap; crowding-pruned beyond it (default: 64)",
    )
    pareto.add_argument(
        "--journal", metavar="PATH", default=None,
        help="write the archive's insert/evict journal to PATH "
             "(replayable with --replay)",
    )
    pareto.add_argument(
        "--replay", metavar="PATH", default=None,
        help="rebuild and print the frontier from an existing archive "
             "journal instead of running a campaign",
    )
    pareto.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the frontier snapshot as JSON to PATH",
    )

    sub.add_parser("list-models", help="list the benchmark models")
    return parser


def _int_at_least(text: str, low: int, note: str = "") -> int:
    """Parse an argparse integer that must be at least ``low``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"must be >= {low}{note}, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    return _int_at_least(text, 1)


def _quota(text: str) -> int:
    """argparse type for step quotas: an integer >= 0 (0 = unlimited)."""
    return _int_at_least(text, 0, " (0 = unlimited)")


def _jobs(text: str) -> str:
    """argparse type for ``--jobs``: ``auto`` or an integer >= 0.

    Returns the validated text; :func:`repro.perf.parallel.resolve_jobs`
    turns it into a worker count.
    """
    if text.strip().lower() == "auto":
        return text
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value: {text!r} (use auto or an integer >= 0)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 or auto, got {value}")
    return text


def _resolve_trace_args(parser: argparse.ArgumentParser, args):
    """Validate ``--trace``/``--resume`` paths up front.

    Malformed paths are argparse errors (clear message, exit code 2)
    instead of mid-campaign tracebacks.  Returns ``(journal_path,
    checkpoint_path, resume_checkpoint_path)``; all ``None`` when the run
    is untraced.
    """
    from repro.telemetry import default_checkpoint_path

    if args.resume is not None:
        journal = args.resume
        if os.path.isdir(journal):
            parser.error(
                f"argument --resume: {journal!r} is a directory; expected "
                "the journal file of a previous 'explore --trace' run"
            )
        if not os.path.isfile(journal):
            parser.error(
                f"argument --resume: journal {journal!r} does not exist"
            )
        checkpoint = default_checkpoint_path(journal)
        if not os.path.isfile(checkpoint):
            parser.error(
                f"argument --resume: checkpoint {checkpoint!r} not found "
                "next to the journal (was the run started with --trace?)"
            )
        return journal, checkpoint, checkpoint
    if args.trace is not None:
        journal = args.trace
        if os.path.isdir(journal):
            parser.error(
                f"argument --trace: {journal!r} is a directory; expected "
                "a file path for the JSONL journal"
            )
        parent = os.path.dirname(os.path.abspath(journal)) or "."
        if not os.path.isdir(parent):
            parser.error(
                f"argument --trace: directory {parent!r} does not exist"
            )
        return journal, default_checkpoint_path(journal), None
    return None, None, None


def _cmd_explore(args, parser: argparse.ArgumentParser) -> int:
    journal_path, checkpoint_path, resume_path = _resolve_trace_args(
        parser, args
    )
    tracer = None
    if journal_path is not None:
        from repro.telemetry import JsonlSink, Tracer, load_checkpoint

        if resume_path is not None:
            checkpoint = load_checkpoint(resume_path)
            sink = JsonlSink(
                journal_path, resume_events=checkpoint.journal_events
            )
            tracer = Tracer(sink, seq_start=checkpoint.journal_events)
        else:
            sink = JsonlSink(journal_path)
            tracer = Tracer(sink)
    evaluator = make_evaluator(
        args.model,
        mapping_mode=args.mapping,
        objective=args.objective,
        tracer=tracer,
    )
    result = run_explainable_dse(
        args.model,
        iterations=args.iterations,
        mapping_mode=args.mapping,
        evaluator=evaluator,
        tracer=tracer,
        checkpoint_path=checkpoint_path,
        resume_from=resume_path,
    )
    if tracer is not None:
        tracer.close()
        print(
            f"trace journal: {journal_path} "
            f"(checkpoint: {checkpoint_path})"
        )
    if args.perf:
        from repro.experiments.reporting import format_run_summary

        print(format_run_summary(result, evaluator))
    else:
        print(f"{result.technique} on {args.model}: "
              f"{result.evaluations} evaluations, {result.wall_seconds:.1f}s")
    if result.best is None:
        print("no all-constraints-feasible design found")
    else:
        print(f"best point: {result.best.point}")
        print(f"costs: { {k: round(v, 4) for k, v in result.best.costs.items()} }")
    lines = result.explanations if args.explain else result.explanations[:10]
    for line in lines:
        print(f"  {line}")
    if args.save:
        from repro.core.dse.serialization import save_result

        save_result(result, args.save)
        print(f"saved run to {args.save}")
    return 0 if result.best is not None else 1


def _cmd_report(args, parser: argparse.ArgumentParser) -> int:
    if os.path.isdir(args.journal):
        parser.error(
            f"argument journal: {args.journal!r} is a directory; expected "
            "a JSONL journal file"
        )
    if not os.path.isfile(args.journal):
        parser.error(
            f"argument journal: {args.journal!r} does not exist"
        )
    from repro.telemetry import render_report

    text = render_report(args.journal, fmt=args.format)
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_pareto(args, parser: argparse.ArgumentParser) -> int:
    import json as _json

    from repro.experiments.pareto import archive_from_results, format_frontier
    from repro.optim.archive import ParetoArchive

    if args.replay is not None:
        if args.model is not None:
            parser.error("--replay takes no model (it reads the journal)")
        if not os.path.isfile(args.replay):
            parser.error(f"argument --replay: {args.replay!r} does not exist")
        archive = ParetoArchive.replay(args.replay, capacity=args.capacity)
    else:
        if args.model is None:
            parser.error("a model is required unless --replay is given")
        from repro.core.dse.explainable import ExplainableDSE
        from repro.experiments.setup import (
            build_edge_design_space,
            edge_constraints,
        )

        result = ExplainableDSE(
            build_edge_design_space(),
            make_evaluator(args.model, mapping_mode=args.mapping),
            edge_constraints(args.model),
            max_evaluations=args.iterations,
        ).run()
        archive = archive_from_results(
            [result], capacity=args.capacity, journal_path=args.journal
        )
        print(f"explainable on {args.model}: {result.evaluations} evaluations")
        if args.journal:
            print(f"frontier journal: {args.journal}")
    print(format_frontier(archive))
    if args.out:
        with open(args.out, "w") as handle:
            _json.dump(archive.snapshot(), handle, indent=2)
            handle.write("\n")
        print(f"frontier snapshot written to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    runner = ComparisonRunner(iterations=args.iterations)
    print(fig3.run(runner, model=args.model).format())
    return 0


def _cmd_experiment(args) -> int:
    if args.name == "all":
        from repro.experiments.report_all import generate_report

        runner = ComparisonRunner(iterations=args.iterations, jobs=args.jobs)
        models = args.models.split(",") if args.models else None
        report = generate_report(runner, models=models)
        text = report.format()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print(f"report written to {args.out}")
        else:
            print(text)
        return 0
    if args.name in STANDALONE_EXPERIMENTS:
        result = STANDALONE_EXPERIMENTS[args.name](args)
    else:
        runner = ComparisonRunner(iterations=args.iterations, jobs=args.jobs)
        kwargs = {}
        if args.models:
            kwargs["models"] = args.models.split(",")
        result = MATRIX_EXPERIMENTS[args.name].run(runner, **kwargs)
    print(result.format())
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import run_verify

    report = run_verify(
        fuzz_iters=args.fuzz_iters,
        update_goldens=args.update_goldens,
        failures_dir=args.failures_dir,
        seed=args.seed,
        fuzz_time_budget_s=args.fuzz_time_budget,
        log=print,
    )
    print()
    for line in report.summary_lines():
        print(line)
    print(f"elapsed: {report.elapsed_s:.1f}s")
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service import CampaignService
    from repro.service.http import ServiceEndpoint

    # ``--tenant-quota 0`` means unlimited, as ``REPRO_TENANT_QUOTA=0``
    # and ``submit --quota 0`` do.
    quota = args.tenant_quota

    async def serve() -> None:
        service = CampaignService(
            args.spool,
            max_concurrent=args.max_concurrent,
            quantum=args.quantum,
            default_quota="env" if quota is None else (quota or None),
            max_queue=args.max_queue,
            tenant_inflight=args.tenant_inflight,
            overload_slice_s=args.overload_slice_s,
        )
        await service.start()
        endpoint = ServiceEndpoint(service, host=args.host, port=args.port)
        await endpoint.start()
        # The smoke harness and scripts parse this line for the port.
        print(
            f"service listening on http://{args.host}:{endpoint.port} "
            f"(spool: {args.spool})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print(
            "service: stopping at the next slice boundary "
            "(campaigns stay resumable)",
            flush=True,
        )
        await endpoint.stop()
        await service.stop()

    asyncio.run(serve())
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.server)
    spec = {
        "model": args.model,
        "tenant": args.tenant,
        "iterations": args.iterations,
        "mapping_mode": args.mapping,
        "objective": args.objective,
    }
    if args.weight is not None:
        spec["tenant_weight"] = args.weight
    if args.quota is not None:
        spec["tenant_quota"] = args.quota
    try:
        campaign_id = client.submit(
            spec,
            idempotency_key=args.idempotency_key,
            deadline_s=args.deadline_s,
        )
        print(f"submitted {campaign_id} (tenant: {args.tenant})")
        if args.follow:
            for line in client.stream_journal(campaign_id, follow=True):
                print(line)
        if args.wait or args.follow:
            status = client.wait(campaign_id)
            print(f"campaign {campaign_id}: {status['status']} after "
                  f"{status['steps_done']} steps")
            if status["status"] == "finished":
                result = client.result(campaign_id)
                print(f"best point: {result['best_point']}")
                print(f"evaluations: {result['evaluations']}")
                return 0
            return 1
    except ServiceClientError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(
            f"repro: error: cannot reach service at {args.server}: {exc}",
            file=sys.stderr,
        )
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-models":
        for model in MODEL_NAMES:
            print(model)
        return 0
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "serve":
        return _cmd_serve(args)
    try:
        if args.command == "explore":
            return _cmd_explore(args, parser)
        if args.command == "report":
            return _cmd_report(args, parser)
        if args.command == "pareto":
            return _cmd_pareto(args, parser)
    except Exception as exc:
        from repro.resilience.errors import ReproError, SystemicFaultError
        from repro.telemetry import CheckpointError, TraceEventError

        if isinstance(exc, SystemicFaultError):
            print(f"repro: error: {exc}", file=sys.stderr)
            checkpoint = str(exc.context.get("checkpoint") or "")
            if checkpoint:
                journal = (
                    checkpoint[: -len(".ckpt")]
                    if checkpoint.endswith(".ckpt")
                    else checkpoint
                )
                print(
                    f"repro: campaign state saved; rerun with "
                    f"--resume {journal} once the fault is fixed",
                    file=sys.stderr,
                )
            return 3
        if isinstance(exc, (CheckpointError, TraceEventError)):
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, ReproError):
            # A fault the campaign could not absorb (e.g. the very first
            # evaluation failed after all retries): structured error, no
            # traceback, same exit code as a circuit-breaker abort.
            print(f"repro: error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        raise
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_experiment(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
