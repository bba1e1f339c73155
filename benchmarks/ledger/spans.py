"""Per-layer spans timed from outside the program.

Nothing under ``src/`` is modified.  :func:`install` rebinds public
callables of each ``repro`` package — on their class, or in every
``repro`` module that imported a function by name — to wrappers that
record one span per call, and :meth:`Installation.restore` puts the
originals back.  A span holds its name, start, end, span id, parent id
and trace id (the campaign label); the first dotted component of the
name is the layer.  Spans stay in memory until the benchmark writes them
as ``spans.jsonl``.

:func:`layer_metrics` turns spans plus the program's public counters
(``CostEvaluator.perf_summary()``, the tree-compile memo, ``/v1/healthz``)
into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "BASELINE_KINDS",
    "PER_LAYER",
    "TARGETS",
    "Installation",
    "SpanRecorder",
    "collect_counters",
    "coverage",
    "install",
    "layer_metrics",
    "layer_self_seconds",
    "self_sum_error",
    "self_times",
    "tail_percentile",
    "write_spans",
]

#: Baseline optimizer kinds of ``repro.experiments.setup.BASELINE_TECHNIQUES``.
BASELINE_KINDS = (
    "grid",
    "random",
    "annealing",
    "genetic",
    "bayesian",
    "hypermapper",
    "reinforcement",
    "local-search",
)

#: Every per-layer metric (name, unit); ``BENCHMARK.json`` mirrors it.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("setup.import_s", "s"),
    ("workloads.load_s", "s"),
    ("cost.evaluator_init_s", "s"),
    ("mapping.generate_s", "s"),
    ("mapping.search_self_s", "s"),
    ("mapping.searches", "count"),
    ("mapping.candidates", "count"),
    ("cost.kernel_s", "s"),
    ("cost.select_s", "s"),
    ("cost.materialize_s", "s"),
    ("cost.evaluate_calls", "count"),
    ("cost.unique_evals", "count"),
    ("cost.evaluate_ms_p50", "ms"),
    ("cost.evaluate_ms_tail", "ms"),
    ("cost.evaluate_self_s", "s"),
    ("cost.area_power_s", "s"),
    ("cost.aggregate_s", "s"),
    ("cost.fused_blocks", "count"),
    ("cost.fused_rows_mean", "count"),
    ("perf.cache_exact_hits", "count"),
    ("perf.cache_rescore_hits", "count"),
    ("perf.cache_misses", "count"),
    ("perf.cache_hit_ratio", "ratio"),
    ("perf.cache_lookup_s", "s"),
    ("perf.cache_store_s", "s"),
    ("perf.fleet_shards", "count"),
    *((f"optim.{kind}.self_s", "s") for kind in BASELINE_KINDS),
    ("optim.self_s", "s"),
    ("bottleneck.predict_calls", "count"),
    ("bottleneck.predict_s", "s"),
    ("bottleneck.tree_compile_hit_ratio", "ratio"),
    ("dse.attempts", "count"),
    ("dse.aggregate_s", "s"),
    ("dse.self_s", "s"),
    ("telemetry.flushes", "count"),
    ("telemetry.flush_s", "s"),
    ("telemetry.checkpoints", "count"),
    ("telemetry.checkpoint_s", "s"),
    ("telemetry.journal_bytes", "B"),
    ("service.http_status_ms_p50", "ms"),
    ("service.http_status_ms_tail", "ms"),
    ("service.http_submit_ms_p50", "ms"),
    ("service.ewma_slice_s", "s"),
    ("service.shed", "count"),
    ("service.slice_faults", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
)


def _campaign_of_machine(args, kwargs) -> Optional[str]:
    """A service campaign's id: the spool directory of its checkpoint."""
    path = getattr(args[0], "checkpoint_path", None)
    if not path:
        return None
    return str(path).replace("\\", "/").rsplit("/", 2)[-2]


def _label_of_spec(args, kwargs) -> Optional[str]:
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    return getattr(spec, "label", None)


def _optimizer_span(args) -> str:
    from repro.experiments.setup import BASELINE_TECHNIQUES

    for kind, cls in BASELINE_TECHNIQUES.items():
        if type(args[0]) is cls:
            return f"optim.{kind}"
    return "optim.other"


#: (module, attribute, span name or ``args -> name``, ``(args, kwargs) ->
#: trace id`` or None).  Spans without a trace id inherit their parent's.
TARGETS: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    ("repro.workloads.registry", "load_workload", "workloads.load", None),
    ("repro.cost.evaluator", "CostEvaluator.__init__", "cost.evaluator_init", None),
    ("repro.cost.evaluator", "CostEvaluator.evaluate", "cost.evaluate", None),
    ("repro.cost.batch", "BatchLayerEvaluation.__init__", "cost.kernel", None),
    ("repro.cost.batch", "BatchLayerEvaluation.execution_infos", "cost.materialize", None),
    ("repro.cost.fused", "FusedBlockEvaluation.__init__", "cost.kernel", None),
    ("repro.cost.fused", "FusedBlockEvaluation.layer_result", "cost.select", None),
    # The fused path performs the layers' mapping searches, so it is
    # counted with them even though it lives in repro.cost.
    ("repro.cost.fused", "search_layers_fused", "mapping.search", None),
    ("repro.mapping.batch_candidates", "CandidateBatch.from_specs", "mapping.generate", None),
    ("repro.mapping.mapper", "TopNMapper.search_with_trace", "mapping.search", None),
    ("repro.mapping.mapper", "RandomSearchMapper.search_with_trace", "mapping.search", None),
    ("repro.mapping.mapper", "FixedDataflowMapper.search_with_trace", "mapping.search", None),
    ("repro.perf.mapping_cache", "CachingMapper.lookup", "perf.cache_lookup", None),
    ("repro.perf.mapping_cache", "CachingMapper.store", "perf.cache_store", None),
    ("repro.core.bottleneck.api", "BottleneckModel.predict", "bottleneck.predict", None),
    ("repro.core.dse.aggregation", "aggregate_parameter_values", "dse.aggregate", None),
    ("repro.core.dse.explainable", "ExplainableDSE.run", "dse.run", None),
    ("repro.service.machine", "CampaignStateMachine.start", "dse.start", _campaign_of_machine),
    ("repro.service.machine", "CampaignStateMachine.step", "dse.step", _campaign_of_machine),
    ("repro.service.machine", "CampaignStateMachine.pause", "dse.pause", _campaign_of_machine),
    ("repro.service.machine", "CampaignStateMachine.resume", "dse.resume", _campaign_of_machine),
    ("repro.optim.base", "BaselineOptimizer.run", _optimizer_span, None),
    ("repro.experiments.harness", "ComparisonRunner.run", "experiments.run", _label_of_spec),
    ("repro.telemetry.tracer", "Tracer.flush", "telemetry.flush", None),
    ("repro.telemetry.checkpoint", "save_checkpoint", "telemetry.checkpoint", None),
    ("repro.service.service", "CampaignService.status", "service.status", None),
    ("repro.service.service", "CampaignService.result", "service.result", None),
    ("repro.service.scheduler", "CampaignScheduler.next_slice", "service.schedule", None),
    ("repro.service.client", "ServiceClient.submit", "service.http_submit", None),
    ("repro.service.client", "ServiceClient.status", "service.http_status", None),
    ("repro.service.client", "ServiceClient.result", "service.http_result", None),
    ("repro.service.client", "ServiceClient.healthz", "service.http_healthz", None),
    ("repro.service.client", "ServiceClient.journal", "service.http_journal", None),
)


class SpanRecorder:
    """Spans of one process, kept in memory.

    Args:
        trace: Trace id of spans that neither name one nor have a parent.
    """

    def __init__(self, trace: str = "run"):
        self.trace = trace
        self.spans: List[dict] = []
        #: Every ``CostEvaluator`` constructed while installed, for counters.
        self.evaluators: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace: Optional[str] = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "name": name,
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "trace": trace or (parent["trace"] if parent else self.trace),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[dict]:
        """Record one span around a block (the benchmark's root spans)."""
        record = self.open(name, trace)
        try:
            yield record
        finally:
            self.close(record)


def _wrap(recorder: SpanRecorder, fn, name, trace_of, keep: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(
            name(args) if callable(name) else name,
            trace_of(args, kwargs) if trace_of else None,
        )
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)
            if keep:
                recorder.evaluators.append(args[0])

    wrapper.__ledger_original__ = fn
    return wrapper


class Installation:
    """The rebindings :func:`install` made; :meth:`restore` undoes them."""

    def __init__(self, patches: List[Tuple[object, str, object]]):
        self.patches = patches

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []
        # A repro module imported while installed may have bound a wrapper
        # by name; put the original back there too.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = getattr(value, "__ledger_original__", None)
                if original is not None:
                    setattr(module, attr, original)


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder: SpanRecorder, targets=TARGETS) -> Installation:
    """Wrap every target callable; returns the handle that restores them."""
    # Import the whole CLI and service first so functions imported by name
    # are bound everywhere before the scan below rebinds them.
    for module in ("repro.experiments.cli", "repro.service.service",
                   "repro.service.client", "repro.service.http"):
        importlib.import_module(module)
    patches: List[Tuple[object, str, object]] = []
    for module_name, attr, name, trace_of in targets:
        module = importlib.import_module(module_name)
        keep = name == "cost.evaluator_init"
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    _wrap(recorder, raw.__func__, name, trace_of, keep)
                )
            else:
                wrapped = _wrap(recorder, raw, name, trace_of, keep)
            patches.append((owner, method, raw))
            setattr(owner, method, wrapped)
            continue
        fn = getattr(module, attr)
        wrapped = _wrap(recorder, fn, name, trace_of, keep)
        for other in _repro_modules():
            for key, value in list(vars(other).items()):
                if value is fn:
                    patches.append((other, key, fn))
                    setattr(other, key, wrapped)
    return Installation(patches)


def write_spans(path, spans: Iterable[dict]) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")


# -- arithmetic over recorded spans ------------------------------------------


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def _key(span: dict) -> tuple:
    return (span.get("pid"), span["id"])


def self_times(spans: List[dict]) -> Dict[tuple, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[tuple, List[Tuple[float, float]]] = {}
    by_key = {_key(span): span for span in spans}
    for span in spans:
        if span["parent"] is None:
            continue
        parent = by_key.get((span.get("pid"), span["parent"]))
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(_key(parent), []).append((start, end))
    return {
        key: (span["end"] - span["start"])
        - _union_length(children.get(key, []))
        for key, span in by_key.items()
    }


def coverage(spans: List[dict], root: str = "campaign") -> float:
    """Share of the root spans' wall time covered by any other span."""
    roots = [span for span in spans if span["name"] == root]
    total = sum(span["end"] - span["start"] for span in roots)
    if total <= 0:
        return 0.0
    covered = 0.0
    others = [span for span in spans if span["name"] != root]
    for window in roots:
        clipped = [
            (max(s["start"], window["start"]), min(s["end"], window["end"]))
            for s in others
            if s["end"] > window["start"] and s["start"] < window["end"]
        ]
        covered += _union_length(clipped)
    return covered / total


def self_sum_error(spans: List[dict]) -> float:
    """Largest relative gap, over root spans, between the root's duration
    and the self times of every span in its tree (0 when nested)."""
    selfs = self_times(spans)
    by_key = {_key(span): span for span in spans}

    def root_of(key: tuple) -> tuple:
        span = by_key[key]
        parent = (span.get("pid"), span["parent"])
        return root_of(parent) if parent in by_key else key

    sums: Dict[tuple, float] = {}
    for key in by_key:
        root = root_of(key)
        sums[root] = sums.get(root, 0.0) + selfs[key]
    worst = 0.0
    for root, total in sums.items():
        span = by_key[root]
        duration = span["end"] - span["start"]
        if duration > 0:
            worst = max(worst, abs(total - duration) / duration)
    return worst


def tail_percentile(values: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; below 20 samples the median
    stands in for the tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 50.0, 0
    percentile = 100.0 * (1.0 - 10.0 / n) if n >= 20 else 50.0
    index = min(n - 1, max(0, math.ceil(percentile / 100.0 * n) - 1))
    return ordered[index], percentile, n


# -- per-layer metrics -------------------------------------------------------


def collect_counters(recorder: SpanRecorder) -> dict:
    """Sum the public counters of every evaluator the run constructed."""
    from repro.core.bottleneck import compile as tree_compile

    totals = {
        "evaluations": 0,
        "exact_hits": 0,
        "rescore_hits": 0,
        "misses": 0,
        "candidates": 0,
        "fused_blocks": 0,
        "fused_candidates": 0,
        "area_power_s": 0.0,
        "aggregate_s": 0.0,
        "fleet_shards": 0,
    }
    seen = set()
    for evaluator in recorder.evaluators:
        if id(evaluator) in seen:
            continue
        seen.add(id(evaluator))
        summary = evaluator.perf_summary()
        cache = summary["mapping_cache"]
        batch = summary["batch_eval"]
        stages = summary["stages"]
        totals["evaluations"] += summary["evaluations"]
        totals["exact_hits"] += cache["exact_hits"]
        totals["rescore_hits"] += cache["rescore_hits"]
        totals["misses"] += cache["misses"]
        totals["candidates"] += sum(
            batch.get(key, 0)
            for key in ("batch_candidates", "scalar_candidates", "fused_candidates")
        )
        totals["fused_blocks"] += batch.get("fused_blocks", 0)
        totals["fused_candidates"] += batch.get("fused_candidates", 0)
        totals["area_power_s"] += stages.get("area_power", {}).get("seconds", 0.0)
        totals["aggregate_s"] += stages.get("aggregate", {}).get("seconds", 0.0)
        totals["fleet_shards"] += summary.get("shm_fleet", {}).get(
            "shards_dispatched", 0
        )
    tree = tree_compile.stats()
    totals["tree_hits"] = tree.hits
    totals["tree_misses"] = tree.misses
    return totals


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: List[dict],
    counters: dict,
    *,
    traced_campaign_s: float,
    untraced_campaign_s: float,
) -> Tuple[Dict[str, float], Dict[str, list]]:
    """The per-layer metrics of one traced rep (see :data:`PER_LAYER`),
    and ``[value, percentile, n]`` of each tail metric."""
    selfs = self_times(spans)
    has_children = {
        (span.get("pid"), span["parent"])
        for span in spans
        if span["parent"] is not None
    }
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    unique_eval_ms: List[float] = []
    status_ms: List[float] = []
    submit_ms: List[float] = []
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + selfs[_key(span)]
        calls[name] = calls.get(name, 0) + 1
        if name == "cost.evaluate" and _key(span) in has_children:
            unique_eval_ms.append(duration * 1e3)
        elif name == "service.http_status":
            status_ms.append(duration * 1e3)
        elif name == "service.http_submit":
            submit_ms.append(duration * 1e3)
    layers = layer_self_seconds(spans, selfs)
    tails = {
        "cost.evaluate_ms_tail": list(tail_percentile(unique_eval_ms)),
        "service.http_status_ms_tail": list(tail_percentile(status_ms)),
    }
    c = counters
    lookups = c.get("exact_hits", 0) + c.get("rescore_hits", 0) + c.get("misses", 0)
    tree_lookups = c.get("tree_hits", 0) + c.get("tree_misses", 0)
    metrics = {
        "setup.import_s": c.get("import_s", 0.0),
        "workloads.load_s": total.get("workloads.load", 0.0),
        "cost.evaluator_init_s": total.get("cost.evaluator_init", 0.0),
        "mapping.generate_s": total.get("mapping.generate", 0.0),
        "mapping.search_self_s": own.get("mapping.search", 0.0),
        "mapping.searches": c.get("misses", 0),
        "mapping.candidates": c.get("candidates", 0),
        "cost.kernel_s": total.get("cost.kernel", 0.0),
        "cost.select_s": total.get("cost.select", 0.0),
        "cost.materialize_s": total.get("cost.materialize", 0.0),
        "cost.evaluate_calls": calls.get("cost.evaluate", 0),
        "cost.unique_evals": c.get("evaluations", 0),
        "cost.evaluate_ms_p50": _median(unique_eval_ms),
        "cost.evaluate_ms_tail": tails["cost.evaluate_ms_tail"][0],
        "cost.evaluate_self_s": own.get("cost.evaluate", 0.0),
        "cost.area_power_s": c.get("area_power_s", 0.0),
        "cost.aggregate_s": c.get("aggregate_s", 0.0),
        "cost.fused_blocks": c.get("fused_blocks", 0),
        "cost.fused_rows_mean": c.get("fused_candidates", 0) / c["fused_blocks"]
        if c.get("fused_blocks")
        else 0.0,
        "perf.cache_exact_hits": c.get("exact_hits", 0),
        "perf.cache_rescore_hits": c.get("rescore_hits", 0),
        "perf.cache_misses": c.get("misses", 0),
        "perf.cache_hit_ratio": (lookups - c.get("misses", 0)) / lookups
        if lookups
        else 0.0,
        "perf.cache_lookup_s": total.get("perf.cache_lookup", 0.0),
        "perf.cache_store_s": total.get("perf.cache_store", 0.0),
        "perf.fleet_shards": c.get("fleet_shards", 0),
        "optim.self_s": layers.get("optim", 0.0),
        "bottleneck.predict_calls": calls.get("bottleneck.predict", 0),
        "bottleneck.predict_s": total.get("bottleneck.predict", 0.0),
        "bottleneck.tree_compile_hit_ratio": c.get("tree_hits", 0) / tree_lookups
        if tree_lookups
        else 0.0,
        "dse.attempts": calls.get("dse.step", 0),
        "dse.aggregate_s": total.get("dse.aggregate", 0.0),
        "dse.self_s": layers.get("dse", 0.0),
        "telemetry.flushes": calls.get("telemetry.flush", 0),
        "telemetry.flush_s": total.get("telemetry.flush", 0.0),
        "telemetry.checkpoints": calls.get("telemetry.checkpoint", 0),
        "telemetry.checkpoint_s": total.get("telemetry.checkpoint", 0.0),
        "telemetry.journal_bytes": c.get("journal_bytes", 0),
        "service.http_status_ms_p50": _median(status_ms),
        "service.http_status_ms_tail": tails["service.http_status_ms_tail"][0],
        "service.http_submit_ms_p50": _median(submit_ms),
        "service.ewma_slice_s": c.get("ewma_slice_s", 0.0),
        "service.shed": c.get("shed", 0),
        "service.slice_faults": c.get("slice_faults", 0),
        "trace.overhead_frac": traced_campaign_s / untraced_campaign_s - 1.0
        if untraced_campaign_s > 0
        else 0.0,
        "trace.coverage": coverage(spans),
    }
    for kind in BASELINE_KINDS:
        metrics[f"optim.{kind}.self_s"] = own.get(f"optim.{kind}", 0.0)
    return metrics, tails


def layer_self_seconds(
    spans: List[dict], selfs: Optional[Dict[tuple, float]] = None
) -> Dict[str, float]:
    """Self time per layer (the first component of each span name)."""
    selfs = self_times(spans) if selfs is None else selfs
    out: Dict[str, float] = {}
    for span in spans:
        layer = span["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + selfs[_key(span)]
    return out
