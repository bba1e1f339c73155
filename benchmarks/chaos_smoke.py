"""CI chaos smoke test: a campaign under injected faults matches the
fault-free reference.

Drives the resilience story end-to-end through the CLI::

    PYTHONPATH=src python benchmarks/chaos_smoke.py --out BENCH_chaos.json

1. Run a fault-free reference campaign (``--save``, no
   ``REPRO_FAULT_INJECT``).
2. Run the same campaign with deterministic faults injected
   (``REPRO_FAULT_INJECT``, default a 5% crash rate at the evaluate
   site), tracing to a journal.  A crash at the ``mapper`` site fails
   the design point's evaluation, so it is retried at the evaluate
   level too.
3. Assert the chaos run completed, that the evaluator's retry policy
   brought the injected faults back to health (same incumbent point and
   costs, same trial trajectory), and write a quarantine report listing
   every ``CandidateFailed`` event the journal recorded.

Faults are hash-based and keyed on (seed, site, key, attempt), so a
retry re-rolls the decision and the smoke is fully reproducible: the
same spec either always passes or always fails on a given campaign.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.resilience.fault_injection import (  # noqa: E402
    FaultSpecError,
    parse_fault_plan,
)

DEFAULT_FAULTS = "crash:evaluate:0.05:seed=7"


def _fault_spec(text: str) -> str:
    """argparse type for ``--faults``: the spec must parse here, because
    the chaos run would only warn about a malformed
    ``REPRO_FAULT_INJECT`` and then run fault-free."""
    try:
        parse_fault_plan(text)
    except FaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _env(extra=None, drop=()):
    env = dict(os.environ)
    for name in (
        "REPRO_FAULT_INJECT",
        "REPRO_MAX_RETRIES",
        "REPRO_RETRY_BACKOFF",
        "REPRO_MAX_FAILURE_RATE",
        *drop,
    ):
        env.pop(name, None)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env.update(extra or {})
    return env


def _repro(args, env):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
    )


def _load_result(path):
    with open(path) as handle:
        data = json.load(handle)
    return {
        "points": [t["point"] for t in data["trials"]],
        "costs": [t["costs"] for t in data["trials"]],
        "notes": [t.get("note", "") for t in data["trials"]],
        "best_index": data["best_index"],
        "evaluations": data["evaluations"],
    }


def _read_journal_records(journal: Path):
    records = []
    if journal.exists():
        for line in journal.read_text().splitlines():
            if line:
                records.append(json.loads(line))
    return records


def run(model: str, iterations: int, faults: str, workdir: Path) -> dict:
    reference_json = workdir / "reference.json"
    chaos_json = workdir / "chaos.json"
    journal = workdir / "chaos.jsonl"
    explore = ["explore", model, "--iterations", str(iterations)]

    reference = _repro(
        [*explore, "--save", str(reference_json)], _env()
    )
    if reference.returncode not in (0, 1):
        raise RuntimeError(f"reference run failed:\n{reference.stderr}")

    chaos_env = _env(
        extra={"REPRO_FAULT_INJECT": faults, "REPRO_RETRY_BACKOFF": "0.01"}
    )
    chaos = _repro(
        [*explore, "--save", str(chaos_json), "--trace", str(journal)],
        chaos_env,
    )
    chaos_completed = chaos.returncode in (0, 1)
    if not chaos_completed:
        # Keep going: the record below reports the failure for triage.
        sys.stderr.write(chaos.stderr)

    failures = [
        r["data"]
        for r in _read_journal_records(journal)
        if r.get("kind") == "CandidateFailed"
    ]
    record = {
        "benchmark": "chaos_smoke",
        "model": model,
        "iterations": iterations,
        "python": platform.python_version(),
        "faults": faults,
        "chaos_completed": chaos_completed,
        "chaos_returncode": chaos.returncode,
        "candidate_failures": len(failures),
        "quarantined": [
            {
                "point": f.get("point"),
                "error": f.get("error"),
                "message": f.get("message"),
                "attempts": f.get("attempts"),
            }
            for f in failures
        ],
    }
    if chaos_completed:
        ref = _load_result(reference_json)
        res = _load_result(chaos_json)
        best_ref = ref["points"][ref["best_index"]]
        best_res = res["points"][res["best_index"]]
        record.update(
            {
                "quarantined_trials": sum(
                    1 for note in res["notes"] if "quarantined" in note
                ),
                "same_best_point": best_ref == best_res,
                "same_best_costs": ref["costs"][ref["best_index"]]
                == res["costs"][res["best_index"]],
                "same_trials": ref["points"] == res["points"]
                and ref["costs"] == res["costs"],
                "same_evaluations": ref["evaluations"]
                == res["evaluations"],
            }
        )
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="resnet18")
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument(
        "--faults",
        type=_fault_spec,
        default=DEFAULT_FAULTS,
        help="REPRO_FAULT_INJECT spec for the chaos run "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_chaos.json",
        help="quarantine-report artifact path (default: %(default)s)",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        record = run(args.model, args.iterations, args.faults, Path(tmp))
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    ok = record["chaos_completed"] and record.get("same_best_point", False)
    print(
        f"{record['model']} under {record['faults']!r}: "
        f"completed={record['chaos_completed']}, "
        f"failures={record['candidate_failures']}, "
        f"same incumbent: {record.get('same_best_point')} -> {args.out}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
