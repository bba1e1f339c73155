"""``repro serve`` with the ledger's span wrappers installed.

Usage (``--ledger-out`` is consumed here; the rest goes to the CLI)::

    PYTHONPATH=src python benchmarks/ledger/serve_traced.py \\
        --ledger-out spans.json serve --port 0 --spool SPOOL

When the server stops (SIGTERM), the recorded spans and the summed
evaluator counters are written to the ``--ledger-out`` path as one JSON
object ``{"pid", "spans", "counters"}``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] != "--ledger-out":
        print("usage: serve_traced.py --ledger-out PATH serve [...]",
              file=sys.stderr)
        return 2
    out_path, cli_argv = argv[1], argv[2:]
    from repro.experiments import cli

    import spans

    import_s = time.perf_counter() - _STARTED
    recorder = spans.SpanRecorder(trace="service")
    installation = spans.install(recorder)
    try:
        code = cli.main(cli_argv)
    finally:
        installation.restore()
        counters = spans.collect_counters(recorder)
        counters["import_s"] = import_s
        with open(out_path, "w") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "spans": recorder.spans,
                    "counters": counters,
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
