"""Tests for the fast-path differential campaign matrix."""

from repro.perf.mapping_cache import MappingCache
from repro.telemetry import RunSummary, read_journal
from repro.verify.differential import _canonical_journal, run_differential

#: Matrix columns, in execution order (one per accelerated path plus the
#: serial/scalar/cold/recursive reference and the everything-on combo).
ALL_VARIANTS = [
    "baseline",
    "batch",
    "warm-cache",
    "resume",
    "fused",
    "compiled-tree",
    "all-on",
]


class TestDifferentialMatrix:
    def test_full_matrix_is_identical(self, tmp_path):
        """Acceptance criterion: batch, warm-cache, resumed, fused,
        compiled-tree, and all-on campaigns all reproduce the reference
        — results exactly, journals up to RunSummary perf counters (raw
        bytes for compiled-tree)."""
        report = run_differential(tmp_path, max_evaluations=12)
        assert report.variants == ALL_VARIANTS
        assert report.mismatches == []
        assert report.ok

    def test_all_on_leg_must_reach_its_fast_paths(self, tmp_path, monkeypatch):
        """The all-on leg starts from a half-warm pickle; if that pickle
        never loads, the leg serves no exact hits and the guard reports
        it although its results still match the reference."""
        monkeypatch.setattr(MappingCache, "load", lambda self, path=None: False)
        report = run_differential(tmp_path, max_evaluations=12)
        assert len(report.mismatches) == 1
        assert report.mismatches[0].startswith("all-on: served 0 exact hits")

    def test_every_variant_journal_written(self, tmp_path):
        run_differential(tmp_path, max_evaluations=12)
        for name in ALL_VARIANTS:
            journal = tmp_path / f"{name}.jsonl"
            assert journal.exists() and journal.stat().st_size > 0

    def test_canonical_journal_strips_only_counters(self, tmp_path):
        """The canonicalization must keep every event (same count, same
        types) and only empty the RunSummary counters."""
        run_differential(tmp_path, max_evaluations=12)
        journal = tmp_path / "baseline.jsonl"
        events = read_journal(journal)
        canonical = _canonical_journal(journal).decode("utf-8").splitlines()
        assert len(canonical) == len(events)
        # the raw journal really carries counters (so stripping matters)...
        assert any(isinstance(e, RunSummary) and e.counters for e in events)
        # ...and no canonical line retains any of them.
        import json

        for line in canonical:
            payload = json.loads(line)
            if "counters" in payload:
                assert payload["counters"] == {}
