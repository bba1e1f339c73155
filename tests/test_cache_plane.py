"""Tests for the cross-process cache plane (mmap segment store).

Covered: round-trips across independent handles (stand-ins for separate
processes), write-through from :class:`MappingCache`, in-flight-append
tolerance, corrupt-segment quarantine with unchanged campaign results,
and the ``REPRO_CACHE_PLANE`` wiring of ``shared_cache()``.
"""

import os
import warnings

from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.perf import mapping_cache as mapping_cache_module
from repro.perf.cache_plane import (
    KIND_RESULT,
    KIND_TRACE,
    CachePlane,
    PlaneStats,
)
from repro.perf.mapping_cache import MappingCache, shared_cache


def _segments(directory):
    return sorted(
        name for name in os.listdir(directory) if name.endswith(".seg")
    )


class TestCachePlaneStore:
    def test_round_trip_across_handles(self, tmp_path):
        writer = CachePlane(str(tmp_path))
        reader = CachePlane(str(tmp_path))
        key = (("mapper", 3), ("layer", "conv1"), ("cfg", (64, 128)))
        assert writer.put(KIND_RESULT, key, {"latency": 42.5})
        assert reader.get(KIND_RESULT, key) == {"latency": 42.5}
        assert reader.stats.hits == 1
        assert writer.stats.puts == 1

    def test_kinds_are_distinct_namespaces(self, tmp_path):
        plane = CachePlane(str(tmp_path))
        key = ("k",)
        plane.put(KIND_RESULT, key, "result")
        plane.put(KIND_TRACE, key, "trace")
        assert plane.get(KIND_RESULT, key) == "result"
        assert plane.get(KIND_TRACE, key) == "trace"

    def test_duplicate_put_is_skipped(self, tmp_path):
        plane = CachePlane(str(tmp_path))
        key = ("dup",)
        assert plane.put(KIND_RESULT, key, 1) is True
        assert plane.put(KIND_RESULT, key, 2) is False
        assert plane.get(KIND_RESULT, key) == 1
        assert plane.stats.puts == 1

    def test_miss_counts_and_returns_none(self, tmp_path):
        plane = CachePlane(str(tmp_path))
        assert plane.get(KIND_RESULT, ("absent",)) is None
        assert plane.stats.misses == 1

    def test_per_process_segments_do_not_collide(self, tmp_path):
        a = CachePlane(str(tmp_path))
        b = CachePlane(str(tmp_path))
        a.put(KIND_RESULT, ("a",), 1)
        b.put(KIND_RESULT, ("b",), 2)
        assert len(_segments(tmp_path)) == 2
        fresh = CachePlane(str(tmp_path))
        assert fresh.get(KIND_RESULT, ("a",)) == 1
        assert fresh.get(KIND_RESULT, ("b",)) == 2
        assert fresh.entry_count() == 2

    def test_incomplete_trailing_record_waits_not_quarantines(self, tmp_path):
        writer = CachePlane(str(tmp_path))
        writer.put(KIND_RESULT, ("done",), "v")
        segment = tmp_path / _segments(tmp_path)[0]
        complete = segment.read_bytes()
        # simulate a sibling mid-append: a full record minus its tail
        writer2 = CachePlane(str(tmp_path))
        writer2.put(KIND_RESULT, ("inflight",), "w")
        other = [s for s in _segments(tmp_path) if (tmp_path / s) != segment][0]
        partial_path = tmp_path / other
        partial = partial_path.read_bytes()
        partial_path.write_bytes(partial[:-3])

        reader = CachePlane(str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any quarantine warning fails
            assert reader.get(KIND_RESULT, ("done",)) == "v"
            assert reader.get(KIND_RESULT, ("inflight",)) is None
        assert reader.stats.segments_quarantined == 0
        # the append completes -> the next refresh picks the record up
        partial_path.write_bytes(partial)
        assert reader.get(KIND_RESULT, ("inflight",)) == "w"
        assert complete == segment.read_bytes()  # untouched neighbour

    def test_corrupt_segment_quarantined_others_survive(self, tmp_path):
        a = CachePlane(str(tmp_path))
        a.put(KIND_RESULT, ("good",), "kept")
        before = set(_segments(tmp_path))
        b = CachePlane(str(tmp_path))
        b.put(KIND_RESULT, ("bad",), "lost")
        victim = tmp_path / (set(_segments(tmp_path)) - before).pop()
        # flip payload bytes of b's segment (CRC now fails)
        raw = bytearray(victim.read_bytes())
        raw[-4:] = b"\xff\xff\xff\xff"
        victim.write_bytes(bytes(raw))

        reader = CachePlane(str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert reader.get(KIND_RESULT, ("good",)) == "kept"
            assert reader.get(KIND_RESULT, ("bad",)) is None
        assert reader.stats.segments_quarantined == 1
        assert any(
            "cache-plane segment is corrupt" in str(w.message) for w in caught
        )
        corrupt = [
            name
            for name in os.listdir(tmp_path)
            if name.endswith(".corrupt")
        ]
        assert len(corrupt) == 1

    def test_bad_magic_quarantines(self, tmp_path):
        plane = CachePlane(str(tmp_path))
        plane.put(KIND_RESULT, ("x",), 1)
        segment = tmp_path / _segments(tmp_path)[0]
        raw = bytearray(segment.read_bytes())
        raw[:4] = b"JUNK"
        segment.write_bytes(bytes(raw))
        reader = CachePlane(str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert reader.get(KIND_RESULT, ("x",)) is None
        assert reader.stats.segments_quarantined == 1
        assert caught

    def test_stale_version_segment_ignored_not_quarantined(self, tmp_path):
        plane = CachePlane(str(tmp_path))
        plane.put(KIND_RESULT, ("x",), 1)
        segment = tmp_path / _segments(tmp_path)[0]
        raw = bytearray(segment.read_bytes())
        raw[4] = 99  # future format version
        segment.write_bytes(bytes(raw))
        reader = CachePlane(str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reader.get(KIND_RESULT, ("x",)) is None
        assert reader.stats.segments_quarantined == 0
        assert not [
            name for name in os.listdir(tmp_path) if name.endswith(".corrupt")
        ]

    def test_writer_recovers_after_own_segment_quarantined(self, tmp_path):
        plane = CachePlane(str(tmp_path))
        plane.put(KIND_RESULT, ("first",), 1)
        segment = tmp_path / _segments(tmp_path)[0]
        raw = bytearray(segment.read_bytes())
        raw[-2] ^= 0xFF
        segment.write_bytes(bytes(raw))
        # a refresh from scratch (new handle state) detects the damage
        plane._scanned.clear()
        plane._index.clear()
        plane._maps.clear()
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            plane.refresh()
        assert plane.stats.segments_quarantined == 1
        # subsequent puts land in a fresh segment and read back fine
        assert plane.put(KIND_RESULT, ("second",), 2)
        assert plane.get(KIND_RESULT, ("second",)) == 2
        assert CachePlane(str(tmp_path)).get(KIND_RESULT, ("second",)) == 2

    def test_stats_shape(self):
        stats = PlaneStats()
        assert stats.hit_rate == 0.0
        stats.hits = 3
        stats.misses = 1
        assert stats.hit_rate == 0.75
        assert set(stats.as_dict()) == {
            "hits",
            "misses",
            "puts",
            "segments_quarantined",
            "hit_rate",
        }
        stats.reset()
        assert stats.lookups == 0


class TestMappingCacheWriteThrough:
    def test_second_process_served_from_plane(
        self, resnet18, mid_point
    ):
        import tempfile

        plane_dir = tempfile.mkdtemp()
        first = CostEvaluator(
            resnet18,
            TopNMapper(top_n=40),
            mapping_cache=MappingCache(plane=CachePlane(plane_dir)),
        )
        cold = first.evaluate(mid_point)
        assert first.mapping_cache_misses == len(resnet18.layers)

        second = CostEvaluator(
            resnet18,
            TopNMapper(top_n=40),
            mapping_cache=MappingCache(plane=CachePlane(plane_dir)),
        )
        warm = second.evaluate(mid_point)
        assert second.mapping_cache_misses == 0
        assert warm.costs == cold.costs
        for name in cold.layer_results:
            assert (
                cold.layer_results[name].latency
                == warm.layer_results[name].latency
            )
        plane_section = second.perf_summary()["mapping_cache"]["plane"]
        assert plane_section["enabled"] is True
        assert plane_section["hits"] > 0

    def test_plane_disabled_section_is_constant(self, resnet18, mid_point):
        evaluator = CostEvaluator(
            resnet18, TopNMapper(top_n=40), mapping_cache=MappingCache()
        )
        section = evaluator.perf_summary()["mapping_cache"]["plane"]
        assert section == {"enabled": False}

    def test_plane_section_is_journal_volatile(self):
        from repro.telemetry.events import deterministic_perf_counters

        summary = {
            "mapping_cache": {"enabled": True, "plane": {"hits": 5}},
        }
        stripped = deterministic_perf_counters(summary)
        assert "plane" not in stripped["mapping_cache"]

    def test_corrupted_plane_mid_campaign_keeps_results(
        self, resnet18, mid_point, tmp_path
    ):
        """The chaos contract: corrupting a segment between campaigns
        quarantines it and re-computes — never changes — the results."""
        plane_dir = tmp_path / "plane"
        reference = CostEvaluator(
            resnet18,
            TopNMapper(top_n=40),
            mapping_cache=MappingCache(plane=CachePlane(str(plane_dir))),
        )
        expected = reference.evaluate(mid_point)

        for name in _segments(plane_dir):
            raw = bytearray((plane_dir / name).read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            (plane_dir / name).write_bytes(bytes(raw))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            damaged = CostEvaluator(
                resnet18,
                TopNMapper(top_n=40),
                mapping_cache=MappingCache(plane=CachePlane(str(plane_dir))),
            )
            recomputed = damaged.evaluate(mid_point)
        assert any(
            "cache-plane segment is corrupt" in str(w.message) for w in caught
        )
        assert recomputed.costs == expected.costs
        assert damaged.mapping_cache_misses == len(resnet18.layers)


class TestSharedCacheWiring:
    def test_env_attaches_plane(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mapping_cache_module, "_SHARED", None)
        monkeypatch.setenv("REPRO_CACHE_PLANE", str(tmp_path / "plane"))
        cache = shared_cache()
        assert cache.plane is not None
        assert cache.plane.directory == str(tmp_path / "plane")

    def test_unset_env_means_no_plane(self, monkeypatch):
        monkeypatch.setattr(mapping_cache_module, "_SHARED", None)
        monkeypatch.delenv("REPRO_CACHE_PLANE", raising=False)
        assert shared_cache().plane is None
