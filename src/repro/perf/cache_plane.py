"""Cross-process cache plane: an append-only mmap segment store.

:class:`~repro.perf.mapping_cache.MappingCache` is process-local: every
worker process (and every fresh CLI invocation without
``REPRO_MAPPING_CACHE_DIR``) re-runs mapping searches its siblings have
already paid for.  The cache plane lifts the exact and re-score tiers
into a directory of append-only **segment files** that concurrently
running processes share without a server:

* Each process appends to its **own** segment
  (``plane-<pid>-<token>.seg``), so writers never contend on a file.
* Readers :func:`mmap.mmap` every segment and index the records they
  find; a lookup miss triggers a cheap re-scan that picks up records
  other processes appended since.
* Every record is framed (magic, version, kind, lengths) and
  CRC32-guarded.  A segment that fails framing or checksum validation is
  **quarantined** — renamed to ``<segment>.corrupt``, its entries
  dropped, a one-line :class:`CacheCorruptionError` warning emitted —
  and the campaign continues on the surviving segments, mirroring the
  self-healing semantics of the pickle warm-start path.  An *incomplete
  trailing record* is not corruption: it is a sibling's in-flight
  append, and scanning simply stops before it until it completes.

Keys and values are pickled; the keys are the existing signature tuples
of :mod:`repro.perf.signature`, so the plane needs no scheme of its own.
The plane is attached by :func:`repro.perf.mapping_cache.shared_cache`
when ``REPRO_CACHE_PLANE`` names a directory (see
:func:`repro.perf.knobs.cache_plane_dir`); it is a strict write-through
layer below the in-memory tiers, so hits are bit-identical to local
ones.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import threading
import uuid
import warnings
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.resilience.errors import CacheCorruptionError

__all__ = [
    "KIND_RESULT",
    "KIND_TRACE",
    "PlaneStats",
    "CachePlane",
]

#: Record framing: magic, version byte, kind byte, key length, value
#: length, CRC32 over the concatenated key+value payload (all LE).
_HEADER = struct.Struct("<4sBBIII")
_MAGIC = b"RPLN"
#: On-disk record version; a segment with a stale version is skipped
#: (format evolution), only framing/CRC failures are corruption.
#: Version 2: traces hold batch-kernel arrays instead of object pairs.
_VERSION = 2
#: Segment file suffixes.
_SEGMENT_SUFFIX = ".seg"
_CORRUPT_SUFFIX = ".corrupt"

#: Record kinds (one per mapping-cache tier).
KIND_RESULT = 0
KIND_TRACE = 1
_KNOWN_KINDS = frozenset({KIND_RESULT, KIND_TRACE})


@dataclass
class PlaneStats:
    """Counters of one :class:`CachePlane` handle (process-local)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    segments_quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "segments_quarantined": self.segments_quarantined,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.puts = 0
        self.segments_quarantined = 0


class CachePlane:
    """One process's handle on a shared segment directory.

    Thread-safe; every process holds its own handle (its own append
    segment and its own index built by scanning all segments).
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.stats = PlaneStats()
        self._lock = threading.Lock()
        #: (kind, key) -> (segment path, value offset, value length)
        self._index: Dict[Tuple[int, Tuple], Tuple[str, int, int]] = {}
        #: Per segment, how many bytes have been scanned into the index.
        self._scanned: Dict[str, int] = {}
        #: Open read mmaps: path -> (mmap, mapped size).
        self._maps: Dict[str, Tuple[mmap.mmap, int]] = {}
        self._dead: set = set()  # quarantined (or vanished) segments
        self._own_path = os.path.join(
            self.directory,
            f"plane-{os.getpid()}-{uuid.uuid4().hex[:8]}{_SEGMENT_SUFFIX}",
        )
        self._own_handle = None  # opened lazily on first put
        self._own_size = 0

    # -- lookup/insert --------------------------------------------------------

    def get(self, kind: int, key: Tuple) -> Optional[object]:
        """The stored value, or None.  A miss re-scans the directory once
        (picking up siblings' appends) before giving up."""
        with self._lock:
            entry = self._index.get((kind, key))
            if entry is None:
                self._refresh()
                entry = self._index.get((kind, key))
            if entry is None:
                self.stats.misses += 1
                return None
            path, offset, length = entry
            try:
                buffer = self._view(path)
                value = pickle.loads(buffer[offset : offset + length])
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                # The frame checked out but the payload does not load:
                # treat the segment as corrupt and miss.
                self._quarantine(path, exc)
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return value

    def put(self, kind: int, key: Tuple, value: object) -> bool:
        """Append a record to this process's segment (skipped when the
        key is already indexed); returns True when written."""
        with self._lock:
            if (kind, key) in self._index:
                return False
            key_bytes = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
            val_bytes = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            record = (
                _HEADER.pack(
                    _MAGIC,
                    _VERSION,
                    kind,
                    len(key_bytes),
                    len(val_bytes),
                    zlib.crc32(key_bytes + val_bytes),
                )
                + key_bytes
                + val_bytes
            )
            if self._own_handle is None:
                self._own_handle = open(self._own_path, "ab")
            self._own_handle.write(record)
            self._own_handle.flush()
            value_offset = self._own_size + _HEADER.size + len(key_bytes)
            self._own_size += len(record)
            self._scanned[self._own_path] = self._own_size
            self._index[(kind, key)] = (
                self._own_path,
                value_offset,
                len(val_bytes),
            )
            self.stats.puts += 1
            return True

    # -- introspection --------------------------------------------------------

    def refresh(self) -> None:
        """Index records other processes appended since the last scan."""
        with self._lock:
            self._refresh()

    def entry_count(self) -> int:
        with self._lock:
            return len(self._index)

    def segment_count(self) -> int:
        """Live (non-quarantined) segments currently on disk."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        return sum(1 for name in names if name.endswith(_SEGMENT_SUFFIX))

    def close(self) -> None:
        with self._lock:
            if self._own_handle is not None:
                self._own_handle.close()
                self._own_handle = None
            for handle, _size in self._maps.values():
                handle.close()
            self._maps.clear()

    def __enter__(self) -> "CachePlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- scanning -------------------------------------------------------------

    def _segments(self):
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            os.path.join(self.directory, name)
            for name in names
            if name.endswith(_SEGMENT_SUFFIX)
        )

    def _refresh(self) -> None:
        for path in self._segments():
            if path in self._dead:
                continue
            try:
                size = os.path.getsize(path)
            except OSError:
                continue  # racing sibling cleanup/quarantine
            if size > self._scanned.get(path, 0):
                self._scan(path, size)

    def _scan(self, path: str, size: int) -> None:
        """Index the records in ``path[scanned:size]``; stops (without
        quarantining) at an incomplete trailing record."""
        offset = self._scanned.get(path, 0)
        try:
            buffer = self._view(path, minimum_size=size)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._quarantine(path, exc)
            return
        while offset + _HEADER.size <= size:
            magic, version, kind, key_len, val_len, crc = _HEADER.unpack_from(
                buffer, offset
            )
            if magic != _MAGIC:
                self._quarantine(
                    path,
                    ValueError(
                        f"bad record magic {magic!r} at offset {offset}"
                    ),
                )
                return
            if version != _VERSION:
                # A segment from a different format version is ignored
                # wholesale (evolution, not corruption).
                self._scanned[path] = size
                return
            payload_start = offset + _HEADER.size
            payload_end = payload_start + key_len + val_len
            if payload_end > size:
                break  # in-flight sibling append; resume next refresh
            payload = bytes(buffer[payload_start:payload_end])
            if zlib.crc32(payload) != crc:
                self._quarantine(
                    path,
                    ValueError(f"CRC mismatch at offset {offset}"),
                )
                return
            if kind in _KNOWN_KINDS:
                try:
                    key = pickle.loads(payload[:key_len])
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    self._quarantine(path, exc)
                    return
                # First writer wins; later duplicates (two processes
                # missing, then both storing) resolve identically
                # everywhere because segment scan order is sorted.
                self._index.setdefault(
                    (kind, key),
                    (path, payload_start + key_len, val_len),
                )
            offset = payload_end
        self._scanned[path] = offset

    def _view(self, path: str, minimum_size: int = 0):
        """A read mmap of ``path``, re-mapped when the file has grown."""
        cached = self._maps.get(path)
        if cached is not None and cached[1] >= minimum_size:
            return cached[0]
        size = os.path.getsize(path)
        if cached is not None:
            cached[0].close()
            del self._maps[path]
        with open(path, "rb") as handle:
            view = mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_READ)
        self._maps[path] = (view, size)
        return view

    # -- self-healing ---------------------------------------------------------

    def _quarantine(self, path: str, exc: Exception) -> None:
        """Drop a bad segment: rename it aside, forget its entries, warn.

        Mirrors ``MappingCache._quarantine_corrupt`` — corruption costs
        the bad segment's entries (re-computed as ordinary misses), never
        the campaign.
        """
        cached = self._maps.pop(path, None)
        if cached is not None:
            cached[0].close()
        self._scanned.pop(path, None)
        self._dead.add(path)
        for entry_key in [
            entry_key
            for entry_key, (entry_path, _o, _l) in self._index.items()
            if entry_path == path
        ]:
            del self._index[entry_key]
        if path == self._own_path:
            # Restart appends in a fresh segment; the old offsets are
            # meaningless once the file has been renamed aside.
            if self._own_handle is not None:
                self._own_handle.close()
                self._own_handle = None
            self._own_size = 0
            self._own_path = os.path.join(
                self.directory,
                f"plane-{os.getpid()}-{uuid.uuid4().hex[:8]}"
                f"{_SEGMENT_SUFFIX}",
            )
        corrupt_path: Optional[str] = path + _CORRUPT_SUFFIX
        try:
            os.replace(path, corrupt_path)
        except OSError:
            corrupt_path = None
        self.stats.segments_quarantined += 1
        error = CacheCorruptionError(
            f"cache-plane segment is corrupt: {type(exc).__name__}: {exc}",
            path=str(path),
            quarantined_to=corrupt_path,
        )
        warnings.warn(
            f"{error}; continuing without this segment",
            RuntimeWarning,
            stacklevel=4,
        )
