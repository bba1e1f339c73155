"""Shared layer-level mapping cache: one exact-result LRU.

The hot path of every figure and table is the per-layer mapping search:
each design-point evaluation runs one search per unique layer, and a
campaign revisits the same (layer, hardware) pairs.  This module
memoizes those searches at layer granularity, below the
:class:`repro.cost.evaluator.CostEvaluator` design-point cache, keyed
by ``(mapper signature, search signature, config signature)``
(:mod:`repro.perf.signature`); a hit returns the stored
:class:`~repro.mapping.mapper.MappingResult` unchanged.  A config that
differs in any field the search reads, off-chip bandwidth and clock
included, is a miss: a top-N search on it re-runs only the NoC/bandwidth
stage over the plan terms memoized beside its plan
(:data:`repro.mapping.mapper._top_n_terms`).

:class:`CachingMapper` is not a mapper: ``CostEvaluator`` runs a design
point's searches itself, one per distinct
:func:`~repro.perf.signature.search_signature`, and a
:class:`CachingMapper` serves its lookups and records its searches.  It
is the only code that counts hits and misses.

The cache is LRU-bounded and thread-safe.  The one cross-process store
is a pickle of it (:meth:`MappingCache.save` / ``persist_path``): with
``REPRO_MAPPING_CACHE_DIR`` set, the shared cache warm-starts from it
and saves it again at process exit, so a repeated command re-uses the
previous run's searches.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Tuple

from repro.arch.accelerator import AcceleratorConfig
from repro.resilience.errors import CacheCorruptionError, as_repro_error
from repro.resilience.fault_injection import inject
from repro.perf.knobs import mapping_cache_dir, mapping_cache_results
from repro.perf.signature import (
    config_signature,
    mapper_signature,
    search_signature,
)
from repro.workloads.layers import LayerShape

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle:
    # repro.mapping.mapper -> repro.cost -> repro.perf -> this module)
    from repro.mapping.mapper import MappingResult

__all__ = ["MappingCache", "CachingMapper", "shared_cache"]

#: Persistence file name inside ``REPRO_MAPPING_CACHE_DIR``.
PERSIST_FILENAME = "mapping_cache.pkl"
#: On-disk format version; bump when signatures or stored values change
#: shape.  Versions 2 and 3 also held re-scorable search traces; version
#: 4 holds exact results only.
PERSIST_VERSION = 4


class MappingCache:
    """LRU-bounded store of mapping-search results.

    Args:
        max_results: Capacity (one ``MappingResult`` each); None reads
            ``REPRO_MAPPING_CACHE_RESULTS``.
        persist_path: Pickle file to warm-start from (loaded when it
            exists) and to :meth:`save` to.
    """

    def __init__(
        self,
        max_results: Optional[int] = None,
        persist_path: Optional[str] = None,
    ):
        if max_results is not None and max_results < 1:
            raise ValueError(
                f"max_results must be at least 1, got {max_results!r}"
            )
        self.max_results = (
            mapping_cache_results() if max_results is None else max_results
        )
        self.persist_path = persist_path
        self._results: "OrderedDict[Tuple, MappingResult]" = OrderedDict()
        self._lock = threading.Lock()
        if persist_path and os.path.exists(persist_path):
            self.load(persist_path)

    def get_result(self, key: Tuple) -> Optional[MappingResult]:
        with self._lock:
            result = self._results.get(key)
            if result is not None:
                self._results.move_to_end(key)
            return result

    def put_result(self, key: Tuple, result: MappingResult) -> None:
        with self._lock:
            self._results[key] = result
            self._results.move_to_end(key)
            while len(self._results) > self.max_results:
                self._results.popitem(last=False)

    # -- introspection --------------------------------------------------------

    def size(self) -> int:
        """Entry count."""
        return len(self._results)

    def clear(self) -> None:
        with self._lock:
            self._results.clear()

    # -- persistence ----------------------------------------------------------

    def save(self, path: Optional[str] = None) -> str:
        """Pickle the cache atomically; returns the written path."""
        path = path or self.persist_path
        if not path:
            raise ValueError("no persistence path configured")
        inject("cache-save", key=str(path))
        payload = {"version": PERSIST_VERSION, "results": dict(self._results)}
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def load(self, path: Optional[str] = None) -> bool:
        """Merge a pickled cache in; returns False on any load problem.

        Self-healing: a truncated/corrupt warm-start file is treated as a
        cold miss — it is quarantined to ``<path>.corrupt`` (so the next
        run does not trip over it and the evidence survives for
        inspection), a one-line :class:`CacheCorruptionError` warning is
        emitted, and the cache starts cold.  A file with a stale
        ``PERSIST_VERSION`` is simply ignored (format evolution, not
        corruption).
        """
        path = path or self.persist_path
        if not path or not os.path.exists(path):
            return False
        try:
            inject("cache-load", key=str(path))
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._quarantine_corrupt(path, exc)
            return False
        if (
            not isinstance(payload, dict)
            or payload.get("version") != PERSIST_VERSION
        ):
            return False
        try:
            for key, result in payload.get("results", {}).items():
                self.put_result(key, result)
        except Exception as exc:
            self._quarantine_corrupt(path, exc)
            return False
        return True

    def _quarantine_corrupt(self, path: str, exc: Exception) -> None:
        """Move an unreadable cache file aside and warn once about it."""
        corrupt_path: Optional[str] = str(path) + ".corrupt"
        try:
            os.replace(path, corrupt_path)
        except OSError:
            corrupt_path = None
        error = CacheCorruptionError(
            "mapping-cache warm-start file is corrupt: "
            f"{type(exc).__name__}: {exc}",
            path=str(path),
            quarantined_to=corrupt_path,
        )
        warnings.warn(
            f"{error}; continuing with a cold cache",
            RuntimeWarning,
            stacklevel=3,
        )


class CachingMapper:
    """One mapper's view of a :class:`MappingCache`, and the one place
    that counts its hits and misses.

    :meth:`lookup` serves a (layer, config) search from the cache;
    :meth:`store` records a search the caller ran and the same-identity
    layers it served.  The counters are local (the cache may be shared
    by many evaluators), so each evaluator reports its own hit rate.
    """

    def __init__(self, mapper, cache: Optional[MappingCache] = None):
        self._mapper_sig = mapper_signature(mapper)
        if self._mapper_sig is None:
            raise TypeError(
                f"{mapper!r} is not cacheable: it has no signature()"
            )
        self.mapper = mapper
        self.cache = cache if cache is not None else shared_cache()
        self.exact_hits = 0
        self.misses = 0

    def reset_counters(self) -> None:
        self.exact_hits = self.misses = 0

    def _key(self, layer: LayerShape, config: AcceleratorConfig) -> Tuple:
        return (
            self._mapper_sig,
            search_signature(self.mapper, layer),
            config_signature(config),
        )

    def lookup(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> Optional[MappingResult]:
        """Serve from the cache (counting a hit), or return None,
        counting nothing: the caller's :meth:`store` counts the search a
        miss leads to."""
        result = self.cache.get_result(self._key(layer, config))
        if result is not None:
            self.exact_hits += 1
        return result

    def store(
        self,
        layer: LayerShape,
        config: AcceleratorConfig,
        result: MappingResult,
        repeats: int = 0,
    ) -> None:
        """Record one search the caller ran on ``layer`` (a miss) and the
        ``repeats`` other layers of the same design point it served.
        Those share ``layer``'s search identity, so each counts as the
        exact hit it would have been had it been looked up after this
        store."""
        self.cache.put_result(self._key(layer, config), result)
        self.misses += 1
        self.exact_hits += repeats


_SHARED: Optional[MappingCache] = None
_SHARED_LOCK = threading.Lock()


def shared_cache() -> MappingCache:
    """The process-wide mapping cache shared by all evaluators.

    Created lazily; when ``REPRO_MAPPING_CACHE_DIR`` names a usable
    directory (see :func:`repro.perf.knobs.mapping_cache_dir`) the cache
    warm-starts from (and registers an atexit save to)
    ``$REPRO_MAPPING_CACHE_DIR/mapping_cache.pkl``.
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            persist_dir = mapping_cache_dir()
            persist_path = (
                os.path.join(persist_dir, PERSIST_FILENAME)
                if persist_dir
                else None
            )
            _SHARED = MappingCache(persist_path=persist_path)
            if persist_path:
                import atexit

                def _save_on_exit(cache: MappingCache = _SHARED) -> None:
                    try:
                        cache.save()
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:
                        error = as_repro_error(
                            exc,
                            "mapping-cache persistence failed",
                            path=cache.persist_path,
                        )
                        warnings.warn(
                            f"{error}; cache not persisted",
                            RuntimeWarning,
                        )

                atexit.register(_save_on_exit)
        return _SHARED
