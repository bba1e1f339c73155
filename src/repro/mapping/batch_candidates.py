"""Structure-of-arrays materialization of mapping candidate sets.

The scalar mapping search scores candidates one at a time: each one is a
:class:`~repro.mapping.mapping.Mapping` holding four dict-of-dims factor
maps, and :func:`~repro.cost.latency.evaluate_layer_mapping` walks those
dicts per candidate.  For a top-N search that is O(N) Python interpreter
round-trips through the cost model.

This module provides the batched alternative:

* :class:`CandidateSpec` — a lightweight tuple-of-tuples candidate
  representation for candidates built one at a time (the random
  mapper's samples) *without* constructing (and validating) a
  ``Mapping`` object per candidate; and
* :class:`CandidateBatch` — a whole candidate set as integer NumPy
  arrays (one ``(n, 7)`` array of per-dimension tiling factors per
  hierarchy level plus per-candidate stationarity codes), the layout the
  vectorized kernels in :mod:`repro.cost.batch` consume.  The top-N
  mapper builds its batches directly as arrays.

``Mapping`` objects are still materialized — lazily, per feasible
candidate — because search traces and mapping results carry them, but
the per-candidate dict bookkeeping disappears from the scoring loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Iterable,
    List,
    Mapping as MappingT,
    NamedTuple,
    Sequence,
    Tuple,
)

import numpy as np

from repro.mapping.mapping import (
    STATIONARY_CHOICES,
    Level,
    Mapping,
)
from repro.workloads.layers import (
    LOOP_DIMS,
    Dim,
    LayerShape,
    Operand,
    OperatorType,
)

__all__ = ["CandidateSpec", "CandidateBatch", "FusedCandidateBlock"]

#: Stationary-operand code of each :data:`STATIONARY_CHOICES` member.
STATIONARY_CODES = {op: i for i, op in enumerate(STATIONARY_CHOICES)}


def _mapping(
    dram: Sequence[int],
    spm: Sequence[int],
    spatial: Sequence[int],
    rf: Sequence[int],
    dram_code: int,
    spm_code: int,
) -> Mapping:
    """The :class:`Mapping` of one candidate's factors and codes."""
    return Mapping._trusted(
        factors={
            Level.DRAM: dict(zip(LOOP_DIMS, dram)),
            Level.SPM: dict(zip(LOOP_DIMS, spm)),
            Level.SPATIAL: dict(zip(LOOP_DIMS, spatial)),
            Level.RF: dict(zip(LOOP_DIMS, rf)),
        },
        dram_stationary=STATIONARY_CHOICES[dram_code],
        spm_stationary=STATIONARY_CHOICES[spm_code],
    )


class CandidateSpec(NamedTuple):
    """One tiling candidate as raw factor tuples (``LOOP_DIMS`` order).

    ``dram``/``spm``/``spatial``/``rf`` are the per-level tile counts and
    ``dram_code``/``spm_code`` index :data:`STATIONARY_CHOICES`.  Specs
    are produced by generators that guarantee validity (factors >= 1,
    complete dims), so :meth:`to_mapping` can use the trusted ``Mapping``
    constructor.
    """

    dram: Tuple[int, ...]
    spm: Tuple[int, ...]
    spatial: Tuple[int, ...]
    rf: Tuple[int, ...]
    dram_code: int
    spm_code: int

    @classmethod
    def from_level_maps(
        cls,
        dram: MappingT[Dim, int],
        spm: MappingT[Dim, int],
        spatial: MappingT[Dim, int],
        rf: MappingT[Dim, int],
        dram_stationary: Operand = Operand.O,
        spm_stationary: Operand = Operand.O,
    ) -> "CandidateSpec":
        """Build a spec from per-level factor dicts (missing dims -> 1)."""
        return cls(
            dram=tuple(int(dram.get(d, 1)) for d in LOOP_DIMS),
            spm=tuple(int(spm.get(d, 1)) for d in LOOP_DIMS),
            spatial=tuple(int(spatial.get(d, 1)) for d in LOOP_DIMS),
            rf=tuple(int(rf.get(d, 1)) for d in LOOP_DIMS),
            dram_code=STATIONARY_CODES[dram_stationary],
            spm_code=STATIONARY_CODES[spm_stationary],
        )

    def to_mapping(self) -> Mapping:
        """Materialize the equivalent :class:`Mapping` object."""
        return _mapping(*self)


@dataclass(frozen=True)
class CandidateBatch:
    """A candidate set as structure-of-arrays.

    Attributes:
        dram/spm/spatial/rf: ``(n, 7)`` int64 factor arrays, columns in
            ``LOOP_DIMS`` order.
        dram_code/spm_code: ``(n,)`` int64 stationary-operand codes
            indexing :data:`STATIONARY_CHOICES`.
    """

    dram: np.ndarray
    spm: np.ndarray
    spatial: np.ndarray
    rf: np.ndarray
    dram_code: np.ndarray
    spm_code: np.ndarray

    @classmethod
    def from_specs(cls, specs: Iterable[CandidateSpec]) -> "CandidateBatch":
        """Materialize a spec stream as SoA arrays (consumes the stream)."""
        specs = tuple(specs)
        n = len(specs)
        if n:
            dram = np.array([s.dram for s in specs], dtype=np.int64)
            spm = np.array([s.spm for s in specs], dtype=np.int64)
            spatial = np.array([s.spatial for s in specs], dtype=np.int64)
            rf = np.array([s.rf for s in specs], dtype=np.int64)
            dram_code = np.array([s.dram_code for s in specs], dtype=np.int64)
            spm_code = np.array([s.spm_code for s in specs], dtype=np.int64)
        else:
            dram = spm = spatial = rf = np.empty((0, len(LOOP_DIMS)), np.int64)
            dram_code = spm_code = np.empty(0, np.int64)
        return cls(
            dram=dram,
            spm=spm,
            spatial=spatial,
            rf=rf,
            dram_code=dram_code,
            spm_code=spm_code,
        )

    @classmethod
    def from_mappings(cls, mappings: Sequence[Mapping]) -> "CandidateBatch":
        """Materialize existing ``Mapping`` objects (convenience path)."""
        return cls.from_specs(
            CandidateSpec.from_level_maps(
                dram=m.factors[Level.DRAM],
                spm=m.factors[Level.SPM],
                spatial=m.factors[Level.SPATIAL],
                rf=m.factors[Level.RF],
                dram_stationary=m.dram_stationary,
                spm_stationary=m.spm_stationary,
            )
            for m in mappings
        )

    def __len__(self) -> int:
        return len(self.dram_code)

    def mapping(self, i: int) -> Mapping:
        """The :class:`Mapping` object of candidate ``i``."""
        return _mapping(
            self.dram[i].tolist(),
            self.spm[i].tolist(),
            self.spatial[i].tolist(),
            self.rf[i].tolist(),
            int(self.dram_code[i]),
            int(self.spm_code[i]),
        )

    def mappings(self, indices: Sequence[int]) -> List[Mapping]:
        """Bulk :meth:`mapping` over ``indices``: one ``tolist()`` per
        array instead of one per row, which dominates at trace sizes."""
        idx = np.asarray(indices, dtype=np.intp)
        return list(
            map(
                _mapping,
                self.dram[idx].tolist(),
                self.spm[idx].tolist(),
                self.spatial[idx].tolist(),
                self.rf[idx].tolist(),
                self.dram_code[idx].tolist(),
                self.spm_code[idx].tolist(),
            )
        )


@dataclass(frozen=True)
class FusedCandidateBlock:
    """Every layer's candidate set of one design point, as one SoA block.

    Concatenates per-layer :class:`CandidateBatch` arrays row-wise and
    broadcasts each layer's shape attributes (stride, depthwise flag,
    operator, MAC count) to per-row arrays, so the fused kernels in
    :mod:`repro.cost.fused` evaluate the whole campaign step —
    ``sum(candidates over layers)`` rows — in single array passes instead
    of one kernel invocation per layer.

    Attributes:
        layers: The fused layers, in evaluation order.
        batches: The originating per-layer batches (winner mappings are
            materialized back through them).
        offsets: Row-range bounds; layer ``k`` owns rows
            ``offsets[k]:offsets[k + 1]``.
        dram/spm/spatial/rf: ``(n, 7)`` int64 factor arrays (``LOOP_DIMS``
            columns), ``n`` summed over layers.
        dram_code/spm_code: ``(n,)`` stationary-operand codes.
        stride: ``(n,)`` int64 per-row layer stride.
        dwise: ``(n,)`` bool per-row depthwise flag.
        opcode: ``(n,)`` int64 index into :attr:`operators`.
        macs: ``(n,)`` int64 per-row layer MAC count.
        operators: Distinct :class:`OperatorType` members present, in
            first-appearance order (the fused kernels mask rows by code).
    """

    layers: Tuple[LayerShape, ...]
    batches: Tuple[CandidateBatch, ...]
    offsets: Tuple[int, ...]
    dram: np.ndarray
    spm: np.ndarray
    spatial: np.ndarray
    rf: np.ndarray
    dram_code: np.ndarray
    spm_code: np.ndarray
    stride: np.ndarray
    dwise: np.ndarray
    opcode: np.ndarray
    macs: np.ndarray
    operators: Tuple[OperatorType, ...]

    @classmethod
    def from_layer_batches(
        cls,
        layers: Sequence[LayerShape],
        batches: Sequence[CandidateBatch],
    ) -> "FusedCandidateBlock":
        """Concatenate per-layer batches into one block (row counts may
        differ per layer; empty batches contribute an empty row range)."""
        if len(layers) != len(batches):
            raise ValueError(
                f"layer/batch count mismatch: {len(layers)} layers, "
                f"{len(batches)} batches"
            )
        counts = [len(b) for b in batches]
        offsets = [0]
        for count in counts:
            offsets.append(offsets[-1] + count)
        operators: list = []
        codes = []
        for layer in layers:
            if layer.operator not in operators:
                operators.append(layer.operator)
            codes.append(operators.index(layer.operator))
        counts_arr = np.asarray(counts, dtype=np.int64)

        def _concat(field: str) -> np.ndarray:
            return np.concatenate([getattr(b, field) for b in batches])

        return cls(
            layers=tuple(layers),
            batches=tuple(batches),
            offsets=tuple(offsets),
            dram=_concat("dram"),
            spm=_concat("spm"),
            spatial=_concat("spatial"),
            rf=_concat("rf"),
            dram_code=_concat("dram_code"),
            spm_code=_concat("spm_code"),
            stride=np.repeat(
                np.asarray([l.stride for l in layers], dtype=np.int64),
                counts_arr,
            ),
            dwise=np.repeat(
                np.asarray(
                    [l.operator is OperatorType.DWCONV for l in layers],
                    dtype=bool,
                ),
                counts_arr,
            ),
            opcode=np.repeat(np.asarray(codes, dtype=np.int64), counts_arr),
            macs=np.repeat(
                np.asarray([l.macs for l in layers], dtype=np.int64),
                counts_arr,
            ),
            operators=tuple(operators),
        )

    def __len__(self) -> int:
        return self.offsets[-1]

    def rows(self, layer_index: int) -> slice:
        """Row range owned by layer ``layer_index``."""
        return slice(self.offsets[layer_index], self.offsets[layer_index + 1])
