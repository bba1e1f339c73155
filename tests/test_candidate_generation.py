"""Generation-order tests for array-native top-N candidate generation.

``TopNMapper.candidate_plan`` builds one search's
:class:`CandidateBatch` directly as int64 arrays.  The per-candidate
generator it replaced is kept below, verbatim, as the reference: a
round-robin over spatial unrollings with a structure-dedup ``seen`` set,
cut at ``top_n``.  The batch must hold the same rows in the same
order with the same stationary codes, and materialize the same
``Mapping`` objects, down to Python value types and dict key order.
"""

import dataclasses
import itertools
from typing import Dict, Iterable, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch import build_edge_design_space, config_from_point
from repro.arch.accelerator import AcceleratorConfig
from repro.mapping.batch_candidates import CandidateBatch, CandidateSpec
from repro.mapping.dataflow import greedy_tile_counts
from repro.mapping.mapper import (
    RF_GROWTH_ORDERS,
    SPM_GROWTH_ORDERS,
    TopNMapper,
    enumerate_spatial_unrollings,
)
from repro.mapping.mapping import STATIONARY_CHOICES, padded_bounds_tuple
from repro.workloads.layers import (
    LOOP_DIMS,
    Dim,
    LayerShape,
    OperatorType,
    conv2d,
    depthwise_conv2d,
    gemm,
)

from tests.test_batch_eval import assert_mappings_identical


# -- reference: the per-candidate generator, verbatim -----------------------

def _tiling_candidates(
    layer: LayerShape,
    config: AcceleratorConfig,
    spatial_choices: Iterable[Dict[Dim, int]],
) -> Iterable[CandidateSpec]:
    """Yield candidate specs from the pruned (spatial x RF x SPM x
    ordering) space, round-robining across spatial unrollings so a bounded
    evaluation budget still touches every spatial option (including the
    compatibility fallback) before exhausting one unrolling's tiling
    variants."""
    generators = [
        _candidates_for_spatial(layer, config, spatial)
        for spatial in spatial_choices
    ]
    seen = set()
    while generators:
        for generator in list(generators):
            emitted = False
            for structure_key, spec in generator:
                if structure_key in seen:
                    continue
                seen.add(structure_key)
                yield spec
                emitted = True
                break
            if not emitted:
                generators.remove(generator)


#: ``LOOP_DIMS`` indices of the greedy growth orders (tuple-domain loop).
_RF_ORDER_COLS = tuple(
    tuple(LOOP_DIMS.index(d) for d in order) for order in RF_GROWTH_ORDERS
)
_SPM_ORDER_COLS = tuple(
    tuple(LOOP_DIMS.index(d) for d in order) for order in SPM_GROWTH_ORDERS
)
_UNIT_TILE = (1,) * len(LOOP_DIMS)


def _candidates_for_spatial(
    layer: LayerShape,
    config: AcceleratorConfig,
    spatial: Dict[Dim, int],
) -> Iterable[Tuple[tuple, CandidateSpec]]:
    """All (structure-key, candidate-spec) pairs for one spatial unrolling.

    Runs entirely in the tuple domain (factors in ``LOOP_DIMS`` order):
    candidate generation sits on the cold-search critical path alongside
    the scoring kernels, and dict-of-enum bookkeeping used to dominate it.
    """
    bounds = padded_bounds_tuple(layer)
    bpe = config.bytes_per_element
    spatial_t = tuple(spatial[d] for d in LOOP_DIMS)
    remaining0 = tuple(b // s for b, s in zip(bounds, spatial_t))
    for rf_order in _RF_ORDER_COLS:
        rf = greedy_tile_counts(
            layer,
            remaining0,
            order=rf_order,
            byte_budget=config.l1_bytes,
            base_tile=_UNIT_TILE,
            bytes_per_element=bpe,
        )
        remaining1 = tuple(r // f for r, f in zip(remaining0, rf))
        base = tuple(f * s for f, s in zip(rf, spatial_t))
        for spm_order in _SPM_ORDER_COLS:
            spm = greedy_tile_counts(
                layer,
                remaining1,
                order=spm_order,
                byte_budget=config.l2_bytes // 2,
                base_tile=base,
                bytes_per_element=bpe,
            )
            dram = tuple(r // f for r, f in zip(remaining1, spm))
            structure = (spatial_t, rf, spm)
            # Dedup keys carry the int stationary codes, not the Operand
            # members: the codes are bijective with the choices, and enum
            # hashing dominated the structure-dedup set at scale.
            for dram_code in range(len(STATIONARY_CHOICES)):
                for spm_code in range(len(STATIONARY_CHOICES)):
                    key = structure + (dram_code, spm_code)
                    yield key, CandidateSpec(
                        dram=dram,
                        spm=spm,
                        spatial=spatial_t,
                        rf=rf,
                        dram_code=dram_code,
                        spm_code=spm_code,
                    )


def _reference_specs(layer, config, top_n, max_spatial):
    spatial_choices = enumerate_spatial_unrollings(
        layer, config, max_combos=max_spatial
    )
    return list(
        itertools.islice(
            _tiling_candidates(layer, config, spatial_choices), top_n
        )
    )


# -- inputs ------------------------------------------------------------------

_SPACE = build_edge_design_space()
_FIELDS = ("dram", "spm", "spatial", "rf", "dram_code", "spm_code")


@st.composite
def _layers(draw) -> LayerShape:
    operator = draw(st.sampled_from(list(OperatorType)))
    m = draw(st.integers(1, 512))
    oy, ox = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    kernel = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    batch = draw(st.integers(1, 4))
    if operator is OperatorType.CONV:
        layer = conv2d("l", draw(st.integers(1, 512)), m, (oy, ox),
                       kernel=kernel, batch=batch)
    elif operator is OperatorType.DWCONV:
        layer = depthwise_conv2d("l", m, (oy, ox), kernel=kernel,
                                 batch=batch)
    else:
        layer = gemm("l", m, draw(st.integers(1, 512)), ox, batch=batch)
    return dataclasses.replace(layer, stride=draw(st.integers(1, 3)))


@st.composite
def _configs(draw) -> AcceleratorConfig:
    point = _SPACE.minimum_point()
    for name in ("pes", "l1_bytes", "l2_kb"):
        point[name] = draw(st.sampled_from(_SPACE.parameter(name).values))
    return config_from_point(point)


# -- tests -------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    layer=_layers(),
    config=_configs(),
    # 9 is one stationarity sweep of one tiling; 2000 exhausts every
    # unrolling (at most 16 x 4 x 3 x 9 = 1728 rows).
    top_n=st.sampled_from([1, 8, 9, 10, 150, 2000]),
    max_spatial=st.sampled_from([1, 2, 16]),
)
def test_batch_matches_reference_generator(layer, config, top_n, max_spatial):
    specs = _reference_specs(layer, config, top_n, max_spatial)
    expected = CandidateBatch.from_specs(specs)
    batch = TopNMapper(top_n=top_n, max_spatial=max_spatial).candidate_plan(
        layer, config
    )

    assert len(batch) == len(specs)
    for field in _FIELDS:
        got, want = getattr(batch, field), getattr(expected, field)
        assert got.dtype == np.int64, field
        assert got.shape == want.shape, field
        assert np.array_equal(got, want), field

    for i, spec in enumerate(specs):
        assert_mappings_identical(spec.to_mapping(), batch.mapping(i))
    picks = list(range(len(specs)))[::-3]  # out of order, with a gap
    for i, mapping in zip(picks, batch.mappings(picks)):
        assert_mappings_identical(specs[i].to_mapping(), mapping)
    assert batch.mappings([]) == []
