"""Generation-order tests for array-native candidate generation.

``TopNMapper.candidate_plan`` builds one search's
:class:`CandidateBatch` directly as int64 arrays.  The per-candidate
generator it replaced is kept below, verbatim, as the reference: a
round-robin over spatial unrollings with a structure-dedup ``seen`` set,
cut at ``top_n``.  The batch must hold the same rows in the same
order with the same stationary codes, and materialize the same
``Mapping`` objects, down to Python value types and dict key order.

Top-N plans are memoized process-wide by exactly the inputs generation
reads (``_top_n_plan``); the memo tests below check that the key misses
on every one of those inputs, hits on everything else, and never hands
out arrays a caller could write into.

``RandomSearchMapper.candidate_plan`` samples its trials in the tuple
domain.  The dict-building sampler it replaced is kept below too, as
the reference for the random mapper: same ``rng.choice`` calls over the
same sequences, so the same rows from the same seeded stream.
"""

import dataclasses
import itertools
import random
from typing import Dict, Iterable, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch import build_edge_design_space, config_from_point
from repro.arch.accelerator import AcceleratorConfig
from repro.mapping.batch_candidates import CandidateBatch, CandidateSpec
from repro.mapping.dataflow import SPATIAL_DIMS, greedy_tile_counts
from repro.mapping.factorization import divisors
from repro.mapping.mapper import (
    RF_GROWTH_ORDERS,
    SPM_GROWTH_ORDERS,
    RandomSearchMapper,
    TopNMapper,
    _random_batch,
    _stable_seed,
    _top_n_plan,
    enumerate_spatial_unrollings,
)
from repro.mapping.mapping import (
    STATIONARY_CHOICES,
    padded_bounds,
    padded_bounds_tuple,
)
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


# -- reference: the random mapper's per-candidate sampler, verbatim ---------

def _random_candidate(
    layer: LayerShape,
    config: AcceleratorConfig,
    rng: random.Random,
) -> CandidateSpec:
    bounds = padded_bounds(layer)
    spatial: Dict[Dim, int] = {d: 1 for d in LOOP_DIMS}
    budget = config.pes
    for d in SPATIAL_DIMS:
        opts = [f for f in divisors(bounds[d]) if f <= budget]
        spatial[d] = rng.choice(opts)
        budget //= spatial[d]
    rf: Dict[Dim, int] = {}
    spm: Dict[Dim, int] = {}
    dram: Dict[Dim, int] = {}
    for d in LOOP_DIMS:
        rest = bounds[d] // spatial[d]
        rf[d] = rng.choice(divisors(rest))
        rest //= rf[d]
        spm[d] = rng.choice(divisors(rest))
        dram[d] = rest // spm[d]
    return CandidateSpec.from_level_maps(
        dram=dram,
        spm=spm,
        spatial=spatial,
        rf=rf,
        dram_stationary=rng.choice(STATIONARY_CHOICES),
        spm_stationary=rng.choice(STATIONARY_CHOICES),
    )


def _reference_random_plan(mapper, layer, config):
    rng = random.Random(
        _stable_seed(mapper.seed, layer.name, config.pes, config.l1_bytes)
    )
    return CandidateBatch.from_specs(
        _random_candidate(layer, config, rng) for _ in range(mapper.trials)
    ), rng


# -- inputs ------------------------------------------------------------------

_SPACE = build_edge_design_space()
_FIELDS = ("dram", "spm", "spatial", "rf", "dram_code", "spm_code")


def _assert_same_arrays(batch: CandidateBatch, expected: CandidateBatch):
    for field in _FIELDS:
        got, want = getattr(batch, field), getattr(expected, field)
        assert got.dtype == np.int64, field
        assert got.shape == want.shape, field
        assert np.array_equal(got, want), field


@st.composite
def _layers(draw, names=st.just("l")) -> LayerShape:
    name = draw(names)
    operator = draw(st.sampled_from(list(OperatorType)))
    m = draw(st.integers(1, 512))
    oy, ox = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    kernel = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    batch = draw(st.integers(1, 4))
    if operator is OperatorType.CONV:
        layer = conv2d(name, draw(st.integers(1, 512)), m, (oy, ox),
                       kernel=kernel, batch=batch)
    elif operator is OperatorType.DWCONV:
        layer = depthwise_conv2d(name, m, (oy, ox), kernel=kernel,
                                 batch=batch)
    else:
        layer = gemm(name, m, draw(st.integers(1, 512)), ox, batch=batch)
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
    _assert_same_arrays(batch, expected)

    for i, spec in enumerate(specs):
        assert_mappings_identical(spec.to_mapping(), batch.mapping(i))
    picks = list(range(len(specs)))[::-3]  # out of order, with a gap
    for i, mapping in zip(picks, batch.mappings(picks)):
        assert_mappings_identical(specs[i].to_mapping(), mapping)
    assert batch.mappings([]) == []


@settings(max_examples=200, deadline=None)
@given(
    layer=_layers(names=st.sampled_from(["l", "conv3_x", "blocks.4.fc"])),
    config=_configs(),
    trials=st.sampled_from([1, 2, 60, 200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_plan_matches_reference_sampler(layer, config, trials, seed):
    mapper = RandomSearchMapper(trials=trials, seed=seed)
    expected, reference_rng = _reference_random_plan(mapper, layer, config)
    batch = mapper.candidate_plan(layer, config)

    assert len(batch) == trials
    _assert_same_arrays(batch, expected)
    # Both samplers leave the seeded stream at the same place: the same
    # number of draws, not just the same rows.
    rng = random.Random(
        _stable_seed(seed, layer.name, config.pes, config.l1_bytes)
    )
    _random_batch(padded_bounds_tuple(layer), config.pes, trials, rng)
    assert rng.getstate() == reference_rng.getstate()


# -- the top-N plan memo ------------------------------------------------------

def _plan_changes(layer, config):
    """``(field, layer, config, budget changes, read)`` rows, each
    changing one input of a plan.  ``read`` says whether generation
    reads the field, so that changing it must miss the memo."""
    replace = dataclasses.replace
    dims = list(layer.dims)
    dims[LOOP_DIMS.index(Dim.M)] += 1

    def other(parameter):
        current = getattr(config, parameter)
        return next(
            v for v in _SPACE.parameter(parameter).values if v != current
        )

    def doubled(links):
        return {op: factor * 2 for op, factor in links.items()}

    other_operator = {
        OperatorType.CONV: OperatorType.DWCONV,
        OperatorType.DWCONV: OperatorType.GEMM,
        OperatorType.GEMM: OperatorType.CONV,
    }[layer.operator]
    return [
        ("operator", replace(layer, operator=other_operator), config, {},
         True),
        ("dims", replace(layer, dims=tuple(dims)), config, {}, True),
        ("stride", replace(layer, stride=layer.stride % 3 + 1), config, {},
         True),
        ("pes", layer, replace(config, pes=other("pes")), {}, True),
        ("l1_bytes", layer, replace(config, l1_bytes=other("l1_bytes")), {},
         True),
        ("l2_bytes", layer, replace(config, l2_kb=other("l2_kb")), {}, True),
        ("bytes_per_element", layer,
         replace(config, bytes_per_element=config.bytes_per_element * 2), {},
         True),
        ("max_spatial", layer, config, {"max_spatial": 3}, True),
        ("top_n", layer, config, {"top_n": 11}, True),
        ("noc_datawidth_bits", layer,
         replace(config, noc_datawidth_bits=config.noc_datawidth_bits * 2),
         {}, False),
        ("offchip_bw_mbps", layer,
         replace(config, offchip_bw_mbps=config.offchip_bw_mbps + 1), {},
         False),
        ("freq_mhz", layer, replace(config, freq_mhz=config.freq_mhz + 100),
         {}, False),
        ("phys_unicast_factor", layer,
         replace(config,
                 phys_unicast_factor=doubled(config.phys_unicast_factor)),
         {}, False),
        ("virt_unicast", layer,
         replace(config, virt_unicast=doubled(config.virt_unicast)), {},
         False),
        ("name", replace(layer, name=layer.name + "_copy"), config, {},
         False),
        ("repeats", replace(layer, repeats=layer.repeats + 2), config, {},
         False),
    ]


@settings(max_examples=60, deadline=None)
@given(
    layer=_layers(),
    config=_configs(),
    top_n=st.sampled_from([1, 9, 10, 150]),
    max_spatial=st.sampled_from([1, 2, 16]),
)
def test_plan_memo_keys_on_generation_inputs(
    layer, config, top_n, max_spatial
):
    _top_n_plan.cache_clear()
    budgets = {"top_n": top_n, "max_spatial": max_spatial}
    expected = CandidateBatch.from_specs(
        _reference_specs(layer, config, top_n, max_spatial)
    )
    for _ in range(2):  # a miss, then a memo hit: the same plan
        _assert_same_arrays(
            TopNMapper(**budgets).candidate_plan(layer, config), expected
        )
    info = _top_n_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)

    for field, layer2, config2, budget_changes, read in _plan_changes(
        layer, config
    ):
        changed = {**budgets, **budget_changes}
        before = _top_n_plan.cache_info()
        batch = TopNMapper(**changed).candidate_plan(layer2, config2)
        after = _top_n_plan.cache_info()
        reference = _reference_specs(
            layer2, config2, changed["top_n"], changed["max_spatial"]
        )
        _assert_same_arrays(batch, CandidateBatch.from_specs(reference))
        assert after.misses - before.misses == int(read), field
        assert after.hits - before.hits == int(not read), field


def test_plan_batches_do_not_alias_the_memo(resnet18, mid_config):
    layer = resnet18.layer("conv3_x")
    mapper = TopNMapper(top_n=150)
    expected = CandidateBatch.from_specs(
        _reference_specs(layer, mid_config, 150, mapper.max_spatial)
    )
    first = mapper.candidate_plan(layer, mid_config)
    for field in _FIELDS:
        getattr(first, field)[...] = 0
    _assert_same_arrays(mapper.candidate_plan(layer, mid_config), expected)

    plan = _top_n_plan(
        layer.operator.value,
        layer.dims,
        layer.stride,
        mid_config.pes,
        mid_config.l1_bytes,
        mid_config.l2_bytes,
        mid_config.bytes_per_element,
        mapper.max_spatial,
        150,
    )
    assert [array.flags.writeable for array in plan] == [False] * 3
    assert _top_n_plan.cache_info().maxsize is not None
