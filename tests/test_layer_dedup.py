"""One mapping search per distinct search identity in a design point.

``CostEvaluator`` groups the layers the mapping cache missed by
:func:`repro.perf.signature.search_signature` and runs one search per
group, on the fused and on the per-layer path, with the mapping cache on
or off.  Every layer's result must still equal the scalar reference
(``batch_eval=False``, no cache), and with the cache on each group's
search counts as one miss and its other layers as exact hits.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import (
    FixedDataflowMapper,
    RandomSearchMapper,
    TopNMapper,
)
from repro.perf.mapping_cache import MappingCache
from repro.perf.signature import layer_signature
from repro.workloads import Workload, load_workload

from tests.test_batch_eval import assert_results_identical
from tests.test_fused_eval import _layers_strategy, _uniquify

#: Mapper name -> (factory taking ``batch_eval``, whether its search
#: reads the layer name).
MAPPERS = {
    "top-n": (
        lambda batch_eval=True: TopNMapper(top_n=40, batch_eval=batch_eval),
        False,
    ),
    "random": (
        lambda batch_eval=True: RandomSearchMapper(
            trials=30, seed=5, batch_eval=batch_eval
        ),
        True,
    ),
    "fixed": (lambda batch_eval=True: FixedDataflowMapper(), False),
}
PATHS = [(fused, cache) for fused in (False, True) for cache in (False, True)]


def _spy(mapper) -> list:
    """Record the name of every layer ``mapper`` searches, on either path:
    a fused block and a per-layer search each read the layer's plan key
    (top-N) or candidate plan (random) once; the fixed-dataflow mapper
    has no plan."""
    searched = []
    method = next(
        name
        for name in ("plan_key", "candidate_plan", "search_with_trace")
        if hasattr(mapper, name)
    )
    inner = getattr(mapper, method)

    def spy(layer, config):
        searched.append(layer.name)
        return inner(layer, config)

    setattr(mapper, method, spy)
    return searched


@pytest.fixture(scope="module")
def reference(mid_config):
    """``(mapper name, layer) ->`` the scalar reference's result."""
    memo = {}

    def result_of(name, layer):
        if (name, layer) not in memo:
            mapper = MAPPERS[name][0](batch_eval=False)
            memo[name, layer] = mapper(layer, mid_config)
        return memo[name, layer]

    return result_of


def _check_one_search_per_identity(
    layers, point, reference, name, fused, cache
):
    make, reads_name = MAPPERS[name]
    workload = Workload("dedup-test", tuple(layers), total_layers=len(layers))
    mapper = make()
    searched = _spy(mapper)
    evaluator = CostEvaluator(
        workload,
        mapper,
        mapping_cache=MappingCache() if cache else None,
        use_mapping_cache=cache,
        fused_eval=fused,
    )
    evaluation = evaluator.evaluate(point)

    identity = {
        layer.name: layer_signature(layer, include_name=reads_name)
        for layer in layers
    }
    distinct = len(set(identity.values()))
    assert len(searched) == distinct
    assert {identity[layer_name] for layer_name in searched} == set(
        identity.values()
    )
    if reads_name:
        # Same-shape layers with different names are separate searches.
        assert sorted(searched) == sorted(identity)
    shared = {}
    for layer in layers:
        result = evaluation.layer_results[layer.name]
        assert_results_identical(reference(name, layer), result)
        assert shared.setdefault(identity[layer.name], result) is result
    if fused and name != "fixed":
        stats = evaluator.batch_eval_stats
        assert stats.fused_blocks == 1
        assert stats.fused_layers == distinct
        assert stats.fused_candidates == sum(
            len(make().candidate_plan(workload.layer(n), evaluation.config))
            for n in searched
        )
    counts = evaluator.perf_summary()["mapping_cache"]
    assert counts["enabled"] is cache
    assert counts["misses"] == (distinct if cache else 0)
    assert counts["exact_hits"] == (len(layers) - distinct if cache else 0)
    assert counts["rescore_hits"] == 0
    return distinct


class TestOneSearchPerIdentity:
    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    @pytest.mark.parametrize(
        "fused", [False, True], ids=["per-layer", "fused"]
    )
    @pytest.mark.parametrize("name", sorted(MAPPERS))
    def test_repeated_shapes_searched_once(
        self, name, fused, cache, mid_point, reference
    ):
        """Transformer's 20 layers have 5 distinct shapes: a design point
        runs 5 searches (20 for the random mapper, whose search reads the
        name), and each layer gets its shape's result."""
        layers = list(load_workload("transformer").layers)
        distinct = _check_one_search_per_identity(
            layers, mid_point, reference, name, fused, cache
        )
        assert distinct == (len(layers) if name == "random" else 5)

    @given(
        layers=_layers_strategy,
        copies=st.lists(st.integers(0, 4), min_size=1, max_size=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_renamed_copies_searched_once(
        self, layers, copies, mid_point, reference
    ):
        """Renamed copies of a layer share one search with the shape-only
        mappers, on every path."""
        layers = _uniquify(layers + [layers[i % len(layers)] for i in copies])
        for name in sorted(MAPPERS):
            for fused, cache in PATHS:
                distinct = _check_one_search_per_identity(
                    layers, mid_point, reference, name, fused, cache
                )
                assert distinct < len(layers) or name == "random"
