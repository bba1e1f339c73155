"""Cache signatures: exactly what the mapping search reads.

The layer-level mapping cache (``repro.perf.mapping_cache``) is only
correct if its keys capture *every* input the mapper consumes — and only
those, so that sweeps over search-irrelevant parameters hit the cache.
This module centralizes that contract:

* the candidate generators (``enumerate_spatial_unrollings``,
  ``greedy_tile``, ``build_output_stationary_mapping``, the random
  tiling sampler) read ``pes``, ``l1_bytes``, ``l2_bytes`` and
  ``bytes_per_element``.  The top-N plan memo
  (``repro.mapping.mapper._top_n_plan``) keys on exactly these four,
  the :func:`layer_signature` and the mapper's ``max_spatial`` and
  ``top_n`` (``TopNMapper.plan_key``), so layers that differ only in
  name or ``repeats`` and configs that differ only in the fields below
  share one plan;
* the scoring kernel's *plan stage* (``repro.cost.batch.PlanStage``:
  tile sizes, the PE/RF/SPM checks, ``t_comp``, NoC event counts,
  reuse fetch counts and off-chip traffic) reads exactly the plan key
  too.  So every batch top-N search memoizes the plan-stage terms
  beside each top-N plan, under the same key
  (``repro.mapping.mapper._top_n_terms``);
* the NoC configuration (``noc_datawidth_bits``, physical/virtual
  unicast links), the off-chip bandwidth and the clock enter only in
  the kernel's second, NoC/bandwidth stage: NoC rounds and feasibility
  checks, ``t_noc`` and ``t_dma``.  A top-N search on a config that
  differs only there re-runs that stage over the memoized terms.

Hence :func:`config_signature`, every field the search reads, keys the
layer cache, which stores exact results only.  On the layer side,
:func:`search_signature` is the one definition of "the same search":
the evaluator runs one search per distinct value in a design point, and
the cache keys on it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arch.accelerator import AcceleratorConfig
from repro.workloads.layers import OPERANDS, LayerShape

__all__ = [
    "layer_signature",
    "search_signature",
    "config_signature",
    "mapper_signature",
]


def layer_signature(layer: LayerShape, include_name: bool = False) -> Tuple:
    """Shape identity of a layer as seen by the mapping search.

    The search reads the operator type, the (padded) loop bounds, and the
    stride (through the input-halo tile extents) — never ``repeats`` or
    the layer's own ``bytes_per_element`` (precision comes from the
    hardware config).  ``name`` is excluded by default so identical
    shapes share cache entries across models; mappers whose candidate
    stream is seeded by the name (``RandomSearchMapper``) set
    ``include_name``.
    """
    base: Tuple = (layer.operator.value, layer.dims, layer.stride)
    return base + (layer.name,) if include_name else base


def search_signature(mapper, layer: LayerShape) -> Tuple:
    """The identity of ``mapper``'s search on ``layer``: layers with equal
    search signatures get the same result on one config.

    It is the :func:`layer_signature`, with the name when the mapper's
    ``cache_layer_name_relevant`` says its search reads it (True when
    the mapper does not say), so random-mapper layers that share a shape
    but not a name stay separate searches.  ``CostEvaluator`` groups a
    design point's searches by it and ``CachingMapper`` keys the cache
    with it.
    """
    return layer_signature(
        layer,
        include_name=bool(getattr(mapper, "cache_layer_name_relevant", True)),
    )


def config_signature(config: AcceleratorConfig) -> Tuple:
    """Full mapping-relevant identity of a hardware configuration."""
    return (
        config.pes,
        config.l1_bytes,
        config.l2_kb,
        config.noc_datawidth_bits,
        tuple(config.phys_unicast_factor[op] for op in OPERANDS),
        tuple(config.virt_unicast[op] for op in OPERANDS),
        config.bytes_per_element,
        config.offchip_bw_mbps,
        config.freq_mhz,
    )


def mapper_signature(mapper) -> Optional[Tuple]:
    """Cache identity of a mapper, or None when it cannot be cached."""
    sig = getattr(mapper, "signature", None)
    if sig is None:
        return None
    return tuple(sig())
