"""Bottleneck analyzer: contributions, dominating factors, and scalings.

Implements §4.3(a) of the paper: populate the bottleneck tree, compute each
factor's contribution to the total cost, identify the primary (and
secondary) bottleneck factors, and derive the *scaling* ``s`` — the ratio
by which a bottleneck factor's cost must shrink to re-balance the tree
(e.g. Fig. 8's DMA time dominating at 100% while on-chip communication sits
at 25.9% yields ``s = 100 / 25.9 = 3.85``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.bottleneck import compile as _compile
from repro.core.bottleneck.tree import Node, NodeOp

__all__ = ["BottleneckFinding", "analyze_tree", "DEFAULT_SCALING"]

#: Scaling used when a bottleneck has no competing factor to balance
#: against (single-child max, zero siblings): aim to halve the cost.
DEFAULT_SCALING = 2.0

#: Cap on the scaling ratio; unbounded ratios (sibling factor ~0) would
#: otherwise demand absurd parameter jumps.
MAX_SCALING = 64.0


@dataclass(frozen=True)
class BottleneckFinding:
    """One factor identified as a (candidate) bottleneck.

    Attributes:
        node: The tree node of the factor.
        path: Node names from the root to this factor.
        contribution: Fraction of the total cost attributed to the factor.
        scaling: Ratio ``s`` by which the factor's cost should be reduced
            (increased, for ``inverse`` factors) to mitigate the bottleneck.
        inverse: True when the factor sits in a denominator — *raising* it
            lowers the cost (e.g. bandwidth under DMA time).
    """

    node: Node
    path: Tuple[str, ...]
    contribution: float
    scaling: float
    inverse: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    def describe(self) -> str:
        direction = "increase" if self.inverse else "reduce"
        return (
            f"{' > '.join(self.path)}: contributes "
            f"{self.contribution * 100:.1f}% of the cost; "
            f"{direction} by ~{self.scaling:.2f}x to balance"
        )


def _clamp_scaling(s: float) -> float:
    if not math.isfinite(s) or s <= 1.0:
        return DEFAULT_SCALING
    return min(s, MAX_SCALING)


def analyze_tree(
    root: Node,
    target_value: Optional[float] = None,
    min_contribution: float = 0.01,
) -> List[BottleneckFinding]:
    """Analyze a populated bottleneck tree.

    Args:
        root: The populated tree; ``root.value`` is the total cost.
        target_value: When the cost is a violated inequality constraint,
            the threshold to reach; the root scaling becomes
            ``value / target`` instead of being derived from sibling
            balance.
        min_contribution: Findings below this contribution are dropped.

    Returns:
        Findings for every node on or near the dominating paths, ranked by
        decreasing contribution (ties: shallower nodes first; co-bottleneck
        children of a max node, largest first).  The caller
        cross-references finding names against the
        bottleneck model's affected-parameter dictionary.
    """
    # With REPRO_TREE_COMPILE on, one compiled pass yields every subtree
    # value; the contribution walk below reads child values at every
    # level, so this turns O(nodes x depth) evaluations into O(nodes).
    # Values are bit-identical to the recursive walk either way.
    values_by_id = _compile.evaluate_all(root) if _compile.enabled() else None

    def _value(node: Node) -> float:
        if values_by_id is not None:
            return values_by_id[id(node)]
        return node.value

    total = _value(root)
    if total <= 0 or not math.isfinite(total):
        return []

    findings: List[BottleneckFinding] = []

    def visit(
        node: Node,
        path: Tuple[str, ...],
        contribution: float,
        scaling: float,
        inverse: bool,
    ) -> None:
        if contribution < min_contribution:
            return
        findings.append(
            BottleneckFinding(
                node=node,
                path=path,
                contribution=contribution,
                scaling=_clamp_scaling(scaling),
                inverse=inverse,
            )
        )
        if node.op is NodeOp.LEAF:
            return
        values = [_value(child) for child in node.children]
        if node.op is NodeOp.MAX:
            # Contribution concentrates on the arg-max child; its scaling
            # balances it against the runner-up factor.  Children tied
            # with the maximum (within 1%) are co-bottlenecks — all of
            # them must shrink for the max to move — so each is visited,
            # largest first: the arg-max child is the primary bottleneck
            # and leads the ranking (exact ties keep child order).
            peak = max(values)
            tied = sorted(
                (i for i, v in enumerate(values) if v >= 0.99 * peak),
                key=lambda i: -values[i],
            )
            below = [v for v in values if v < 0.99 * peak]
            runner_up = max(below) if below else 0.0
            if len(tied) > 1:
                child_scaling = max(DEFAULT_SCALING, scaling)
            elif runner_up > 0:
                child_scaling = max(peak / runner_up, scaling)
            else:
                child_scaling = max(DEFAULT_SCALING, scaling)
            for i in tied:
                visit(
                    node.children[i],
                    path + (node.children[i].name,),
                    contribution,
                    child_scaling,
                    inverse,
                )
        elif node.op is NodeOp.ADD:
            total_here = sum(values)
            if total_here <= 0:
                return
            # Reducing the parent by `scaling` means removing an excess of
            # value * (1 - 1/s); the child absorbing it must shrink to
            # child - excess.
            excess = total_here * (1.0 - 1.0 / scaling)
            for child, v in zip(node.children, values):
                if v <= 0:
                    continue
                remainder = v - excess
                child_scaling = v / remainder if remainder > 0 else MAX_SCALING
                visit(
                    child,
                    path + (child.name,),
                    contribution * (v / total_here),
                    child_scaling,
                    inverse,
                )
        elif node.op is NodeOp.MUL:
            # Scaling any factor scales the product; all children inherit.
            for child in node.children:
                visit(
                    child,
                    path + (child.name,),
                    contribution,
                    scaling,
                    inverse,
                )
        elif node.op is NodeOp.DIV:
            numerator, denominator = node.children
            visit(
                numerator,
                path + (numerator.name,),
                contribution,
                scaling,
                inverse,
            )
            visit(
                denominator,
                path + (denominator.name,),
                contribution,
                scaling,
                not inverse,
            )

    root_scaling = (
        total / target_value
        if target_value and target_value > 0
        else DEFAULT_SCALING
    )
    visit(root, (root.name,), 1.0, _clamp_scaling(root_scaling), False)

    # Rank: highest contribution first; shallower first on ties (a max
    # node's co-bottleneck children all inherit the parent contribution —
    # the aggregate factors should be consulted before their per-operand
    # refinements so distinct factors each get a turn); drop the root
    # itself (it names the total, never a mitigable factor).
    ranked = [f for f in findings if len(f.path) > 1]
    ranked.sort(key=lambda f: (-f.contribution, len(f.path)))
    return ranked
