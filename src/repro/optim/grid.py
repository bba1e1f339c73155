"""Grid search (non-feedback baseline, e.g. [32, 49] in the paper).

Strides through a stratified grid over the design space so the
evaluation budget covers the whole grid rather than a corner: grid
enumeration varies the last axes fastest, so naive truncation would fix the
leading parameters at their first grid value.

The grid is the product of :meth:`DesignSpace.grid_axes`, and its k-th
lattice point is computed directly by mixed-radix arithmetic over those
per-axis value tuples.  The proposals are exactly
``islice(space.grid(p), 0, None, stride)``, but each costs only itself:
the edge space's 3-per-axis grid has 1.6M points, of which a 40-point
budget visits one in 39k.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence, Tuple

from repro.arch.design_space import DesignPoint
from repro.optim.base import BaselineOptimizer
from repro.optim.protocol import Proposal

__all__ = ["GridSearch"]


def _lattice_point(
    axes: Sequence[Tuple[Any, ...]], index: int
) -> Tuple[Any, ...]:
    """The ``index``-th point of the product of ``axes``, last axis
    fastest (the order of ``itertools.product``)."""
    values = []
    for axis in reversed(axes):
        index, digit = divmod(index, len(axis))
        values.append(axis[digit])
    values.reverse()
    return tuple(values)


class GridSearch(BaselineOptimizer):
    """Strided stratified grid search."""

    name = "grid"

    def __init__(self, *args, points_per_axis: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        if points_per_axis < 1:
            raise ValueError("points_per_axis must be >= 1")
        self.points_per_axis = points_per_axis

    def _propose(self, initial_point: Optional[DesignPoint]):
        # No loop budget check: the grid is bounded, and the evaluation
        # boundary (inline raise / ask budget gate) terminates the walk.
        axes = self.space.grid_axes(self.points_per_axis)
        names = self.space.names
        total = math.prod(len(axis) for axis in axes)
        stride = max(1, total // self.max_evaluations)
        for index in range(0, total, stride):
            point = dict(zip(names, _lattice_point(axes, index)))
            yield Proposal(point, "grid")
