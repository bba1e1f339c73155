"""The discrete hardware design space and point manipulation utilities.

A *design point* is a ``dict`` mapping parameter names to values.  The
:class:`DesignSpace` validates points, converts them to/from index vectors
(the representation black-box optimizers operate on), samples uniformly,
and enumerates neighbours.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.arch.parameters import Parameter

__all__ = ["DesignSpace", "DesignPoint"]

DesignPoint = Dict[str, Any]


class DesignSpace:
    """An ordered collection of :class:`Parameter` axes.

    The iteration order of parameters is fixed at construction; index
    vectors produced by :meth:`to_indices` follow it.
    """

    def __init__(self, parameters: Sequence[Parameter]):
        if not parameters:
            raise ValueError("design space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in design space")
        self._params: Tuple[Parameter, ...] = tuple(parameters)
        self._by_name: Dict[str, Parameter] = {p.name: p for p in parameters}

    # -- basic introspection --------------------------------------------------

    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        return self._params

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._params)

    def parameter(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no parameter named {name!r}") from None

    @property
    def size(self) -> int:
        """Total number of design points (product of cardinalities)."""
        return math.prod(p.cardinality for p in self._params)

    @property
    def log10_size(self) -> float:
        """log10 of the design-space size (spaces overflow display widths)."""
        return sum(math.log10(p.cardinality) for p in self._params)

    # -- point validation and conversion -------------------------------------

    def validate(self, point: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` unless ``point`` is a complete, valid point."""
        missing = [n for n in self.names if n not in point]
        if missing:
            raise ValueError(f"point missing parameters: {missing}")
        extra = [n for n in point if n not in self._by_name]
        if extra:
            raise ValueError(f"point has unknown parameters: {extra}")
        for name, value in point.items():
            if not self._by_name[name].contains(value):
                raise ValueError(
                    f"value {value!r} invalid for parameter {name!r}"
                )

    def to_indices(self, point: Mapping[str, Any]) -> Tuple[int, ...]:
        """Convert a design point to an index vector (parameter order)."""
        return tuple(
            self._by_name[name].index_of(point[name]) for name in self.names
        )

    def from_indices(self, indices: Sequence[int]) -> DesignPoint:
        """Convert an index vector back to a design point."""
        if len(indices) != len(self._params):
            raise ValueError(
                f"expected {len(self._params)} indices, got {len(indices)}"
            )
        point: DesignPoint = {}
        for param, idx in zip(self._params, indices):
            if not 0 <= idx < param.cardinality:
                raise ValueError(
                    f"index {idx} out of range for parameter {param.name!r}"
                )
            point[param.name] = param.values[idx]
        return point

    def clip_indices(self, indices: Sequence[int]) -> Tuple[int, ...]:
        """Clamp an index vector into range (for continuous optimizers)."""
        out = []
        for param, idx in zip(self._params, indices):
            out.append(int(min(max(round(idx), 0), param.cardinality - 1)))
        return tuple(out)

    def point_key(self, point: Mapping[str, Any]) -> Tuple[int, ...]:
        """Hashable canonical key for caching evaluations."""
        return self.to_indices(point)

    # -- sampling and movement -------------------------------------------------

    def minimum_point(self) -> DesignPoint:
        """The point with every parameter at its smallest value.

        The paper uses this as the DSE initial point ("lowest values of
        design parameters in Table 1", §F footnote).
        """
        return {p.name: p.values[0] for p in self._params}

    def maximum_point(self) -> DesignPoint:
        return {p.name: p.values[-1] for p in self._params}

    def random_point(self, rng: random.Random) -> DesignPoint:
        """Uniformly random design point."""
        return {p.name: rng.choice(p.values) for p in self._params}

    def neighbors(self, point: Mapping[str, Any]) -> Iterator[DesignPoint]:
        """All points differing by one step in one parameter."""
        self.validate(point)
        for param in self._params:
            for value in param.neighbors(point[param.name]):
                neighbour = dict(point)
                neighbour[param.name] = value
                yield neighbour

    def with_value(
        self, point: Mapping[str, Any], name: str, value: Any
    ) -> DesignPoint:
        """Copy of ``point`` with one parameter replaced (validated)."""
        param = self.parameter(name)
        if not param.contains(value):
            raise ValueError(f"value {value!r} invalid for parameter {name!r}")
        out = dict(point)
        out[name] = value
        return out

    def grid_axes(self, points_per_axis: int) -> Tuple[Tuple[Any, ...], ...]:
        """Per-parameter value tuples of the stratified grid: up to
        ``points_per_axis`` evenly spaced values of each parameter, in
        parameter order.  :meth:`grid` is their Cartesian product."""
        if points_per_axis < 1:
            raise ValueError("points_per_axis must be >= 1")
        axes: List[Tuple[Any, ...]] = []
        for param in self._params:
            k = min(points_per_axis, param.cardinality)
            if k == 1:
                picks = (param.values[0],)
            else:
                step = (param.cardinality - 1) / (k - 1)
                picks = tuple(
                    param.values[round(i * step)] for i in range(k)
                )
            axes.append(tuple(dict.fromkeys(picks)))
        return tuple(axes)

    def grid(self, points_per_axis: int) -> Iterator[DesignPoint]:
        """Stratified grid: the Cartesian product of :meth:`grid_axes`,
        enumerated lazily with the last parameter varying fastest."""
        names = self.names
        return (
            dict(zip(names, values))
            for values in itertools.product(*self.grid_axes(points_per_axis))
        )
