"""Unit and property tests for the design space."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.design_space import DesignSpace
from repro.arch.parameters import Parameter


@pytest.fixture
def small_space():
    return DesignSpace(
        [
            Parameter("a", (1, 2, 4)),
            Parameter("b", (10, 20)),
            Parameter("c", (5, 6, 7, 8)),
        ]
    )


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DesignSpace([])

    def test_rejects_duplicate_names(self):
        p = Parameter("a", (1, 2))
        with pytest.raises(ValueError):
            DesignSpace([p, p])

    def test_size(self, small_space):
        assert small_space.size == 3 * 2 * 4
        assert math.isclose(
            small_space.log10_size, math.log10(24), rel_tol=1e-9
        )

    def test_names_and_contains(self, small_space):
        assert small_space.names == ("a", "b", "c")
        assert "a" in small_space
        assert "z" not in small_space
        assert len(small_space) == 3

    def test_parameter_lookup(self, small_space):
        assert small_space.parameter("b").values == (10, 20)
        with pytest.raises(KeyError):
            small_space.parameter("z")


class TestPoints:
    def test_minimum_maximum(self, small_space):
        assert small_space.minimum_point() == {"a": 1, "b": 10, "c": 5}
        assert small_space.maximum_point() == {"a": 4, "b": 20, "c": 8}

    def test_validate_accepts_valid(self, small_space):
        small_space.validate({"a": 2, "b": 20, "c": 7})

    def test_validate_rejects_missing(self, small_space):
        with pytest.raises(ValueError, match="missing"):
            small_space.validate({"a": 2})

    def test_validate_rejects_unknown(self, small_space):
        with pytest.raises(ValueError, match="unknown"):
            small_space.validate({"a": 2, "b": 20, "c": 7, "z": 1})

    def test_validate_rejects_bad_value(self, small_space):
        with pytest.raises(ValueError, match="invalid"):
            small_space.validate({"a": 3, "b": 20, "c": 7})

    def test_index_roundtrip(self, small_space):
        point = {"a": 4, "b": 10, "c": 6}
        assert small_space.from_indices(small_space.to_indices(point)) == point

    def test_from_indices_bounds(self, small_space):
        with pytest.raises(ValueError):
            small_space.from_indices((0, 0))
        with pytest.raises(ValueError):
            small_space.from_indices((0, 5, 0))

    def test_clip_indices(self, small_space):
        assert small_space.clip_indices((-3, 1.6, 99)) == (0, 1, 3)

    def test_with_value(self, small_space):
        point = small_space.minimum_point()
        moved = small_space.with_value(point, "a", 4)
        assert moved["a"] == 4
        assert point["a"] == 1
        with pytest.raises(ValueError):
            small_space.with_value(point, "a", 3)

    def test_point_key_hashable(self, small_space):
        key = small_space.point_key(small_space.minimum_point())
        assert hash(key) is not None


class TestSamplingAndMoves:
    def test_random_point_valid_and_seeded(self, small_space):
        a = small_space.random_point(random.Random(7))
        b = small_space.random_point(random.Random(7))
        small_space.validate(a)
        assert a == b

    def test_neighbors_differ_by_one_param(self, small_space):
        point = {"a": 2, "b": 10, "c": 6}
        neighbours = list(small_space.neighbors(point))
        assert neighbours
        for n in neighbours:
            diffs = [k for k in point if n[k] != point[k]]
            assert len(diffs) == 1

    def test_grid_covers_extremes(self, small_space):
        points = list(small_space.grid(2))
        assert len(points) == 2 * 2 * 2
        assert small_space.minimum_point() in points
        assert small_space.maximum_point() in points

    def test_grid_is_product_of_axes_last_fastest(self, small_space):
        assert small_space.grid_axes(3) == ((1, 2, 4), (10, 20), (5, 7, 8))
        assert list(small_space.grid(2))[:3] == [
            {"a": 1, "b": 10, "c": 5},
            {"a": 1, "b": 10, "c": 8},
            {"a": 1, "b": 20, "c": 5},
        ]

    def test_grid_full_resolution(self, small_space):
        assert len(list(small_space.grid(10))) == small_space.size

    def test_grid_rejects_bad_arg(self, small_space):
        with pytest.raises(ValueError):
            list(small_space.grid(0))


@settings(max_examples=50)
@given(data=st.data())
def test_index_roundtrip_property(data):
    axes = data.draw(
        st.lists(
            st.lists(st.integers(0, 100), min_size=1, max_size=6, unique=True),
            min_size=1,
            max_size=5,
        )
    )
    params = [
        Parameter(f"p{i}", tuple(sorted(vals))) for i, vals in enumerate(axes)
    ]
    space = DesignSpace(params)
    indices = tuple(
        data.draw(st.integers(0, p.cardinality - 1)) for p in params
    )
    point = space.from_indices(indices)
    assert space.to_indices(point) == indices


def test_edge_space_matches_table1(edge_space):
    """Table 1: 7*8*7*10*16 options plus 64^4 x 4^4 NoC settings."""
    assert edge_space.parameter("pes").cardinality == 7
    assert edge_space.parameter("l1_bytes").cardinality == 8
    assert edge_space.parameter("l2_kb").cardinality == 7
    assert edge_space.parameter("offchip_bw_mbps").cardinality == 10
    assert edge_space.parameter("noc_datawidth").cardinality == 16
    for op in ("I", "W", "O", "PSUM"):
        assert edge_space.parameter(f"phys_unicast_{op}").cardinality == 64
        assert edge_space.parameter(f"virt_unicast_{op}").values == (
            1,
            8,
            64,
            512,
        )
    expected = 7 * 8 * 7 * 10 * 16 * 64**4 * 4**4
    assert edge_space.size == expected
