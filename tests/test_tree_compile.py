"""Equivalence and memoization tests for compiled bottleneck trees.

The contract under test: with ``REPRO_TREE_COMPILE`` on or off, every
tree evaluates to *bit-identical* values — the compiled postfix program
replays the recursive walk's exact operation order, so even rounding
behaviour matches.  The structure memo must hit for structurally equal
trees regardless of leaf values, and the counters must surface through
``CostEvaluator.perf_summary()``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bottleneck import compile as tree_compile
from repro.core.bottleneck.analyzer import analyze_tree
from repro.core.bottleneck.tree import (
    Node,
    NodeOp,
    add,
    div,
    leaf,
    maximum,
    mul,
)
from repro.verify.invariants import check_tree, recompute_value

from tests.test_verify_invariants import (
    _MutantNode,
    _mutate_node,
    _sample_tree,
)


def _recursive_value(node: Node) -> float:
    """The recursive reference walk, independent of ``Node.value``."""
    if node.op is NodeOp.LEAF:
        return float(node.raw_value)
    values = [_recursive_value(child) for child in node.children]
    if node.op is NodeOp.MAX:
        return max(values)
    if node.op is NodeOp.ADD:
        return sum(values)
    if node.op is NodeOp.MUL:
        acc = 1.0
        for value in values:
            acc *= value
        return acc
    numerator, denominator = values
    if denominator == 0:
        return math.inf
    return numerator / denominator


# -- random tree strategy ------------------------------------------------------

_leaf_values = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


def _tree_strategy() -> st.SearchStrategy:
    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        lists = st.lists(children, min_size=1, max_size=4)
        return st.one_of(
            st.builds(lambda cs: add("a", cs), lists),
            st.builds(lambda cs: mul("m", cs), lists),
            st.builds(lambda cs: maximum("x", cs), lists),
            st.builds(lambda n, d: div("d", n, d), children, children),
        )

    return st.recursive(
        st.builds(lambda v: leaf("l", v), _leaf_values), extend, max_leaves=24
    )


class TestCompiledEquivalence:
    @given(tree=_tree_strategy())
    @settings(max_examples=120, deadline=None)
    def test_compiled_matches_recursive_walk(self, tree):
        def same(a, b):
            # bit-identical incl. inf; nan==nan (inf/inf in both paths)
            return a == b or (math.isnan(a) and math.isnan(b))

        compiled = tree_compile.evaluate_node(tree)
        assert same(compiled, _recursive_value(tree))
        # id-keyed bulk evaluation agrees on every node, not just the root
        values = tree_compile.evaluate_all(tree)
        for node in tree.walk():
            assert same(values[id(node)], _recursive_value(node))

    def test_division_by_zero_is_inf_exactly(self):
        tree = div("d", leaf("n", 5.0), leaf("z", 0.0))
        assert tree_compile.evaluate_node(tree) == math.inf

    def test_node_value_identical_across_knob(self, monkeypatch):
        tree = _sample_tree()
        monkeypatch.setenv("REPRO_TREE_COMPILE", "0")
        recursive = [node.value for node in tree.walk()]
        monkeypatch.setenv("REPRO_TREE_COMPILE", "1")
        compiled = [node.value for node in tree.walk()]
        assert recursive == compiled

    def test_analyze_tree_identical_across_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_TREE_COMPILE", "0")
        recursive = [
            (f.path, f.contribution, f.scaling)
            for f in analyze_tree(_sample_tree())
        ]
        monkeypatch.setenv("REPRO_TREE_COMPILE", "1")
        compiled = [
            (f.path, f.contribution, f.scaling)
            for f in analyze_tree(_sample_tree())
        ]
        assert recursive == compiled


class TestMutantDetectionUnderCompile:
    """The compiled path must not mask the invariant checker: every
    seeded combinator mutant of the verify mutation harness stays caught
    with ``REPRO_TREE_COMPILE=1`` (``recompute_value`` is deliberately
    recursive, so compiled evaluation is cross-checked independently)."""

    def test_every_seeded_mutant_still_caught(self, monkeypatch):
        monkeypatch.setenv("REPRO_TREE_COMPILE", "1")
        honest = _sample_tree()
        internal = [n for n in honest.walk() if n.op is not NodeOp.LEAF]
        for target in internal:
            mutant_tree = _mutate_node(honest, target)
            assert mutant_tree.find(target.name).value != target.value
            violations = check_tree(mutant_tree)
            assert violations, f"mutant at {target.name!r} not caught"

    def test_recompute_value_stays_recursive_reference(self, monkeypatch):
        """``recompute_value`` must agree with the compiled walk on an
        honest tree (that agreement is what catches mutants)."""
        monkeypatch.setenv("REPRO_TREE_COMPILE", "1")
        tree = _sample_tree()
        for node in tree.walk():
            assert recompute_value(node) == node.value

    def test_mutant_subclass_value_wins_over_compile(self, monkeypatch):
        """A ``value`` override on a Node subclass is honored: compiled
        evaluation reads ``node.value``-equivalent semantics only for
        plain nodes."""
        monkeypatch.setenv("REPRO_TREE_COMPILE", "1")
        mutant = _MutantNode(
            name="x",
            op=NodeOp.MAX,
            children=(leaf("a", 1.0), leaf("b", 9.0)),
            raw_value=None,
        )
        assert mutant.value == 1.0  # min(), per the mutant's perturbation


class TestStructureMemo:
    def setup_method(self):
        # the memo is process-global; start each test from a blank slate
        tree_compile.clear_memo()
        tree_compile.reset_stats()

    def test_same_structure_different_leaves_hits(self):
        first = add("s", [leaf("a", 1.0), mul("p", [leaf("b", 2.0), leaf("c", 3.0)])])
        second = add("s", [leaf("a", 8.0), mul("p", [leaf("b", 5.0), leaf("c", 7.0)])])
        tree_compile.evaluate_node(first)
        stats = tree_compile.stats()
        assert stats.misses == 1
        tree_compile.evaluate_node(second)
        assert stats.misses == 1  # structure memo hit despite new leaves
        assert stats.hits == 1
        assert tree_compile.evaluate_node(second) == 43.0

    def test_different_structure_misses(self):
        tree_compile.evaluate_node(add("s", [leaf("a", 1.0), leaf("b", 2.0)]))
        before = tree_compile.stats().misses
        tree_compile.evaluate_node(
            mul("p", [leaf("a", 1.0), leaf("b", 2.0), leaf("c", 3.0)])
        )
        assert tree_compile.stats().misses == before + 1

    def test_hit_rate_and_reset(self):
        tree_compile.reset_stats()
        tree = add("s", [leaf("a", 1.0)])
        tree_compile.evaluate_node(tree)
        tree_compile.evaluate_node(tree)
        stats = tree_compile.stats()
        assert 0.0 < stats.hit_rate <= 1.0
        assert stats.evaluations == 2
        tree_compile.reset_stats()
        assert tree_compile.stats().evaluations == 0


class TestPerfSummaryCounters:
    def test_enabled_tracks_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_TREE_COMPILE", "0")
        assert not tree_compile.enabled()
        monkeypatch.setenv("REPRO_TREE_COMPILE", "1")
        assert tree_compile.enabled()
