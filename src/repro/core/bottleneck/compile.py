"""Postfix-compiled evaluation of bottleneck trees.

The recursive ``Node.value`` walk re-enters the interpreter once per
node *per evaluation*, and the analyzer's contribution pass reads every
child's value at every level — O(nodes x depth) recursive evaluations
per analyzed tree, repeated for every feasible layer of every DSE
attempt.  This module compiles a tree's *structure* (the combinator
kinds and arities, independent of leaf values) into a flat postfix
program — parallel op/arity tuples in post-order — that an explicit
value stack executes without Python recursion:

* :func:`evaluate_node` — the compiled twin of ``Node.value`` (one
  linear pass over the subtree);
* :func:`evaluate_all` — every node's value in a single pass, keyed by
  node identity (what the analyzer consumes: O(nodes) instead of
  O(nodes x depth)).

Exactness contract (asserted by ``tests/test_tree_compile.py``): the
compiled evaluation replicates the recursive walk's *operation order* —
``sum()`` over children for ADD (including its integer-zero start),
left-to-right running product from ``1.0`` for MUL, first-maximal
``max()`` for MAX, and the division-by-zero -> ``inf`` rule for DIV —
so results are bitwise identical, NaN propagation included.

Programs are memoized by structure (trees are rebuilt per layer per DSE
attempt, but their shapes repeat campaign-wide — the same hazard
``padded_bounds`` memoization addressed for layer bounds); :func:`stats`
holds the memo's process-wide hit/miss counters.  The knob is
``REPRO_TREE_COMPILE`` (default on; ``0`` selects the recursive
reference walk — the verify differential runs its reference campaigns
that way).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.perf.knobs import tree_compile_enabled

__all__ = [
    "CompiledTreeProgram",
    "TreeCompileStats",
    "enabled",
    "compile_tree",
    "evaluate_node",
    "evaluate_all",
    "stats",
    "reset_stats",
]

#: Opcodes of the flat program (indexable without enum dispatch).
OP_LEAF = 0
OP_MAX = 1
OP_ADD = 2
OP_MUL = 3
OP_DIV = 4

_OPCODE_BY_NAME = {
    "leaf": OP_LEAF,
    "max": OP_MAX,
    "add": OP_ADD,
    "mul": OP_MUL,
    "div": OP_DIV,
}

#: Structure-memo safety valve: tree shapes in a campaign number in the
#: dozens; wholesale reset at this bound prevents pathological callers
#: (e.g. fuzzers generating unbounded random shapes) from leaking.
_MEMO_LIMIT = 4096


class TreeCompileStats:
    """Process-wide counters of the structure memo and evaluations.

    Plain attributes only (mirrors
    :class:`repro.perf.instrumentation.BatchEvalStats`).  The memo is
    process-global, so successive campaigns in one process observe
    different hit counts; no journal records these counters.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.compiled = 0
        self.evaluations = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.__init__()


class CompiledTreeProgram:
    """One tree structure as parallel postfix op/arity tuples.

    ``ops[i]``/``arities[i]`` describe the i-th node of the post-order
    walk; executing positions left to right over a value stack yields
    every subtree value with the final entry being the root's.
    """

    __slots__ = ("ops", "arities", "structure")

    def __init__(
        self,
        ops: Tuple[int, ...],
        arities: Tuple[int, ...],
        structure: Tuple[int, ...],
    ):
        self.ops = ops
        self.arities = arities
        self.structure = structure

    def __len__(self) -> int:
        return len(self.ops)


_STATS = TreeCompileStats()
_MEMO: Dict[Tuple[int, ...], CompiledTreeProgram] = {}
_MEMO_LOCK = threading.Lock()


def enabled() -> bool:
    """Whether compiled evaluation is selected (``REPRO_TREE_COMPILE``)."""
    return tree_compile_enabled()


def stats() -> TreeCompileStats:
    """The process-wide compile/evaluation counters."""
    return _STATS


def reset_stats() -> None:
    """Zero the counters (the program memo is retained)."""
    _STATS.reset()


def clear_memo() -> None:
    """Drop every memoized program (tests; the memo refills on demand)."""
    with _MEMO_LOCK:
        _MEMO.clear()


def _postorder(root) -> List[object]:
    """Iterative post-order node list (children before parents,
    left-to-right) — no Python recursion, by design."""
    preorder_reversed: List[object] = []
    stack = [root]
    while stack:
        node = stack.pop()
        preorder_reversed.append(node)
        stack.extend(node.children)
    preorder_reversed.reverse()
    return preorder_reversed


def compile_tree(root) -> Tuple[CompiledTreeProgram, List[object]]:
    """Compile (or fetch the memoized program for) ``root``'s structure.

    Returns ``(program, postorder_nodes)``; the program aligns
    position-for-position with the post-order walk of *any* tree sharing
    the structure, so memoized programs are reusable across the
    per-attempt tree rebuilds.
    """
    nodes = _postorder(root)
    structure: List[int] = []
    for node in nodes:
        structure.append(_OPCODE_BY_NAME[node.op.value])
        structure.append(len(node.children))
    key = tuple(structure)
    program = _MEMO.get(key)
    if program is not None:
        _STATS.hits += 1
        return program, nodes
    _STATS.misses += 1
    ops = key[0::2]
    arities = key[1::2]
    program = CompiledTreeProgram(ops, arities, key)
    with _MEMO_LOCK:
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[key] = program
        _STATS.compiled = len(_MEMO) if _STATS.compiled < len(_MEMO) else (
            _STATS.compiled + 1
        )
    return program, nodes


def _execute(program: CompiledTreeProgram, nodes: List[object]) -> List[float]:
    """Run the flat program over ``nodes``'s leaf values; returns the
    value at every post-order position (the root is last)."""
    values: List[float] = []
    stack: List[float] = []
    append = stack.append
    for position, opcode in enumerate(program.ops):
        if opcode == OP_LEAF:
            value = float(nodes[position].raw_value)
        else:
            arity = program.arities[position]
            args = stack[-arity:]
            del stack[-arity:]
            if opcode == OP_MAX:
                value = max(args)
            elif opcode == OP_ADD:
                value = sum(args)
            elif opcode == OP_MUL:
                value = 1.0
                for arg in args:
                    value *= arg
            else:  # OP_DIV
                numerator, denominator = args
                value = (
                    float("inf") if denominator == 0
                    else numerator / denominator
                )
        append(value)
        values.append(value)
    return values


def evaluate_node(root) -> float:
    """Compiled twin of the recursive ``Node.value`` walk."""
    program, nodes = compile_tree(root)
    _STATS.evaluations += 1
    return _execute(program, nodes)[-1]


def evaluate_all(root) -> Dict[int, float]:
    """Every subtree value of ``root`` in one pass, keyed by ``id(node)``.

    The analyzer's contribution pass reads child values at every level;
    this gives it the whole tree's values for the cost of a single
    evaluation.  Keys are identities, so the map is only valid while the
    tree object is alive (the analyzer's scope).
    """
    program, nodes = compile_tree(root)
    _STATS.evaluations += 1
    values = _execute(program, nodes)
    return {id(node): value for node, value in zip(nodes, values)}
