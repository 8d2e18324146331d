"""Local depth and tree-height estimation.

Each node keeps a depth estimate ``d`` and a height estimate ``h``, both 0
at start. On an interaction along an existing edge the child refreshes its
depth from the parent (rule UD); on every interaction both nodes adopt the
max of their height and depth estimates (rule UH). Whatever stale values
circulate while the tree is still growing, depths can only lag behind the
true (final) depths, so the max rule never locks in an overshoot and both
registers stabilize to the true values once the tree is complete.
"""

from __future__ import annotations

from collections import deque

from .core import Population, TreeNetwork
from .errors import DomainError
from .formation import is_formation_complete


def apply_estimation_rules(pop: Population, u: int, v: int) -> None:
    """Fire UD (edge pairs only) and then UH (every pair) on (u, v)."""
    d = pop.d
    h = pop.h
    parent = pop.network.parent
    if parent[v] == u:
        d[v] = d[u] + 1
    elif parent[u] == v:
        d[u] = d[v] + 1
    m = h[u]
    if h[v] > m:
        m = h[v]
    if d[u] > m:
        m = d[u]
    if d[v] > m:
        m = d[v]
    h[u] = m
    h[v] = m


def true_depths(network: TreeNetwork) -> tuple[list[int], int]:
    """BFS oracle: (depth per node, tree height) of a completed tree."""
    if not is_formation_complete(network):
        raise DomainError("depth oracle needs a completed spanning tree")
    if network.n == 1:
        return [0], 0
    root = network.roots()[0]
    depth = [-1] * network.n
    depth[root] = 0
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for child in network.children[node]:
            depth[child] = depth[node] + 1
            queue.append(child)
    return depth, max(depth)


def estimation_stabilized(pop: Population) -> bool:
    """True once every depth estimate equals the BFS depth and every height
    estimate equals the tree height. Simulator-side oracle only."""
    depth, height = true_depths(pop.network)
    return pop.d == depth and all(h == height for h in pop.h)


class UnsettledNodes:
    """How many nodes of a completed tree hold a ``d`` or ``h`` other than
    its final value, kept up to date one interaction at a time: 0 exactly
    when ``estimation_stabilized`` holds. Settling is absorbing: once every
    register is final, UD and UH only rewrite final values."""

    __slots__ = ("d", "h", "depth", "height", "off", "count")

    def __init__(self, pop: Population):
        self.depth, self.height = true_depths(pop.network)
        self.d, self.h = pop.d, pop.h
        self.off = [d != t or h != self.height for d, h, t in zip(self.d, self.h, self.depth)]
        self.count = sum(self.off)

    def update(self, u: int, v: int) -> None:
        """Re-check u and v after an interaction between them."""
        for x in (u, v):
            off = self.d[x] != self.depth[x] or self.h[x] != self.height
            if off != self.off[x]:
                self.off[x] = off
                self.count += 1 if off else -1
