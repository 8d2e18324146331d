"""The active-pair mask: the oriented pairs whose interaction can change the
state of a run with a completed tree.

Every other pair is idle: its step changes no register, no edge and no
energy, and draws nothing from the generator beyond the pair itself. So
``RandomScheduler.skip`` may draw through those pairs and the engine runs a
full step only on a pair in the mask. The rows are in ``skip``'s layout (row
u, column v as drawn from [0, n - 1), before the shift past u) and hold, per
oriented pair, how many rule families other than UH claim it; a nonzero
entry is a stop. UH is not written into the rows: ``key`` mirrors ``h``,
and while ``uh`` (the ordered pairs whose keys differ) is nonzero the engine
hands ``key`` to ``skip``, which also stops where two keys differ. ``uh`` is
kept from the count of nodes per key, n(n - 1) less the sum of c(c - 1) over
the counts c, so a change of ``h`` costs O(1). ``count`` is the rows' sum.
The engine reads it only in redistribution, where the estimates have
settled, so every ``h`` is the tree height and ``uh`` is 0.

The families, on a completed tree:

* UD (depth) and UW (merge key, k-ary only): a tree edge whose child's
  ``d`` is not its parent's plus one, or whose child's key is not its
  parent's.
* An edge energy protocol: ``lambda`` and ``kappa`` hold a tree edge while
  its parent holds less than their ratio times its child's energy
  (``energy.below_ratio``, the test their move makes; see ``fire_edges``);
  ``rand`` pins every tree edge, since it draws its ratio on each edge
  interaction.
* UH (height): nodes whose ``h`` differ (by key, not in the rows).
* A targeted energy protocol: nodes above and below their targets, by the
  protocols' own ``strictly_greater`` test, and a buffer node while it
  holds energy (see ``track_targets``).

The mask covers only the states the rules reach from fresh registers and
merge keys (``reachable``): every ``d`` is at most its ``h``, and under the
k-ary rules no key is below the root's. There, a pair of nodes with one
``h`` is idle under UH, and no node can capture the root. Every rule keeps
both conditions: UH raises both ``h`` to the pair's largest ``d`` or ``h``
right after UD, and a tree edge only copies its parent's key, which is at
least the root's, onto the child. A skipped pair changes nothing. So a mask
built on a reachable state stays exact for the rest of the run, and the
engine takes the step path on any other state.

UD, UW and UH are the structural families; ``structural`` counts what they
claim (a tree edge once, a pair of nodes with different ``h`` once). While
it is 0 no formation or estimation rule can act on any pair, and no step
changes that, so the engine runs only the energy move at a stop.

On a reachable state the pair alone says what a step on (u, v) can
change: on a tree edge with child c, UD and UW write ``d`` and ``w`` of c
alone; UH writes ``h`` of u and v, which the mask mirrors in ``key``; the
move writes the energies of u and v; and while ``structural`` is 0 no
register changes. So ``refresh`` re-tests, in O(n), c's edge and its child
edges, and after a move under ``lambda`` or ``kappa`` the edges of c's
parent too (each edge once), and re-keys, in O(1), a node whose ``h`` is
not its key. Over-approximating is safe: a stop at an idle pair costs one
full step and never changes a byte.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from .core import CONDITION_SLACK, Population, strictly_greater
from .energy import below_ratio
from .formation import KARY, FormationProtocol


def reachable(pop: Population, kary: bool) -> bool:
    """Whether a completed tree is in a state the rules reach from fresh
    registers and merge keys, the states the mask covers: every ``d`` is at
    most its ``h`` and, under the k-ary rules, no key is below the root's."""
    if any(d > h for d, h in zip(pop.d, pop.h)):
        return False
    return not kary or min(pop.w) >= pop.w[pop.network.roots()[0]]


class ActivePairs:
    __slots__ = (
        "rows", "count", "structural", "uh", "parent", "children", "root", "d", "h", "w", "e",
        "key", "heights", "edge_on", "bent", "pinned", "ratio", "uw", "targets", "one_way",
        "side", "above", "below", "buffers",
    )

    def __init__(
        self,
        pop: Population,
        formation: Optional[FormationProtocol],
        protocol=None,
        draws=None,
    ):
        """The mask of a completed tree: formation and estimation rules,
        plus ``protocol``'s pairs when the energy protocol is running."""
        net = pop.network
        n = net.n
        self.parent = net.parent
        self.children = net.children
        self.root = net.roots()[0]
        self.d, self.h, self.w = pop.d, pop.h, pop.w
        self.e = pop.energy.per_node
        self.key = list(self.h)
        self.heights = Counter(self.key)  # nodes per key
        self.uh = n * (n - 1) - sum(c * (c - 1) for c in self.heights.values())
        self.rows = [bytearray(n - 1) for _ in range(n)]
        self.count = 0
        self.structural = self.uh // 2
        # UW fires only under the k-ary rules
        self.uw = formation is not None and formation.kind == KARY
        self.pinned = False
        self.ratio: Optional[float] = None
        self.targets: Optional[Sequence[Optional[float]]] = None
        if protocol is not None:
            protocol.mark_active(self, pop, draws)
        self.edge_on = [False] * n
        self.bent = [False] * n  # by child: a UD or UW edge
        for x in range(n):
            if x != self.root:
                self._edge(x)

    # -- what energy protocols contribute -----------------------------------
    def pin_edges(self) -> None:
        """Keep every tree edge active, in both orientations."""
        self.pinned = True

    def fire_edges(self, ratio: float) -> None:
        """Keep a tree edge active, in both orientations, while
        ``below_ratio(E_p, E_c, ratio)`` holds on its parent p and child c."""
        self.ratio = ratio

    def track_targets(self, targets: Sequence[Optional[float]], one_way: bool) -> None:
        """Pairs of a node strictly above its target and one strictly below
        it: in that orientation only if ``one_way``, else in both. A node
        whose target is None is a buffer: while it holds energy it is active
        with every node off its target, in both orientations (what a buffer
        pays or absorbs is capped by its own energy)."""
        self.targets = targets
        self.one_way = one_way
        self.side = [0] * len(targets)
        self.above: set[int] = set()
        self.below: set[int] = set()
        self.buffers: list[int] = []  # the buffers holding energy
        for x in range(len(targets)):
            self._side(x)

    # -- upkeep -------------------------------------------------------------
    def refresh(self, u: int, v: int, moved: float) -> None:
        """Bring the mask up to date after a step on (u, v) that moved
        ``moved`` (see the module docstring for what it can have changed)."""
        parent, children = self.parent, self.children
        structural = self.structural  # as the stop saw it; _edge may change it
        if moved and self.ratio is not None:  # an edge protocol moved on the tree edge (u, v)
            c = u if parent[u] == v else v
            p = parent[c]
            edges = children[p] + children[c]  # every edge at p or c, by child, each once
            if p != self.root:
                edges += (p,)
        elif structural and (parent[u] == v or parent[v] == u):
            c = u if parent[u] == v else v
            edges = children[c] + [c]
        else:
            edges = ()
        if structural:
            for c in edges:
                self._edge(c)
            key, h = self.key, self.h
            if h[u] != key[u]:
                self._rekey(u)
            if h[v] != key[v]:
                self._rekey(v)
        elif edges:  # no edge is bent: test the energy family alone
            # below_ratio and _pair, written out (one frame per stop)
            e, ratio, edge_on, rows = self.e, self.ratio, self.edge_on, self.rows
            for c in edges:
                p = parent[c]
                a = ratio * e[c]
                on = a - e[p] > CONDITION_SLACK * a
                if on != edge_on[c]:
                    edge_on[c] = on
                    delta = 1 if on else -1
                    rows[p][c - (c > p)] += delta
                    rows[c][p - (p > c)] += delta
                    self.count += 2 * delta
        if moved and self.targets is not None:
            self._side(u)
            self._side(v)

    def _one(self, u: int, v: int, delta: int) -> None:
        self.rows[u][v - (v > u)] += delta
        self.count += delta

    def _pair(self, u: int, v: int, delta: int) -> None:
        self.rows[u][v - (v > u)] += delta
        self.rows[v][u - (u > v)] += delta
        self.count += 2 * delta

    def _edge(self, c: int) -> None:
        p = self.parent[c]
        bent = self.d[c] != self.d[p] + 1 or (self.uw and self.w[c] != self.w[p])
        if bent != self.bent[c]:
            self.bent[c] = bent
            self.structural += 1 if bent else -1
        on = (
            bent
            or self.pinned
            or (self.ratio is not None and below_ratio(self.e[p], self.e[c], self.ratio))
        )
        if on != self.edge_on[c]:
            self.edge_on[c] = on
            self._pair(p, c, 1 if on else -1)

    def _rekey(self, x: int) -> None:
        key, heights = self.key, self.heights
        old = key[x]
        new = key[x] = self.h[x]
        heights[old] -= 1
        # x now differs from the nodes left under its old key and no longer
        # from those under its new one, in both orientations.
        gained = heights[old] - heights[new]
        heights[new] += 1
        self.uh += 2 * gained
        self.structural += gained

    def _side(self, x: int) -> None:
        z = self.targets[x]
        if z is None:
            self._buffer(x)
            return
        ex = self.e[x]
        new = 1 if strictly_greater(ex, z) else -1 if strictly_greater(z, ex) else 0
        old = self.side[x]
        if new == old:
            return
        if old:
            self._side_pairs(x, old, -1)
            (self.above if old > 0 else self.below).discard(x)
        self.side[x] = new
        if new:
            self._side_pairs(x, new, 1)
            (self.above if new > 0 else self.below).add(x)

    def _side_pairs(self, x: int, side: int, delta: int) -> None:
        if self.one_way:
            if side > 0:
                for y in self.below:
                    self._one(x, y, delta)
            else:
                for y in self.above:
                    self._one(y, x, delta)
        else:
            for y in self.below if side > 0 else self.above:
                self._pair(x, y, delta)
        for b in self.buffers:
            self._pair(b, x, delta)

    def _buffer(self, b: int) -> None:
        on = self.e[b] > 0.0
        if on == (b in self.buffers):
            return
        delta = 1 if on else -1
        for y in self.above | self.below:
            self._pair(b, y, delta)
        if on:
            self.buffers.append(b)
        else:
            self.buffers.remove(b)
