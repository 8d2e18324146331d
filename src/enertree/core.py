"""Node state model, tree network structure, and energy-distribution predicates.

Nodes carry dense integer ids 0..n-1. A node's role (isolated / leaf /
internal / root) is fully determined by the parent/children adjacency;
``classify`` is the canonical derivation and doubles as the testing oracle
for the incremental state kept by the formation rules.

Energy is a float vector in abstract units plus a cumulative ``lost``
counter, so that ``sum(per_node) + lost == initial_total`` holds (to
relative 1e-9) after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

from .errors import DomainError, InvariantError

# Repo-wide relative tolerance for energy equality and conservation checks.
REL_TOL = 1e-9

# Slack for the strict-inequality firing conditions of the redistribution
# protocols. It exists to keep fixed points quiet against float jitter
# (~2e-16 relative), and must stay well below REL_TOL: per-edge residuals it
# leaves behind accumulate into the distribution distance, which has to fall
# below 1e-9 of the total for convergence detection.
CONDITION_SLACK = 1e-12

# Largest energy a node may start with, so that sums and multiples of
# energies (distances, exchange ratios) stay finite floats.
MAX_ENERGY = 1e300


def strictly_greater(a: float, b: float, tol: float = CONDITION_SLACK) -> bool:
    """True if ``a > b`` by more than ``tol`` relative to their magnitude."""
    return a - b > tol * max(abs(a), abs(b))


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=0.0)


def spec_text(spec, what: str) -> str:
    """A spec, stripped and lower-cased; DomainError unless it is a string
    (a config's null or number is not a spec)."""
    if not isinstance(spec, str):
        raise DomainError(f"{what} must be a string (got {spec!r})")
    return spec.strip().lower()


def spec_numbers(spec: str, what: str, count: int, cast=float) -> list:
    """The ``count`` comma-separated parameters after the colon of a
    ``name:p1,p2`` spec; DomainError unless each is a finite ``cast``."""
    try:
        values = [cast(x) for x in spec.split(":", 1)[1].split(",")]
        ok = len(values) == count and all(math.isfinite(x) for x in values)
    except (ValueError, OverflowError):  # an int too large for a float overflows
        ok = False
    if not ok:
        raise DomainError(f"cannot parse {what} {spec!r}")
    return values


class NodeKind(Enum):
    ISOLATED = "S"
    LEAF = "L"
    INTERNAL = "I"
    ROOT = "R"


@dataclass(frozen=True)
class NodeState:
    """Role of a node plus its child count (0 for isolated/leaf)."""

    kind: NodeKind
    children: int = 0

    def token(self) -> str:
        """Compact snapshot token: S, L, I<c>, R<c>."""
        if self.kind in (NodeKind.ISOLATED, NodeKind.LEAF):
            return self.kind.value
        return f"{self.kind.value}{self.children}"


class TreeNetwork:
    """Parent/children adjacency over node ids with structural guards.

    ``parent`` uses -1 for "no parent". ``add_edge`` refuses mutations that
    would give a node a second parent, create a cycle, or exceed the arity
    bound, so any sequence of successful calls keeps the network a forest.
    Children lists are ordered by attachment time (reproducible traces; the
    order carries no protocol meaning).
    """

    __slots__ = ("n", "arity_bound", "parent", "children", "edge_count")

    def __init__(self, n: int, arity_bound: Optional[int] = None):
        if n < 1:
            raise DomainError("network needs at least one node")
        if arity_bound is not None and arity_bound < 2:
            raise DomainError("arity bound must be >= 2")
        self.n = n
        self.arity_bound = arity_bound
        self.parent: list[int] = [-1] * n
        self.children: list[list[int]] = [[] for _ in range(n)]
        self.edge_count = 0

    def _check_id(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise DomainError(f"unknown node id {v}")

    def add_edge(self, parent: int, child: int) -> None:
        self._check_id(parent)
        self._check_id(child)
        if parent == child:
            raise InvariantError("self edge")
        if self.parent[child] != -1:
            raise InvariantError(f"node {child} already has a parent")
        k = self.arity_bound
        if k is not None and len(self.children[parent]) >= k:
            raise InvariantError(f"node {parent} already has {k} children")
        # Walking parent->root must not meet the child, else this edge closes
        # a cycle. The walk is bounded by n steps on any forest.
        cur = parent
        for _ in range(self.n):
            if cur == child:
                raise InvariantError("edge would create a cycle")
            cur = self.parent[cur]
            if cur == -1:
                break
        else:
            raise InvariantError("parent chain does not terminate")
        self.parent[child] = parent
        self.children[parent].append(child)
        self.edge_count += 1

    def root_of(self, v: int) -> int:
        self._check_id(v)
        cur = v
        for _ in range(self.n):
            p = self.parent[cur]
            if p == -1:
                return cur
            cur = p
        raise InvariantError("parent chain does not terminate")

    def roots(self) -> list[int]:
        """Nodes with children but no parent."""
        return [
            i
            for i in range(self.n)
            if self.parent[i] == -1 and self.children[i]
        ]

    def isolated(self) -> list[int]:
        return [
            i
            for i in range(self.n)
            if self.parent[i] == -1 and not self.children[i]
        ]

    def edges(self) -> Iterator[tuple[int, int]]:
        for p in range(self.n):
            for c in self.children[p]:
                yield p, c

    def validate(self) -> None:
        """Full invariant sweep; raises InvariantError on any violation."""
        count = 0
        for p in range(self.n):
            for c in self.children[p]:
                count += 1
                if self.parent[c] != p:
                    raise InvariantError(f"children/parent maps disagree at {p}->{c}")
            if self.arity_bound is not None and len(self.children[p]) > self.arity_bound:
                raise InvariantError(f"node {p} exceeds arity bound")
        if count != self.edge_count:
            raise InvariantError("edge count out of sync")
        for v in range(self.n):
            self.root_of(v)  # raises if a cycle is reachable


def classify(network: TreeNetwork, node_id: int) -> NodeState:
    """Derive a node's state from the adjacency (the testing oracle)."""
    network._check_id(node_id)
    has_parent = network.parent[node_id] != -1
    nchildren = len(network.children[node_id])
    if not has_parent and nchildren == 0:
        return NodeState(NodeKind.ISOLATED)
    if has_parent and nchildren == 0:
        return NodeState(NodeKind.LEAF)
    if has_parent:
        return NodeState(NodeKind.INTERNAL, nchildren)
    return NodeState(NodeKind.ROOT, nchildren)


def is_spanning_tree(network: TreeNetwork) -> bool:
    """True if the network is one completed tree over all nodes: n-1 edges,
    exactly one root, no isolated nodes (a single node counts as complete)."""
    if network.n == 1:
        return network.edge_count == 0
    return (
        network.edge_count == network.n - 1
        and len(network.roots()) == 1
        and not network.isolated()
    )


class DistributionKind(Enum):
    EXACT = "exact"
    RELAXED = "relaxed"
    EXACT_UP_TO_ROOT = "exact_up_to_root"


def check_distribution(
    network: TreeNetwork,
    energy: "EnergyState",
    kind: DistributionKind,
    tol: float = REL_TOL,
) -> bool:
    """Check a parent/child energy predicate over a completed tree.

    EXACT: every parent holds exactly twice each child's energy (within
    ``tol`` relative). RELAXED: every parent holds at least twice each
    child's energy, with slack ``tol * E_parent``. EXACT_UP_TO_ROOT: EXACT
    restricted to pairs whose parent is not the root.
    """
    if not is_spanning_tree(network):
        raise DomainError("distribution checks need a completed spanning tree")
    e = energy.per_node
    for p, c in network.edges():
        if kind is DistributionKind.EXACT_UP_TO_ROOT and network.parent[p] == -1:
            continue
        if kind is DistributionKind.RELAXED:
            if e[p] - 2.0 * e[c] < -tol * e[p]:
                return False
        else:
            if not rel_close(e[p], 2.0 * e[c], tol):
                return False
    return True


class EnergyState:
    """Per-node energy vector plus cumulative lost energy.

    ``initial_total`` is measured at construction; every transfer keeps
    ``sum(per_node) + lost`` equal to it up to float rounding.
    """

    __slots__ = ("per_node", "lost", "initial_total")

    def __init__(self, per_node: Sequence[float]):
        for e in per_node:
            if not 0 <= e <= MAX_ENERGY:
                raise DomainError(f"initial energy must be finite, >= 0 and <= 1e300 (got {e!r})")
        self.per_node: list[float] = list(per_node)
        self.lost: float = 0.0
        self.initial_total: float = math.fsum(self.per_node)

    @property
    def n(self) -> int:
        return len(self.per_node)

    def total(self) -> float:
        return math.fsum(self.per_node)

    def transfer(self, sender: int, receiver: int, amount: float, beta: float = 0.0) -> None:
        """Move ``amount`` out of ``sender``; ``receiver`` gets (1-beta) of it
        and ``beta * amount`` is destroyed."""
        e = self.per_node
        e[sender] -= amount
        e[receiver] += (1.0 - beta) * amount
        if beta:
            self.lost += beta * amount

    def conservation_ok(self, tol: float = REL_TOL) -> bool:
        ref = max(abs(self.initial_total), 1.0)
        return abs(self.total() + self.lost - self.initial_total) <= tol * ref


class Population:
    """One simulation's full state: adjacency, registers, and energy."""

    __slots__ = ("network", "w", "d", "h", "energy")

    def __init__(
        self,
        network: TreeNetwork,
        energy: EnergyState,
        w: Optional[Sequence[int]] = None,
        d: Optional[Sequence[int]] = None,
        h: Optional[Sequence[int]] = None,
        fresh: bool = True,
    ):
        n = network.n
        if energy.n != n:
            raise DomainError("energy vector does not match node count")
        self.network = network
        self.energy = energy
        self.w: list[int] = list(w) if w is not None else list(range(n))
        self.d: list[int] = list(d) if d is not None else [0] * n
        self.h: list[int] = list(h) if h is not None else [0] * n
        if len(self.w) != n or len(self.d) != n or len(self.h) != n:
            raise DomainError("register vectors do not match node count")
        # keys are only required to be unique before any diffusion happened;
        # reloaded mid-run states may hold duplicates
        if fresh and len(set(self.w)) != n:
            raise DomainError("merge keys must be unique at initialization")

    @property
    def n(self) -> int:
        return self.network.n
