"""Tree-formation protocols driven by pairwise interactions.

Two families are implemented. The arbitrary-tree protocol connects a pair by
making the first node of the oriented pair the parent whenever the pair is
(isolated, isolated) or (root, root); otherwise the unique qualifying parent
is determined by the states:

    SS  (S, S)        -> (R1, L)   first of the oriented pair becomes parent
    RS  (R, S)        -> (R, L)    root gains a child
    IS  (I, S)        -> (I, L)
    LS  (L, S)        -> (I1, L)
    RR  (R, R)        -> (R, I)    first of the oriented pair becomes parent

The k-ary family bounds every node to k children and only lets a node u
capture a root v when u has spare capacity and u's merge key is strictly
smaller (w_u < w_v). Merge keys start as a random permutation of 0..n-1 and
diffuse downward: on every interaction along an existing parent-child edge,
and immediately when an edge is created, the child copies the parent's key
(rule UW). Keys inside a tree therefore never drop below the root's key,
which is what makes root capture acyclic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    MAX_N,
    EnergyState,
    Population,
    TreeNetwork,
    classify,
    is_spanning_tree,
    spec_numbers,
    spec_text,
)
from .errors import DomainError, InvariantError

ARBITRARY = "arbitrary"
KARY = "kary"

# Rule tags, as recorded in traces.
SS = "SS"
RS = "RS"
IS = "IS"
LS = "LS"
RR = "RR"
IR = "IR"
LR = "LR"
UW = "UW"
NOOP = "NOOP"

CONNECTING_RULES = frozenset({SS, RS, IS, LS, RR, IR, LR})


@dataclass(frozen=True)
class FormationProtocol:
    kind: str
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind == ARBITRARY:
            if self.k is not None:
                raise DomainError("arbitrary protocol takes no arity")
        elif self.kind == KARY:
            if self.k is None or self.k < 2:
                raise DomainError("k-ary protocol needs k >= 2")
        else:
            raise DomainError(f"unknown formation protocol {self.kind!r}")

    @staticmethod
    def arbitrary() -> "FormationProtocol":
        return FormationProtocol(ARBITRARY)

    @staticmethod
    def kary(k: int) -> "FormationProtocol":
        return FormationProtocol(KARY, k)

    @staticmethod
    def parse(spec: str) -> "FormationProtocol":
        spec = spec_text(spec, "formation protocol")
        if spec == ARBITRARY:
            return FormationProtocol.arbitrary()
        if spec.startswith("kary:"):
            return FormationProtocol.kary(*spec_numbers(spec, "formation protocol", 1, int))
        raise DomainError(f"cannot parse formation protocol {spec!r}")


def apply_formation_rule(
    protocol: FormationProtocol, pop: Population, u: int, v: int
) -> str:
    """Apply at most one formation rule to the oriented pair (u, v).

    Returns the fired rule's tag, UW for a key refresh along an existing
    edge (k-ary only), or NOOP. Every rule that fires attaches a child c
    under a parent p, and in the k-ary family c copies p's merge key.
    """
    net = pop.network
    parent = net.parent
    if not (0 <= u < net.n and 0 <= v < net.n) or u == v:
        raise DomainError(f"invalid pair ({u}, {v})")
    kary = protocol.kind == KARY
    w = pop.w

    # Established edges are permanent; in the k-ary family they keep
    # diffusing the root's merge key downward.
    if parent[v] == u or parent[u] == v:
        if not kary:
            return NOOP
        p, c = (u, v) if parent[v] == u else (v, u)
        w[c] = w[p]
        return UW

    children = net.children
    u_has_p = parent[u] != -1
    v_has_p = parent[v] != -1
    u_iso = not u_has_p and not children[u]
    v_iso = not v_has_p and not children[v]

    if u_iso and v_iso:
        p, c, tag = u, v, SS
    elif u_iso or v_iso:
        p, c = (v, u) if u_iso else (u, v)
        if kary and len(children[p]) >= protocol.k:
            return NOOP
        # The (X, S) rule of the parent's pre-state: leaf, internal or root.
        tag = (IS if parent[p] != -1 else RS) if children[p] else LS
    elif not (u_has_p or v_has_p):
        # Two roots: the first, or under the k-ary rules the one with the
        # smaller key if it has room, captures the other.
        if not kary or w[u] < w[v] and len(children[u]) < protocol.k:
            p, c = u, v
        elif w[v] < w[u] and len(children[v]) < protocol.k:
            p, c = v, u
        else:
            return NOOP
        tag = RR
    elif not kary or u_has_p and v_has_p:  # one root, or none, and no capture
        return NOOP
    else:  # a non-root p with a smaller key and room captures the root c
        p, c = (u, v) if u_has_p else (v, u)
        if not (w[p] < w[c] and len(children[p]) < protocol.k):
            return NOOP
        tag = IR if children[p] else LR
    net.add_edge(p, c)
    if kary:
        w[c] = w[p]
    return tag


def idle_tags(
    protocol: Optional[FormationProtocol], parent: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> list[str]:
    """The tag ``apply_formation_rule`` records at each of ``pairs`` when it
    changes nothing there, on a completed tree in a reachable state: UW on a
    tree edge under the k-ary rules, else NOOP."""
    if protocol is None or protocol.kind != KARY:
        return [NOOP] * len(pairs)
    return [UW if parent[u] == v or parent[v] == u else NOOP for u, v in pairs]


def is_formation_complete(network: TreeNetwork) -> bool:
    """Simulator-side completion oracle; the nodes themselves never know
    this (population size is not part of any node's state)."""
    return is_spanning_tree(network)


# Snapshot format: one line per node,
#   id state parent w d h energy
# with parent -1 for none and state as the token from NodeState.token().


def snapshot_lines(pop: Population) -> list[str]:
    net = pop.network
    out = []
    for i in range(pop.n):
        state = classify(net, i).token()
        out.append(
            f"{i} {state} {net.parent[i]} {pop.w[i]} {pop.d[i]} {pop.h[i]} "
            f"{pop.energy.per_node[i]!r}"
        )
    return out


def snapshot_digest(pop: Population) -> str:
    payload = "\n".join(snapshot_lines(pop)) + "\n"
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def load_snapshot(
    lines: Sequence[str], arity_bound: Optional[int] = None
) -> Population:
    """Parse a snapshot. DomainError on a malformed line or number, an id
    out of range or repeated, a register outside [0, n), a parent that is
    the node itself or closes a cycle, a state token that the parent column
    contradicts, or more than ``MAX_N`` nodes."""
    rows = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) == 7:
                ints = [int(x) for x in parts[:1] + parts[2:6]]
                rows.append((ints, parts[1], float(parts[6])))
                continue
        except ValueError:
            pass
        raise DomainError(f"malformed snapshot line: {line!r}")
    n = len(rows)
    if n == 0:
        raise DomainError("empty snapshot")
    if n > MAX_N:
        raise DomainError(f"snapshot holds {n} nodes; at most {MAX_N} are allowed")
    net = TreeNetwork(n, arity_bound)
    w = [0] * n
    d = [0] * n
    h = [0] * n
    energies = [0.0] * n
    parents: list = [None] * n
    tokens = [""] * n
    for (i, parent, *registers), token, energy in rows:
        if not 0 <= i < n:
            raise DomainError(f"snapshot id {i} out of range")
        if parents[i] is not None:
            raise DomainError(f"duplicate snapshot id {i}")
        if not all(0 <= r < n for r in registers):
            raise DomainError(f"snapshot node {i}: w, d and h must lie in [0, {n})")
        parents[i] = parent
        w[i], d[i], h[i] = registers
        tokens[i] = token
        energies[i] = energy
    for i, p in enumerate(parents):
        if p != -1:
            try:
                net.add_edge(p, i)
            except InvariantError as exc:
                raise DomainError(f"snapshot parent {p} of node {i}: {exc}") from exc
    for i, token in enumerate(tokens):
        state = classify(net, i).token()
        if token != state:
            raise DomainError(f"snapshot node {i} has state {token} but its edges make it {state}")
    return Population(net, EnergyState(energies), w=w, d=d, h=h, fresh=False)
