"""Distribution/energy distance metrics, the line potential, and
convergence detection.

Distribution distance sums, over the violating parent-child edges, the
amount 2*E_child - E_parent that would have to move for the parent to hold
at least twice the child's energy; it is 0 exactly on the states where the
doubling condition holds on every edge.

Energy distance is half the L1 gap between an energy vector and the ideal
doubling shares: the total misplaced energy.

A redistribution phase ends only at a ``ConvergenceDetector`` verdict; its
metric samples are held as ``MetricRun``s and written by
``write_metrics_csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import EnergyState, TreeNetwork
from .energy import DD_ZERO, QUIESCENCE, IdealEnergyTable
from .errors import DomainError


def distribution_distance(
    network: TreeNetwork, e: Sequence[float], edges: Optional[Sequence[tuple[int, int]]] = None
) -> float:
    """Total energy that must be redistributed to reach a relaxed state, for
    the per-node energies ``e`` (an ``EnergyState.per_node`` or a copy of
    one); valid on partial networks (sums over existing edges only).
    ``edges``, if given, is ``list(network.edges())`` of a network that no
    longer changes; the sum runs in that order either way."""
    total = 0.0
    for p, c in network.edges() if edges is None else edges:
        gap = 2.0 * e[c] - e[p]
        if gap > 0.0:
            total += gap
    return total


def incident_distance(network: TreeNetwork, e: Sequence[float], u: int, v: int) -> float:
    """Distribution-distance contribution of the edges touching u or v
    (each edge counted once), for the per-node energies ``e``. Used for
    incremental maintenance."""
    total = 0.0
    parent = network.parent
    pu = parent[u]
    if pu != -1:
        gap = 2.0 * e[u] - e[pu]
        if gap > 0.0:
            total += gap
    pv = parent[v]
    if pv != -1 and pv != u:  # the (u, v) edge is covered by u's child loop
        gap = 2.0 * e[v] - e[pv]
        if gap > 0.0:
            total += gap
    eu = e[u]
    for c in network.children[u]:
        gap = 2.0 * e[c] - eu
        if gap > 0.0:
            total += gap
    ev = e[v]
    for c in network.children[v]:
        if c == u:
            continue  # already counted from u's parent side
        gap = 2.0 * e[c] - ev
        if gap > 0.0:
            total += gap
    return total


def energy_distance(energies: Sequence[float], ideal: IdealEnergyTable) -> float:
    """Half the L1 distance between an energy vector and the ideal shares."""
    if len(energies) != len(ideal.values):
        raise DomainError("energy vector and ideal table cover different nodes")
    return 0.5 * math.fsum(abs(e - g) for e, g in zip(energies, ideal.values))


def _line_order(network: TreeNetwork) -> list[int]:
    if network.n == 1:
        return [0]
    roots = network.roots()
    if (
        network.edge_count != network.n - 1
        or len(roots) != 1
        or any(len(cs) > 1 for cs in network.children)
    ):
        raise DomainError("potential is defined on completed line networks only")
    order = [roots[0]]
    while network.children[order[-1]]:
        order.append(network.children[order[-1]][0])
    return order


def line_potential(network: TreeNetwork, energy: EnergyState, lam: float) -> float:
    """Potential of a line under the ratio-lam exchange: the sum of
    lam*E_next - E_cur over consecutive pairs that still violate the ratio.
    Non-increasing under lossless exchanges; 0 implies a relaxed state for
    lam >= 2."""
    order = _line_order(network)
    e = energy.per_node
    total = 0.0
    for a, b in zip(order, order[1:]):
        if e[a] < lam * e[b]:
            total += lam * e[b] - e[a]
    return total


class MetricRun(NamedTuple):
    """The samples at ``steps`` (a cadence range), which all hold the same
    distribution distance, total energy and loss."""

    steps: range
    dd: float
    total_energy: float
    lost: float


METRICS_HEADER = ["step", "dd", "total_energy", "lost"]


def write_metrics_csv(runs: Iterable[MetricRun], path: "str | Path") -> None:
    """One row per step of each run, in the bytes ``csv.writer`` gives the
    rows ``[step, repr(dd), repr(total_energy), repr(lost)]``: it quotes no
    int and no float repr, and ends each line with CRLF. A run's three
    floats are formatted once."""
    parts = [",".join(METRICS_HEADER), "\r\n"]
    for run in runs:
        if run.steps:
            tail = f",{run.dd!r},{run.total_energy!r},{run.lost!r}\r\n"
            parts += (tail.join(map(str, run.steps)), tail)
    with open(path, "w", newline="") as fh:
        fh.write("".join(parts))


@dataclass
class ConvergenceReport:
    tau: int
    dd_at_tau: float
    converged: bool


class ConvergenceDetector:
    """Online convergence detection over the per-step stream.

    dd_zero: converged at the first step whose distribution distance is at
    most ``dd_tol`` (an absolute tolerance, normally 1e-9 * total).
    quiescence: converged once ``window`` consecutive steps moved no
    detectable energy; tau is the step of the last detectable move (0 if
    none ever happened). A move counts as detectable when its magnitude
    exceeds ``dd_tol``, so both detectors resolve energy at the same
    absolute scale. Either way the verdict falls at ``horizon`` at the
    latest, unconverged with tau the horizon. ``verdict`` is None until
    then, and the ``ConvergenceReport`` from then on; ``dd_at_tau`` is the
    distance fed with the deciding step. ``due`` is the first step at
    which a verdict falls if nothing moves: the horizon, or for quiescence
    the end of the window after the last move if that comes first.
    """

    def __init__(self, kind: str, window: int, dd_tol: float, horizon: int):
        if kind not in (DD_ZERO, QUIESCENCE):
            raise DomainError(f"unknown convergence kind {kind!r}")
        if window < 1:
            raise DomainError("quiescence window must be >= 1")
        self.kind = kind
        self.window = window
        self.dd_tol = dd_tol
        self.horizon = horizon
        self.verdict: Optional[ConvergenceReport] = None
        self.last_move = 0
        self.due = horizon if kind == DD_ZERO else min(horizon, window)

    def observe(self, step: int, dd: float, moved: float) -> bool:
        """Feed one step; returns True once the verdict is in. A step fed
        after the verdict changes nothing."""
        if self.verdict is not None:
            return True
        if self.kind == DD_ZERO:
            if dd <= self.dd_tol:
                self.verdict = ConvergenceReport(step, dd, True)
                return True
        elif moved and abs(moved) > self.dd_tol:
            self.last_move = step
            self.due = min(self.horizon, step + self.window)
        elif step - self.last_move >= self.window:
            # nothing moved since tau, so the current dd still applies
            self.verdict = ConvergenceReport(self.last_move, dd, True)
            return True
        if step >= self.horizon:
            self.verdict = ConvergenceReport(self.horizon, dd, False)
            return True
        return False
