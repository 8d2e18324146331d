"""Peer-to-peer energy redistribution protocols and the loss model.

Five protocols with different knowledge requirements:

* ideal-target: every node knows its share of the unique doubling
  distribution for the final tree and total energy; surplus nodes pay
  deficit nodes on any interaction.
* lambda-exchange: on a parent-child interaction, if the parent holds less
  than lam times the child's energy, the child tops the parent up to exactly
  that ratio. Oblivious to everything but the edge.
* rand-exchange: lambda-exchange with lam redrawn uniformly from [lo, hi]
  on every parent-child interaction.
* kappa-transfer: on a parent-child interaction with the parent below twice
  the child's energy, the child sends a fixed fraction of its own energy up.
* depth-target: every non-root node chases a target computed from its local
  depth/height estimates and the known total energy; the root acts as an
  unbounded buffer, paying deficits and absorbing surpluses (transfers
  involving the root are capped by the root's current energy).

Each protocol object carries its rule: ``step(pop, u, v, draws)`` applies
one interaction and returns the signed amount moved (positive when u sent
to v); the three edge protocols write it as ``edge_step(energy, p, c,
draws)``, which moves energy from the child c up to the parent p.
``mark_active(mask, pop, draws)`` tells an ``ActivePairs`` mask which pairs
the protocol can act on once the estimates have stabilized: ``lambda`` and
``kappa`` hand it their ratio, and the mask tests ``below_ratio``, the one
test their ``edge_step`` makes (the exchanges write it out, as the mask's
energy-only refresh does), so it holds an edge exactly while a step on it
would move energy; ``rand`` pins every edge, since it draws its ratio on
each edge interaction. ``convergence`` says how a run ends: at the first
zero distribution distance (``DD_ZERO``, the edge protocols) or after a
window with no move (``QUIESCENCE``, the targeted ones). ``draws``
supplies what the protocol may know beyond the pair: the generator ``rng``,
the loss fraction ``beta()`` (called only when a transfer fires, as the
argument of ``transfer``, so an idle interaction draws nothing), the ideal
``table`` (None until the tree is complete) and ``total_energy``.

Whenever x units are sent, the receiver gets (1-beta)x and beta*x is
destroyed. All firing conditions carry a tiny relative slack
(core.CONDITION_SLACK) so protocols go quiet at their fixed points instead
of churning on float noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union, get_args

from .core import (
    CONDITION_SLACK,
    EnergyState,
    Population,
    TreeNetwork,
    spec_numbers,
    spec_text,
    strictly_greater,
)
from .errors import DomainError
from .estimation import true_depths

BETA_CAP = 0.999
# The largest exchange ratio (lambda, and rand's upper end) a protocol takes.
# With u = 2^-53, the float x = (lam*E_c - E_p)/(lam + 1) is at most
# lam/(lam + 1) * (1 + u)^3 * E_c for E_p >= 0 (one rounding each for the
# product, the sum lam + 1 and the quotient; the difference is at most
# lam*E_c, rounded monotonely). x <= E_c, so that the child stays at or above
# 0, needs lam/(lam + 1) * (1 + u)^3 <= 1: lam + 1 <= about 1/(3u) = 2^53/3.
# Past that, lam + 1.0 rounds towards lam and x can exceed E_c. 2^50 keeps a
# factor of 8/3 from it. (Where a result is subnormal, its rounding error is
# at most half a unit of 2^-1074 instead, and x still rounds to at most E_c.)
# The test lam * E_c must also stay finite: an infinite product makes
# inf - E_p > slack * inf false, and the edge never fires. ``check_total``
# bounds the ratio by the total energy for that.
MAX_RATIO = 2.0**50
DD_ZERO = "dd_zero"  # the values of a protocol's ``convergence``
QUIESCENCE = "quiescence"


@dataclass(frozen=True)
class LossModel:
    """Per-transfer loss fraction: zero, or a clamped Gaussian draw."""

    kind: str  # "lossless" | "normal"
    mean: float = 0.0
    stddev: float = 0.0

    def __post_init__(self):
        if self.kind not in ("lossless", "normal"):
            raise DomainError(f"unknown loss model {self.kind!r}")

    @staticmethod
    def lossless() -> "LossModel":
        return LossModel("lossless")

    @staticmethod
    def normal(mean: float = 0.2, stddev: float = 0.05) -> "LossModel":
        return LossModel("normal", mean, stddev)

    @staticmethod
    def parse(spec: str) -> "LossModel":
        spec = spec_text(spec, "loss model")
        if spec in ("lossless", "none", "0"):
            return LossModel.lossless()
        if spec.startswith("normal:"):
            return LossModel.normal(*spec_numbers(spec, "loss model", 2))
        raise DomainError(f"cannot parse loss model {spec!r}")


def sample_beta(model: LossModel, rng: random.Random) -> float:
    """One loss-fraction draw, clamped to [0, BETA_CAP]. The lossless model
    consumes no randomness."""
    if model.kind == "lossless":
        return 0.0
    draw = rng.gauss(model.mean, model.stddev)
    if draw < 0.0:
        return 0.0
    if draw > BETA_CAP:
        return BETA_CAP
    return draw


@dataclass(frozen=True)
class IdealTarget:
    """Any interacting pair: the node above its ideal share sends
    min(surplus, deficit) to the node below its share."""

    tag = "IDEAL"
    convergence = QUIESCENCE

    def step(self, pop: Population, u: int, v: int, draws) -> float:
        table = draws.table
        if table is None:
            return 0.0  # no targets until the tree is complete
        energy = pop.energy
        e = energy.per_node
        eu, ev = e[u], e[v]
        tu, tv = table.values[u], table.values[v]
        if strictly_greater(eu, tu) and strictly_greater(tv, ev):
            x = min(eu - tu, tv - ev)
            energy.transfer(u, v, x, draws.beta())
            return x
        if strictly_greater(tu, eu) and strictly_greater(ev, tv):
            x = min(tu - eu, ev - tv)
            energy.transfer(v, u, x, draws.beta())
            return -x
        return 0.0

    def mark_active(self, mask, pop: Population, draws) -> None:
        mask.track_targets(draws.table.values, one_way=False)


class _EdgeProtocol:
    """Acts only when a parent and its child interact: ``edge_step`` moves
    energy from the child c up to the parent p and returns the amount."""

    convergence = DD_ZERO

    def step(self, pop: Population, u: int, v: int, draws) -> float:
        parent = pop.network.parent
        if parent[v] == u:
            return -self.edge_step(pop.energy, u, v, draws)
        if parent[u] == v:
            return self.edge_step(pop.energy, v, u, draws)
        return 0.0

    def mark_active(self, mask, pop: Population, draws) -> None:
        mask.fire_edges(self.ratio)


def below_ratio(ep: float, ec: float, ratio: float) -> bool:
    """E_p < ratio * E_c, with slack: the condition of every edge protocol.
    It is ``strictly_greater(ratio * ec, ep)`` written out for energies
    E_p, E_c >= 0 (which every move keeps, up to ``MAX_RATIO``), so that
    the mask tests an edge in one frame: there a = ratio * E_c >= 0, and if
    E_p > a both sides of the test are false, else max(|a|, |E_p|) is a."""
    a = ratio * ec
    return a - ep > CONDITION_SLACK * a


@dataclass(frozen=True)
class LambdaExchange(_EdgeProtocol):
    """Fires only while E_p < lam * E_c, moving x = (lam * E_c - E_p) / (lam + 1)
    from child to parent so that, with no loss, the pair lands exactly on
    E_p = lam * E_c."""

    lam: float
    tag = "LAMBDA"

    def __post_init__(self):
        if not 2 <= self.lam <= MAX_RATIO:
            raise DomainError(f"exchange ratio must be in [2, 2^50] (got {self.lam!r})")

    @property
    def ratio(self) -> float:
        return self.lam

    def edge_step(self, energy: EnergyState, p: int, c: int, draws) -> float:
        # below_ratio written out, so that no call falls between step and
        # transfer; a - E_p is the numerator lam * E_c - E_p
        e, lam = energy.per_node, self.lam
        a = lam * e[c]
        if a - e[p] > CONDITION_SLACK * a:
            x = (a - e[p]) / (lam + 1.0)
            energy.transfer(c, p, x, draws.beta())
            return x
        return 0.0


@dataclass(frozen=True)
class RandExchange(_EdgeProtocol):
    """The lambda exchange with the ratio redrawn uniformly from [lo, hi] on
    every parent-child interaction, before the condition is tested."""

    lo: float = 2.0
    hi: float = 3.0
    tag = "RAND"

    def __post_init__(self):
        if not 2 <= self.lo <= self.hi <= MAX_RATIO:
            raise DomainError("exchange ratio interval must satisfy 2 <= lo <= hi <= 2^50 "
                              f"(got {self.lo!r}, {self.hi!r})")

    def edge_step(self, energy: EnergyState, p: int, c: int, draws) -> float:
        # the lambda exchange at the drawn ratio, written out as there
        e, lam = energy.per_node, draws.rng.uniform(self.lo, self.hi)
        a = lam * e[c]
        if a - e[p] > CONDITION_SLACK * a:
            x = (a - e[p]) / (lam + 1.0)
            energy.transfer(c, p, x, draws.beta())
            return x
        return 0.0

    def mark_active(self, mask, pop: Population, draws) -> None:
        mask.pin_edges()  # it draws its ratio on every edge interaction


@dataclass(frozen=True)
class KappaTransfer(_EdgeProtocol):
    """While E_p < 2 * E_c the child sends a fixed kappa fraction of its own
    energy to the parent."""

    kappa: float
    tag = "KAPPA"
    ratio = 2.0

    def __post_init__(self):
        if not 0 < self.kappa < 1:
            raise DomainError("transfer fraction must be in (0, 1)")

    def edge_step(self, energy: EnergyState, p: int, c: int, draws) -> float:
        e = energy.per_node
        if below_ratio(e[p], e[c], self.ratio):
            x = self.kappa * e[c]
            energy.transfer(c, p, x, draws.beta())
            return x
        return 0.0


@dataclass(frozen=True)
class DepthTarget:
    """Targeted exchange against locally estimated targets, on any pair.

    Between two non-root nodes, u pays v min(surplus, deficit) when u is
    above target and v below. When one side is the root, the other side's
    gap to target decides the direction: the root tops up a deficit or
    absorbs a surplus, with the amount clamped by the root's own energy in
    both directions.
    """

    k: int
    tag = "KDEPTH"
    convergence = QUIESCENCE

    def __post_init__(self):
        if self.k < 2:
            raise DomainError("depth-target arity must be >= 2")

    def step(self, pop: Population, u: int, v: int, draws) -> float:
        net = pop.network
        energy = pop.energy
        e = energy.per_node
        k, total = self.k, draws.total_energy
        u_root = _is_root(net, u)
        v_root = _is_root(net, v)
        if u_root and v_root:
            return 0.0
        if not u_root and not v_root:
            zu = depth_target(pop, u, k, total)
            zv = depth_target(pop, v, k, total)
            eu, ev = e[u], e[v]
            if strictly_greater(eu, zu) and strictly_greater(zv, ev):
                x = min(eu - zu, zv - ev)
                energy.transfer(u, v, x, draws.beta())
                return x
            return 0.0
        r, o = (u, v) if u_root else (v, u)
        zo = depth_target(pop, o, k, total)
        eo = e[o]
        if strictly_greater(zo, eo):
            x = min(zo - eo, e[r])
            if x <= 0.0:
                return 0.0
            energy.transfer(r, o, x, draws.beta())
            return x if r == u else -x
        if strictly_greater(eo, zo):
            x = min(eo - zo, e[r])
            if x <= 0.0:
                return 0.0
            energy.transfer(o, r, x, draws.beta())
            return -x if r == u else x
        return 0.0

    def mark_active(self, mask, pop: Population, draws) -> None:
        # Non-root pairs pay only from u above to v below; the root buffers
        # any node off its target (it has no target itself).
        net = pop.network
        mask.track_targets(
            [
                None if _is_root(net, x) else depth_target(pop, x, self.k, draws.total_energy)
                for x in range(net.n)
            ],
            one_way=True,
        )


EnergyProtocol = Union[IdealTarget, LambdaExchange, RandExchange, KappaTransfer, DepthTarget]
PROTOCOL_TAGS = frozenset(p.tag for p in get_args(EnergyProtocol))


def parse_energy_protocol(spec: str) -> EnergyProtocol:
    what = "energy protocol"
    spec = spec_text(spec, what)
    if spec == "ideal":
        return IdealTarget()
    if spec.startswith("lambda:"):
        return LambdaExchange(*spec_numbers(spec, what, 1))
    if spec == "rand":
        return RandExchange()
    if spec.startswith("rand:"):
        return RandExchange(*spec_numbers(spec, what, 2))
    if spec.startswith("kappa:"):
        return KappaTransfer(*spec_numbers(spec, what, 1))
    if spec.startswith("kdepth:"):
        return DepthTarget(*spec_numbers(spec, what, 1, int))
    raise DomainError(f"cannot parse energy protocol {spec!r}")


def check_total(protocol: EnergyProtocol, total: float) -> None:
    """Refuse an exchange whose ratio times an energy can overflow when the
    energies sum to ``total``. Every E_c is at most 2 * total (see
    ``runner.dd_drift``), and every ratio applied is at most 2 * r, where r
    is lam or rand's hi (a draw is at most hi * (1 + 2^-51)). So each
    product ratio * E_c is at most 4 * r * total, and, rounding being
    monotone, it is finite while that bound is. (The kappa ratio is 2, and
    the targeted protocols scale no energy up.)"""
    if isinstance(protocol, LambdaExchange):
        ratio = protocol.lam
    elif isinstance(protocol, RandExchange):
        ratio = protocol.hi
    else:
        return
    if not math.isfinite(4.0 * ratio * total):
        raise DomainError(f"exchange ratio {ratio!r} is too large for total energy {total!r}: "
                          "4 * ratio * total must be a finite float")


@dataclass(frozen=True)
class IdealEnergyTable:
    """Per-node share of the unique exact doubling distribution: a node at
    depth d gets base * 2^(height - d), with base chosen so the shares sum
    to the given total."""

    values: tuple[float, ...]
    base: float
    total: float


def compute_ideal_energies(network: TreeNetwork, total_energy: float) -> IdealEnergyTable:
    """Build the ideal table from true depths (BFS) of a completed tree."""
    if total_energy <= 0:
        raise DomainError("total energy must be positive")
    depth, height = true_depths(network)
    denom = sum(2 ** (height - d) for d in depth)
    try:
        base = total_energy / denom
        values = tuple(2 ** (height - d) * base for d in depth)
    except OverflowError:  # 2^height is past the float range: each share exact, rounded once
        exact = Fraction(total_energy) / denom
        base = float(exact)
        values = tuple(float(exact * 2 ** (height - d)) for d in depth)
    return IdealEnergyTable(values=values, base=base, total=total_energy)


def depth_target(pop: Population, v: int, k: int, total_energy: float) -> float:
    """Target energy of a non-root node from its current register estimates:
    total / (k^d * (h + 1)). Fresh registers (d = h = 0) give the degenerate
    value total, which is legal before estimation settles."""
    net = pop.network
    if net.parent[v] == -1 and net.children[v]:
        raise DomainError("the root has no target energy")
    denom = k ** pop.d[v] * (pop.h[v] + 1)
    try:
        return total_energy / denom
    except OverflowError:  # denom is past the float range: exact, rounded once
        return float(Fraction(total_energy) / denom)


def _is_root(net: TreeNetwork, x: int) -> bool:
    return net.parent[x] == -1 and bool(net.children[x])
