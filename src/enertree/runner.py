"""The per-run simulation engine.

A run advances in discrete steps; each step interacts one scheduler pair.
Formation and estimation rules are standing rules and fire on every
interaction (after a tree is complete they reduce to merge-key refreshes
and idempotent estimate updates). The energy protocol joins either once the
tree is complete and the estimates have stabilized (two-phase mode) or from
step 0 (concurrent mode).

One loop runs every step of a run. Before the energy protocol joins
(phase A) a step applies only the formation and estimation rules; after,
it also moves energy and feeds the metrics and the convergence detector.
Tree completion and estimate stabilization are checked in the same place
for both.

The same loop serves live execution and trace replay. A live run draws its
pairs from a ``RandomScheduler`` and has a ``LiveEnergyDriver`` compute
each move through the protocol's rule. A run on a ``ScriptedScheduler`` is a
replay: the scheduler yields each recorded pair and applies that step's
recorded amount and loss fraction verbatim.

Once the tree is complete, most pairs are idle: their step changes no
register, edge or energy and draws nothing. A run that validates nothing
keeps the pairs that are not idle in an ``ActivePairs`` mask, in phase A
after completion and once the energy protocol runs on stable estimates, and
lets the scheduler's ``skip`` draw through the rest. It runs a step in full
only at a pair in the mask. It also stops at a step that decides something:
a stabilization probe that will succeed, the metric resync of a dd that
moved, the quiescence verdict, the end of a phase. A live run that stops
there at a pair outside the mask runs no rule: it only probes, feeds the
detector, resyncs and samples, and records the pair's idle rule. A metric
sample at a cadence step over which nothing moved is appended directly.
Everything else leaves the same state and the same generator position
behind, so every output is unchanged. Once the tree is complete, a full dd
sums over its edge list, built once.

A traced run records each skipped step as the step path would: the pair,
``UW`` on a tree edge under the k-ary rules (else ``NOOP``), and no move.
The scheduler's ``skip`` appends the pairs it passes over straight onto the
trace's pair column, and the loop extends the rule column to match; a step
run in full appends its pair and rule, and its move if it carries one. A
replay masks only the formation and estimation rules, and its
scheduler's ``skip`` also stops at each step whose record moved energy, so
recorded moves are applied verbatim, whatever the trace holds; those stops
are not mask pairs, so a replay runs every stop in full. Once the
mask is empty nothing can change before the run ends; a live run that
records no trace then jumps to its verdict without drawing (nothing reads
the generator after ``simulate``), while a traced run or a replay passes
over the same pairs.
Validation, concurrent mode before stabilization, and an interpreter where
``RandomScheduler.skip`` differs from the sampler keep the step path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

from .active import ActivePairs
from .core import EnergyState, Population
from .energy import (
    EnergyProtocol,
    IdealEnergyTable,
    LossModel,
    compute_ideal_energies,
    sample_beta,
)
from .errors import DomainError, InvariantError
from .estimation import UnsettledNodes, apply_estimation_rules, estimation_stabilized
from .formation import (
    CONNECTING_RULES,
    KARY,
    NOOP,
    UW,
    FormationProtocol,
    apply_formation_rule,
    is_formation_complete,
    snapshot_digest,
)
from .metrics import (
    DD_ZERO,
    QUIESCENCE,
    ConvergenceDetector,
    ConvergenceReport,
    MetricSample,
    convergence_kind,
    distribution_distance,
    incident_distance,
)
from .scheduler import (
    InteractionTrace,
    RandomScheduler,
    ScriptedScheduler,
    skip_matches_sampler,
)

TWOPHASE = "twophase"
CONCURRENT = "concurrent"

BASIS_POST_FORMATION = "post_formation"
BASIS_INITIAL = "initial"

# Absolute distribution-distance tolerance, as a fraction of total energy.
DD_TOL_FRACTION = 1e-9


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def default_budget(n: int) -> int:
    """Steps per phase when no budget is given: 500 per node pair."""
    return 500 * max(pair_count(n), 1)


def default_window(n: int) -> int:
    """Quiescence window when none is given: 10 steps per node pair."""
    return 10 * max(pair_count(n), 1)


def _stabilize_cadence(n: int) -> int:
    # The stabilization oracle costs O(n); probe every step for small n and
    # every n steps beyond that.
    return 1 if n <= 16 else n


class LiveEnergyDriver:
    """Computes protocol moves live. It is what a protocol's ``step`` draws
    on: the generator, the loss fraction (sampled only when a transfer
    happens, so idle interactions consume no draw), the ideal table once the
    tree is complete, and the total energy."""

    def __init__(
        self,
        protocol: EnergyProtocol,
        loss: LossModel,
        rng: Optional[random.Random],
        total_energy: float,
    ):
        self.protocol = protocol
        self.loss = loss
        self.rng = rng
        self.total_energy = total_energy
        self.table: Optional[IdealEnergyTable] = None
        self.drawn: Optional[float] = None  # the loss fraction of the current move

    def beta(self) -> float:
        self.drawn = sample_beta(self.loss, self.rng)
        return self.drawn

    def move(self, pop: Population, u: int, v: int) -> tuple[float, Optional[float]]:
        self.drawn = None
        return self.protocol.step(pop, u, v, self), self.drawn


@dataclass
class SimOutcome:
    pop: Population
    completed: bool
    stabilized: bool
    formation_steps: int
    estimation_steps: int
    total_steps: int
    report: Optional[ConvergenceReport] = None
    samples: list[MetricSample] = field(default_factory=list)
    ideal: Optional[IdealEnergyTable] = None
    basis_total: Optional[float] = None
    trace: Optional[InteractionTrace] = None
    skipped_steps: int = 0  # idle steps skipped by the scheduler or jumped over

    @property
    def digest(self) -> str:
        return snapshot_digest(self.pop)


def _quiet_samples(
    first: int, last: int, cadence: int, dd: float, energy: EnergyState
) -> list[MetricSample]:
    """The metric samples of the cadence steps in (first, last], over which
    no energy moved and dd was last computed in full."""
    start = first - first % cadence + cadence
    if start > last:
        return []
    total, lost = energy.total(), energy.lost
    return [MetricSample(c, dd, total, lost) for c in range(start, last + 1, cadence)]


def simulate(
    pop: Population,
    *,
    formation: Optional[FormationProtocol],
    scheduler,
    energy_protocol: Optional[EnergyProtocol] = None,
    loss: LossModel = LossModel.lossless(),
    phase_mode: str = TWOPHASE,
    formation_budget: Optional[int] = None,
    energy_budget: Optional[int] = None,
    window: Optional[int] = None,
    metric_cadence: Optional[int] = None,
    target_basis: str = BASIS_POST_FORMATION,
    trace: Optional[InteractionTrace] = None,
    validate: bool = False,
    record_metrics: bool = True,
) -> SimOutcome:
    """Run one simulation to completion (see the module docstring).

    Every protocol draw (exchange ratio, loss fraction) comes from the
    scheduler's generator, right after the pair it belongs to; a
    ``ScriptedScheduler`` replays its recorded moves instead. A ``trace``,
    when given, must be empty; it receives every step and the final
    digest."""
    net = pop.network
    n = net.n
    e = pop.energy
    if phase_mode not in (TWOPHASE, CONCURRENT):
        raise DomainError(f"unknown phase mode {phase_mode!r}")
    if phase_mode == CONCURRENT and target_basis != BASIS_INITIAL:
        raise DomainError("concurrent mode requires the initial-energy basis")
    if formation_budget is None:
        formation_budget = default_budget(n)
    if energy_budget is None:
        energy_budget = default_budget(n)
    if window is None:
        window = default_window(n)
    if metric_cadence is None:
        metric_cadence = 1 if n <= 10 else n
    for name, value in (
        ("formation budget", formation_budget),
        ("energy budget", energy_budget),
        ("metric cadence", metric_cadence),
    ):
        if value < 1:
            raise DomainError(f"{name} must be >= 1 (got {value})")
    if trace is not None and len(trace):
        raise DomainError("trace steps must be consecutive from 0")  # one run per trace

    complete = is_formation_complete(net)
    # The edges of a complete tree, which no longer changes: dd sums over them.
    edges = list(net.edges()) if complete else None
    stabilized = complete and estimation_stabilized(pop)
    unsettled = UnsettledNodes(pop) if complete and not stabilized else None
    formation_steps = 0 if complete else formation_budget
    stabilized_step = 0 if stabilized else None
    stab_cadence = _stabilize_cadence(n)
    if formation is None and not complete:
        raise DomainError("redistribution on an incomplete network needs a formation protocol")

    replaying = isinstance(scheduler, ScriptedScheduler)
    driver = ideal = basis_total = None
    if energy_protocol is not None:
        basis_total = e.initial_total if target_basis == BASIS_INITIAL else e.total()
        if replaying:
            driver = scheduler
        else:
            # No generator at n=1 (no scheduler): the protocol draws nothing
            rng = getattr(scheduler, "rng", None)
            driver = LiveEnergyDriver(energy_protocol, loss, rng, basis_total)
        if complete:
            ideal = compute_ideal_energies(net, basis_total)
            if not replaying:
                driver.table = ideal
        kind = convergence_kind(energy_protocol)
        dd_tol = DD_TOL_FRACTION * basis_total
        detector = ConvergenceDetector(kind, window, dd_tol, horizon=energy_budget)
    # Live runs and replays skip (see the module docstring).
    skipping = not validate and (
        replaying or isinstance(scheduler, RandomScheduler) and skip_matches_sampler()
    )
    drawn = None if trace is None else trace.pairs
    uw_edges = formation is not None and formation.kind == KARY
    parent = net.parent

    def active_pairs() -> Optional[ActivePairs]:
        # Phase A on a completed tree, or the energy protocol on stable
        # estimates; the step path everywhere else.
        if not (skipping and complete and stabilized == moving):
            return None
        if moving and not replaying:
            return ActivePairs(pop, formation, energy_protocol, driver)
        return ActivePairs(pop, formation)

    d, h, w = pop.d, pop.h, pop.w
    skipped = 0
    # Phase A (two-phase mode only) grows the tree and settles the
    # estimates within formation_budget steps; then the energy protocol
    # joins (moving) for at most energy_budget steps, from t0 on.
    in_phase_a = phase_mode == TWOPHASE and formation is not None and n > 1
    end = formation_budget if in_phase_a else 0
    moving = False
    t = t0 = 0
    moved, beta = 0.0, None
    mask = active_pairs() if in_phase_a else None
    while True:
        if moving:
            if detector.decided or t >= end:
                break
        elif t >= end or stabilized:
            # Phase A is over, or never ran: the energy protocol joins now.
            if driver is None or (phase_mode == TWOPHASE and not complete):
                break
            moving = True
            t0 = t
            end = t + energy_budget
            dd = distribution_distance(net, e, edges)
            dirty = False  # whether energy moved since dd was last computed in full
            samples = [MetricSample(0, dd, e.total(), e.lost)]
            if complete or kind == QUIESCENCE:
                detector.observe(0, dd, 0.0)
            if n == 1:  # a single node: nothing can ever move
                detector.force_converged(0, dd)
            mask = active_pairs()
            continue

        if mask is not None and (not moving or kind == QUIESCENCE or dd > dd_tol):
            # Run in full only the next pair in the mask, or the step that
            # decides something: a stabilization probe that will succeed,
            # the resync of a dd that moved, the quiescence verdict or the
            # end of the phase.
            stop = end
            if not moving:
                if unsettled.count == 0:
                    stop = min(stop, t - (t - formation_steps) % stab_cadence + stab_cadence)
            else:
                if dirty:
                    stop = min(stop, t - (t - t0) % metric_cadence + metric_cadence)
                if kind == QUIESCENCE:
                    stop = min(stop, t0 + detector.last_move + window)
                if not replaying and trace is None and not dirty and not mask.count:
                    # No step can change anything before the run ends: jump
                    # to the verdict without drawing (a traced run records
                    # every pair and a replay applies every recorded move,
                    # so both skip to the verdict instead).
                    if record_metrics:
                        samples += _quiet_samples(t - t0, stop - t0, metric_cadence, dd, e)
                    skipped += stop - t
                    t = stop
                    detector.observe(t - t0, dd, 0.0)
                    continue
            k, u, v = scheduler.skip(stop - t, mask.rows, drawn)
            if moving and not dirty and record_metrics:
                samples += _quiet_samples(t - t0, t + k - 1 - t0, metric_cadence, dd, e)
            if drawn is not None and k > 1:
                # skip put the idle steps' pairs on the trace; add their rules.
                if uw_edges:
                    trace.rules += [
                        UW if parent[x] == y or parent[y] == x else NOOP for x, y in drawn[1 - k :]
                    ]
                else:
                    trace.rules += repeat(NOOP, k - 1)
            skipped += k - 1
            t += k
            # A stop at the limit may be idle: no rule can act on the pair.
            idle = not replaying and not mask.rows[u][v - (v > u)]
        else:
            u, v = scheduler.next_pair()
            t += 1
            idle = False
        if idle:
            tag = UW if uw_edges and (parent[u] == v or parent[v] == u) else NOOP
        else:
            if mask is not None:
                before = (d[u], h[u], w[u], d[v], h[v], w[v])
            tag = apply_formation_rule(formation, pop, u, v) if formation else NOOP
            apply_estimation_rules(pop, u, v)
        probe = remask = False
        if tag in CONNECTING_RULES:
            if moving:
                dd = distribution_distance(net, e)  # a new edge joined the sum
                dirty = False
            if not complete and net.edge_count == n - 1 and is_formation_complete(net):
                complete = remask = True
                edges = list(net.edges())
                formation_steps = t
                unsettled = UnsettledNodes(pop)
                if driver is not None:
                    ideal = compute_ideal_energies(net, basis_total)
                    if not replaying:
                        driver.table = ideal
                probe = not moving  # phase A probes at once
        elif complete and not stabilized:
            unsettled.update(u, v)
            # Phase A probes every stab_cadence steps counted from
            # formation_steps; later probes are aligned to the absolute step.
            probe = (t - (0 if moving else formation_steps)) % stab_cadence == 0
        if probe and unsettled.count == 0:
            stabilized = remask = True
            stabilized_step = t
        if moving:
            s = t - t0
            if idle:
                moved, beta = 0.0, None
            else:
                pre = incident_distance(net, e, u, v)
                moved, beta = driver.move(pop, u, v)
                if moved:
                    dd += incident_distance(net, e, u, v) - pre
                    if dd < 0.0:
                        dd = 0.0
                    dirty = True
            if kind == DD_ZERO and complete and dd <= dd_tol:
                dd = distribution_distance(net, e, edges)  # confirm before declaring
                dirty = False
            if complete or kind == QUIESCENCE:
                detector.observe(s, dd, moved)
            if s % metric_cadence == 0:
                if dirty:
                    dd = distribution_distance(net, e, edges)  # resync any float drift
                    dirty = False
                if record_metrics:
                    samples.append(MetricSample(s, dd, e.total(), e.lost))
            if validate:
                if not e.conservation_ok():
                    raise InvariantError("energy conservation violated")
                if min(e.per_node) < 0.0:
                    raise InvariantError("negative node energy")
        if remask:
            mask = active_pairs()
        elif mask is not None and not idle:
            mask.refresh(u, v, before, moved)
        if trace is not None:
            trace.pairs.append((u, v))
            trace.rules.append(tag if tag != NOOP or not moved else energy_protocol.tag)
            if moved or beta is not None:
                trace.moves[t - 1] = (moved or None, beta)

    if moving and record_metrics and (t - t0) % metric_cadence != 0:
        samples.append(MetricSample(t - t0, distribution_distance(net, e, edges), e.total(), e.lost))
    outcome = SimOutcome(
        pop=pop,
        completed=complete,
        stabilized=stabilized,
        formation_steps=formation_steps,
        estimation_steps=0 if stabilized_step is None else stabilized_step - formation_steps,
        total_steps=t,
        skipped_steps=skipped,
    )
    if moving:
        outcome.report = detector.report()
        outcome.samples = samples
        outcome.ideal = ideal
        outcome.basis_total = basis_total
    elif driver is not None:
        # Formation never finished; report an unconverged run.
        outcome.report = ConvergenceReport(tau=energy_budget, dd_at_tau=math.nan, converged=False)
    if trace is not None:
        trace.final_digest = snapshot_digest(pop)
        outcome.trace = trace
    return outcome
