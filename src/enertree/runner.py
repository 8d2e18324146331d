"""The per-run simulation engine.

A run advances in discrete steps; each step interacts one scheduler pair.
Formation and estimation rules are standing rules and fire on every
interaction (after a tree is complete they reduce to merge-key refreshes
and idempotent estimate updates). The energy protocol joins either once the
tree is complete and the estimates have stabilized (two-phase mode) or from
step 0 (concurrent mode).

The same loop serves live execution and trace replay: the pair sequence
comes from a scheduler (random or scripted from a trace) and energy moves
come from a driver (computed live, or applied verbatim from the recorded
amounts and loss fractions).

Once the tree is complete and the estimates have stabilized, an edge-only
protocol changes nothing on a pair that is not a tree edge: the formation
and estimation rules are idle there and the protocol does not fire. A live
run that records no trace then lets the random scheduler skip those pairs
(``RandomScheduler.skip``) and runs the step only at the next event: a tree
edge, a metric-cadence step, or the last step of the budget. The skipped
steps leave the same state and the same generator position behind, so
every output is unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import Population
from .energy import (
    EDGE_ONLY,
    DepthTarget,
    EnergyProtocol,
    IdealEnergyTable,
    IdealTarget,
    LambdaExchange,
    LossModel,
    RandExchange,
    compute_ideal_energies,
    ideal_target_step,
    k_depth_target_step,
    kappa_transfer_step,
    lambda_exchange_step,
    rand_exchange_step,
    sample_beta,
)
from .errors import DomainError, InvariantError
from .estimation import apply_estimation_rules, estimation_stabilized
from .formation import (
    CONNECTING_RULES,
    KARY,
    NOOP,
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
    TraceRecord,
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


def _stabilize_cadence(n: int) -> int:
    # The stabilization oracle costs O(n); probe every step for small n and
    # every n steps beyond that.
    return 1 if n <= 16 else n


class LiveEnergyDriver:
    """Computes protocol moves and samples the loss fraction lazily, so only
    interactions that transfer energy consume a draw."""

    def __init__(self, protocol: EnergyProtocol, loss: LossModel, rng: random.Random):
        self.protocol = protocol
        self.loss = loss
        self.rng = rng
        self.table: Optional[IdealEnergyTable] = None
        self.total_energy: Optional[float] = None

    def move(self, pop: Population, u: int, v: int, step: int) -> tuple[float, Optional[float]]:
        sampled: list[float] = []

        def beta_fn() -> float:
            b = sample_beta(self.loss, self.rng)
            sampled.append(b)
            return b

        protocol = self.protocol
        if isinstance(protocol, EDGE_ONLY):
            net = pop.network
            if net.parent[v] == u:
                p, c = u, v
            elif net.parent[u] == v:
                p, c = v, u
            else:
                return 0.0, None
            if isinstance(protocol, LambdaExchange):
                x = lambda_exchange_step(pop.energy, p, c, protocol.lam, beta_fn)
            elif isinstance(protocol, RandExchange):
                x = rand_exchange_step(
                    pop.energy, p, c, self.rng, beta_fn, protocol.lo, protocol.hi
                )
            else:
                x = kappa_transfer_step(pop.energy, p, c, protocol.kappa, beta_fn)
            moved = x if c == u else -x
        elif isinstance(protocol, IdealTarget):
            if self.table is None:
                return 0.0, None  # no targets until the tree is complete
            moved = ideal_target_step(pop.energy, u, v, self.table, beta_fn)
        elif isinstance(protocol, DepthTarget):
            if self.total_energy is None:
                return 0.0, None
            moved = k_depth_target_step(
                pop, u, v, protocol.k, self.total_energy, beta_fn
            )
        else:
            raise DomainError(f"unknown protocol {protocol!r}")
        return moved, (sampled[0] if sampled else None)


class RecordedEnergyDriver:
    """Applies the recorded signed amount and loss fraction of each step
    verbatim, reproducing the original float operations bit for bit."""

    def __init__(self, records: Sequence[TraceRecord]):
        self.records = records

    def move(self, pop: Population, u: int, v: int, step: int) -> tuple[float, Optional[float]]:
        rec = self.records[step]
        if rec.u != u or rec.v != v:
            raise DomainError(f"trace record {step} does not match the pair")
        moved = rec.moved
        if not moved:
            return 0.0, None
        beta = rec.beta if rec.beta is not None else 0.0
        if moved > 0:
            pop.energy.transfer(u, v, moved, beta)
        else:
            pop.energy.transfer(v, u, -moved, beta)
        return moved, rec.beta


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
    skipped_steps: int = 0  # idle redistribution steps the scheduler skipped

    @property
    def digest(self) -> str:
        return snapshot_digest(self.pop)


def _validate_step(pop: Population) -> None:
    e = pop.energy
    ref = max(abs(e.initial_total), 1.0)
    if abs(e.total() + e.lost - e.initial_total) > 1e-9 * ref:
        raise InvariantError("energy conservation violated")
    for value in e.per_node:
        if value < 0.0:
            raise InvariantError("negative node energy")


def _edge_mask(
    pop: Population, formation: Optional[FormationProtocol], scheduler: RandomScheduler
) -> Optional[list[bytes]]:
    """The tree edges, in both orientations, as a ``RandomScheduler.skip``
    mask; None where a pair off the tree could still change the state or
    skipping does not reproduce the sampler on this interpreter."""
    net = pop.network
    if formation is not None and formation.kind == KARY:
        # A node keyed below its root would try a root capture on meeting
        # it, which the step raises on (the tree is complete).
        if min(pop.w) < pop.w[net.roots()[0]]:
            return None
    if not skip_matches_sampler():
        return None
    edges = [(p, c) for c, p in enumerate(net.parent) if p != -1]
    return scheduler.pair_mask(edges + [(c, p) for p, c in edges])


def simulate(
    pop: Population,
    *,
    formation: Optional[FormationProtocol],
    scheduler,
    rng: Optional[random.Random] = None,
    energy_protocol: Optional[EnergyProtocol] = None,
    loss: LossModel = LossModel.lossless(),
    phase_mode: str = TWOPHASE,
    formation_budget: Optional[int] = None,
    energy_budget: Optional[int] = None,
    window: Optional[int] = None,
    metric_cadence: Optional[int] = None,
    target_basis: str = BASIS_POST_FORMATION,
    record_trace: bool = False,
    trace_seed: int = 0,
    trace_config: Optional[dict] = None,
    energy_driver=None,
    validate: bool = False,
    record_metrics: bool = True,
) -> SimOutcome:
    """Run one simulation to completion (see the module docstring)."""
    net = pop.network
    n = net.n
    e = pop.energy
    if phase_mode not in (TWOPHASE, CONCURRENT):
        raise DomainError(f"unknown phase mode {phase_mode!r}")
    if phase_mode == CONCURRENT and target_basis != BASIS_INITIAL:
        raise DomainError("concurrent mode requires the initial-energy basis")
    pairs = pair_count(n)
    if formation_budget is None:
        formation_budget = 500 * max(pairs, 1)
    if energy_budget is None:
        energy_budget = 500 * max(pairs, 1)
    if window is None:
        window = 10 * max(pairs, 1)
    if metric_cadence is None:
        metric_cadence = 1 if n <= 10 else n
    for name, value in (
        ("formation budget", formation_budget),
        ("energy budget", energy_budget),
        ("metric cadence", metric_cadence),
    ):
        if value < 1:
            raise DomainError(f"{name} must be >= 1 (got {value})")

    trace = (
        InteractionTrace(seed=trace_seed, config=trace_config or {})
        if record_trace
        else None
    )

    complete = is_formation_complete(net)
    stabilized = complete and estimation_stabilized(pop)
    formation_steps = 0 if complete else formation_budget
    stabilized_step = 0 if stabilized else None
    stab_cadence = _stabilize_cadence(n)
    t = 0

    if formation is None and not complete:
        raise DomainError("redistribution on an incomplete network needs a formation protocol")

    # ---- Phase A (two-phase mode): grow the tree, settle the estimates ----
    if (
        phase_mode == TWOPHASE
        and formation is not None
        and not (complete and stabilized)
        and n > 1
    ):
        while t < formation_budget:
            u, v = scheduler.next_pair()
            tag = apply_formation_rule(formation, pop, u, v)
            apply_estimation_rules(pop, u, v)
            if trace is not None:
                trace.append(TraceRecord(t, u, v, tag))
            t += 1
            if not complete:
                if tag in CONNECTING_RULES and net.edge_count == n - 1:
                    if is_formation_complete(net):
                        complete = True
                        formation_steps = t
                        if estimation_stabilized(pop):
                            stabilized = True
                            stabilized_step = t
            elif (t - formation_steps) % stab_cadence == 0:
                if estimation_stabilized(pop):
                    stabilized = True
                    stabilized_step = t
            if complete and stabilized:
                break

    estimation_steps = (
        (stabilized_step - formation_steps) if stabilized_step is not None else 0
    )

    outcome = SimOutcome(
        pop=pop,
        completed=complete,
        stabilized=stabilized,
        formation_steps=formation_steps,
        estimation_steps=estimation_steps,
        total_steps=t,
    )

    if energy_protocol is None:
        if trace is not None:
            trace.final_digest = snapshot_digest(pop)
            outcome.trace = trace
        return outcome

    if phase_mode == TWOPHASE and not complete:
        # Formation never finished; report an unconverged run.
        outcome.report = ConvergenceReport(
            tau=energy_budget, dd_at_tau=math.nan, lost_at_tau=e.lost, converged=False
        )
        if trace is not None:
            trace.final_digest = snapshot_digest(pop)
            outcome.trace = trace
        return outcome

    # ---- Redistribution (phase B, or the whole run in concurrent mode) ----
    basis_total = e.initial_total if target_basis == BASIS_INITIAL else e.total()
    dd_tol = DD_TOL_FRACTION * basis_total
    driver = energy_driver
    if driver is None:
        driver = LiveEnergyDriver(energy_protocol, loss, rng or random.Random(0))
    if isinstance(driver, LiveEnergyDriver):
        driver.total_energy = basis_total
    ideal: Optional[IdealEnergyTable] = None
    if complete:
        ideal = compute_ideal_energies(net, basis_total)
        if isinstance(energy_protocol, IdealTarget) and isinstance(driver, LiveEnergyDriver):
            driver.table = ideal
            pop.targets = ideal.values

    kind = convergence_kind(energy_protocol)
    detector = ConvergenceDetector(kind, window, dd_tol, horizon=energy_budget)
    dd = distribution_distance(net, e)
    samples = [MetricSample(0, dd, e.total(), e.lost)]
    if complete or kind == QUIESCENCE:
        detector.observe(0, dd, 0.0, e.lost)
    proto_tag = energy_protocol.tag
    s = 0
    # Idle steps can be skipped once the tree is stable (see the module
    # docstring); mask is the scheduler's edge filter from then on.
    can_skip = (
        isinstance(scheduler, RandomScheduler)
        and isinstance(driver, LiveEnergyDriver)
        and isinstance(driver.protocol, EDGE_ONLY)
        and trace is None
        and not validate
    )
    mask = _edge_mask(pop, formation, scheduler) if can_skip and stabilized else None
    skipped = 0

    if n > 1:
        while not detector.decided and s < energy_budget:
            if mask is not None and dd > dd_tol:
                stop = min(s - s % metric_cadence + metric_cadence, energy_budget)
                k, u, v = scheduler.skip(stop - s, mask)
                skipped += k - 1
                s += k
            else:
                u, v = scheduler.next_pair()
                s += 1
            tag = apply_formation_rule(formation, pop, u, v) if formation else NOOP
            apply_estimation_rules(pop, u, v)
            if tag in CONNECTING_RULES:
                dd = distribution_distance(net, e)  # a new edge joined the sum
                if not complete and net.edge_count == n - 1 and is_formation_complete(net):
                    complete = True
                    formation_steps = t + s
                    ideal = compute_ideal_energies(net, basis_total)
                    if isinstance(energy_protocol, IdealTarget) and isinstance(
                        driver, LiveEnergyDriver
                    ):
                        driver.table = ideal
                        pop.targets = ideal.values
            elif not stabilized and complete and (t + s) % stab_cadence == 0:
                if estimation_stabilized(pop):
                    stabilized = True
                    stabilized_step = t + s
                    estimation_steps = stabilized_step - formation_steps
                    if can_skip:
                        mask = _edge_mask(pop, formation, scheduler)
            pre = incident_distance(net, e, u, v)
            moved, beta_used = driver.move(pop, u, v, t + s - 1)
            if moved:
                dd += incident_distance(net, e, u, v) - pre
                if dd < 0.0:
                    dd = 0.0
            if kind == DD_ZERO and complete and dd <= dd_tol:
                dd = distribution_distance(net, e)  # confirm before declaring
            if complete or kind == QUIESCENCE:
                detector.observe(s, dd, moved, e.lost)
            if trace is not None:
                rule = tag if tag != NOOP else (proto_tag if moved else NOOP)
                trace.append(
                    TraceRecord(t + s - 1, u, v, rule, moved or None, beta_used)
                )
            if s % metric_cadence == 0:
                dd = distribution_distance(net, e)  # resync any float drift
                if record_metrics:
                    samples.append(MetricSample(s, dd, e.total(), e.lost))
            if validate:
                _validate_step(pop)
        if record_metrics and s % metric_cadence != 0:
            samples.append(MetricSample(s, distribution_distance(net, e), e.total(), e.lost))
    else:
        # Degenerate single-node population: nothing can ever move.
        detector.force_converged(0, dd, e.lost)

    outcome.completed = complete
    outcome.stabilized = stabilized
    outcome.formation_steps = formation_steps
    outcome.estimation_steps = estimation_steps
    outcome.total_steps = t + s
    outcome.skipped_steps = skipped
    outcome.report = detector.report()
    outcome.samples = samples
    outcome.ideal = ideal
    outcome.basis_total = basis_total
    if trace is not None:
        trace.final_digest = snapshot_digest(pop)
        outcome.trace = trace
    return outcome
