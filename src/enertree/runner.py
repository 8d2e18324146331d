"""The per-run simulation engine.

A run advances in discrete steps; each step interacts one scheduler pair.
Formation and estimation rules fire on every interaction. The energy
protocol joins once the tree is complete and the estimates have stabilized
(two-phase mode), or from step 0 (concurrent mode). One loop runs both
phases. A run on a ``ScriptedScheduler`` is a replay: it applies each
step's recorded move in place of the protocol's rule.

Once the tree is complete, most pairs are idle: their step changes nothing
and draws nothing. Unless it validates, a run keeps the other pairs in an
``ActivePairs`` mask (in phase A after completion, and once the protocol
runs on stable estimates), and the scheduler's ``skip`` draws through the
idle pairs up to the next pair in the mask or the limit: the first step
that decides something. Phase A stops at its end, or at the next
stabilization probe once no node is unsettled; in redistribution the
``_Tally`` keeps its next decision step. A stop runs its pair as any step
does, even an idle pair at the limit (whose rules and move change nothing
and draw nothing), except that once no formation or estimation rule can act
on any pair (``ActivePairs.structural`` is 0), it runs only the energy
move, if any. Once nothing can change before the limit, a live run without
a trace jumps there without drawing (nothing reads the generator after
``simulate``). Every step passed over leaves the state and generator
position that the step path leaves, so every output is unchanged; a trace
records it as the step path would (``_idle_rules``).

A ``_Tally`` keeps the books of the redistribution phase at each stop: the
distribution distance, the metric samples and the convergence detector,
whose verdict alone ends the phase (at the budget, unconverged, when
nothing else decides first). A dd-zero detector is fed an infinite
distance until the tree is complete, so no partial tree's distance declares
convergence. The samples are held as runs (``MetricRun``): the cadence
steps a stop or a jump passes over all hold one state, so they make one
run. A cadence step after a move decides nothing, so a skip passes over it
and the next stop resyncs the distance for it and writes its samples; only
a dd-zero run whose distance is within ``dd_drift`` of its tolerance stops
there, since that resync could bring the verdict. The distance itself is
kept lazily: a resync keeps a copy of the energies and each move appends to
a log, and the value is rebuilt from the two, bit for bit, only where
something reads it; a dd-zero stop needs none while some tree edge's gap
alone (a witness) puts the distance above every threshold it is compared
with (see ``_Tally``). A replay masks only the formation and estimation
rules, and its scheduler also stops at each recorded move. Validation and
concurrent mode before stabilization keep the step path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

from .active import ActivePairs, reachable
from .core import Population
from .energy import (
    DD_ZERO,
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
    ConvergenceDetector,
    ConvergenceReport,
    MetricRun,
    distribution_distance,
    incident_distance,
)
from .scheduler import InteractionTrace, ScriptedScheduler

TWOPHASE = "twophase"
CONCURRENT = "concurrent"

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
    # Probe every step for small n and every n steps beyond that. The exact
    # count of unsettled nodes could say at once, but ``estimation_steps``
    # and the start of redistribution rest on this grid (golden case
    # n17-lambda:2-budget400).
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
    metric_runs: list[MetricRun] = field(default_factory=list)
    ideal: Optional[IdealEnergyTable] = None
    trace: Optional[InteractionTrace] = None
    skipped_steps: int = 0  # idle steps skipped by the scheduler or jumped over

    @property
    def digest(self) -> str:
        return snapshot_digest(self.pop)


def _idle_rules(pairs: list[tuple[int, int]], start: int, parent: list[int], kary: bool):
    """The rule the step path records at each idle pair from ``start`` on:
    ``UW`` on a tree edge under the k-ary rules, else ``NOOP``."""
    if not kary:
        return repeat(NOOP, len(pairs) - start)
    return [UW if parent[u] == v or parent[v] == u else NOOP for u, v in pairs[start:]]


# The largest metric cadence a run takes. ``dd_drift`` turns its ops, at
# most cadence * (4n + 6) + 2n, into a float: for n <= harness.MAX_N = 10^4
# and a total of at most MAX_ENERGY = 1e300, ops * total * 2^-50 is at most
# (2^53 * 40006 + 20000) * 1e300 * 2^-50 < 3.3e305, a factor of 500 below
# the largest float. A cadence past the budget samples as one at it does.
MAX_CADENCE = 2**53


def dd_drift(n: int, cadence: int, total: float) -> float:
    """A bound on how far the running dd can be from a resync of the same
    state, on n nodes that held ``total`` energy when the phase began.

    With u = 2^-53. The energies sum to at most S = 2 * total: a transfer
    raises the float sum by at most a factor 1 + 2u, and no run makes 2^51
    of them. Each gap 2*E_c - E_p is computed with its sign exact (2*E_c is
    exact, and a float difference has the sign of the exact one) and within
    u of its value, and a positive gap is at most 2*E_c. So a sum of
    positive gaps, full (at most n - 1 terms) or over the edges at a pair
    (at most 2n - 2), is at most 2S = 4 * total, and its float value is
    within (terms + 1) * 1.01u * 4 * total of it. A move's update
    ``dd + (after - before)`` adds the error of two incident sums and two
    roundings of values below 8 * total: at most (4n + 6) * 1.01u *
    4 * total. At most ``cadence`` moves fall between two resyncs (the
    first stop from a dirty cadence step on resyncs before it moves), and
    the resync the running dd started from, like the one it is compared
    with, is within n * 1.01u * 4 * total. The bound below, ops * 2^-50 *
    total, is nearly twice that sum, which covers its own rounding too; its
    term ``ops * 2^-1074`` covers what ``total * 2^-50`` loses to underflow
    (at a subnormal total dd_tol is 0.0, and this term alone is left)."""
    ops = cadence * (4 * n + 6) + 2 * n
    return ops * (total * 2.0**-50 + 2.0**-1074)


class _Tally:
    """The books of the redistribution phase, from its first step ``t0``:
    the distribution distance, the metric samples, the convergence detector,
    fed at every stop, the ideal shares of the complete tree, and ``until``,
    the first later step that decides something.

    The distance is kept lazily, and read bit for bit as eager books would
    keep it. Eager books resync (sum every edge) when an edge joins, at the
    first stop from a cadence step on after a move (``dirty``), before a
    dd-zero verdict and at the end, and update ``dd + (after - before)``
    with the incident sums around each move, clamped at 0. Here a resync
    keeps a copy of the energies (``copy``) and each move appends
    ``(u, v, E_u, E_v)`` to ``log``. ``exact`` rebuilds the running value
    where something reads it: the full sum of the copy, then each logged
    move's incident sums before and after it on the copy, in order, with
    the clamp. It is read at the detector's ``due`` step (the horizon for
    dd-zero; the verdict can fall nowhere earlier for quiescence), at a
    dd-zero stop with no witness, at each metric sample, and at the end.

    The detector is fed only where it can act: where the value is read, on
    a quiescence move, and on a partial tree from its horizon on. Anywhere
    else the step is before ``due``, so before the horizon and, for
    quiescence, inside the window after the last move; so with no move a
    quiescence ``observe``, and with an unread (infinite) distance a
    dd-zero one, would change nothing.

    A witness is a tree edge whose gap 2*E_c - E_p exceeds ``floor`` =
    dd_tol + 2 * ``dd_drift``. While one exists a dd-zero stop needs no
    value: rounding is monotone, so the left-to-right float sum of the
    non-negative gaps is at least each of them; the running dd is within
    ``dd_drift`` of that sum, since at most ``cadence`` moves fall after
    the last resync, deferred or not; so it exceeds ``margin`` = dd_tol +
    dd_drift, and neither the verdict (dd <= dd_tol) nor the cadence stop
    (dd <= margin) can fire. The witness is the largest gap found by the
    last scan of the edges, which runs again only once its gap is at most
    the floor."""

    __slots__ = (
        "pop", "net", "energy", "driver", "detector", "basis_total", "t0", "cadence",
        "record", "dd_zero", "edges", "ideal", "observing", "dd", "dirty", "runs", "last",
        "until", "margin", "floor", "copy", "summed", "log", "witness", "e",
    )

    def __init__(self, pop: Population, driver, protocol: EnergyProtocol, window: int,
                 budget: int, basis_total: float, complete: bool, t0: int, cadence: int,
                 record: bool):
        self.pop, self.net, self.energy = pop, pop.network, pop.energy
        self.e = pop.energy.per_node
        self.driver, self.basis_total = driver, basis_total
        self.detector = detector = ConvergenceDetector(
            protocol.convergence, window, DD_TOL_FRACTION * basis_total, budget)
        self.t0, self.cadence, self.record = t0, cadence, record
        self.last = t0  # the last step run in full, or passed over by a jump
        self.dd_zero = detector.kind == DD_ZERO
        # Above margin a resync cannot bring dd within tolerance; a gap above
        # floor puts the running dd above margin (see the class docstring).
        drift = dd_drift(self.net.n, cadence, basis_total)
        self.margin = detector.dd_tol + drift
        self.floor = detector.dd_tol + 2.0 * drift
        self.edges = self.ideal = self.witness = None
        self.observing = not self.dd_zero
        if complete:
            self.completed()
        self.runs: list[MetricRun] = []
        self.log: list[tuple[int, int, float, float]] = []
        self.dd = 0.0  # the running dd at ``copy``, once ``summed``
        self.resync()
        self.stop(t0)
        if self.net.n == 1:  # a single node: nothing can ever move
            detector.force_converged(0, self.exact())

    def completed(self) -> None:
        """The tree is complete and stays so: dd sums over its edge list, the
        protocol reads its ideal shares, and a dd-zero detector is fed
        the distance."""
        self.edges = list(self.net.edges())
        self.ideal = compute_ideal_energies(self.net, self.basis_total)
        if isinstance(self.driver, LiveEnergyDriver):
            self.driver.table = self.ideal
        self.observing = True

    def resync(self) -> None:
        # The running dd restarts from the full sum of this state, taken
        # when it is read.
        self.copy = self.e[:]
        self.summed = False
        self.log.clear()
        self.dirty = False

    def exact(self) -> float:
        """The running dd, rebuilt from the copy and the log."""
        copy = self.copy
        if not self.summed:
            self.dd = distribution_distance(self.net, copy, self.edges)
            self.summed = True
        if self.log:
            net, dd = self.net, self.dd
            for u, v, eu, ev in self.log:
                pre = incident_distance(net, copy, u, v)
                copy[u], copy[v] = eu, ev
                dd += incident_distance(net, copy, u, v) - pre
                if dd < 0.0:
                    dd = 0.0
            self.dd = dd
            self.log.clear()
        return self.dd

    def _rescan(self) -> bool:
        """Whether some tree edge is a witness; keeps the one with the
        largest gap."""
        e, best = self.e, self.floor
        self.witness = None
        for p, c in self.edges:
            gap = 2.0 * e[c] - e[p]
            if gap > best:
                best, self.witness = gap, (p, c)
        return self.witness is not None

    def _sample(self, first: int, last: int) -> None:
        # One run of samples at the cadence steps from ``first`` to ``last``
        # (from t0), all of the current dd, total and loss.
        e = self.energy
        steps = range(first, last + 1, self.cadence)
        self.runs.append(MetricRun(steps, self.exact(), e.total(), e.lost))

    def stop(self, t: int, u: Optional[int] = None, v: Optional[int] = None,
             joined: bool = False) -> tuple[float, Optional[float]]:
        """The stop at step t, after the steps skipped since the last one.
        The energy rule runs on (u, v), after a resync if the step ``joined``
        an edge to the tree; a stop with no pair is a jump. Returns the
        amount moved and the loss fraction."""
        t0, detector, cadence = self.t0, self.detector, self.cadence
        s = t - t0
        crossed = self.last - t0
        crossed += cadence - crossed % cadence  # the first cadence step after the last stop
        if crossed < s:
            # Nothing moved since the last stop: the step path resyncs at
            # that cadence step if dirty, and samples there and at the next.
            if self.dirty:
                self.resync()
            if self.record:
                self._sample(crossed, s - 1)
        self.last = t
        moved, beta = 0.0, None
        e = self.e
        if u is not None:
            if joined:
                self.resync()
            moved, beta = self.driver.move(self.pop, u, v)
            if moved:
                self.log.append((u, v, e[u], e[v]))
                self.dirty = True
        read = s >= detector.due
        if not self.observing:  # a dd-zero run on a partial tree: only the horizon decides
            if read:
                detector.observe(s, math.inf, moved)
            read = False
        elif self.dd_zero:
            if not read:  # the kept witness, else a rescan
                w = self.witness
                if w is None or not 2.0 * e[w[1]] - e[w[0]] > self.floor:
                    read = not self._rescan()
            if read:
                dd = self.exact()
                if dd <= detector.dd_tol:
                    self.resync()  # confirm before declaring
                    dd = self.exact()
                detector.observe(s, dd, moved)
        elif read:
            detector.observe(s, self.exact(), moved)
        elif moved:  # a quiescence move restarts the window
            detector.observe(s, math.inf, moved)
        if s % cadence == 0:
            if self.dirty:
                self.resync()  # resync any float drift
            if self.record:
                self._sample(s, s)
        until = t0 + detector.due  # the verdict if nothing moves, or an earlier step that decides
        if self.dd_zero and read:
            dd = self.exact()
            if dd <= detector.dd_tol:
                until = t + 1  # a cadence resync brought dd within tolerance: declare it next
            elif self.dirty and dd <= self.margin:
                # The resync at the next cadence step might: stop there. Any
                # other dirty cadence step is resynced by the next stop.
                until = min(until, t - s % cadence + cadence)
        self.until = until
        return moved, beta

    def end(self, t: int) -> list[MetricRun]:
        """The sample runs, with one at the last step t if it is off the
        cadence."""
        s = t - self.t0
        if self.record and s % self.cadence:
            self.resync()
            self._sample(s, s)
        return self.runs


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
    if metric_cadence > MAX_CADENCE:
        raise DomainError(f"metric cadence must be at most 2^53 (got {metric_cadence})")
    if trace is not None and len(trace):
        raise DomainError("trace steps must be consecutive from 0")  # one run per trace

    complete = is_formation_complete(net)
    stabilized = complete and estimation_stabilized(pop)
    unsettled = UnsettledNodes(pop) if complete and not stabilized else None
    formation_steps = 0 if complete else formation_budget
    stabilized_step = 0 if stabilized else None
    stab_cadence = _stabilize_cadence(n)
    if formation is None and not complete:
        raise DomainError("redistribution on an incomplete network needs a formation protocol")

    replaying = isinstance(scheduler, ScriptedScheduler)
    driver = basis_total = None
    if energy_protocol is not None:
        basis_total = e.total()  # no energy moves before the protocol joins
        if replaying:
            driver = scheduler
        else:
            # No generator at n=1 (no scheduler): the protocol draws nothing
            rng = getattr(scheduler, "rng", None)
            driver = LiveEnergyDriver(energy_protocol, loss, rng, basis_total)
    # Live runs and replays skip (see the module docstring).
    skipping = not validate and scheduler is not None
    jumps = not replaying and trace is None
    drawn = None if trace is None else trace.pairs
    kary = formation is not None and formation.kind == KARY
    tally: Optional[_Tally] = None  # set once the energy protocol joins

    def active_pairs() -> Optional[ActivePairs]:
        # Phase A on a completed tree, or the energy protocol on stable
        # estimates, in a state the mask covers; the step path everywhere else.
        if not (skipping and complete and stabilized == (tally is not None)
                and reachable(pop, kary)):
            return None
        if tally is not None and not replaying:
            return ActivePairs(pop, formation, energy_protocol, driver)
        return ActivePairs(pop, formation)

    skipped = 0
    # Phase A (two-phase mode only) grows the tree and settles the
    # estimates within formation_budget steps; then the energy protocol
    # joins for at most energy_budget steps.
    in_phase_a = phase_mode == TWOPHASE and formation is not None and n > 1
    end = formation_budget if in_phase_a else 0
    t = 0
    moved, beta = 0.0, None
    mask = active_pairs() if in_phase_a else None
    while True:
        if tally is not None and tally.detector.decided:
            break
        if tally is None and (t >= end or stabilized):
            # Phase A is over, or never ran: the energy protocol joins now.
            if driver is None or (phase_mode == TWOPHASE and not complete):
                break
            tally = _Tally(pop, driver, energy_protocol, window, energy_budget, basis_total,
                           complete, t, metric_cadence, record_metrics)
            mask = active_pairs()
            continue

        if mask is None:
            u, v = scheduler.next_pair()
            t += 1
        else:
            if tally is not None:
                until = tally.until
                if jumps and not mask.count:
                    tally.stop(until)
                    skipped += until - t
                    t = until
                    continue
            elif unsettled.count:
                until = end
            else:  # phase A's next stabilization probe
                until = min(end, t - (t - formation_steps) % stab_cadence + stab_cadence)
            key = mask.key if mask.uh else None  # UH is tested by key, not in the rows
            k, u, v = scheduler.skip(until - t, mask.rows, drawn, key)
            skipped += k - 1
            t += k
            if drawn is not None and k > 1:
                trace.rules += _idle_rules(drawn, len(trace.rules), net.parent, kary)
        joined = False
        if mask is None or mask.structural:
            tag = apply_formation_rule(formation, pop, u, v) if formation else NOOP
            apply_estimation_rules(pop, u, v)
            joined = tag in CONNECTING_RULES
        elif trace is not None:
            # No rule can change a register (see ActivePairs): only the move
            # runs, tagged as a skipped step is.
            tag = UW if kary and (net.parent[u] == v or net.parent[v] == u) else NOOP
        probe = remask = False
        if joined:
            if not complete and net.edge_count == n - 1 and is_formation_complete(net):
                complete = remask = True
                formation_steps = t
                unsettled = UnsettledNodes(pop)
                if tally is not None:
                    tally.completed()
                probe = tally is None  # phase A probes at once
        elif complete and not stabilized:
            unsettled.update(u, v)
            # Phase A probes every stab_cadence steps counted from
            # formation_steps; later probes are aligned to the absolute step.
            probe = (t - (formation_steps if tally is None else 0)) % stab_cadence == 0
        if probe and unsettled.count == 0:
            stabilized = remask = True
            stabilized_step = t
        if tally is not None:
            moved, beta = tally.stop(t, u, v, joined)
            if validate:
                if not e.conservation_ok():
                    raise InvariantError("energy conservation violated")
                if min(e.per_node) < 0.0:
                    raise InvariantError("negative node energy")
        if remask:
            mask = active_pairs()
        elif mask is not None:
            mask.refresh(u, v, moved)
        if trace is not None:
            trace.pairs.append((u, v))
            trace.rules.append(tag if tag != NOOP or not moved else energy_protocol.tag)
            if moved or beta is not None:
                trace.moves[t - 1] = (moved or None, beta)

    outcome = SimOutcome(
        pop=pop,
        completed=complete,
        stabilized=stabilized,
        formation_steps=formation_steps,
        estimation_steps=0 if stabilized_step is None else stabilized_step - formation_steps,
        total_steps=t,
        skipped_steps=skipped,
    )
    if tally is not None:
        outcome.report = tally.detector.report()
        outcome.metric_runs = tally.end(t)
        outcome.ideal = tally.ideal
    elif driver is not None:
        # Formation never finished; report an unconverged run.
        outcome.report = ConvergenceReport(tau=energy_budget, dd_at_tau=math.nan, converged=False)
    if trace is not None:
        trace.final_digest = snapshot_digest(pop)
        outcome.trace = trace
    return outcome
