"""Idle-step skipping through the active-pair mask gives the outputs of the
step-by-step loop.

Validation keeps every step on the step-by-step path, so each case runs the
same seeded run three times: skipping without a trace, skipping with one,
and validated with one. It compares the row, the final snapshot, the metric
samples and the trace records, and replays the skipping run's trace.
"""

from __future__ import annotations

import pytest

from enertree import metrics, runner
from enertree.core import EnergyState, Population, TreeNetwork
from enertree.energy import IdealTarget, LambdaExchange
from enertree.errors import DomainError, InvariantError
from enertree.estimation import true_depths
from enertree.formation import FormationProtocol
from enertree.harness import ExperimentConfig, replay_trace, run_single
from enertree.runner import DD_TOL_FRACTION, dd_drift, simulate
from enertree.scheduler import InteractionTrace, RandomScheduler, ScriptedScheduler, make_rng

from conftest import records, samples

LOSSY = "normal:0.2,0.05"


def assert_same_as_step_path(config: ExperimentConfig, runs: int = 2) -> list:
    outcomes = []
    for i in range(runs):
        fast = run_single(config, i, record_trace=False, record_metrics=True)
        traced = run_single(config, i, record_trace=True, record_metrics=True)
        step = run_single(config, i, record_trace=True, record_metrics=True, validate=True)
        assert step.outcome.skipped_steps == 0
        for run in (fast, traced):
            assert run.row() == step.row()
            assert run.outcome.digest == step.outcome.digest
            assert samples(run.outcome) == samples(step.outcome)
            assert repr(run.outcome.report) == repr(step.outcome.report)
        assert records(traced.outcome.trace) == records(step.outcome.trace)
        replayed = replay_trace(traced.outcome.trace)
        assert replayed.digest == step.outcome.trace.final_digest
        assert replayed.total_steps == step.outcome.total_steps
        outcomes.append(fast.outcome)
    return outcomes


@pytest.mark.parametrize("protocol", ["lambda:2", "kappa:0.5", "rand"])
@pytest.mark.parametrize("loss", ["lossless", LOSSY])
def test_skipping_matches_step_path(protocol, loss):
    config = ExperimentConfig(n=17, energy_protocol=protocol, loss=loss, initial_energy="random")
    outcomes = assert_same_as_step_path(config)
    assert all(o.skipped_steps > 0 for o in outcomes)


@pytest.mark.parametrize("protocol", ["lambda:2", "kappa:0.3"])
def test_skipping_matches_step_path_concurrent(protocol):
    config = ExperimentConfig(
        n=12, energy_protocol=protocol, loss=LOSSY, phase_mode="concurrent",
        target_energy_basis="initial", protocol="arbitrary",
    )
    outcomes = assert_same_as_step_path(config)
    assert all(o.skipped_steps > 0 for o in outcomes)


# lambda:2 cases keep their plain cadence ids.
CADENCE_CASES = [
    pytest.param(cadence, protocol, id=f"{cadence}" + ("" if protocol == "lambda:2" else f"-{protocol}"))
    for protocol in ["lambda:2", "kappa:0.5", "ideal"]
    for cadence in [1, 7, 13]
]


@pytest.mark.parametrize("cadence, protocol", CADENCE_CASES)
def test_skipping_matches_step_path_at_each_cadence(cadence, protocol):
    config = ExperimentConfig(n=13, energy_protocol=protocol, loss=LOSSY, metric_cadence=cadence)
    outcomes = assert_same_as_step_path(config)
    # A cadence step stops a skip only when energy moved since the last
    # full dd and a dd-zero run's dd is within ``dd_drift`` of its
    # tolerance, so even cadence 1 skips. Such a stop, and the quiescence
    # verdict under ideal, often falls on a pair outside the mask, where a
    # live run applies no rule.
    assert all(o.skipped_steps > 0 for o in outcomes)


def test_budget_ending_inside_a_skip():
    # The budget is not a cadence multiple, so the last skip stops on it.
    config = ExperimentConfig(n=30, energy_protocol="lambda:2", step_budget=20_001, metric_cadence=7)
    (outcome,) = assert_same_as_step_path(config, runs=1)
    assert not outcome.report.converged
    assert outcome.report.tau == 20_001
    assert outcome.skipped_steps > 0


def _deferred_resyncs(monkeypatch) -> tuple[list, list]:
    """Note each stop that resyncs for a dirty cadence step passed over in
    a skip, and each stop whose dd the drift guard holds at the next cadence
    step (dirty, with dd above tolerance but within ``dd_drift`` of it)."""
    deferred, guarded = [], []
    stop = runner._Tally.stop

    def noting(tally, t, *args):
        last = tally.last - tally.t0
        if tally.dirty and last - last % tally.cadence + tally.cadence < t - tally.t0:
            deferred.append(t)
        result = stop(tally, t, *args)
        if tally.dirty and tally.detector.dd_tol < tally.dd <= tally.margin:
            guarded.append(t)
        return result

    monkeypatch.setattr(runner._Tally, "stop", noting)
    return deferred, guarded


@pytest.mark.parametrize("total", [1e-320, 1e300])
@pytest.mark.parametrize("protocol", ["lambda:2", "kappa:0.5"])
@pytest.mark.parametrize("cadence", [2, 5])
def test_a_dirty_cadence_step_inside_a_skip_matches_step_path(monkeypatch, protocol, total,
                                                                cadence):
    # A cadence step after a move does not stop a skip: the next stop
    # resyncs for it and writes its sample. At 1e-320 dd_tol is 0.0.
    deferred, _ = _deferred_resyncs(monkeypatch)
    config = ExperimentConfig(n=12, energy_protocol=protocol, initial_energy="random",
                              total_energy=total, metric_cadence=cadence, emit_metrics=True)
    assert_same_as_step_path(config)
    assert deferred


def _overstate_dd(monkeypatch, excess: float) -> None:
    """Make the running dd read ``excess`` above the full one from the first
    move after each resync on, as float drift within ``dd_drift`` might."""
    bias = [0.0]
    full, incident = runner.distribution_distance, runner.incident_distance

    def resynced(*args):
        bias[0] = 0.0
        return full(*args)

    def biased(*args):
        return incident(*args) + bias[0]

    monkeypatch.setattr(runner, "distribution_distance", resynced)
    monkeypatch.setattr(runner, "incident_distance", biased)
    for driver in (runner.LiveEnergyDriver, ScriptedScheduler):
        def move(self, pop, u, v, move=driver.move):
            moved = move(self, pop, u, v)
            if moved[0]:
                bias[0] = excess
            return moved

        monkeypatch.setattr(driver, "move", move)


@pytest.mark.parametrize("protocol", ["lambda:3", "kappa:0.5"])
@pytest.mark.parametrize("cadence", [2, 3, 5])
def test_a_running_dd_within_the_drift_bound_stops_at_its_cadence_step(monkeypatch, protocol,
                                                                       cadence):
    # At a subnormal total dd_tol is 0.0 and the bound is its absolute term
    # alone. A running dd that reads 0.9 of the bound too high is above
    # tolerance after every move, so each verdict falls the step after a
    # cadence resync; a skip that passed that step over would miss it.
    # (lambda:2 never reaches a dd of 0.0 here: a gap of one unit in the
    # last place moves nothing.)
    n, total = 12, 1e-320
    assert DD_TOL_FRACTION * total == 0.0
    _overstate_dd(monkeypatch, 0.9 * dd_drift(n, cadence, total))
    _, guarded = _deferred_resyncs(monkeypatch)
    config = ExperimentConfig(n=n, energy_protocol=protocol, initial_energy="random",
                              total_energy=total, metric_cadence=cadence, emit_metrics=True)
    outcomes = assert_same_as_step_path(config, runs=3)
    assert any(o.report.converged for o in outcomes)
    assert guarded


def test_the_drift_bound_is_pinned_and_holds():
    # The bound (derived in ``runner.dd_drift``): far below dd_tol at a
    # normal total, and one absolute term per operation at a subnormal one.
    assert dd_drift(30, 30, 1.0) == 3.410605131648481e-12
    assert dd_drift(30, 30, 1e300) == 3.410605131648481e288
    assert dd_drift(12, 3, 1e-320) == 186 * 2.0**-1074 == 9.2e-322
    # Every running dd rebuilt from logged moves is within it of a full
    # resync of the same state. Rebuilding changes no value, so the books
    # are also rebuilt before each resync after a move, where eager books
    # held a running dd.
    gaps = []
    exact, resync = runner._Tally.exact, runner._Tally.resync

    def checked(tally):
        replayed = bool(tally.log)
        running = exact(tally)
        if replayed:
            full = metrics.distribution_distance(tally.net, tally.energy.per_node, tally.edges)
            bound = dd_drift(tally.net.n, tally.cadence, tally.basis_total)
            gaps.append(abs(running - full) / bound)
        return running

    def rebuilt(tally):
        if getattr(tally, "dirty", False):  # unset at the phase start
            tally.exact()
        resync(tally)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner._Tally, "exact", checked)
        patch.setattr(runner._Tally, "resync", rebuilt)
        for protocol in ["lambda:2", "kappa:0.5", "rand", "ideal", "kdepth:2"]:
            for total in [1e-300, 1.0, 3e4, 1e300]:
                for loss in ["lossless", LOSSY]:
                    config = ExperimentConfig(n=30, energy_protocol=protocol, loss=loss,
                                              initial_energy="random", total_energy=total,
                                              metric_cadence=30)
                    run_single(config, 0, record_metrics=True)
    assert 0.0 < max(gaps) <= 1.0


def test_most_redistribution_steps_are_skipped():
    config = ExperimentConfig(n=30, energy_protocol="lambda:2")
    outcome = run_single(config, 0).outcome
    assert outcome.report.converged
    redistribution = outcome.total_steps - outcome.formation_steps - outcome.estimation_steps
    assert outcome.skipped_steps > 0.8 * redistribution


def test_traced_runs_and_replays_skip():
    # The benchmark's trace workload: most steps after completion are
    # skipped live with a trace, and again when the trace is replayed.
    config = ExperimentConfig(n=30, protocol="arbitrary", energy_protocol="rand", loss=LOSSY,
                              initial_energy="random")
    (outcome,) = assert_same_as_step_path(config, runs=1)
    traced = run_single(config, 0, record_trace=True).outcome
    replayed = replay_trace(traced.trace)
    after_completion = outcome.total_steps - outcome.formation_steps
    assert traced.skipped_steps > 0.8 * after_completion
    assert replayed.skipped_steps > 0.8 * after_completion


@pytest.mark.parametrize("protocol", ["ideal", "kdepth:2"])
@pytest.mark.parametrize("loss", ["lossless", LOSSY])
def test_targeted_protocols_skip(protocol, loss):
    # Targeted protocols act on (above, below) pairs; once none is left the
    # run jumps to the quiescence verdict.
    config = ExperimentConfig(n=12, energy_protocol=protocol, loss=loss, metric_cadence=5)
    for outcome in assert_same_as_step_path(config):
        assert outcome.report.converged
        redistribution = outcome.total_steps - outcome.formation_steps - outcome.estimation_steps
        assert outcome.skipped_steps > 0.8 * redistribution


def test_phase_a_after_completion_is_skipped():
    # No energy protocol: only formation and estimation run.
    config = ExperimentConfig(n=30, energy_protocol=None)
    (outcome,) = assert_same_as_step_path(config, runs=1)
    assert outcome.stabilized
    assert outcome.skipped_steps > 0.5 * outcome.estimation_steps


def _stable_binary_tree(w):
    """Complete 7-node binary tree with settled depth and height registers."""
    net = TreeNetwork(7, arity_bound=2)
    for c in range(1, 7):
        net.add_edge((c - 1) // 2, c)
    depth, height = true_depths(net)
    energy = EnergyState([100.0] * 7)
    return Population(net, energy, w=w, d=depth, h=[height] * 7, fresh=False)


# How a run on a loaded tree is made: skipping without a trace, skipping
# with one, and on the step path (validated) with one.
MODES = [(False, False), (True, False), (True, True)]


def _run_on(pop, traced, validate, scheduler=None):
    return simulate(
        pop, formation=FormationProtocol.kary(2),
        scheduler=scheduler or RandomScheduler(make_rng(11), 7),
        energy_protocol=LambdaExchange(2.0), metric_cadence=5,
        trace=InteractionTrace(11, {}) if traced else None, validate=validate,
    )


def test_broken_merge_keys_raise_at_the_same_pair():
    # The leaves are keyed below the root, so a leaf meeting the root tries
    # to capture it and the step raises; no run reaches such keys, so the
    # skipping run takes the step path and raises after the same pairs.
    states = []
    for traced, validate in MODES:
        scheduler = RandomScheduler(make_rng(11), 7)
        with pytest.raises(InvariantError):
            _run_on(_stable_binary_tree([3, 3, 3, 0, 0, 0, 0]), traced, validate, scheduler)
        states.append(scheduler.rng.getstate())
    assert states[0] == states[1] == states[2]


def test_stale_merge_keys_skip():
    # Keys above the root's are stale, not broken: UW copies them down the
    # tree edge by edge while the targeted protocol moves energy elsewhere.
    def run(traced, validate):
        return simulate(
            _stable_binary_tree([0, 5, 6, 4, 3, 2, 1]), formation=FormationProtocol.kary(2),
            scheduler=RandomScheduler(make_rng(5), 7), energy_protocol=IdealTarget(),
            window=40, metric_cadence=3, trace=InteractionTrace(5, {}) if traced else None,
            validate=validate,
        )

    fast, traced, step = (run(*mode) for mode in MODES)
    assert step.skipped_steps == 0
    assert fast.skipped_steps > 0 and traced.skipped_steps > 0
    for run in (fast, traced):
        assert run.pop.w == step.pop.w == [0] * 7
        assert (run.digest, samples(run), run.report) == (step.digest, samples(step), step.report)
    assert records(traced.trace) == records(step.trace)


def test_diffused_merge_keys_skip():
    fast, traced, step = (_run_on(_stable_binary_tree([0] * 7), *mode) for mode in MODES)
    assert step.skipped_steps == 0
    assert fast.skipped_steps > 0 and traced.skipped_steps > 0
    for run in (fast, traced):
        assert run.digest == step.digest
        assert samples(run) == samples(step)
        assert run.report == step.report
    assert records(traced.trace) == records(step.trace)


def test_a_trace_takes_one_run_from_step_0():
    # The engine appends to a trace's columns, keyed by its own steps, so a
    # trace that already holds steps is refused before anything runs.
    trace = InteractionTrace(11, {}, pairs=[(0, 1)], rules=["NOOP"])
    with pytest.raises(DomainError, match="consecutive"):
        simulate(
            _stable_binary_tree([0] * 7), formation=FormationProtocol.kary(2),
            scheduler=RandomScheduler(make_rng(11), 7), energy_protocol=LambdaExchange(2.0),
            trace=trace,
        )
    assert len(trace) == 1


# (total_steps, skipped_steps) of run 0 at n=30 with random energies. The
# artifacts cannot see a change that stops more often than it needs to (it
# writes the same bytes, only slower); these counts can.
PINNED_STOPS = {
    ("lambda:2", "lossless"): (117_490, 113_185),
    ("lambda:2", LOSSY): (95_076, 89_791),
    ("rand", "lossless"): (19_818, 18_250),
    ("rand", LOSSY): (21_541, 19_891),
    ("kappa:0.5", "lossless"): (19_200, 18_410),
    ("kappa:0.5", LOSSY): (17_240, 16_443),
    ("ideal", "lossless"): (9_814, 9_277),
    ("ideal", LOSSY): (9_709, 9_142),
    ("kdepth:2", "lossless"): (10_584, 10_046),
    ("kdepth:2", LOSSY): (10_486, 9_871),
}


@pytest.mark.parametrize("protocol, loss", list(PINNED_STOPS))
def test_stop_counts_are_pinned(protocol, loss):
    config = ExperimentConfig(n=30, energy_protocol=protocol, loss=loss, initial_energy="random")
    outcome = run_single(config, 0).outcome
    assert (outcome.total_steps, outcome.skipped_steps) == PINNED_STOPS[protocol, loss]


def test_stop_counts_of_a_traced_run_and_its_replay_are_pinned():
    config = ExperimentConfig(n=30, protocol="arbitrary", energy_protocol="rand", loss=LOSSY,
                              initial_energy="random")
    traced = run_single(config, 0, record_trace=True).outcome
    replayed = replay_trace(traced.trace)
    assert (traced.total_steps, traced.skipped_steps) == (8_801, 7_672)
    assert (replayed.total_steps, replayed.skipped_steps) == (8_801, 7_852)
