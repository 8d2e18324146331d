"""Idle-step skipping through the active-pair mask gives the outputs of the
step-by-step loop.

Recording a trace keeps every step on the step-by-step path, so each case
runs the same seeded run twice, with and without a trace, and compares the
row, the final snapshot and the metric samples.
"""

from __future__ import annotations

import pytest

from enertree.core import EnergyState, Population, TreeNetwork
from enertree.energy import IdealTarget, LambdaExchange
from enertree.errors import InvariantError
from enertree.estimation import true_depths
from enertree.formation import FormationProtocol
from enertree.harness import ExperimentConfig, run_single
from enertree.runner import simulate
from enertree.scheduler import InteractionTrace, RandomScheduler, make_rng

LOSSY = "normal:0.2,0.05"


def assert_same_as_step_path(config: ExperimentConfig, runs: int = 2) -> list:
    outcomes = []
    for i in range(runs):
        fast = run_single(config, i, record_trace=False, record_metrics=True)
        step = run_single(config, i, record_trace=True, record_metrics=True)
        assert step.outcome.skipped_steps == 0
        assert fast.row() == step.row()
        assert fast.outcome.digest == step.outcome.digest
        assert fast.outcome.samples == step.outcome.samples
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


@pytest.mark.parametrize("cadence", [1, 7, 13])
def test_skipping_matches_step_path_at_each_cadence(cadence):
    config = ExperimentConfig(n=13, energy_protocol="lambda:2", loss=LOSSY, metric_cadence=cadence)
    outcomes = assert_same_as_step_path(config)
    # A cadence step stops a skip only when energy moved since the last
    # full dd, so even cadence 1 skips.
    assert all(o.skipped_steps > 0 for o in outcomes)


def test_budget_ending_inside_a_skip():
    # The budget is not a cadence multiple, so the last skip stops on it.
    config = ExperimentConfig(n=30, energy_protocol="lambda:2", step_budget=20_001, metric_cadence=7)
    (outcome,) = assert_same_as_step_path(config, runs=1)
    assert not outcome.report.converged
    assert outcome.report.tau == 20_001
    assert outcome.skipped_steps > 0


def test_most_redistribution_steps_are_skipped():
    config = ExperimentConfig(n=30, energy_protocol="lambda:2")
    outcome = run_single(config, 0).outcome
    assert outcome.report.converged
    redistribution = outcome.total_steps - outcome.formation_steps - outcome.estimation_steps
    assert outcome.skipped_steps > 0.8 * redistribution


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


def _run_on(pop, record_trace, scheduler=None):
    return simulate(
        pop, formation=FormationProtocol.kary(2),
        scheduler=scheduler or RandomScheduler(make_rng(11), 7),
        energy_protocol=LambdaExchange(2.0), metric_cadence=5,
        trace=InteractionTrace(11, {}) if record_trace else None,
    )


def test_broken_merge_keys_raise_at_the_same_pair():
    # The leaves are keyed below the root, so a leaf meeting the root tries
    # to capture it and the step raises; the mask holds those root pairs, so
    # the skipping run raises after drawing the same pairs.
    states = []
    for record_trace in (False, True):
        scheduler = RandomScheduler(make_rng(11), 7)
        with pytest.raises(InvariantError):
            _run_on(_stable_binary_tree([3, 3, 3, 0, 0, 0, 0]), record_trace, scheduler)
        states.append(scheduler.rng.getstate())
    assert states[0] == states[1]


def test_stale_merge_keys_skip():
    # Keys above the root's are stale, not broken: UW copies them down the
    # tree edge by edge while the targeted protocol moves energy elsewhere.
    def run(record_trace):
        return simulate(
            _stable_binary_tree([0, 5, 6, 4, 3, 2, 1]), formation=FormationProtocol.kary(2),
            scheduler=RandomScheduler(make_rng(5), 7), energy_protocol=IdealTarget(),
            window=40, metric_cadence=3, trace=InteractionTrace(5, {}) if record_trace else None,
        )

    fast, step = run(False), run(True)
    assert fast.skipped_steps > 0
    assert fast.pop.w == step.pop.w == [0] * 7
    assert (fast.digest, fast.samples, fast.report) == (step.digest, step.samples, step.report)


def test_diffused_merge_keys_skip():
    fast = _run_on(_stable_binary_tree([0] * 7), record_trace=False)
    step = _run_on(_stable_binary_tree([0] * 7), record_trace=True)
    assert fast.skipped_steps > 0
    assert fast.digest == step.digest
    assert fast.samples == step.samples
    assert fast.report == step.report
