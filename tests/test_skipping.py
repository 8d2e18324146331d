"""Idle-step skipping in the redistribution loop gives the outputs of the
step-by-step loop.

Recording a trace keeps every step on the step-by-step path, so each case
runs the same seeded run twice, with and without a trace, and compares the
row, the final snapshot and the metric samples.
"""

from __future__ import annotations

import pytest

from enertree.core import EnergyState, Population, TreeNetwork
from enertree.energy import LambdaExchange
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
    if cadence > 1:
        assert all(o.skipped_steps > 0 for o in outcomes)
    else:
        assert all(o.skipped_steps == 0 for o in outcomes)  # every step is an event


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
def test_targeted_protocols_are_not_skipped(protocol):
    # Targeted protocols act on any pair, not just on tree edges.
    config = ExperimentConfig(n=12, energy_protocol=protocol)
    assert run_single(config, 0).outcome.skipped_steps == 0


def _stable_binary_tree(w):
    """Complete 7-node binary tree with settled depth and height registers."""
    net = TreeNetwork(7, arity_bound=2)
    for c in range(1, 7):
        net.add_edge((c - 1) // 2, c)
    depth, height = true_depths(net)
    energy = EnergyState([100.0] * 7)
    return Population(net, energy, w=w, d=depth, h=[height] * 7, fresh=False)


def _run_on(pop, record_trace):
    return simulate(
        pop, formation=FormationProtocol.kary(2), scheduler=RandomScheduler(make_rng(11), 7),
        energy_protocol=LambdaExchange(2.0), metric_cadence=5,
        trace=InteractionTrace(11, {}) if record_trace else None,
    )


def test_broken_merge_keys_keep_the_step_path():
    # The leaves are keyed below the root, so a leaf meeting the root tries
    # to capture it and the step raises; a skip over that pair would hide
    # the fault.
    for record_trace in (False, True):
        with pytest.raises(InvariantError):
            _run_on(_stable_binary_tree([3, 3, 3, 0, 0, 0, 0]), record_trace)


def test_diffused_merge_keys_skip():
    fast = _run_on(_stable_binary_tree([0] * 7), record_trace=False)
    step = _run_on(_stable_binary_tree([0] * 7), record_trace=True)
    assert fast.skipped_steps > 0
    assert fast.digest == step.digest
    assert fast.samples == step.samples
    assert fast.report == step.report
