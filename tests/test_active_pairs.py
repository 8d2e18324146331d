"""Differential test of the skipping engine.

A live run without a trace skips idle steps through the active-pair mask; the
same run recording a trace takes every step in full. Over generated
configurations and loaded snapshots, both must give the same ``runs.csv``
row, metric samples, report and final snapshot digest, or raise the same
error after drawing the same pairs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from enertree.core import EnergyState, Population, TreeNetwork
from enertree.energy import LossModel, parse_energy_protocol
from enertree.errors import InvariantError
from enertree.estimation import true_depths
from enertree.formation import FormationProtocol, load_snapshot, snapshot_digest, snapshot_lines
from enertree.harness import ExperimentConfig, run_single
from enertree.runner import simulate
from enertree.scheduler import InteractionTrace, RandomScheduler, make_rng

PROTOCOLS = ["ideal", "lambda:2", "rand", "kappa:0.5", "kdepth:2"]
LOSSES = ["lossless", "normal:0.2,0.05"]
MODES = [("twophase", "post_formation"), ("concurrent", "initial")]
DIFF = settings(max_examples=120, deadline=None, derandomize=True)
RUNS = settings(DIFF, max_examples=100)


@st.composite
def configs(draw) -> ExperimentConfig:
    n = draw(st.integers(2, 40))
    mode, basis = draw(st.sampled_from(MODES))
    return ExperimentConfig(
        n=n,
        protocol=draw(st.sampled_from(["arbitrary", "kary:2", "kary:3"])),
        energy_protocol=draw(st.sampled_from(PROTOCOLS)),
        loss=draw(st.sampled_from(LOSSES)),
        initial_energy=draw(st.sampled_from(["uniform", "random"])),
        repetitions=1,
        master_seed=draw(st.integers(0, 10**6)),
        step_budget=draw(st.integers(1, 200) | st.integers(25 * n * n, 40 * n * n)),
        phase_mode=mode,
        target_energy_basis=basis,
        quiescence_window=draw(st.none() | st.integers(1, 300)),
        metric_cadence=draw(st.none() | st.integers(1, 50)),
    )


@RUNS
@given(configs())
def test_skipping_engine_matches_step_path(config):
    fast = run_single(config, 0, record_trace=False, record_metrics=True)
    step = run_single(config, 0, record_trace=True, record_metrics=True)
    assert step.outcome.skipped_steps == 0
    assert repr(fast.row()) == repr(step.row())
    assert repr(fast.outcome.samples) == repr(step.outcome.samples)
    assert repr(fast.outcome.report) == repr(step.outcome.report)
    assert fast.outcome.total_steps == step.outcome.total_steps
    assert fast.outcome.digest == step.outcome.digest


@st.composite
def snapshots(draw) -> tuple[list[str], int]:
    """A completed k-ary tree as a snapshot: random shape, merge keys
    diffused, stale, or random (often some below the root's), registers
    fresh, settled or random, and energies."""
    n = draw(st.integers(2, 25))
    k = draw(st.integers(2, 3))
    net = TreeNetwork(n, arity_bound=k)
    for c in range(1, n):
        free = [p for p in range(c) if len(net.children[p]) < k]
        net.add_edge(draw(st.sampled_from(free)), c)
    registers = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    keys = draw(st.sampled_from(["diffused", "stale", "random"]))
    if keys == "diffused":
        w = [0] * n
    else:  # node 0 is the root; stale keys all lie above its key 0
        w = draw(registers)
        if keys == "stale":
            w[0] = 0
    settle = draw(st.sampled_from(["fresh", "settled", "random"]))
    if settle == "fresh":
        d, h = [0] * n, [0] * n
    elif settle == "settled":
        d, height = true_depths(net)
        h = [height] * n
    else:
        d, h = draw(registers), draw(registers)
    energies = draw(st.lists(st.floats(0.5, 1e3), min_size=n, max_size=n))
    pop = Population(net, EnergyState(energies), w=w, d=d, h=h, fresh=False)
    return snapshot_lines(pop), k


def _simulate(lines, k, seed, record_trace, formation, **kwargs):
    pop = load_snapshot(lines, arity_bound=k)
    scheduler = RandomScheduler(make_rng(seed), len(lines))
    try:
        outcome = simulate(
            pop,
            formation=formation,
            scheduler=scheduler,
            trace=InteractionTrace(seed, {}) if record_trace else None,
            **kwargs,
        )
    except InvariantError as exc:
        return repr(exc), scheduler.rng.getstate(), snapshot_digest(pop)
    report = (outcome.report, outcome.samples, outcome.formation_steps, outcome.estimation_steps)
    return repr(report), outcome.total_steps, outcome.digest


@DIFF
@given(
    snapshots(),
    st.integers(0, 10**6),
    st.sampled_from(PROTOCOLS),
    st.sampled_from(LOSSES),
    st.sampled_from(MODES),
    st.integers(1, 50) | st.integers(500, 3000),
    st.integers(1, 300),
    st.integers(1, 40),
    st.booleans(),
)
def test_skipping_engine_matches_step_path_on_a_snapshot(
    snapshot, seed, protocol, loss, mode, budget, window, cadence, kary
):
    # Without a formation protocol (as in ``enertree redistribute``) no
    # merge-key rule runs.
    lines, k = snapshot
    kwargs = dict(
        formation=FormationProtocol.kary(k) if kary else None,
        energy_protocol=parse_energy_protocol(protocol), loss=LossModel.parse(loss),
        phase_mode=mode[0], target_basis=mode[1], formation_budget=budget,
        energy_budget=budget, window=window, metric_cadence=cadence,
    )
    fast = _simulate(lines, k, seed, False, **kwargs)
    step = _simulate(lines, k, seed, True, **kwargs)
    assert fast == step
