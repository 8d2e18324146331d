"""Differential test of the skipping engine.

A live run skips idle steps through the active-pair mask, with or without a
trace; the same run with ``validate=True`` takes every step in full. Over
generated configurations and loaded snapshots, all three must give the same
``runs.csv`` row, metric samples, report and final snapshot digest, or raise
the same error after drawing the same pairs. The two traced runs must record
the same trace, and a replay of the skipping run's trace (which skips too)
must end on its digest after the same number of steps.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enertree import runner
from enertree.active import ActivePairs, reachable
from enertree.core import CONDITION_SLACK, EnergyState, Population, TreeNetwork
from enertree.energy import (
    DepthTarget,
    KappaTransfer,
    LambdaExchange,
    LossModel,
    compute_ideal_energies,
    parse_energy_protocol,
)
from enertree.errors import InvariantError
from enertree.estimation import apply_estimation_rules, true_depths
from enertree.formation import (
    FormationProtocol,
    apply_formation_rule,
    load_snapshot,
    snapshot_digest,
    snapshot_lines,
)
from enertree.harness import ExperimentConfig, replay_trace, run_single
from enertree.runner import LiveEnergyDriver, simulate
from enertree.scheduler import InteractionTrace, RandomScheduler, ScriptedScheduler, make_rng

from conftest import Draws, records, samples
from test_skipping import _stable_binary_tree

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
    traced = run_single(config, 0, record_trace=True, record_metrics=True)
    step = run_single(config, 0, record_trace=True, record_metrics=True, validate=True)
    assert step.outcome.skipped_steps == 0
    for run in (fast, traced):
        assert repr(run.row()) == repr(step.row())
        assert repr(samples(run.outcome)) == repr(samples(step.outcome))
        assert repr(run.outcome.report) == repr(step.outcome.report)
        assert run.outcome.total_steps == step.outcome.total_steps
        assert run.outcome.digest == step.outcome.digest
    assert records(traced.outcome.trace) == records(step.outcome.trace)
    replayed = replay_trace(traced.outcome.trace)
    assert replayed.digest == step.outcome.digest
    assert replayed.total_steps == step.outcome.total_steps


@RUNS
@given(configs())
def test_config_runs_reach_only_states_the_mask_covers(config):
    # From fresh registers and merge keys, every mask is built on a state
    # that passes the gate, live and in replay, so no run takes the step path
    # for failing it.
    gates = []

    def gate(pop, kary):
        gates.append(reachable(pop, kary))
        return gates[-1]

    with mock.patch.object(runner, "reachable", gate):
        traced = run_single(config, 0, record_trace=True).outcome
        replay_trace(traced.trace)
    assert all(gates)
    assert gates or not traced.stabilized  # a stabilized run built a mask


def _structural(mask: ActivePairs) -> int:
    """The structural entries of a mask's state, counted from scratch: the
    pairs of nodes with different ``h``, and the tree edges whose child's
    ``d`` is not its parent's plus one or, under the k-ary rules, whose
    child's key is not its parent's."""
    d, h, w = mask.d, mask.h, mask.w
    n = len(h)
    uh = sum(h[x] != h[y] for x in range(n) for y in range(x + 1, n))
    bent = sum(
        d[c] != d[p] + 1 or (mask.uw and w[c] != w[p])
        for c, p in enumerate(mask.parent) if p != -1
    )
    return uh + bent


@RUNS
@given(configs())
def test_structural_count_matches_a_recount_after_every_stop(config):
    # Checked where a mask is built and after every refresh (each stop that
    # runs a rule or a move), live and in replay.
    checked = []
    build, refresh = ActivePairs.__init__, ActivePairs.refresh

    def built(mask, *args):
        build(mask, *args)
        checked.append(mask.structural == _structural(mask))

    def refreshed(mask, *args):
        refresh(mask, *args)
        checked.append(mask.structural == _structural(mask))

    with mock.patch.object(ActivePairs, "__init__", built), \
            mock.patch.object(ActivePairs, "refresh", refreshed):
        traced = run_single(config, 0, record_trace=True).outcome
        replay_trace(traced.trace)
    assert all(checked)
    assert checked or not traced.stabilized


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


def _simulate(lines, k, seed, traced, validate, formation, **kwargs):
    """What a run on the snapshot gave, its trace, and whether it ran to
    the end (rather than raising)."""
    pop = load_snapshot(lines, arity_bound=k)
    scheduler = RandomScheduler(make_rng(seed), len(lines))
    trace = InteractionTrace(seed, {}) if traced else None
    try:
        outcome = simulate(
            pop, formation=formation, scheduler=scheduler, trace=trace, validate=validate, **kwargs
        )
    except InvariantError as exc:
        return (repr(exc), scheduler.rng.getstate(), snapshot_digest(pop)), trace, False
    report = (outcome.report, samples(outcome), outcome.formation_steps, outcome.estimation_steps)
    return (repr(report), outcome.total_steps, outcome.digest), trace, True


def _replay(lines, k, trace, formation, **kwargs):
    """Final digest and step count of a replay of ``trace`` on the snapshot."""
    outcome = simulate(
        load_snapshot(lines, arity_bound=k),
        formation=formation,
        scheduler=ScriptedScheduler(trace),
        record_metrics=False,
        **kwargs,
    )
    return outcome.digest, outcome.total_steps


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
    fast, _, _ = _simulate(lines, k, seed, False, False, **kwargs)
    traced, trace, _ = _simulate(lines, k, seed, True, False, **kwargs)
    step, step_trace, ended = _simulate(lines, k, seed, True, True, **kwargs)
    assert fast == traced == step
    assert records(trace) == records(step_trace)
    if ended:
        _, total_steps, digest = step
        assert _replay(lines, k, trace, **kwargs) == (digest, total_steps)


def test_a_depth_above_its_height_takes_the_step_path():
    # UH would raise both h of a pair with one h when either d is above it,
    # which the mask cannot see; the gate keeps such a snapshot on the step
    # path (here for the whole run: the estimates never settle again).
    pop = _stable_binary_tree([0] * 7)
    pop.d[3] = pop.h[3] + 2
    lines = snapshot_lines(pop)
    kwargs = dict(formation=FormationProtocol.kary(2), energy_protocol=LambdaExchange(2.0),
                  metric_cadence=5)
    fast, _, _ = _simulate(lines, 2, 3, False, False, **kwargs)
    traced, trace, _ = _simulate(lines, 2, 3, True, False, **kwargs)
    step, step_trace, _ = _simulate(lines, 2, 3, True, True, **kwargs)
    assert fast == traced == step
    assert records(trace) == records(step_trace)


def _settled_tree(draw, n, k, root_energy):
    """A completed k-ary tree rooted at node 0 with settled registers, merge
    keys diffused or stale (never below the root's), and random energies."""
    net = TreeNetwork(n, arity_bound=k)
    for c in range(1, n):
        free = [p for p in range(c) if len(net.children[p]) < k]
        net.add_edge(draw(st.sampled_from(free)), c)
    d, height = true_depths(net)
    w = [0] + draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
    energies = [root_energy] + draw(st.lists(st.floats(0.5, 1e3), min_size=n - 1, max_size=n - 1))
    return Population(net, EnergyState(energies), w=w, d=d, h=[height] * n, fresh=False)


@DIFF
@given(st.data(), st.integers(2, 20), st.integers(2, 3))
def test_the_gate_passes_a_settled_tree_and_fails_broken_registers_or_keys(data, n, k):
    pop = _settled_tree(data.draw, n, k, 1.0)
    assert reachable(pop, kary=True)
    x = data.draw(st.integers(0, n - 1))
    pop.d[x] = pop.h[x] + 1  # one d above its h
    assert not reachable(pop, kary=True) and not reachable(pop, kary=False)
    # Leaves keyed below the root break only the k-ary rules.
    broken = _stable_binary_tree([3, 3, 3, 0, 0, 0, 0])
    assert not reachable(broken, kary=True) and reachable(broken, kary=False)


@DIFF
@given(st.data(), st.integers(2, 20), st.integers(2, 3), st.sampled_from(PROTOCOLS),
       st.sampled_from(LOSSES), st.floats(0.0, 50.0))
def test_refreshed_mask_is_the_mask_of_the_new_state(data, n, k, protocol, loss, root_energy):
    # After every step, the incrementally refreshed mask holds exactly what a
    # mask built from scratch on the new state holds. A small root energy
    # makes kdepth drain its root, which must drop the root's buffer rows.
    pop = _settled_tree(data.draw, n, k, root_energy)
    formation = FormationProtocol.kary(k)
    protocol = parse_energy_protocol(protocol)
    scheduler = RandomScheduler(make_rng(data.draw(st.integers(0, 10**6))), n)
    driver = LiveEnergyDriver(protocol, LossModel.parse(loss), scheduler.rng, pop.energy.total())
    driver.table = compute_ideal_energies(pop.network, driver.total_energy)
    mask = ActivePairs(pop, formation, protocol, driver)
    for t in range(20 * n):
        u, v = scheduler.next_pair()
        apply_formation_rule(formation, pop, u, v)
        apply_estimation_rules(pop, u, v)
        moved, _ = driver.move(pop, u, v)
        mask.refresh(u, v, moved)
        fresh = ActivePairs(pop, formation, protocol, driver)
        assert (mask.rows, mask.count) == (fresh.rows, fresh.count)


def _unsettled_tree(draw, n, k):
    """A tree as ``_settled_tree`` draws it, with registers that the rules
    reach from fresh ones but that need not have settled: each ``d`` at
    most its true depth, and each ``h`` from its ``d`` to the tree height."""
    pop = _settled_tree(draw, n, k, draw(st.floats(0.5, 1e3)))
    d, h = pop.d, pop.h
    for x in range(n):
        d[x] = draw(st.integers(0, d[x]))
        h[x] = draw(st.integers(d[x], h[x]))
    return pop


# kdepth is left out: its targets read ``d`` and ``h``, and the engine builds
# a mask with an energy protocol only once the estimates have settled.
@DIFF
@given(st.data(), st.integers(2, 20), st.integers(2, 3), st.booleans(),
       st.sampled_from([None, "ideal", "lambda:2", "rand", "kappa:0.5"]), st.sampled_from(LOSSES))
def test_mask_refreshed_from_the_pair_alone_tracks_unsettled_registers(
    data, n, k, kary, protocol, loss
):
    # UD, UW and UH all fire here. After every step, the mask refreshed from
    # the pair alone holds what a mask built from scratch holds.
    pop = _unsettled_tree(data.draw, n, k)
    formation = FormationProtocol.kary(k) if kary else FormationProtocol.arbitrary()
    scheduler = RandomScheduler(make_rng(data.draw(st.integers(0, 10**6))), n)
    driver = None
    if protocol is not None:
        protocol = parse_energy_protocol(protocol)
        driver = LiveEnergyDriver(protocol, LossModel.parse(loss), scheduler.rng,
                                  pop.energy.total())
        driver.table = compute_ideal_energies(pop.network, driver.total_energy)
    mask = ActivePairs(pop, formation, protocol, driver)
    for _ in range(20 * n):
        u, v = scheduler.next_pair()
        apply_formation_rule(formation, pop, u, v)
        apply_estimation_rules(pop, u, v)
        moved = driver.move(pop, u, v)[0] if driver else 0.0
        mask.refresh(u, v, moved)
        fresh = ActivePairs(pop, formation, protocol, driver)
        assert (mask.rows, mask.count, mask.structural) == (
            fresh.rows, fresh.count, fresh.structural)


def _uh(h) -> int:
    """The ordered pairs of nodes whose ``h`` differ, counted from scratch."""
    return sum(hx != hy for hx in h for hy in h)


@DIFF
@given(st.data(), st.integers(2, 20), st.integers(2, 3), st.booleans(),
       st.sampled_from([None, "ideal", "lambda:2", "rand", "kappa:0.5"]), st.sampled_from(LOSSES))
def test_uh_count_tracks_unsettled_registers_outside_the_rows(data, n, k, kary, protocol, loss):
    # UH is kept by per-h counts, not in the rows: after every step the
    # count of UH pairs is the recount, and ``count`` is the rows plus it.
    pop = _unsettled_tree(data.draw, n, k)
    formation = FormationProtocol.kary(k) if kary else FormationProtocol.arbitrary()
    scheduler = RandomScheduler(make_rng(data.draw(st.integers(0, 10**6))), n)
    driver = None
    if protocol is not None:
        protocol = parse_energy_protocol(protocol)
        driver = LiveEnergyDriver(protocol, LossModel.parse(loss), scheduler.rng,
                                  pop.energy.total())
        driver.table = compute_ideal_energies(pop.network, driver.total_energy)
    mask = ActivePairs(pop, formation, protocol, driver)
    assert mask.uh == _uh(pop.h)
    for _ in range(20 * n):
        u, v = scheduler.next_pair()
        apply_formation_rule(formation, pop, u, v)
        apply_estimation_rules(pop, u, v)
        moved = driver.move(pop, u, v)[0] if driver else 0.0
        mask.refresh(u, v, moved)
        assert mask.uh == _uh(pop.h)
        assert mask.count == sum(map(sum, mask.rows)) + mask.uh


@DIFF
@given(st.data(), st.integers(2, 20), st.integers(2, 3), st.booleans())
def test_unsettled_heights_on_straight_edges_leave_every_row_empty(data, n, k, kary):
    # Settled depths and one merge key make every tree edge straight; heights
    # from each d to the tree height, with the root's 0 and a deepest node's
    # the height, leave UH pairs. With no protocol no row holds anything,
    # and the steps of the UH epidemic keep it so.
    pop = _settled_tree(data.draw, n, k, 1.0)
    d, h = pop.d, pop.h
    pop.w[:] = [0] * n
    for x in range(n):
        h[x] = data.draw(st.integers(d[x], h[x]))
    h[0], h[d.index(max(d))] = 0, max(d)
    formation = FormationProtocol.kary(k) if kary else FormationProtocol.arbitrary()
    mask = ActivePairs(pop, formation)
    assert mask.uh == _uh(h) > 0
    assert not any(map(any, mask.rows))
    assert (mask.count, mask.structural) == (mask.uh, mask.uh // 2)
    scheduler = RandomScheduler(make_rng(data.draw(st.integers(0, 10**6))), n)
    for _ in range(20 * n):
        u, v = scheduler.next_pair()
        apply_formation_rule(formation, pop, u, v)
        apply_estimation_rules(pop, u, v)
        mask.refresh(u, v, 0.0)
        assert not any(map(any, mask.rows))
        assert mask.count == mask.uh == _uh(h)


def test_kdepth_root_rows_only_while_the_root_holds_energy():
    # Binary tree of 7 nodes; the root tops up its children until it is
    # empty, and from then on no pair with the root is active.
    net = TreeNetwork(7, arity_bound=2)
    for c in range(1, 7):
        net.add_edge((c - 1) // 2, c)
    d, height = true_depths(net)
    pop = Population(net, EnergyState([30.0] + [1.0] * 6), w=[0] * 7, d=d, h=[height] * 7,
                     fresh=False)
    protocol = DepthTarget(2)
    driver = LiveEnergyDriver(protocol, LossModel.lossless(), make_rng(0), 1000.0)
    driver.table = compute_ideal_energies(net, 1000.0)
    mask = ActivePairs(pop, FormationProtocol.kary(2), protocol, driver)
    assert all(mask.rows[0]) and pop.energy.per_node[0] > 0.0
    for child in (1, 2):
        moved, _ = driver.move(pop, 0, child)
        mask.refresh(0, child, moved)
    assert pop.energy.per_node[0] == 0.0
    assert not any(mask.rows[0])
    assert not any(row[0] for row in mask.rows[1:])
    assert mask.count == 0


# The deterministic edge rules: each holds an edge in the mask exactly while
# its firing predicate holds on it, E_p < ratio * E_c with slack.
EDGE_RULES = [LambdaExchange(2.0), LambdaExchange(3.0), KappaTransfer(0.5)]


@st.composite
def edge_energies(draw) -> tuple[float, float]:
    """(E_p, E_c) for a parent and its child: arbitrary, or on a ratio's exact
    or slack boundary (E_p = r * E_c, or r * E_c * (1 - slack)), or one ulp
    off either."""
    energy = st.floats(0.0, 1e299, allow_subnormal=False)  # r * E_c stays below MAX_ENERGY
    ec = draw(energy)
    r = draw(st.sampled_from([2.0, 3.0]))
    edge = draw(st.sampled_from([r * ec, r * ec * (1.0 - CONDITION_SLACK)]))
    near = st.sampled_from([edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)])
    return draw(energy | near), ec


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(EDGE_RULES), edge_energies(), st.sampled_from([0.0, 0.2]))
def test_edge_mask_holds_an_edge_exactly_while_its_rule_moves_energy(protocol, energies, beta):
    ep, ec = energies
    net = TreeNetwork(2, arity_bound=2)
    net.add_edge(0, 1)
    pop = Population(net, EnergyState([ep, ec]), w=[0, 0], d=[0, 1], h=[1, 1], fresh=False)
    mask = ActivePairs(pop, FormationProtocol.kary(2), protocol, Draws(beta))
    held = mask.rows[0][0] == mask.rows[1][0] == 1
    assert mask.count == (2 if held else 0)
    moved = protocol.edge_step(pop.energy, 0, 1, Draws(beta))
    assert held == (moved != 0.0) == (pop.energy.per_node != [ep, ec])


@pytest.mark.parametrize("protocol", ["lambda:2", "kappa:0.5", "kappa:0.1", "rand"])
def test_settled_tree_at_the_doubling_ratio_has_no_active_edge(protocol):
    # A settled binary tree with E_p == 2 * E_c on every edge: neither
    # lambda:2 nor kappa can fire on any edge, while rand still draws a
    # ratio on each edge interaction, so it keeps all 2(n - 1) oriented pairs.
    net = TreeNetwork(15, arity_bound=2)
    for c in range(1, 15):
        net.add_edge((c - 1) // 2, c)
    d, height = true_depths(net)
    energies = [2.0 ** (height - x) for x in d]
    pop = Population(net, EnergyState(energies), w=[0] * 15, d=d, h=[height] * 15, fresh=False)
    mask = ActivePairs(pop, FormationProtocol.kary(2), parse_energy_protocol(protocol),
                       Draws(rng=make_rng(0)))
    assert mask.count == (2 * 14 if protocol == "rand" else 0)
