import csv
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enertree.core import (
    DistributionKind,
    EnergyState,
    TreeNetwork,
    check_distribution,
)
from enertree.energy import (
    DD_ZERO,
    QUIESCENCE,
    IdealEnergyTable,
    KappaTransfer,
    LambdaExchange,
    IdealTarget,
    compute_ideal_energies,
)
from enertree import runner
from enertree.errors import DomainError
from enertree.harness import ExperimentConfig, run_single
from enertree.metrics import (
    METRICS_HEADER,
    ConvergenceDetector,
    ConvergenceReport,
    MetricRun,
    distribution_distance,
    energy_distance,
    incident_distance,
    line_potential,
    write_metrics_csv,
)
from enertree.scheduler import RandomScheduler, make_rng, sample_pair

from conftest import (
    DEMO_EDGES,
    DEMO_ENERGIES,
    DEMO_TOTAL,
    Draws,
    build_tree,
    line_pop,
    samples,
    star_pop,
)


# ------------------------------------------------------ distribution distance
def test_dd_zero_on_exact_and_relaxed():
    pop = star_pop()
    assert distribution_distance(pop.network, pop.energy.per_node) == 0.0
    pop2 = line_pop([100.0, 10.0, 1.0])
    assert distribution_distance(pop2.network, pop2.energy.per_node) == 0.0


def test_dd_single_edge():
    pop = line_pop([500.0, 400.0])
    assert distribution_distance(pop.network, pop.energy.per_node) == pytest.approx(300.0)


def test_dd_demo_tree_brute_force():
    pop = build_tree(6, DEMO_EDGES, list(DEMO_ENERGIES))
    # brute force over the five edges
    e = DEMO_ENERGIES
    expected = sum(
        max(0.0, 2 * e[c] - e[p]) for p, c in DEMO_EDGES
    )
    assert expected == pytest.approx(1150.0)  # 400 + 100 + 0 + 450 + 200
    assert distribution_distance(pop.network, pop.energy.per_node) == pytest.approx(expected)


def test_dd_valid_on_partial_networks():
    net = TreeNetwork(4)
    net.add_edge(0, 1)
    energy = EnergyState([1.0, 5.0, 3.0, 3.0])
    assert distribution_distance(net, energy.per_node) == pytest.approx(9.0)


def test_dd_zero_iff_relaxed_on_random_states():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 20)
        net = TreeNetwork(n)
        for c in range(1, n):
            net.add_edge(rng.randrange(c), c)
        if rng.random() < 0.5:
            energies = [rng.uniform(0, 100) for _ in range(n)]
        else:
            # bias towards relaxed states: halve along the tree
            energies = [0.0] * n
            energies[net.roots()[0] if net.roots() else 0] = 100.0
            for p, c in net.edges():
                energies[c] = energies[p] / rng.uniform(2.0, 3.0)
        energy = EnergyState(energies)
        dd = distribution_distance(net, energy.per_node)
        relaxed = check_distribution(net, energy, DistributionKind.RELAXED, tol=0.0)
        assert (dd == 0.0) == relaxed


def _nested_loop_dd(network, energy):
    """The distribution distance as a walk over every node's children, in
    node order: the sum ``distribution_distance`` must reproduce bit for bit."""
    e = energy.per_node
    total = 0.0
    for p in range(network.n):
        ep = e[p]
        for c in network.children[p]:
            gap = 2.0 * e[c] - ep
            if gap > 0.0:
                total += gap
    return total


@st.composite
def forests(draw):
    """A forest on shuffled labels: each node but the first joins an earlier
    one with probability ``density`` (so the forest is complete at 1.0), and
    energies spanning many magnitudes."""
    n = draw(st.integers(1, 40))
    labels = draw(st.permutations(range(n)))
    density = draw(st.sampled_from([1.0, 0.5, 0.9]))
    net = TreeNetwork(n)
    for i in range(1, n):
        if draw(st.floats(0.0, 1.0)) < density:
            net.add_edge(labels[draw(st.integers(0, i - 1))], labels[i])
    scale = st.sampled_from([1.0, 1e-9, 1e6])
    energies = draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
    return net, EnergyState([x * draw(scale) for x in energies])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(forests())
def test_distribution_distance_is_the_nested_loop_sum_bit_for_bit(forest):
    net, energy = forest
    expected = repr(_nested_loop_dd(net, energy))
    assert repr(distribution_distance(net, energy.per_node)) == expected
    assert repr(distribution_distance(net, energy.per_node, list(net.edges()))) == expected


def test_the_engine_sums_dd_over_the_tree_edges_in_order(monkeypatch):
    # Summation order fixes the last bit of dd, and so metrics.csv: every
    # edge list the engine passes must be the network's own edge order.
    calls = []

    def spy(network, energy, edges=None):
        calls.append(edges)
        assert edges is None or edges == list(network.edges())
        return distribution_distance(network, energy, edges)

    monkeypatch.setattr(runner, "distribution_distance", spy)
    # A run that completes its tree, and one that starts on a complete tree.
    run_single(ExperimentConfig(n=20, energy_protocol="lambda:2", metric_cadence=3), 0)
    rng = random.Random(3)
    tree = [(rng.randrange(c), c) for c in range(1, 20)]
    pop = build_tree(20, tree, [rng.uniform(0, 100) for _ in range(20)])
    runner.simulate(pop, formation=None, scheduler=RandomScheduler(make_rng(3), 20),
                    energy_protocol=LambdaExchange(2.0), metric_cadence=3)
    assert sum(edges is not None for edges in calls) > 2


def test_incident_distance_matches_global_delta():
    rng = random.Random(5)
    pop = build_tree(6, DEMO_EDGES, list(DEMO_ENERGIES))
    net, e = pop.network, pop.energy.per_node
    for _ in range(500):
        u, v = sample_pair(make_rng(rng.randrange(1 << 30)), 6)
        before_global = distribution_distance(net, e)
        before_local = incident_distance(net, e, u, v)
        delta = rng.uniform(-50, 50)
        if e[u] + delta < 0 or e[v] - delta < 0:
            continue
        e[u] += delta
        e[v] -= delta
        after_global = distribution_distance(net, e)
        after_local = incident_distance(net, e, u, v)
        assert after_global - before_global == pytest.approx(
            after_local - before_local, abs=1e-9
        )


# ----------------------------------------------------------- energy distance
def test_ed_zero_at_ideal():
    table = IdealEnergyTable(values=(4.0, 2.0, 1.0), base=1.0, total=7.0)
    assert energy_distance([4.0, 2.0, 1.0], table) == 0.0


def test_ed_demo_values():
    pop = build_tree(6, DEMO_EDGES)
    table = compute_ideal_energies(pop.network, DEMO_TOTAL)
    ed = energy_distance(DEMO_ENERGIES, table)
    assert ed == pytest.approx((100 + 100 + 50 + 200 + 50 + 200) / 2)


def test_ed_mismatched_nodes():
    table = IdealEnergyTable(values=(1.0, 2.0), base=1.0, total=3.0)
    with pytest.raises(DomainError):
        energy_distance([1.0, 2.0, 3.0], table)


def test_ed_symmetric_and_zero_iff_equal():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 10)
        a = [rng.uniform(0, 10) for _ in range(n)]
        b = [rng.uniform(0, 10) for _ in range(n)]
        ta = IdealEnergyTable(values=tuple(a), base=0.0, total=sum(a))
        tb = IdealEnergyTable(values=tuple(b), base=0.0, total=sum(b))
        assert energy_distance(a, tb) == pytest.approx(energy_distance(b, ta))
        assert energy_distance(a, ta) == 0.0
        if a != b:
            assert energy_distance(a, tb) > 0.0


# ------------------------------------------------------------- line potential
def test_potential_uniform_line():
    pop = line_pop([1.0, 1.0, 1.0])
    assert line_potential(pop.network, pop.energy, 2.0) == pytest.approx(2.0)


def test_potential_zero_on_relaxed_line():
    pop = line_pop([100.0, 10.0, 1.0])
    assert line_potential(pop.network, pop.energy, 2.0) == 0.0


def test_potential_two_node_line():
    pop = line_pop([0.0, 5.0])
    assert line_potential(pop.network, pop.energy, 2.0) == pytest.approx(10.0)


def test_potential_single_node():
    pop = line_pop([5.0])
    assert line_potential(pop.network, pop.energy, 2.0) == 0.0


def test_potential_rejects_non_line():
    pop = star_pop()
    with pytest.raises(DomainError):
        line_potential(pop.network, pop.energy, 2.0)


def test_potential_zero_implies_dd_zero():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(2, 10)
        energies = [rng.uniform(0, 100) for _ in range(n)]
        pop = line_pop(energies)
        lam = rng.uniform(2.0, 4.0)
        if line_potential(pop.network, pop.energy, lam) == 0.0:
            assert distribution_distance(pop.network, pop.energy.per_node) == 0.0


def test_potential_monotone_under_lossless_exchange():
    # quick check on a short line; the acceptance suite covers this at scale
    for seed in range(5):
        rng = make_rng(seed)
        energies = [rng.uniform(10, 100) for _ in range(5)]
        pop = line_pop(energies)
        lam = 2.0
        phi = line_potential(pop.network, pop.energy, lam)
        for _ in range(3000):
            u, v = sample_pair(rng, 5)
            if pop.network.parent[v] == u:
                LambdaExchange(lam).edge_step(pop.energy, u, v, Draws())
            elif pop.network.parent[u] == v:
                LambdaExchange(lam).edge_step(pop.energy, v, u, Draws())
            now = line_potential(pop.network, pop.energy, lam)
            assert now <= phi + 1e-9 * pop.energy.initial_total
            phi = now
        assert phi <= 1e-9 * pop.energy.initial_total


# --------------------------------------------------------------- convergence
def _detect(protocol, stream, window, horizon):
    """Feed (dd, moved) per step, from step 0, to the protocol's detector."""
    detector = ConvergenceDetector(protocol.convergence, window, 0.0, horizon)
    for step, (dd, moved) in enumerate(stream):
        if detector.observe(step, dd, moved):
            break
    return detector.verdict


def test_convergence_dd_zero_stream():
    dds = [5.0] * 17 + [0.0, 0.0, 0.0]
    stream = [(dd, 1.0) for dd in dds]
    report = _detect(LambdaExchange(2.0), stream, window=10, horizon=len(stream) - 1)
    assert report.converged and report.tau == 17


def test_convergence_quiescence_stream():
    # last transfer at step 40, window 100: tau = 40
    stream = [(1.0, 1.0 if 0 < step <= 40 else 0.0) for step in range(200)]
    report = _detect(IdealTarget(), stream, window=100, horizon=10_000)
    assert report.converged and report.tau == 40


def test_convergence_budget_exhausted():
    stream = [(5.0, 1.0)] * 50
    report = _detect(KappaTransfer(0.5), stream, window=10, horizon=49)
    assert not report.converged
    assert report.tau == 49


def test_detector_tolerance():
    detector = ConvergenceDetector("dd_zero", window=1, dd_tol=1e-5, horizon=100)
    assert not detector.observe(0, 1.0, 0.0)
    assert detector.observe(1, 5e-6, 0.0)
    assert detector.verdict.tau == 1
    verdict = detector.verdict
    assert detector.observe(2, 1.0, 1.0)  # a step after the verdict changes nothing
    assert detector.verdict is verdict and verdict == ConvergenceReport(1, 5e-6, True)


@pytest.mark.parametrize("kind, window, message", [
    ("bogus", 5, "unknown convergence kind 'bogus'"),
    (QUIESCENCE, 0, "quiescence window must be >= 1"),
])
def test_detector_rejects_bad_settings(kind, window, message):
    with pytest.raises(DomainError, match=message):
        ConvergenceDetector(kind, window, 0.0, 100)


def test_quiescence_with_no_moves_at_all():
    stream = [(0.5, 0.0)] * 30
    report = _detect(IdealTarget(), stream, window=20, horizon=1000)
    assert report.converged and report.tau == 0


@pytest.mark.contract
def test_dd_zero_due_is_the_horizon():
    detector = ConvergenceDetector(DD_ZERO, window=5, dd_tol=0.5, horizon=50)
    assert detector.due == 50
    for step in range(20):
        assert not detector.observe(step, 1.0, 1.0 if step % 2 else 0.0)
        assert detector.due == 50


@pytest.mark.contract
def test_quiescence_due_follows_each_detectable_move():
    detector = ConvergenceDetector(QUIESCENCE, window=10, dd_tol=0.5, horizon=100)
    assert detector.due == 10
    dues = []
    for step, moved in [(3, 1.0), (4, 0.25), (8, -2.0)]:
        assert not detector.observe(step, 1.0, moved)
        dues.append(detector.due)
    assert dues == [13, 13, 18]  # a move within dd_tol (0.25) is not detectable
    assert not detector.observe(17, 1.0, 0.0)
    assert detector.observe(18, 1.0, 0.0)  # nothing moved: the verdict falls at due
    assert (detector.verdict.tau, detector.verdict.converged) == (8, True)
    verdict = detector.verdict
    assert detector.observe(19, 1.0, 2.0)  # a move after the verdict changes nothing
    assert detector.verdict is verdict and (detector.due, detector.last_move) == (18, 8)


@pytest.mark.contract
def test_quiescence_due_never_passes_the_horizon():
    detector = ConvergenceDetector(QUIESCENCE, window=10, dd_tol=0.5, horizon=30)
    dues = []
    for step in (15, 25, 29):
        assert not detector.observe(step, 1.0, 1.0)
        dues.append(detector.due)
    assert dues == [25, 30, 30]
    assert detector.observe(30, 1.0, 0.0)
    assert (detector.verdict.tau, detector.verdict.converged) == (30, False)
    assert ConvergenceDetector(QUIESCENCE, window=50, dd_tol=0.0, horizon=30).due == 30


@pytest.mark.contract
@pytest.mark.parametrize("spec, dd_at_tau", [
    ("lambda:2", math.inf), ("rand", math.inf), ("kappa:0.5", math.inf),
    ("ideal", 27000.0), ("kdepth:2", 48000.0),
])
def test_a_tree_that_never_completes_ends_at_a_detector_verdict(monkeypatch, spec, dd_at_tau):
    # A concurrent run whose tree cannot form within its budget. No partial
    # tree's distance declares a dd-zero run converged: the horizon ends it.
    detectors = []

    class Recorded(ConvergenceDetector):
        def __init__(self, *args):
            super().__init__(*args)
            detectors.append(self)

    monkeypatch.setattr(runner, "ConvergenceDetector", Recorded)
    config = ExperimentConfig(n=30, energy_protocol=spec, phase_mode="concurrent",
                              target_energy_basis="initial", step_budget=60)
    for validate in (False, True):
        outcome = run_single(config, 0, validate=validate).outcome
        assert not outcome.completed and outcome.total_steps == 60
        assert detectors.pop().verdict and not detectors
        assert outcome.report == ConvergenceReport(tau=60, dd_at_tau=dd_at_tau, converged=False)


# ------------------------------------------------------------- loss fraction
def test_loss_fraction_lossless():
    e = EnergyState([10.0, 10.0])
    assert e.lost / e.initial_total == 0.0


def test_loss_fraction_single_transfer():
    e = EnergyState([600.0, 400.0])
    e.transfer(0, 1, 100.0, beta=0.2)
    assert e.lost / 1000.0 == pytest.approx(0.02)


# ---------------------------------------------------------------- metrics.csv
def _csv_writer_metrics(rows, path):
    """The metrics.csv writer before samples were held as runs: one
    ``csv.writer`` row per sample. The reference for the bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for step, dd, total_energy, lost in rows:
            writer.writerow([step, repr(dd), repr(total_energy), repr(lost)])


def _expand(runs):
    return [(step, r.dd, r.total_energy, r.lost) for r in runs for step in r.steps]


def _both_writers(runs) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        write_metrics_csv(runs, new)
        _csv_writer_metrics(_expand(runs), old)
        return new.read_bytes(), old.read_bytes()


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-320, 1e300, math.nan]
METRIC_FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def metric_runs(draw) -> list[MetricRun]:
    cadence = draw(st.sampled_from([1, 30]))  # n <= 10 samples every step, n = 30 every 30th
    runs, step = [], 0
    for _ in range(draw(st.integers(0, 6))):
        count = draw(st.sampled_from([0, 1, 1, 2, 500]) | st.integers(0, 40))
        steps = range(step, step + count * cadence, cadence)
        runs.append(MetricRun(steps, draw(METRIC_FLOATS), draw(METRIC_FLOATS), draw(METRIC_FLOATS)))
        step = steps.stop
    return runs


@pytest.mark.contract
@settings(max_examples=300, deadline=None, derandomize=True)
@given(metric_runs())
def test_metrics_csv_is_the_bytes_of_the_csv_writer(runs):
    new, old = _both_writers(runs)
    assert new == old


@pytest.mark.contract
@pytest.mark.parametrize("runs", [
    pytest.param([], id="header-only"),
    pytest.param([MetricRun(range(7, 8), x, x, x) for x in EDGE_FLOATS], id="one-step-runs"),
    pytest.param([MetricRun(range(0, 3000, 1), 0.5, 10.0, 0.0),
                  MetricRun(range(3000, 90000, 30), -0.0, 1e300, 5e-324),
                  MetricRun(range(90001, 90002), 1e-320, math.nan, 0.25)], id="long-runs"),
])
def test_metrics_csv_edge_cases_match_the_csv_writer(runs):
    new, old = _both_writers(runs)
    assert new == old
    assert new.startswith(b"step,dd,total_energy,lost\r\n") and new.endswith(b"\r\n")
    assert new.count(b"\r\n") == 1 + sum(len(r.steps) for r in runs)


@pytest.mark.contract
def test_metric_runs_cover_the_cadence_grid_in_step_order():
    config = ExperimentConfig(n=12, energy_protocol="ideal", loss="normal:0.2,0.05",
                              initial_energy="random", metric_cadence=5)
    outcome = run_single(config, 0, record_metrics=True).outcome
    runs = outcome.metric_runs
    steps = [step for step, *_ in samples(outcome)]
    # one sample per cadence step, plus the last step when it is off the cadence
    grid = list(range(0, steps[-1] + 1, 5))
    assert steps in (grid, grid + steps[-1:]) and len(steps) > 2
    assert len(runs) < len(steps)  # the quiet tail is one run, not a run per step
