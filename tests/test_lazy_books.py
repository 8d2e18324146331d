"""The lazy distribution-distance books of ``runner._Tally`` against eager
ones, stop by stop.

Both the step path and the skip path run through ``_Tally``, so comparing
them cannot catch a wrong certificate. Here each tally gets an eager shadow
that keeps the books as the engine did before they were lazy: a resync (a
full sum) at every dirty cadence crossing and the incident sums before and
after every move. The shadow sees the same stops and the same moves, with
its own detector and samples, and after every stop its ``until``, verdict,
``tau``, ``dd_at_tau`` and sample runs must be the ones the lazy tally has,
as must its running dd wherever the lazy tally holds one.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enertree import metrics, runner
from enertree.core import EnergyState, Population, TreeNetwork
from enertree.energy import DD_ZERO, compute_ideal_energies, parse_energy_protocol
from enertree.estimation import true_depths
from enertree.formation import FormationProtocol
from enertree.harness import ExperimentConfig, replay_trace, run_single
from enertree.metrics import ConvergenceDetector, MetricRun
from enertree.runner import DD_TOL_FRACTION, dd_drift, simulate
from enertree.scheduler import RandomScheduler, make_rng

LOSSY = "normal:0.2,0.05"
EXCHANGE_N10 = Path(__file__).resolve().parents[1] / "configs" / "exchange_n10.json"


class EagerBooks:
    """The eager arithmetic, split around the move the lazy tally makes:
    ``before`` runs up to the move, ``after`` from it on. With ``excess``,
    the first move after each resync reads ``excess`` less in its incident
    sum after the move, as ``_understate`` makes the lazy rebuild read it."""

    def __init__(self, pop, protocol, window, budget, basis_total, complete, t0, cadence,
                 record, excess):
        self.net, self.energy = pop.network, pop.energy
        self.detector = ConvergenceDetector(
            protocol.convergence, window, DD_TOL_FRACTION * basis_total, budget)
        self.t0, self.cadence, self.record, self.excess = t0, cadence, record, excess
        self.last = t0
        self.dd_zero = self.detector.kind == DD_ZERO
        self.margin = self.detector.dd_tol + dd_drift(self.net.n, cadence, basis_total)
        self.edges = None
        self.observing = not self.dd_zero
        if complete:
            self.completed()
        self.runs = []
        self.resync()

    def completed(self):
        self.edges = list(self.net.edges())
        self.observing = True

    def resync(self):
        self.dd = metrics.distribution_distance(self.net, self.energy.per_node, self.edges)
        self.dirty = False
        self.fresh = True

    def _sample(self, first, last):
        e = self.energy
        self.runs.append(MetricRun(range(first, last + 1, self.cadence), self.dd, e.total(), e.lost))

    def before(self, t, u, v, joined):
        s = t - self.t0
        crossed = self.last - self.t0
        crossed += self.cadence - crossed % self.cadence
        if crossed < s:
            if self.dirty:
                self.resync()
            if self.record:
                self._sample(crossed, s - 1)
        self.last = t
        if u is not None:
            if joined:
                self.resync()
            self.pre = metrics.incident_distance(self.net, self.energy.per_node, u, v)

    def after(self, t, u, v, moved):
        detector, cadence = self.detector, self.cadence
        s = t - self.t0
        if moved:
            post = metrics.incident_distance(self.net, self.energy.per_node, u, v)
            if self.fresh and self.excess:
                post = post - self.excess
            self.fresh = False
            dd = self.dd + (post - self.pre)
            self.dd = 0.0 if dd < 0.0 else dd
            self.dirty = True
        if self.observing:
            if self.dd_zero and self.dd <= detector.dd_tol:
                self.resync()
            detector.observe(s, self.dd, moved)
        else:
            detector.observe(s, math.inf, moved)
        if s % cadence == 0:
            if self.dirty:
                self.resync()
            if self.record:
                self._sample(s, s)
        until = self.t0 + detector.due
        if self.dd_zero:
            if self.dd <= detector.dd_tol:
                until = t + 1
            elif self.dirty and self.dd <= self.margin:
                until = min(until, t - s % cadence + cadence)
        self.until = until

    def end(self, t):
        s = t - self.t0
        if self.record and s % self.cadence:
            self.resync()
            self._sample(s, s)
        return self.runs


def _verdict(detector):
    return repr(detector.verdict)  # a dd_at_tau of nan equals itself in the repr


def _understate(monkeypatch, excess):
    """Make the lazy rebuild read the first move after each resync ``excess``
    lower, in the incident sum after the move. The rebuild calls the
    incident sums in (before, after) pairs, after the full sum they follow."""
    full, incident = metrics.distribution_distance, metrics.incident_distance
    state = {"fresh": False, "after": False}

    def summed(*args):
        state["fresh"] = True
        return full(*args)

    def sums(*args):
        value = incident(*args)
        after = state["after"]
        state["after"] = not after
        if after and state["fresh"]:
            state["fresh"] = False
            return value - excess
        return value

    monkeypatch.setattr(runner, "distribution_distance", summed)
    monkeypatch.setattr(runner, "incident_distance", sums)


@contextmanager
def eager_books(excess=0.0):
    """Shadow every tally with ``EagerBooks`` and compare them after each
    stop and at the end, understating by ``excess`` if given. Yields the
    counts of what the comparison saw."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if excess:
            _understate(monkeypatch, excess)
        seen = {"stops": 0, "read": 0, "near": 0}
        shadows = {}
        tally = runner._Tally
        init, completed, stop, end = tally.__init__, tally.completed, tally.stop, tally.end
        exact = tally.exact

        def exact_(self):
            seen["read"] += 1
            return exact(self)

        def init_(self, pop, driver, protocol, window, budget, basis_total, complete, t0,
                  cadence, record):
            shadows[id(self)] = [EagerBooks(pop, protocol, window, budget, basis_total,
                                            complete, t0, cadence, record, excess), 0]
            init(self, pop, driver, protocol, window, budget, basis_total, complete, t0,
                 cadence, record)

        def completed_(self):
            completed(self)
            shadows[id(self)][0].completed()

        def stop_(self, t, u=None, v=None, joined=False):
            shadow, checked = shadows[id(self)]
            shadow.before(t, u, v, joined)
            result = stop(self, t, u, v, joined)
            shadow.after(t, u, v, result[0])
            seen["stops"] += 1
            if not (self.dd_zero and self.edges is None):  # a partial tree: no mask reads until
                assert self.until == shadow.until, t
                seen["near"] += self.dd_zero and self.detector.dd_tol < shadow.dd <= 10 * self.floor
            assert _verdict(self.detector) == _verdict(shadow.detector), t
            if self.summed and not self.log:  # the lazy books hold the running dd
                assert repr(self.dd) == repr(shadow.dd), t
            assert repr(self.runs[checked:]) == repr(shadow.runs[checked:]), t
            shadows[id(self)][1] = len(self.runs)
            return result

        def end_(self, t):
            shadow = shadows[id(self)][0]
            runs = end(self, t)
            assert repr(runs) == repr(shadow.end(t))
            assert _verdict(self.detector) == _verdict(shadow.detector)
            return runs

        for name, fn in [("__init__", init_), ("completed", completed_), ("exact", exact_),
                         ("stop", stop_), ("end", end_)]:
            monkeypatch.setattr(tally, name, fn)
        yield seen


def _run(config, runs=2, replay=True):
    """Each run live, traced, validated, and its trace replayed."""
    for i in range(runs):
        run_single(config, i, record_metrics=True)
        traced = run_single(config, i, record_trace=True, record_metrics=False)
        run_single(config, i, record_metrics=True, validate=True)
        if replay:
            replay_trace(traced.outcome.trace)


@st.composite
def configs(draw) -> ExperimentConfig:
    n = draw(st.integers(2, 20))
    mode, basis = draw(st.sampled_from([("twophase", "post_formation"),
                                        ("concurrent", "initial")]))
    return ExperimentConfig(
        n=n,
        protocol=draw(st.sampled_from(["arbitrary", "kary:2", "kary:3"])),
        energy_protocol=draw(st.sampled_from(["lambda:2", "lambda:3", "kappa:0.5", "kappa:0.2",
                                              "rand", "ideal", "kdepth:2"])),
        loss=draw(st.sampled_from(["lossless", LOSSY])),
        initial_energy=draw(st.sampled_from(["uniform", "random"])),
        total_energy=draw(st.sampled_from([None, 1e-300, 1.0, 1e300])),
        master_seed=draw(st.integers(0, 10**6)),
        step_budget=draw(st.none() | st.integers(1, 300) | st.integers(20 * n * n, 40 * n * n)),
        phase_mode=mode,
        target_energy_basis=basis,
        quiescence_window=draw(st.none() | st.integers(1, 60)),
        metric_cadence=draw(st.none() | st.integers(1, 60)),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(configs())
def test_lazy_books_match_eager_books_on_generated_configs(config):
    with eager_books():
        _run(config, runs=1)


def _relaxed_tree_off_by(n, total, delta):
    """A complete binary tree with settled registers, on its doubling
    shares of ``total`` but for ``delta`` moved from the root to the last
    leaf. Its dd starts near 3 * delta, and the moves carry the excess up
    the tree in ever smaller gaps."""
    net = TreeNetwork(n, arity_bound=2)
    for c in range(1, n):
        net.add_edge((c - 1) // 2, c)
    depth, height = true_depths(net)
    shares = list(compute_ideal_energies(net, total).values)
    shares[0] -= delta
    shares[-1] += delta
    return Population(net, EnergyState(shares), w=[0] * n, d=depth, h=[height] * n, fresh=False)


@pytest.mark.parametrize("protocol", ["lambda:2", "lambda:3", "kappa:0.5", "kappa:0.2"])
@pytest.mark.parametrize("total", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("cadence", [1, 4, 15])
def test_edge_protocols_near_tolerance(protocol, total, cadence):
    # Runs whose dd starts within a few times dd_tol: near their verdicts
    # the witness comes and goes, and the lazy tally reads rebuilt values.
    dd_tol = DD_TOL_FRACTION * total
    with eager_books() as seen:
        for seed, factor in enumerate([0.4, 0.7, 1.5, 4.0, 40.0]):
            for validate in (False, True):
                pop = _relaxed_tree_off_by(15, total, factor * dd_tol)
                simulate(pop, formation=FormationProtocol.kary(2),
                         scheduler=RandomScheduler(make_rng(seed), 15),
                         energy_protocol=parse_energy_protocol(protocol),
                         metric_cadence=cadence, validate=validate)
    assert seen["near"] > 0 and seen["read"] > 0


@pytest.mark.parametrize("protocol", ["rand", "rand:2,4", "ideal", "kdepth:2"])
@pytest.mark.parametrize("loss", ["lossless", LOSSY])
def test_a_window_shorter_than_the_cadence(protocol, loss):
    config = ExperimentConfig(n=15, energy_protocol=protocol, loss=loss, initial_energy="random",
                              quiescence_window=4, metric_cadence=25)
    with eager_books() as seen:
        _run(config, runs=2)
    assert seen["stops"] > 0


def test_cadence_one_as_in_the_exchange_config():
    config = ExperimentConfig.from_json(EXCHANGE_N10)
    with eager_books() as seen:
        for i in range(5):
            run_single(config, i, record_metrics=True)
            replay_trace(run_single(config, i, record_trace=True).outcome.trace)
    assert seen["read"] > 0


@pytest.mark.parametrize("protocol", ["lambda:2", "kappa:0.3", "rand", "ideal", "kdepth:2"])
def test_concurrent_mode(protocol):
    config = ExperimentConfig(n=12, protocol="arbitrary", energy_protocol=protocol, loss=LOSSY,
                              phase_mode="concurrent", target_energy_basis="initial",
                              metric_cadence=3)
    with eager_books() as seen:
        _run(config, runs=2)
    assert seen["stops"] > 0


@pytest.mark.parametrize("protocol", ["lambda:2", "kappa:0.5", "rand"])
def test_a_budget_end_reads_the_rebuilt_value(protocol):
    # The verdict at the horizon records dd_at_tau. Most of these runs end
    # there with a witness left. (A quiescence run reads dd at every
    # verdict, since its due step is the earlier of the two.)
    config = ExperimentConfig(n=16, energy_protocol=protocol, initial_energy="random",
                              step_budget=3_000, metric_cadence=7)
    with eager_books():
        reports = [run_single(config, i).outcome.report for i in range(4)]
    assert any((r.tau, r.converged) == (3_000, False) for r in reports)


@pytest.mark.parametrize("protocol", ["lambda:3", "kappa:0.5", "kappa:0.2"])
@pytest.mark.parametrize("cadence", [2, 3, 5])
def test_a_witness_holds_under_a_running_dd_low_by_most_of_the_drift_bound(protocol, cadence):
    # At a subnormal total dd_tol is 0.0, the arithmetic of dd is exact and
    # the bound is its absolute term alone, a few hundred units in the last
    # place: gaps near it are common. A running dd that reads 0.9 of the
    # bound too low after each resync's first move still exceeds margin
    # wherever a gap exceeds the floor, but not wherever a gap exceeds
    # margin alone.
    n, total = 12, 1e-320
    config = ExperimentConfig(n=n, energy_protocol=protocol, initial_energy="random",
                              total_energy=total, metric_cadence=cadence)
    with eager_books(0.9 * dd_drift(n, cadence, total)) as seen:
        _run(config, runs=3, replay=False)
    assert seen["near"] > 0


@pytest.mark.parametrize("protocol", ["ideal", "kdepth:2"])
@pytest.mark.parametrize("total", [1e-320, 1.0])
def test_a_running_dd_understated_below_zero_is_clamped(protocol, total):
    # A quiescence run whose window is shorter than the cadence reports a
    # running dd replayed from logged moves at its verdict, where dd is
    # near 0: understated, the rebuild must clamp it as the eager update did.
    n, cadence = 12, 40
    config = ExperimentConfig(n=n, energy_protocol=protocol, initial_energy="random",
                              total_energy=total, quiescence_window=3, metric_cadence=cadence)
    with eager_books(0.9 * dd_drift(n, cadence, total)):
        _run(config, runs=6, replay=False)
