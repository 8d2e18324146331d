"""A traced live run allocates no tuple per step: its pair column holds the
tuples of one pair table, built only where the run's budgets allow at least
as many steps as the table has entries. An untraced skip with keys builds
no list. (``tests/test_scheduler.py`` pins every loop of the skip against
pair-by-pair sampling.)"""

import random
import tracemalloc

import pytest

from enertree import runner
from enertree.harness import ExperimentConfig, replay_trace, run_single
from enertree.scheduler import RandomScheduler, make_rng, pair_table, sample_pair

from conftest import pair_mask, records

LOSSY = "normal:0.2,0.05"


SHARED = {
    "kary lossless": ExperimentConfig(n=10, protocol="kary:2", energy_protocol="lambda:2",
                                      master_seed=5),
    "arbitrary lossy": ExperimentConfig(n=12, protocol="arbitrary", energy_protocol="rand",
                                        loss=LOSSY, initial_energy="random", master_seed=5),
    "concurrent": ExperimentConfig(n=9, protocol="kary:2", energy_protocol="kappa:0.5",
                                   loss=LOSSY, phase_mode="concurrent",
                                   target_energy_basis="initial", master_seed=5),
    "ideal uniform": ExperimentConfig(n=11, protocol="arbitrary", energy_protocol="ideal",
                                      master_seed=5),
}


@pytest.mark.contract
@pytest.mark.parametrize("name", sorted(SHARED))
def test_a_live_trace_holds_only_the_tuples_of_one_table(name):
    # Skipped pairs, stops and step-path pairs alike: at most n(n-1)
    # distinct tuple objects, and the records of the step path's trace.
    config = SHARED[name]
    n = config.n
    for i in range(2):
        traced = run_single(config, i, record_trace=True).outcome
        step = run_single(config, i, record_trace=True, validate=True).outcome
        assert traced.skipped_steps > 0 and step.skipped_steps == 0
        for outcome in (traced, step):
            pairs = outcome.trace.pairs
            assert len(pairs) > n * (n - 1)
            assert len({id(pair) for pair in pairs}) <= n * (n - 1)
        assert records(traced.trace) == records(step.trace)
        assert traced.trace.final_digest == step.trace.final_digest
        assert replay_trace(traced.trace).digest == step.trace.final_digest


def test_the_table_is_built_only_within_the_budgets(monkeypatch):
    built = []

    def recording(n):
        built.append(n)
        return pair_table(n)

    monkeypatch.setattr(runner, "pair_table", recording)
    cases = [  # (n, step_budget, traced): whether the run builds a table
        ((10, None, True), True),
        ((10, 45, True), True),  # 90 entries, 2 * 45 steps
        ((10, 44, True), False),
        ((30, 300, True), False),
        ((10, None, False), False),
    ]
    for (n, budget, traced), expected in cases:
        built.clear()
        config = ExperimentConfig(n=n, step_budget=budget, master_seed=1)
        run_single(config, 0, record_trace=traced)
        assert built == ([n] if expected else []), (n, budget, traced)
        assert all(m * (m - 1) <= 2 * (budget or runner.default_budget(m)) for m in built)
    trace = run_single(ExperimentConfig(n=6, master_seed=1), 0, record_trace=True).outcome.trace
    built.clear()
    replay_trace(trace)
    assert built == []  # a replay's pairs are its trace's own tuples


def test_a_traced_run_past_the_bound_allocates_no_table():
    # n = 2000: a table would hold 3,998,000 tuples (351 MB peak when it was
    # built regardless of the budgets) for a 100-step budget.
    config = ExperimentConfig(n=2000, step_budget=100, protocol="arbitrary",
                              energy_protocol="rand", loss=LOSSY, initial_energy="random",
                              master_seed=3)
    tracemalloc.start()
    try:
        trace = run_single(config, 0, record_trace=True).outcome.trace
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 100
    assert peak < 32_000_000


@pytest.mark.parametrize("n", [2, 3, 30, 257])
def test_a_traced_skip_appends_the_table_tuples(n):
    # With a table, every pair passed over is the table's own tuple, with
    # and without keys; pairs and generator state are step sampling's.
    fast, slow, keys = make_rng(n), make_rng(n), random.Random(n)
    scheduler = RandomScheduler(fast, n)
    table = pair_table(n)
    shared = {id(pair) for row in table for pair in row}
    mask = pair_mask(n, [(0, 1), (n - 1, n // 2)] if n > 3 else [])
    drawn = []
    for i in range(400):
        key = None if i % 2 else [0] * n
        if i % 4 == 2:
            key[keys.randrange(n)] = 1
        start = len(drawn)
        k, u, v = scheduler.skip((1, 7, 300)[i % 3], mask, drawn, key, table)
        assert drawn[start:] == [sample_pair(slow, n) for _ in range(k - 1)]
        assert (u, v) == sample_pair(slow, n)
    assert len(drawn) > 1000
    assert all(id(pair) in shared for pair in drawn)
    assert fast.getstate() == slow.getstate()


def test_a_keyed_untraced_skip_builds_no_list():
    # 200,000 idle draws with equal keys: a list of the pairs passed over
    # would hold 200,000 tuples (about 14 MB).
    n = 30
    scheduler = RandomScheduler(make_rng(1), n)
    none = pair_mask(n, [])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        k, _, _ = scheduler.skip(200_000, none, None, [0] * n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert k == 200_000
    assert peak < 100_000
