"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The statistical criteria
run at fixed master seeds, so every verdict here is reproducible.
"""

import math
from fractions import Fraction
from statistics import fmean

import pytest

from enertree.core import (
    DistributionKind,
    EnergyState,
    Population,
    TreeNetwork,
    check_distribution,
    strictly_greater,
)
from enertree.energy import (
    DepthTarget,
    IdealTarget,
    KappaTransfer,
    LambdaExchange,
    compute_ideal_energies,
    depth_target,
)
from enertree.estimation import (
    apply_estimation_rules,
    estimation_stabilized,
    true_depths,
)
from enertree.formation import (
    FormationProtocol,
    apply_formation_rule,
    is_formation_complete,
)
from enertree.harness import ExperimentConfig, replay_trace, run_experiment, run_single
from enertree.metrics import line_potential
from enertree.scheduler import derive_run_seed, make_rng, sample_pair

from conftest import DEMO_EDGES, DEMO_TOTAL, Draws, build_tree

MASTER = 42
SEEDS = 100
REL = 1e-9


def _report(name, failures):
    if failures:
        print(f"\n[FAIL] {name}")
        for f in failures:
            print(f"         - {f}")
    else:
        print(f"\n[PASS] {name}")
    assert not failures, f"{name}: {failures}"


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


# --------------------------------------------------------------------------
# shared expensive batches (n=10 binary trees, uniform initial energy)
# --------------------------------------------------------------------------
LOSSLESS_SPECS = [
    "lambda:2", "lambda:3", "lambda:4", "lambda:5", "lambda:6",
    "kappa:0.3", "kappa:0.4", "kappa:0.5", "kappa:0.6", "kappa:0.7",
    "rand", "ideal", "kdepth:2",
]
LOSSY_SPECS = ["lambda:2", "kappa:0.5", "rand", "ideal", "kdepth:2"]


def _batch(spec, loss):
    cfg = ExperimentConfig(
        n=10, protocol="kary:2", energy_protocol=spec, loss=loss,
        initial_energy="uniform", master_seed=MASTER, repetitions=SEEDS,
    )
    rows = [run_single(cfg, i, record_metrics=False) for i in range(SEEDS)]
    return {
        "tau": fmean(r.tau for r in rows),
        "ed_percent": fmean(r.ed_percent for r in rows),
        "loss_percent": fmean(r.loss_percent for r in rows),
        "converged": sum(r.converged for r in rows),
    }


@pytest.fixture(scope="session")
def lossless_batches():
    return {spec: _batch(spec, "lossless") for spec in LOSSLESS_SPECS}


@pytest.fixture(scope="session")
def lossy_batches():
    return {spec: _batch(spec, "normal:0.2,0.05") for spec in LOSSY_SPECS}


# --------------------------------------------------------------------------
# criterion 1: golden scripted scenarios (exact to 1e-9 relative, < 1 s)
# --------------------------------------------------------------------------
def test_c01_golden_scripted_scenarios():
    failures = []

    # eight-node arbitrary-tree script
    pop = Population(TreeNetwork(8), EnergyState([0.0] * 8))
    proto = FormationProtocol.arbitrary()
    pairs = [(0, 1), (2, 3), (0, 3), (2, 4), (0, 1), (0, 2), (1, 5), (6, 7), (0, 6)]
    tags = [apply_formation_rule(proto, pop, u, v) for u, v in pairs]
    _check(failures, tags == ["SS", "SS", "NOOP", "RS", "NOOP", "RR", "LS", "SS", "RR"],
           f"arbitrary-script rule tags {tags}")
    _check(failures, pop.network.parent == [-1, 0, 0, 2, 2, 1, 0, 6],
           f"arbitrary-script tree {pop.network.parent}")
    _check(failures, is_formation_complete(pop.network), "arbitrary script incomplete")

    # seven-node binary-tree script with fixed merge keys
    pop2 = Population(TreeNetwork(7, arity_bound=2), EnergyState([0.0] * 7),
                      w=[4, 2, 7, 6, 5, 3, 1])
    proto2 = FormationProtocol.kary(2)
    pairs2 = [(0, 1), (3, 2), (6, 5), (0, 3), (4, 5), (1, 6), (2, 3), (0, 5)]
    tags2 = [apply_formation_rule(proto2, pop2, u, v) for u, v in pairs2]
    _check(failures, tags2 == ["SS", "SS", "SS", "RR", "LS", "NOOP", "UW", "IR"],
           f"binary-script rule tags {tags2}")
    _check(failures, pop2.network.parent == [5, 0, 3, 0, 5, 6, -1],
           f"binary-script tree {pop2.network.parent}")
    _check(failures, is_formation_complete(pop2.network), "binary script incomplete")

    # ideal shares on the six-node demo tree: base 100 and the doubling ladder
    net = build_tree(6, DEMO_EDGES).network
    table = compute_ideal_energies(net, DEMO_TOTAL)
    _check(failures, abs(table.base - 100.0) <= 100.0 * REL, f"base {table.base}")
    expected = [400.0, 200.0, 400.0, 800.0]
    got = [table.values[0], table.values[1], table.values[4], table.values[5]]
    _check(failures, all(abs(a - b) <= b * REL for a, b in zip(got, expected)),
           f"ideal shares {table.values}")

    # targeted exchange on the narrative state (the second node holds 150)
    pop = build_tree(2, [(0, 1)], [500.0, 150.0])
    IdealTarget().step(pop, 0, 1, Draws(table=compute_ideal_energies(pop.network, 600.0)))
    e = pop.energy
    _check(failures, abs(e.per_node[0] - 450.0) <= 450.0 * REL
           and abs(e.per_node[1] - 200.0) <= 200.0 * REL,
           f"targeted exchange {e.per_node}")

    # ratio-2 exchange and half-transfer on (500, 400)
    e1 = EnergyState([500.0, 400.0])
    LambdaExchange(2.0).edge_step(e1, 0, 1, Draws())
    _check(failures, abs(e1.per_node[0] - 600.0) <= 600.0 * REL
           and abs(e1.per_node[1] - 300.0) <= 300.0 * REL, f"exchange {e1.per_node}")
    e2 = EnergyState([500.0, 400.0])
    KappaTransfer(0.5).edge_step(e2, 0, 1, Draws())
    _check(failures, abs(e2.per_node[0] - 700.0) <= 700.0 * REL
           and abs(e2.per_node[1] - 200.0) <= 200.0 * REL, f"transfer {e2.per_node}")

    # local-target values and moves on the demo tree
    pop3 = build_tree(6, DEMO_EDGES, [500.0, 100.0, 150.0, 400.0, 350.0, 600.0])
    depth, height = true_depths(pop3.network)
    pop3.d = depth
    pop3.h = [height] * 6
    zeta = [depth_target(pop3, v, 2, DEMO_TOTAL) for v in range(5)]
    for got_z, want in zip((zeta[0], zeta[1], zeta[2]), (262.5, 131.25, 65.625)):
        _check(failures, abs(got_z - want) <= want * REL, f"target {got_z} != {want}")
    draws = Draws(total_energy=DEMO_TOTAL)
    DepthTarget(2).step(pop3, 0, 1, draws)
    _check(failures, abs(pop3.energy.per_node[0] - 468.75) <= 468.75 * REL
           and abs(pop3.energy.per_node[1] - 131.25) <= 131.25 * REL,
           f"local-target move {pop3.energy.per_node[:2]}")
    moved = DepthTarget(2).step(pop3, 0, 5, draws)
    _check(failures, abs(moved - 206.25) <= 206.25 * REL
           and abs(pop3.energy.per_node[0] - 262.5) <= 262.5 * REL,
           f"root absorption moved {moved}, node {pop3.energy.per_node[0]}")

    _report("criterion 1: golden scripted scenarios", failures)


# --------------------------------------------------------------------------
# criterion 2: formation safety and liveness
# --------------------------------------------------------------------------
def _formation_run(n, protocol, seed):
    # every add_edge call enforces single-parent, acyclicity, and arity
    # before mutating, so each of the n-1 structure changes is checked and
    # every intermediate state is a forest within the arity bound
    rng = make_rng(seed)
    pop = Population(TreeNetwork(n, arity_bound=protocol.k), EnergyState([0.0] * n))
    rng.shuffle(pop.w)
    budget = 500 * max(n * (n - 1) // 2, 1)
    steps = 0
    net = pop.network
    while steps < budget:
        u, v = sample_pair(rng, n)
        apply_formation_rule(protocol, pop, u, v)
        steps += 1
        if net.edge_count == n - 1:
            break
    return pop, steps


PROTOCOLS_C2 = [
    ("arbitrary", FormationProtocol.arbitrary()),
    ("kary2", FormationProtocol.kary(2)),
    ("kary3", FormationProtocol.kary(3)),
    ("kary5", FormationProtocol.kary(5)),
]


@pytest.fixture(scope="session")
def formation_means():
    means = {}
    failures = []
    for name, protocol in PROTOCOLS_C2:
        for n in (2, 5, 10, 30, 50):
            budget = 500 * max(n * (n - 1) // 2, 1)
            steps_taken = []
            for s in range(SEEDS):
                pop, steps = _formation_run(n, protocol, derive_run_seed(MASTER, s))
                if not is_formation_complete(pop.network):
                    failures.append(f"{name} n={n} seed {s}: no spanning tree in {budget}")
                    continue
                try:
                    pop.network.validate()
                except Exception as exc:  # noqa: BLE001 - recorded as a failure
                    failures.append(f"{name} n={n} seed {s}: {exc}")
                steps_taken.append(steps)
            means[(name, n)] = fmean(steps_taken) if steps_taken else math.inf
    return means, failures


def test_c02_formation_safety_and_liveness(formation_means):
    _, failures = formation_means
    _report("criterion 2: formation safety and liveness", list(failures))


# --------------------------------------------------------------------------
# criterion 3: quadratic completion-time scaling for the arbitrary protocol
# --------------------------------------------------------------------------
def test_c03_quadratic_scaling(formation_means):
    means, _ = formation_means
    ratio = means[("arbitrary", 50)] / means[("arbitrary", 10)]
    failures = []
    _check(failures, 15.0 <= ratio <= 40.0, f"mean(n=50)/mean(n=10) = {ratio:.1f} not in [15, 40]")
    _report("criterion 3: quadratic completion-time scaling", failures)


# --------------------------------------------------------------------------
# criterion 4: estimation correctness after formation
# --------------------------------------------------------------------------
def test_c04_estimation_correctness():
    failures = []
    for proto_name, protocol in (("arbitrary", FormationProtocol.arbitrary()),
                                 ("kary2", FormationProtocol.kary(2))):
        for n in (10, 50):
            budget = 50 * n * (n - 1) // 2
            cadence = max(1, n // 2)
            for s in range(SEEDS):
                rng = make_rng(derive_run_seed(MASTER + 1, s))
                pop = Population(TreeNetwork(n, arity_bound=protocol.k),
                                 EnergyState([0.0] * n))
                rng.shuffle(pop.w)
                while pop.network.edge_count < n - 1:
                    u, v = sample_pair(rng, n)
                    apply_formation_rule(protocol, pop, u, v)
                    apply_estimation_rules(pop, u, v)
                steps = 0
                done = estimation_stabilized(pop)
                while not done and steps < budget:
                    u, v = sample_pair(rng, n)
                    apply_formation_rule(protocol, pop, u, v)
                    apply_estimation_rules(pop, u, v)
                    steps += 1
                    if steps % cadence == 0:
                        done = estimation_stabilized(pop)
                if not done:
                    failures.append(f"{proto_name} n={n} seed {s}: not stabilized in {budget}")
                    continue
                depth, height = true_depths(pop.network)
                if pop.d != depth or pop.h != [height] * n:
                    failures.append(f"{proto_name} n={n} seed {s}: estimates differ from oracle")
    _report("criterion 4: estimation correctness", failures)


# --------------------------------------------------------------------------
# criterion 5: lossless targeted redistribution reaches the exact shares
# --------------------------------------------------------------------------
def test_c05_lossless_targeted_exactness():
    failures = []
    for n in (10, 30):
        for init in ("uniform", "random"):
            cfg = ExperimentConfig(
                n=n, protocol="kary:2", energy_protocol="ideal", loss="lossless",
                initial_energy=init, master_seed=MASTER, repetitions=25,
            )
            for i in range(25):
                r = run_single(cfg, i, record_metrics=False)
                label = f"n={n} {init} run {i}"
                if not r.converged:
                    failures.append(f"{label}: did not converge")
                    continue
                total = r.outcome.basis_total
                if not r.ed <= 1e-6 * total:
                    failures.append(f"{label}: residual distance {r.ed:.3g}")
                if not check_distribution(r.outcome.pop.network, r.outcome.pop.energy,
                                          DistributionKind.EXACT):
                    failures.append(f"{label}: final distribution not exact")
    _report("criterion 5: lossless targeted exactness", failures)


# --------------------------------------------------------------------------
# criterion 6: depth-target exactness on k-ary trees (lossless)
# --------------------------------------------------------------------------
def test_c06_depth_target_exactness():
    # For k = 2 the final state is exact up to the root. For k >= 3 the
    # non-root ratios equal k (so the pairs are relaxed, not doubled); the
    # stated "exact up to the root" clause is asserted only where it is
    # consistent with the ratio-k clause, i.e. for k = 2.
    failures = []
    for k in (2, 3):
        cfg = ExperimentConfig(
            n=12, protocol=f"kary:{k}", energy_protocol=f"kdepth:{k}",
            loss="lossless", master_seed=MASTER, repetitions=25,
        )
        for i in range(25):
            r = run_single(cfg, i, record_metrics=False)
            label = f"k={k} run {i}"
            pop = r.outcome.pop
            net = pop.network
            e = pop.energy.per_node
            root = net.roots()[0]
            if not r.converged:
                failures.append(f"{label}: did not converge")
                continue
            if k == 2 and not check_distribution(net, pop.energy,
                                                 DistributionKind.EXACT_UP_TO_ROOT):
                failures.append(f"{label}: not exact up to the root")
            if not check_distribution(net, pop.energy, DistributionKind.RELAXED):
                failures.append(f"{label}: final distribution not relaxed")
            for p, c in net.edges():
                if p == root:
                    if e[p] < 2.0 * e[c] * (1.0 - REL):
                        failures.append(f"{label}: root below twice child {c}")
                elif abs(e[p] - k * e[c]) > REL * max(e[p], k * e[c]):
                    failures.append(f"{label}: ratio at edge ({p},{c}) is {e[p]/e[c]:.12f}")
    _report("criterion 6: depth-target exactness on k-ary trees", failures)


# --------------------------------------------------------------------------
# criterion 7: line potential is monotone and reaches zero
# --------------------------------------------------------------------------
def test_c07_line_potential_monotone():
    failures = []
    for n in (5, 10):
        for lam in (2.0, 3.0):
            budget = 500 * n * (n - 1) // 2
            for s in range(SEEDS):
                rng = make_rng(derive_run_seed(MASTER + 2, 1000 * n + s))
                net = TreeNetwork(n)
                for i in range(n - 1):
                    net.add_edge(i, i + 1)
                pop = Population(net, EnergyState([rng.uniform(1.0, 200.0) for _ in range(n)]))
                tol = REL * pop.energy.initial_total
                phi = line_potential(net, pop.energy, lam)
                steps = 0
                while phi > tol and steps < budget:
                    u, v = sample_pair(rng, n)
                    if net.parent[v] == u:
                        LambdaExchange(lam).edge_step(pop.energy, u, v, Draws())
                    elif net.parent[u] == v:
                        LambdaExchange(lam).edge_step(pop.energy, v, u, Draws())
                    steps += 1
                    now = line_potential(net, pop.energy, lam)
                    if now > phi + tol:
                        failures.append(f"n={n} lam={lam} seed {s}: potential rose at {steps}")
                        break
                    phi = now
                else:
                    if phi > tol:
                        failures.append(f"n={n} lam={lam} seed {s}: potential never reached zero")
    _report("criterion 7: line potential monotonicity", failures)


# --------------------------------------------------------------------------
# criterion 8: conservation, per step, both loss regimes
# --------------------------------------------------------------------------
def test_c08_conservation():
    failures = []
    for loss in ("lossless", "normal:0.2,0.05"):
        for spec in LOSSY_SPECS:
            cfg = ExperimentConfig(
                n=10, protocol="kary:2", energy_protocol=spec, loss=loss,
                master_seed=MASTER, repetitions=3,
            )
            for i in range(3):
                # validate mode re-sums the energy vector after every step
                # and checks sum + lost == post-formation total at 1e-9
                try:
                    r = run_single(cfg, i, record_metrics=False, validate=True)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{spec} {loss} run {i}: {exc}")
                    continue
                if loss == "lossless" and r.outcome.pop.energy.lost != 0.0:
                    failures.append(f"{spec} lossless run {i}: lost {r.outcome.pop.energy.lost}")
    _report("criterion 8: per-step energy conservation", failures)


# --------------------------------------------------------------------------
# criterion 9: fine-tuning trends of the exchange/transfer parameters
# --------------------------------------------------------------------------
def test_c09_fine_tuning_trends(lossless_batches):
    b = lossless_batches
    failures = []
    taus = [b[f"lambda:{l}"]["tau"] for l in (2, 3, 4, 5, 6)]
    eds = [b[f"lambda:{l}"]["ed_percent"] for l in (2, 3, 4, 5, 6)]
    _check(failures, taus[1] < taus[0], f"tau(lam=3)={taus[1]:.0f} !< tau(lam=2)={taus[0]:.0f}")
    for i in (2, 3, 4):
        _check(failures, taus[i] <= taus[i - 1] * 1.05,
               f"tau(lam={i + 2})={taus[i]:.0f} above 5% band of tau(lam={i + 1})={taus[i - 1]:.0f}")
    for i in (1, 2, 3, 4):
        _check(failures, eds[i] > eds[i - 1],
               f"ED%(lam={i + 2})={eds[i]:.2f} not above ED%(lam={i + 1})={eds[i - 1]:.2f}")
    _check(failures, 2.0 <= eds[0] <= 12.0, f"ED%(lam=2)={eds[0]:.2f} not in [2, 12]")
    _check(failures, 18.0 <= eds[4] <= 30.0, f"ED%(lam=6)={eds[4]:.2f} not in [18, 30]")
    for kappa in ("0.3", "0.4", "0.5", "0.6", "0.7"):
        ed = b[f"kappa:{kappa}"]["ed_percent"]
        _check(failures, 50.0 <= ed <= 68.0, f"ED%(kappa={kappa})={ed:.2f} not in [50, 68]")
    _report("criterion 9: parameter fine-tuning trends", failures)


def test_c09_cause_transfer_stops_on_relaxed_state():
    # Why criterion 9 is red (README, "Known-red acceptance checks"): the
    # fixed-fraction transfer fires only while E_p < 2 E_c, so it stops on
    # the first relaxed state, which no edge can leave; its final distances
    # stay far below the [50, 68] band.
    failures = []
    cfg = ExperimentConfig(n=10, protocol="kary:2", energy_protocol="kappa:0.5",
                           loss="lossless", initial_energy="uniform",
                           master_seed=MASTER, repetitions=10)
    for i in range(10):
        r = run_single(cfg, i, record_metrics=False)
        pop = r.outcome.pop
        if not check_distribution(pop.network, pop.energy, DistributionKind.RELAXED):
            failures.append(f"run {i}: final distribution not relaxed")
        for p, c in pop.network.edges():
            if KappaTransfer(0.5).edge_step(EnergyState(list(pop.energy.per_node)), p, c, Draws()):
                failures.append(f"run {i}: edge ({p},{c}) can still fire")
    _report("criterion 9 cause: transfer stops on a relaxed state", failures)


# --------------------------------------------------------------------------
# criterion 10: protocol quality ordering
# --------------------------------------------------------------------------
def test_c10_protocol_ordering(lossless_batches, lossy_batches):
    failures = []
    exch = lossless_batches["lambda:2"]["ed_percent"]
    kdt = lossless_batches["kdepth:2"]["ed_percent"]
    ktr = lossless_batches["kappa:0.5"]["ed_percent"]
    _check(failures, exch < kdt < ktr,
           f"ordering ED% exchange={exch:.2f} < depth-target={kdt:.2f} < transfer={ktr:.2f} broken")
    _check(failures, abs(exch - 6.93) <= 10.0, f"ED%(exchange)={exch:.2f} not within 10pp of 6.93")
    _check(failures, abs(kdt - 33.81) <= 10.0, f"ED%(depth-target)={kdt:.2f} not within 10pp of 33.81")
    _check(failures, abs(ktr - 63.71) <= 10.0, f"ED%(transfer)={ktr:.2f} not within 10pp of 63.71")
    ideal_lossy = lossy_batches["ideal"]["ed_percent"]
    _check(failures, 10.0 <= ideal_lossy <= 30.0,
           f"lossy targeted ED%={ideal_lossy:.2f} not in [10, 30]")
    _report("criterion 10: protocol quality ordering", failures)


def test_c10_cause_lossy_targeted_ed_is_half_the_loss():
    # Why criterion 10's lossy band is red (README, "Known-red acceptance
    # checks"): a sender gives at most its surplus and the receiver gets less
    # than was sent, so a lossy targeted run ends with no node above its
    # ideal share. Its distance from the ideal is then exactly half the lost
    # energy, below the [10, 30] band.
    failures = []
    cfg = ExperimentConfig(n=10, protocol="kary:2", energy_protocol="ideal",
                           loss="normal:0.2,0.05", initial_energy="uniform",
                           master_seed=MASTER, repetitions=10)
    for i in range(10):
        r = run_single(cfg, i, record_metrics=False)
        energy, ideal = r.outcome.pop.energy, r.outcome.ideal
        above = [v for v, (e, g) in enumerate(zip(energy.per_node, ideal.values))
                 if strictly_greater(e, g)]
        _check(failures, not above, f"run {i}: nodes {above} above their ideal share")
        _check(failures, abs(r.ed - energy.lost / 2.0) <= REL * ideal.total,
               f"run {i}: ed {r.ed} != lost/2 {energy.lost / 2.0}")
    _report("criterion 10 cause: lossy targeted ED is half the loss", failures)


# --------------------------------------------------------------------------
# criterion 11: lossy runs converge faster, per protocol, paired seeds
# --------------------------------------------------------------------------
def test_c11_lossy_faster(lossless_batches, lossy_batches):
    failures = []
    for spec in LOSSY_SPECS:
        lossless_tau = lossless_batches[spec]["tau"]
        lossy_tau = lossy_batches[spec]["tau"]
        _check(failures, lossy_tau < lossless_tau,
               f"{spec}: mean tau lossy {lossy_tau:.1f} !< lossless {lossless_tau:.1f}")
    _report("criterion 11: lossy runs converge faster", failures)


def _kdepth_transfers(loss, i):
    """tau, the steps that moved energy (from the trace) and whether a node
    other than the root received energy, for run i of criterion 11's
    kdepth:2 batch."""
    cfg = ExperimentConfig(n=10, protocol="kary:2", energy_protocol="kdepth:2", loss=loss,
                           initial_energy="uniform", master_seed=MASTER, repetitions=SEEDS)
    r = run_single(cfg, i, record_trace=True, record_metrics=False)
    trace, parent = r.outcome.trace, r.outcome.pop.network.parent
    moved = [s for s, (amount, _) in trace.moves.items() if amount]
    # a positive amount went from u to v, a negative one from v to u
    receivers = [trace.pairs[s][1 if trace.moves[s][0] > 0 else 0] for s in moved]
    return r.tau, moved, any(parent[x] != -1 for x in receivers)


def test_c11_cause_lossy_top_ups_leave_residues():
    # Why criterion 11 is red for kdepth:2 (README, "Known-red acceptance
    # checks"): a node below its target receives a top-up less its loss, so
    # it stays below by that residue and takes further top-ups. Under
    # uniform initial energy only some trees have such a deficit; on the
    # others every transfer is a surplus sent to the root, which bears the
    # loss, so the twins make the same transfers. The top-up runs alone put
    # the lossy mean tau above the lossless one.
    failures = []
    taus = {True: [], False: []}
    for i in range(SEEDS):
        tau, moved, topped_up = _kdepth_transfers("lossless", i)
        lossy_tau, lossy_moved, _ = _kdepth_transfers("normal:0.2,0.05", i)
        if topped_up:
            _check(failures, len(lossy_moved) > len(moved),
                   f"run {i}: {len(lossy_moved)} lossy transfers !> {len(moved)} lossless")
            _check(failures, lossy_moved[-1] > moved[-1],
                   f"run {i}: last lossy move at {lossy_moved[-1]} !> {moved[-1]}")
        else:
            _check(failures, len(lossy_moved) == len(moved),
                   f"run {i}: {len(lossy_moved)} lossy transfers != {len(moved)} lossless")
            taus[False].append((tau, lossy_tau))
        taus[True].append((tau, lossy_tau))
    _check(failures, 0 < SEEDS - len(taus[False]) < SEEDS // 10,
           f"{SEEDS - len(taus[False])} of {SEEDS} runs with a top-up")
    for all_runs, pairs in taus.items():
        lossless, lossy = (fmean(column) for column in zip(*pairs))
        _check(failures, (lossy > lossless) == all_runs,
               f"{'all' if all_runs else 'no-top-up'} runs: mean tau lossy {lossy:.1f}, "
               f"lossless {lossless:.1f}")
    _report("criterion 11 cause: lossy top-ups leave residues", failures)


# --------------------------------------------------------------------------
# criterion 12: non-convergence of the exact-equilibrium variants
# --------------------------------------------------------------------------
def _round_robin_line(kind, steps=3_000):
    """3-node line 0->1->2 under the exact-equilibrium-condition variants,
    round-robin schedule. Returns how many steps sat at the exact state.

    The claim is about real numbers, so the arithmetic is exact
    (``Fraction``): binary floats round onto a fixed point that the real
    dynamics never reach. The only exact state of a 3-node line with total
    S is (4S/7, 2S/7, S/7). The exchange moves x = (2e_c - e_p)/3, so from
    integer energies every value stays in Z[1/3]; the transfer moves e_c/2,
    so every value stays dyadic (Z[1/2]). With S = 900 and S = 1150, S/7 is
    in neither ring, so no step can land on the exact state. Denominators
    grow with every step, which bounds the horizon: 3,000 steps is 1,000
    rounds, far past step 73, where float rounding fixes the exchange.
    """
    if kind == "exchange":
        e = [Fraction(300), Fraction(300), Fraction(300)]
    else:
        e = [Fraction(1000), Fraction(100), Fraction(50)]  # root holds more than twice the rest
    hits = 0
    order = ((0, 1), (1, 2), (0, 2))
    for t in range(steps):
        p, c = order[t % 3]
        if (p, c) != (0, 2):
            if kind == "exchange":
                if e[p] != 2 * e[c]:
                    x = (2 * e[c] - e[p]) / 3
                    e[c] -= x
                    e[p] += x
            else:
                if e[p] != 2 * e[c] and e[c] > 0:
                    x = e[c] / 2
                    e[c] -= x
                    e[p] += x
        if e[0] == 2 * e[1] and e[1] == 2 * e[2]:
            hits += 1
    return hits


def test_c12_impossibility_scenarios():
    failures = []
    hits_exchange = _round_robin_line("exchange")
    _check(failures, hits_exchange == 0,
           f"exact-condition exchange reached the exact state at {hits_exchange} steps")
    hits_transfer = _round_robin_line("transfer")
    _check(failures, hits_transfer == 0,
           f"exact-condition transfer reached the exact state at {hits_transfer} steps")
    _report("criterion 12: non-convergence scenarios", failures)


# --------------------------------------------------------------------------
# criterion 13: determinism and replay
# --------------------------------------------------------------------------
def test_c13_determinism_and_replay(tmp_path):
    failures = []
    for spec, loss in (("lambda:2", "lossless"), ("kdepth:2", "normal:0.2,0.05"),
                       ("rand", "normal:0.2,0.05")):
        cfg = ExperimentConfig(n=10, protocol="kary:2", energy_protocol=spec,
                               loss=loss, master_seed=MASTER, repetitions=1)
        r = run_single(cfg, 0, record_trace=True)
        trace = r.outcome.trace
        try:
            outcome = replay_trace(trace)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{spec}/{loss}: replay failed: {exc}")
            continue
        if outcome.digest != trace.final_digest:
            failures.append(f"{spec}/{loss}: replay digest differs")

    cfg = ExperimentConfig(n=8, energy_protocol="rand", loss="normal:0.2,0.05",
                           master_seed=MASTER, repetitions=4)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=out1)
    run_experiment(cfg, out_dir=out2)
    for name in ("summary.json", "runs.csv"):
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            failures.append(f"{name} differs between identical invocations")
    _report("criterion 13: determinism and replay", failures)
