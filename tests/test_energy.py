import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enertree.core import (
    CONDITION_SLACK,
    MAX_ENERGY,
    EnergyState,
    Population,
    TreeNetwork,
    strictly_greater,
)
from enertree.energy import (
    BETA_CAP,
    MAX_RATIO,
    DepthTarget,
    IdealEnergyTable,
    IdealTarget,
    KappaTransfer,
    LambdaExchange,
    LossModel,
    RandExchange,
    below_ratio,
    compute_ideal_energies,
    depth_target,
    parse_energy_protocol,
    sample_beta,
)
from enertree.errors import DomainError
from enertree.harness import ExperimentConfig, run_single
from enertree.estimation import true_depths
from enertree.formation import FormationProtocol, apply_formation_rule
from enertree.scheduler import make_rng, sample_pair

from conftest import (
    DEMO_EDGES,
    DEMO_IDEAL,
    DEMO_TOTAL,
    Draws,
    build_tree,
    line_pop,
    star_pop,
)


# ---------------------------------------------------------------- ideal table
def test_ideal_table_demo_tree(demo_pop):
    table = compute_ideal_energies(demo_pop.network, DEMO_TOTAL)
    assert table.base == pytest.approx(100.0, rel=1e-12)
    assert list(table.values) == pytest.approx(DEMO_IDEAL, rel=1e-12)
    assert math.fsum(table.values) == pytest.approx(DEMO_TOTAL, rel=1e-9)


def test_ideal_table_single_node():
    net = TreeNetwork(1)
    table = compute_ideal_energies(net, 7.0)
    assert table.values == (7.0,)


def test_ideal_table_star():
    pop = star_pop()
    table = compute_ideal_energies(pop.network, 100.0)
    assert table.values[0] == pytest.approx(25.0)
    assert all(v == pytest.approx(12.5) for v in table.values[1:])


@pytest.mark.parametrize("n", [1023, 1024, 1100])
def test_ideal_table_past_the_float_range(n):
    # 2^(n-1), a line's top share over its leaf's, passes the largest
    # float from n = 1024 on: the shares are then exact, rounded once.
    table = compute_ideal_energies(line_pop([1.0] * n).network, 1000.0 * n)
    assert all(math.isfinite(x) and x >= 0.0 for x in table.values)
    assert math.fsum(table.values) == pytest.approx(1000.0 * n, rel=1e-12)
    if n < 1024:  # the float path, as it always was
        assert table.values == tuple(2 ** (n - 1 - d) * table.base for d in range(n))
    else:
        exact = Fraction(1000 * n, 2**n - 1)
        assert table.base == float(exact)
        assert table.values == tuple(float(exact * 2 ** (n - 1 - d)) for d in range(n))


def test_ideal_table_requires_complete_network():
    net = TreeNetwork(3)
    net.add_edge(0, 1)
    with pytest.raises(DomainError):
        compute_ideal_energies(net, 100.0)


# ------------------------------------------------------------- ideal-target
def _table(values):
    return IdealEnergyTable(values=tuple(values), base=0.0, total=math.fsum(values))


def _ideal_step(energies, targets, beta=0.0):
    """One ideal-target interaction of nodes 0 and 1 of a two-node tree:
    the amount moved and the energy state after it."""
    pop = build_tree(2, [(0, 1)], energies)
    moved = IdealTarget().step(pop, 0, 1, Draws(beta, table=_table(targets)))
    return moved, pop.energy


def test_ideal_target_step_narrative_pair():
    moved, e = _ideal_step([500.0, 150.0], [400.0, 200.0])
    assert moved == pytest.approx(50.0)
    assert e.per_node == pytest.approx([450.0, 200.0])


def test_ideal_target_step_noop_at_target():
    moved, e = _ideal_step([400.0, 200.0], [400.0, 200.0])
    assert moved == 0.0
    assert e.per_node == [400.0, 200.0]


def test_ideal_target_step_with_loss():
    moved, e = _ideal_step([300.0, 100.0], [200.0, 300.0], 0.2)
    assert moved == pytest.approx(100.0)
    assert e.per_node[0] == pytest.approx(200.0)
    assert e.per_node[1] == pytest.approx(180.0)
    assert e.lost == pytest.approx(20.0)


def test_ideal_target_step_reverse_direction():
    moved, e = _ideal_step([100.0, 300.0], [200.0, 150.0])
    assert moved == pytest.approx(-100.0)
    assert e.per_node == pytest.approx([200.0, 200.0])


def test_ideal_target_fixed_point_is_idle(demo_pop):
    table = compute_ideal_energies(demo_pop.network, DEMO_TOTAL)
    pop = build_tree(6, DEMO_EDGES, list(table.values))
    draws = Draws(table=table)
    rng = make_rng(0)
    for _ in range(500):
        u, v = sample_pair(rng, 6)
        assert IdealTarget().step(pop, u, v, draws) == 0.0
    assert pop.energy.per_node == list(table.values)


def test_targeted_interaction_on_demo_state():
    # on the six-node demo state, one targeted interaction of nodes 0 and 1
    # reproduces the textbook surplus-to-deficit move (E2 starts at 150)
    pop = build_tree(6, DEMO_EDGES, [500.0, 150.0, 100.0, 400.0, 350.0, 600.0])
    table = compute_ideal_energies(pop.network, pop.energy.total())
    IdealTarget().step(pop, 0, 1, Draws(table=table))
    assert pop.energy.per_node[0] == pytest.approx(450.0)
    assert pop.energy.per_node[1] == pytest.approx(200.0)


# ---------------------------------------------------------- lambda-exchange
def test_lambda_exchange_tops_parent_up():
    e = EnergyState([500.0, 400.0])
    assert LambdaExchange(2.0).edge_step(e, 0, 1, Draws()) == pytest.approx(100.0)
    assert e.per_node == pytest.approx([600.0, 300.0])


def test_lambda_exchange_noop_when_already_relaxed():
    e = EnergyState([500.0, 100.0])
    assert LambdaExchange(2.0).edge_step(e, 0, 1, Draws()) == 0.0


def test_lambda_exchange_ratio_three():
    e = EnergyState([100.0, 300.0])
    assert LambdaExchange(3.0).edge_step(e, 0, 1, Draws()) == pytest.approx(200.0)
    assert e.per_node == pytest.approx([300.0, 100.0])
    assert e.per_node[0] == pytest.approx(3.0 * e.per_node[1])


def test_lambda_exchange_with_loss():
    e = EnergyState([0.0, 300.0])
    moved = LambdaExchange(2.0).edge_step(e, 0, 1, Draws(0.2))
    assert moved == pytest.approx(200.0)
    assert e.per_node == pytest.approx([160.0, 100.0])
    assert e.lost == pytest.approx(40.0)


@settings(max_examples=200)
@given(
    ep=st.floats(0.0, 1e6),
    ec=st.floats(1e-6, 1e6),
    lam=st.floats(2.0, 8.0),
)
def test_lambda_exchange_lossless_lands_exactly_on_ratio(ep, ec, lam):
    e = EnergyState([ep, ec])
    moved = LambdaExchange(lam).edge_step(e, 0, 1, Draws())
    if moved:
        assert e.per_node[0] == pytest.approx(lam * e.per_node[1], rel=1e-9)
        assert e.per_node[1] >= 0.0
    else:
        assert e.per_node == [ep, ec]


# ------------------------------------------------------------ rand-exchange
def test_rand_exchange_degenerate_interval_matches_fixed_ratio():
    e1 = EnergyState([500.0, 400.0])
    e2 = EnergyState([500.0, 400.0])
    moved1 = RandExchange(2.0, 2.0).edge_step(e1, 0, 1, Draws(rng=make_rng(5)))
    moved2 = LambdaExchange(2.0).edge_step(e2, 0, 1, Draws())
    assert moved1 == moved2
    assert e1.per_node == e2.per_node


def test_rand_exchange_noop_when_relaxed_for_all_ratios():
    e = EnergyState([500.0, 100.0])
    draws = Draws(rng=make_rng(1))
    for _ in range(100):
        assert RandExchange().edge_step(e, 0, 1, draws) == 0.0


def test_rand_exchange_ratio_mean():
    # with (E_p, E_c) = (0, 1) the exchange moves x = lam / (lam + 1), so the
    # sampled ratio is recoverable as x / (1 - x)
    draws = Draws(rng=make_rng(77))
    ratios = []
    for _ in range(10_000):
        e = EnergyState([0.0, 1.0])
        x = RandExchange().edge_step(e, 0, 1, draws)
        ratios.append(x / (1.0 - x))
    mean = sum(ratios) / len(ratios)
    assert abs(mean - 2.5) <= 0.02
    assert all(2.0 <= r <= 3.0 + 1e-9 for r in ratios)


# ------------------------------------------------------------ kappa-transfer
def test_kappa_transfer_halves_child():
    e = EnergyState([500.0, 400.0])
    assert KappaTransfer(0.5).edge_step(e, 0, 1, Draws()) == pytest.approx(200.0)
    assert e.per_node == pytest.approx([700.0, 200.0])


def test_kappa_transfer_noop_when_relaxed():
    e = EnergyState([500.0, 100.0])
    assert KappaTransfer(0.5).edge_step(e, 0, 1, Draws()) == 0.0


def test_kappa_transfer_fraction():
    e = EnergyState([100.0, 100.0])
    assert KappaTransfer(0.3).edge_step(e, 0, 1, Draws()) == pytest.approx(30.0)
    assert e.per_node == pytest.approx([130.0, 70.0])


# -------------------------------------------------------------- depth-target
def _stabilized_demo(energies=None):
    pop = build_tree(6, DEMO_EDGES, energies or [500.0, 100.0, 150.0, 400.0, 350.0, 600.0])
    depth, height = true_depths(pop.network)
    pop.d = depth
    pop.h = [height] * 6
    return pop


def test_depth_target_values(demo_pop):
    pop = _stabilized_demo()
    assert depth_target(pop, 0, 2, DEMO_TOTAL) == pytest.approx(262.5)
    assert depth_target(pop, 4, 2, DEMO_TOTAL) == pytest.approx(262.5)
    assert depth_target(pop, 1, 2, DEMO_TOTAL) == pytest.approx(131.25)
    assert depth_target(pop, 2, 2, DEMO_TOTAL) == pytest.approx(65.625)


def test_depth_target_past_the_float_range():
    pop = _stabilized_demo()
    k = 10**160  # k^2 is past the largest float
    assert depth_target(pop, 0, k, DEMO_TOTAL) == DEMO_TOTAL / (k * 4)  # the float path
    z = depth_target(pop, 1, k, DEMO_TOTAL)
    assert z == float(Fraction(DEMO_TOTAL) / (k**2 * 4)) and 0.0 < z < 1e-300
    assert depth_target(pop, 2, k, DEMO_TOTAL) == 0.0  # exact, rounded once: below any float


def test_depth_target_root_has_none():
    pop = _stabilized_demo()
    with pytest.raises(DomainError):
        depth_target(pop, 5, 2, DEMO_TOTAL)


def test_depth_target_fresh_registers_degenerate():
    pop = build_tree(2, [(0, 1)], [0.0, 0.0])
    assert depth_target(pop, 1, 2, 123.0) == pytest.approx(123.0)


def test_depth_step_between_non_roots():
    pop = _stabilized_demo()
    moved = DepthTarget(2).step(pop, 0, 1, Draws(total_energy=DEMO_TOTAL))
    assert moved == pytest.approx(31.25)
    assert pop.energy.per_node[0] == pytest.approx(468.75)
    assert pop.energy.per_node[1] == pytest.approx(131.25)


def test_depth_step_surplus_flows_to_root():
    pop = _stabilized_demo()
    draws = Draws(total_energy=DEMO_TOTAL)
    DepthTarget(2).step(pop, 0, 1, draws)
    moved = DepthTarget(2).step(pop, 0, 5, draws)
    assert moved == pytest.approx(206.25)
    assert pop.energy.per_node[0] == pytest.approx(262.5)
    assert pop.energy.per_node[5] == pytest.approx(806.25)


def test_depth_step_root_pays_clamped_by_its_energy():
    pop = _stabilized_demo([100.0, 131.25, 65.625, 131.25, 262.5, 10.0])
    # node 0 is 162.5 below target; the root only holds 10
    moved = DepthTarget(2).step(pop, 5, 0, Draws(total_energy=DEMO_TOTAL))
    assert moved == pytest.approx(10.0)
    assert pop.energy.per_node[5] == 0.0
    assert pop.energy.per_node[0] == pytest.approx(110.0)


def test_depth_step_two_roots_noop():
    net = TreeNetwork(4)
    net.add_edge(0, 1)
    net.add_edge(2, 3)
    pop = Population(net, EnergyState([10.0, 1.0, 10.0, 1.0]))
    assert DepthTarget(2).step(pop, 0, 2, Draws(total_energy=22.0)) == 0.0


def test_depth_step_loss_hits_receiver_only():
    pop = _stabilized_demo([100.0, 131.25, 65.625, 131.25, 262.5, 500.0])
    before_root = pop.energy.per_node[5]
    moved = DepthTarget(2).step(pop, 5, 0, Draws(0.25, total_energy=DEMO_TOTAL))
    assert moved == pytest.approx(162.5)
    assert pop.energy.per_node[5] == pytest.approx(before_root - 162.5)
    assert pop.energy.per_node[0] == pytest.approx(100.0 + 0.75 * 162.5)
    assert pop.energy.lost == pytest.approx(0.25 * 162.5)


def test_target_feasibility_on_grown_trees():
    for seed in range(5):
        rng = make_rng(seed)
        n = 14
        protocol = FormationProtocol.kary(2)
        pop = Population(TreeNetwork(n, arity_bound=2), EnergyState([1.0] * n))
        rng.shuffle(pop.w)
        while pop.network.edge_count < n - 1:
            u, v = sample_pair(rng, n)
            apply_formation_rule(protocol, pop, u, v)
        depth, height = true_depths(pop.network)
        pop.d = depth
        pop.h = [height] * n
        # the non-root targets sum to less than the total; the root holds the rest
        root = pop.network.roots()[0]
        targets = [depth_target(pop, v, 2, 1000.0) for v in range(n) if v != root]
        assert math.fsum(targets) < 1000.0


# ---------------------------------------------------------------- loss model
def test_lossless_beta_is_zero_and_consumes_nothing():
    rng = make_rng(9)
    state_before = rng.getstate()
    assert sample_beta(LossModel.lossless(), rng) == 0.0
    assert rng.getstate() == state_before


def test_gaussian_beta_statistics():
    rng = make_rng(10)
    model = LossModel.normal(0.2, 0.05)
    draws = [sample_beta(model, rng) for _ in range(100_000)]
    mean = sum(draws) / len(draws)
    var = sum((x - mean) ** 2 for x in draws) / len(draws)
    assert abs(mean - 0.2) <= 0.005
    assert abs(math.sqrt(var) - 0.05) <= 0.005
    assert all(0.0 <= x <= 0.999 for x in draws)


def test_beta_clamped():
    model = LossModel.normal(0.0, 5.0)
    rng = make_rng(2)
    draws = [sample_beta(model, rng) for _ in range(2000)]
    assert min(draws) >= 0.0
    assert max(draws) <= 0.999


# ----------------------------------------------------- cross-cutting checks
@settings(max_examples=150, deadline=None)
@given(
    ep=st.floats(0.0, 1e6),
    ec=st.floats(0.0, 1e6),
    beta=st.floats(0.0, 0.9),
    kappa=st.floats(0.01, 0.99),
)
def test_steps_never_drive_energy_negative(ep, ec, beta, kappa):
    e = EnergyState([ep, ec])
    LambdaExchange(2.0).edge_step(e, 0, 1, Draws(beta))
    assert all(x >= 0.0 for x in e.per_node)
    e2 = EnergyState([ep, ec])
    KappaTransfer(kappa).edge_step(e2, 0, 1, Draws(beta))
    assert all(x >= 0.0 for x in e2.per_node)


def test_conservation_across_random_protocol_mix():
    rng = make_rng(31)
    pop = _stabilized_demo()
    table = compute_ideal_energies(pop.network, DEMO_TOTAL)
    debited = 0.0
    lost_expected = 0.0
    for _ in range(2000):
        u, v = sample_pair(rng, 6)
        beta = sample_beta(LossModel.normal(0.2, 0.05), rng)
        draws = Draws(beta, table=table, total_energy=DEMO_TOTAL)
        choice = rng.randrange(3)
        if choice == 0:
            moved = abs(IdealTarget().step(pop, u, v, draws))
        elif choice == 1 and pop.network.parent[v] == u:
            moved = LambdaExchange(2.0).edge_step(pop.energy, u, v, draws)
        else:
            moved = abs(DepthTarget(2).step(pop, u, v, draws))
        lost_expected += beta * moved
    assert pop.energy.lost == pytest.approx(lost_expected, rel=1e-9)
    assert pop.energy.conservation_ok()


def test_parse_energy_protocol_specs():
    assert parse_energy_protocol("ideal") == IdealTarget()
    assert parse_energy_protocol("lambda:2.5") == LambdaExchange(2.5)
    assert parse_energy_protocol("rand") == RandExchange(2.0, 3.0)
    assert parse_energy_protocol("kappa:0.5") == KappaTransfer(0.5)
    assert parse_energy_protocol("kdepth:3") == DepthTarget(3)
    with pytest.raises(DomainError):
        parse_energy_protocol("lambda:1.5")
    with pytest.raises(DomainError):
        parse_energy_protocol("kappa:1.5")
    with pytest.raises(DomainError):
        parse_energy_protocol("magic")


@pytest.mark.parametrize("spec", [None, 0, 0.2, 2, True, ["ideal"], {"kind": "lossless"}])
@pytest.mark.parametrize("parse", [LossModel.parse, parse_energy_protocol, FormationProtocol.parse])
def test_a_spec_that_is_not_a_string_is_refused(parse, spec):
    # A config's null or number is not a spec, even where its text would be
    # one ("0" is lossless), so it is never coerced with str().
    with pytest.raises(DomainError, match="must be a string"):
        parse(spec)


def test_the_loss_aliases_stay():
    for spec in ("lossless", "none", "0", " Lossless "):
        assert LossModel.parse(spec) == LossModel.lossless()
    assert LossModel.parse("normal:0.2,0.05") == LossModel.normal(0.2, 0.05)


# ----------------------------------------------------------- the edge condition
RATIOS = [2.0, 3.0, 2.5]
TINY = 5e-324  # the smallest subnormal


def _edge_cases():
    # (E_p, E_c): zeros, subnormals, 1e300, equal values, and E_p on either
    # side of r * E_c and of its slack boundary r * E_c * (1 - slack)
    for ec in [0.0, TINY, 1e-320, 2.2250738585072014e-308, 1.0, 1e300]:
        for r in RATIOS:
            edge = r * ec
            for at in [edge, edge * (1.0 - CONDITION_SLACK)]:
                for ep in [at, math.nextafter(at, 0.0), math.nextafter(at, math.inf)]:
                    yield ep, ec, r
        for ep in [0.0, TINY, ec, 1e300]:
            yield ep, ec, 2.0


@pytest.mark.contract
@pytest.mark.parametrize("ep, ec, ratio", list(_edge_cases()))
def test_below_ratio_is_the_slack_test_written_out(ep, ec, ratio):
    assert below_ratio(ep, ec, ratio) is strictly_greater(ratio * ec, ep)


@pytest.mark.contract
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(0.0, 1e300), st.floats(0.0, 1e300), st.sampled_from(RATIOS))
def test_below_ratio_agrees_with_strictly_greater_on_any_energies(ep, ec, ratio):
    assert below_ratio(ep, ec, ratio) is strictly_greater(ratio * ec, ep)


# ------------------------------------------------- the ratio bound, no negative
@pytest.mark.contract
@pytest.mark.parametrize("spec", ["lambda:1e17", "lambda:1125899906842625", "rand:2,1e17",
                                  "rand:1e16,1e17"])
def test_a_ratio_above_the_bound_is_refused(spec):
    with pytest.raises(DomainError, match="2\\^50"):
        parse_energy_protocol(spec)


@pytest.mark.contract
def test_a_ratio_at_the_bound_is_accepted_and_keeps_every_energy_non_negative():
    assert MAX_RATIO == 2.0**50 == 1125899906842624
    assert parse_energy_protocol("lambda:1125899906842624") == LambdaExchange(MAX_RATIO)
    assert parse_energy_protocol("rand:2,1125899906842624") == RandExchange(2.0, MAX_RATIO)
    for spec in ["lambda:1125899906842624", "rand:2,1125899906842624"]:
        config = ExperimentConfig(n=8, protocol="kary:2", energy_protocol=spec,
                                  initial_energy="random", repetitions=5, master_seed=1)
        for i in range(5):
            run_single(config, i, validate=True)  # raises on a negative energy


ENERGIES = st.sampled_from([0.0, 5e-324, 1.0, 1e300]) | st.floats(0.0, MAX_ENERGY)
BETAS = st.sampled_from([0.0, BETA_CAP]) | st.floats(0.0, BETA_CAP)


@pytest.mark.contract
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(ENERGIES, ENERGIES, st.sampled_from([2.0, MAX_RATIO]) | st.floats(2.0, MAX_RATIO),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), BETAS, st.integers(0, 2**32))
def test_an_edge_move_leaves_both_energies_non_negative(ep, ec, ratio, kappa, beta, seed):
    # below_ratio drops the abs of E_p on the strength of this.
    for protocol, draws in [
        (LambdaExchange(ratio), Draws(beta)),
        (LambdaExchange(MAX_RATIO), Draws(beta)),
        (RandExchange(2.0, MAX_RATIO), Draws(beta, rng=make_rng(seed))),
        (RandExchange(ratio, MAX_RATIO), Draws(beta, rng=make_rng(seed))),
        (KappaTransfer(kappa), Draws(beta)),
    ]:
        e = EnergyState([ep, ec])
        protocol.edge_step(e, 0, 1, draws)
        assert min(e.per_node) >= 0.0, protocol


@pytest.mark.contract
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(ENERGIES, min_size=3, max_size=3), st.lists(ENERGIES, min_size=3, max_size=3),
       st.lists(st.integers(0, 40), min_size=6, max_size=6), st.floats(1e-300, MAX_ENERGY),
       st.integers(2, 5), BETAS)
def test_a_targeted_move_leaves_every_energy_non_negative(energies, targets, registers, total,
                                                          k, beta):
    # A line 0 - 1 - 2 rooted at 0: every ordered pair, for ideal (against
    # any targets) and for kdepth (from any depth and height registers).
    ideal = IdealEnergyTable(values=tuple(targets), base=1.0, total=total)
    for protocol, draws in [(IdealTarget(), Draws(beta, table=ideal)),
                            (DepthTarget(k), Draws(beta, total_energy=total))]:
        for u, v in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]:
            pop = line_pop(energies)
            pop.d[:], pop.h[:] = registers[:3], registers[3:]
            protocol.step(pop, u, v, draws)
            assert min(pop.energy.per_node) >= 0.0, (protocol, u, v)
