import random

import pytest

from enertree.core import (
    DistributionKind,
    EnergyState,
    NodeKind,
    NodeState,
    Population,
    TreeNetwork,
    check_distribution,
    classify,
    is_spanning_tree,
    strictly_greater,
)
from enertree.energy import compute_ideal_energies
from enertree.errors import DomainError, InvariantError

from conftest import build_tree, line_pop, star_pop, DEMO_EDGES


def test_classify_isolated_and_leaf():
    net = TreeNetwork(3)
    assert classify(net, 0) == NodeState(NodeKind.ISOLATED)
    net.add_edge(0, 1)
    assert classify(net, 1) == NodeState(NodeKind.LEAF)
    assert classify(net, 0) == NodeState(NodeKind.ROOT, 1)


def test_classify_demo_tree(demo_pop):
    net = demo_pop.network
    assert classify(net, 5) == NodeState(NodeKind.ROOT, 2)
    assert classify(net, 0) == NodeState(NodeKind.INTERNAL, 1)
    assert classify(net, 2) == NodeState(NodeKind.LEAF)


def test_classify_unknown_id():
    net = TreeNetwork(2)
    with pytest.raises(DomainError):
        classify(net, 5)


def test_classify_matches_snapshot_tokens(demo_pop):
    from enertree.formation import snapshot_lines

    for line in snapshot_lines(demo_pop):
        parts = line.split()
        i = int(parts[0])
        assert parts[1] == classify(demo_pop.network, i).token()


def test_state_tokens():
    assert NodeState(NodeKind.ISOLATED).token() == "S"
    assert NodeState(NodeKind.LEAF).token() == "L"
    assert NodeState(NodeKind.INTERNAL, 3).token() == "I3"
    assert NodeState(NodeKind.ROOT, 12).token() == "R12"


def test_network_rejects_second_parent():
    net = TreeNetwork(3)
    net.add_edge(0, 2)
    with pytest.raises(InvariantError):
        net.add_edge(1, 2)


def test_network_rejects_cycle():
    net = TreeNetwork(3)
    net.add_edge(0, 1)
    net.add_edge(1, 2)
    with pytest.raises(InvariantError):
        net.add_edge(2, 0)


def test_network_rejects_self_edge_and_arity():
    net = TreeNetwork(4, arity_bound=2)
    with pytest.raises(InvariantError):
        net.add_edge(1, 1)
    net.add_edge(0, 1)
    net.add_edge(0, 2)
    with pytest.raises(InvariantError):
        net.add_edge(0, 3)


def test_validate_passes_on_demo(demo_pop):
    demo_pop.network.validate()


def test_star_exact_distribution():
    pop = star_pop()
    assert check_distribution(pop.network, pop.energy, DistributionKind.EXACT)
    assert check_distribution(pop.network, pop.energy, DistributionKind.RELAXED)
    assert check_distribution(pop.network, pop.energy, DistributionKind.EXACT_UP_TO_ROOT)


def test_relaxed_but_not_exact_binary():
    # root's children hold 15 and 21; every parent has at least twice each
    # child's energy but not exactly twice
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]
    energies = [52.0, 15.0, 21.0, 7.0, 3.0, 2.0]
    pop = build_tree(6, edges, energies)
    assert check_distribution(pop.network, pop.energy, DistributionKind.RELAXED)
    assert not check_distribution(pop.network, pop.energy, DistributionKind.EXACT)


def test_single_node_distributions_all_true():
    pop = build_tree(1, [], [7.0])
    for kind in DistributionKind:
        assert check_distribution(pop.network, pop.energy, kind)


def test_incomplete_network_distribution_error():
    net = TreeNetwork(3)
    net.add_edge(0, 1)
    with pytest.raises(DomainError):
        check_distribution(net, EnergyState([1.0, 1.0, 1.0]), DistributionKind.EXACT)


def test_exact_up_to_root_excludes_root_pairs():
    # root below twice its child, all deeper pairs exact
    pop = line_pop([10.0, 8.0, 4.0, 2.0])
    assert check_distribution(pop.network, pop.energy, DistributionKind.EXACT_UP_TO_ROOT)
    assert not check_distribution(pop.network, pop.energy, DistributionKind.EXACT)
    assert not check_distribution(pop.network, pop.energy, DistributionKind.RELAXED)


def test_exact_implies_relaxed_and_up_to_root():
    # build random trees, install the exact doubling shares, check implications
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randrange(2, 12)
        net = TreeNetwork(n)
        for c in range(1, n):
            net.add_edge(rng.randrange(c), c)
        table = compute_ideal_energies(net, rng.uniform(10, 1e4))
        energy = EnergyState(table.values)
        assert check_distribution(net, energy, DistributionKind.EXACT)
        assert check_distribution(net, energy, DistributionKind.RELAXED)
        assert check_distribution(net, energy, DistributionKind.EXACT_UP_TO_ROOT)


def test_energy_transfer_conservation():
    e = EnergyState([100.0, 50.0, 25.0])
    e.transfer(0, 1, 30.0, beta=0.2)
    assert e.per_node[0] == 70.0
    assert e.per_node[1] == 50.0 + 24.0
    assert e.lost == 6.0
    assert e.conservation_ok()
    e.transfer(2, 0, 25.0, beta=0.0)
    assert e.conservation_ok()
    assert e.lost == 6.0  # lost is non-decreasing, unchanged by lossless moves


def test_negative_initial_energy_rejected():
    with pytest.raises(DomainError):
        EnergyState([1.0, -0.5])


def test_strictly_greater_slack():
    assert strictly_greater(1.0, 0.5)
    assert not strictly_greater(1.0, 1.0)
    # within the relative slack: treated as not greater
    assert not strictly_greater(1.0 + 1e-13, 1.0)
    assert strictly_greater(1.0 + 1e-6, 1.0)


def test_population_requires_unique_merge_keys():
    net = TreeNetwork(3)
    with pytest.raises(DomainError):
        Population(net, EnergyState([0.0] * 3), w=[1, 1, 2])


def test_is_spanning_tree():
    assert is_spanning_tree(TreeNetwork(1))
    pop = build_tree(6, DEMO_EDGES)
    assert is_spanning_tree(pop.network)
    # two disjoint 2-node trees
    net = TreeNetwork(4)
    net.add_edge(0, 1)
    net.add_edge(2, 3)
    assert not is_spanning_tree(net)


def test_spanning_tree_requires_no_isolated():
    net = TreeNetwork(3)
    net.add_edge(0, 1)
    assert not is_spanning_tree(net)
