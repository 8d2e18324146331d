import pytest

from enertree.core import EnergyState, Population, TreeNetwork, classify
from enertree.errors import DomainError
from enertree.formation import (
    IR,
    IS,
    LR,
    LS,
    NOOP,
    RR,
    RS,
    SS,
    UW,
    CONNECTING_RULES,
    FormationProtocol,
    apply_formation_rule,
    is_formation_complete,
    load_snapshot,
    snapshot_digest,
    snapshot_lines,
)
from enertree.scheduler import make_rng, sample_pair


def fresh_pop(n, arity=None, w=None):
    return Population(
        TreeNetwork(n, arity_bound=arity), EnergyState([0.0] * n), w=w
    )


def run_script(protocol, pop, pairs):
    return [apply_formation_rule(protocol, pop, u, v) for u, v in pairs]


def test_arbitrary_eight_node_script():
    # nine scripted interactions grow one spanning tree over eight nodes;
    # the (root, leaf) and repeated-pair picks change nothing
    pop = fresh_pop(8)
    proto = FormationProtocol.arbitrary()
    pairs = [(0, 1), (2, 3), (0, 3), (2, 4), (0, 1), (0, 2), (1, 5), (6, 7), (0, 6)]
    tags = run_script(proto, pop, pairs)
    assert tags == [SS, SS, NOOP, RS, NOOP, RR, LS, SS, RR]
    assert pop.network.parent == [-1, 0, 0, 2, 2, 1, 0, 6]
    assert is_formation_complete(pop.network)
    pop.network.validate()


def test_binary_seven_node_script():
    # merge keys force every capture to go root-under-smaller-key
    w = [4, 2, 7, 6, 5, 3, 1]
    pop = fresh_pop(7, arity=2, w=w)
    proto = FormationProtocol.kary(2)
    pairs = [(0, 1), (3, 2), (6, 5), (0, 3), (4, 5), (1, 6), (2, 3), (0, 5)]
    tags = run_script(proto, pop, pairs)
    assert tags == [SS, SS, SS, RR, LS, NOOP, UW, IR]
    assert pop.network.parent == [5, 0, 3, 0, 5, 6, -1]
    # keys re-derived from the update rule, not from any narration
    assert pop.w == [1, 4, 4, 4, 1, 1, 1]
    assert is_formation_complete(pop.network)
    pop.network.validate()


def test_both_isolated_first_element_becomes_parent():
    pop = fresh_pop(2)
    assert apply_formation_rule(FormationProtocol.arbitrary(), pop, 1, 0) == SS
    assert pop.network.parent == [1, -1]


def test_arbitrary_root_leaf_is_noop():
    proto = FormationProtocol.arbitrary()
    pop = fresh_pop(4)
    apply_formation_rule(proto, pop, 0, 1)
    apply_formation_rule(proto, pop, 2, 3)
    # leaves must never become parents of roots: that could close a cycle
    assert apply_formation_rule(proto, pop, 0, 3) == NOOP
    assert apply_formation_rule(proto, pop, 1, 2) == NOOP
    assert pop.network.edge_count == 2


def test_arbitrary_connected_pair_is_noop():
    pop = fresh_pop(2)
    proto = FormationProtocol.arbitrary()
    apply_formation_rule(proto, pop, 0, 1)
    assert apply_formation_rule(proto, pop, 0, 1) == NOOP
    assert apply_formation_rule(proto, pop, 1, 0) == NOOP


def test_kary_connected_pair_fires_key_refresh():
    pop = fresh_pop(3, arity=2, w=[2, 1, 0])
    proto = FormationProtocol.kary(2)
    apply_formation_rule(proto, pop, 0, 1)  # SS, w1 := 2
    assert pop.w[1] == 2
    pop.w[0] = 9  # pretend the parent's key moved on since
    assert apply_formation_rule(proto, pop, 1, 0) == UW
    assert pop.w[1] == 9


def test_kary_internal_captures_root():
    # internal node with one child and the smaller key captures a full root
    pop = fresh_pop(6, arity=2, w=[4, 10, 11, 6, 12, 13])
    proto = FormationProtocol.kary(2)
    apply_formation_rule(proto, pop, 3, 0)  # SS: 3 root, 0 leaf (w0 := 6)
    apply_formation_rule(proto, pop, 0, 1)  # LS: 0 internal(1), 1 leaf
    apply_formation_rule(proto, pop, 5, 4)  # SS: 5 root of {4}
    apply_formation_rule(proto, pop, 5, 2)  # RS: 5 -> R2
    pop.w[0] = 4  # give the internal node the smaller key
    tag = apply_formation_rule(proto, pop, 0, 5)
    assert tag == IR
    assert pop.network.parent[5] == 0
    assert classify(pop.network, 0).children == 2
    assert classify(pop.network, 5).children == 2
    assert pop.w[5] == 4  # child key inherited at attach
    assert apply_formation_rule(proto, pop, 0, 5) == UW


def test_kary_leaf_root_requires_key_order():
    # leaf with key 7 cannot capture a root with key 1
    pop = fresh_pop(4, arity=2, w=[5, 7, 1, 3])
    proto = FormationProtocol.kary(2)
    apply_formation_rule(proto, pop, 0, 1)  # 0 root, 1 leaf; w1 := 5
    apply_formation_rule(proto, pop, 2, 3)  # 2 root (w=1), 3 leaf
    pop.w[1] = 7
    assert apply_formation_rule(proto, pop, 1, 2) == NOOP
    pop.w[1] = 0
    assert apply_formation_rule(proto, pop, 1, 2) == LR
    assert pop.network.parent[2] == 1


def test_kary_full_root_meets_isolated_noop():
    pop = fresh_pop(4, arity=2, w=[0, 1, 2, 3])
    proto = FormationProtocol.kary(2)
    apply_formation_rule(proto, pop, 0, 1)
    apply_formation_rule(proto, pop, 0, 2)  # root now holds two children
    assert apply_formation_rule(proto, pop, 0, 3) == NOOP
    assert apply_formation_rule(proto, pop, 3, 0) == NOOP


def test_kary_root_root_orientation_from_keys():
    # capture direction follows the key comparison, not the pair order
    pop = fresh_pop(4, arity=2, w=[1, 9, 2, 8])
    proto = FormationProtocol.kary(2)
    apply_formation_rule(proto, pop, 0, 1)
    apply_formation_rule(proto, pop, 2, 3)
    assert apply_formation_rule(proto, pop, 2, 0) == RR
    assert pop.network.parent[2] == 0  # key 1 captured key 2


def test_is_formation_complete_cases():
    assert is_formation_complete(TreeNetwork(1))
    net = TreeNetwork(4)
    net.add_edge(0, 1)
    net.add_edge(2, 3)
    assert not is_formation_complete(net)
    net.add_edge(0, 2)
    assert is_formation_complete(net)


def run_formation_loop(n, protocol, seed, max_steps=None):
    rng = make_rng(seed)
    pop = fresh_pop(n, arity=protocol.k)
    pop.w = list(range(n))
    rng.shuffle(pop.w)
    budget = max_steps or 500 * (n * (n - 1) // 2)
    steps = 0
    while steps < budget:
        u, v = sample_pair(rng, n)
        apply_formation_rule(protocol, pop, u, v)
        steps += 1
        if pop.network.edge_count == n - 1:
            break
    return pop, steps


@pytest.mark.parametrize(
    "protocol",
    [
        FormationProtocol.arbitrary(),
        FormationProtocol.kary(2),
        FormationProtocol.kary(3),
    ],
    ids=["arbitrary", "kary2", "kary3"],
)
def test_random_runs_reach_spanning_tree(protocol):
    for seed in range(5):
        pop, steps = run_formation_loop(12, protocol, seed)
        assert is_formation_complete(pop.network), (protocol, seed)
        pop.network.validate()


def test_merge_potential_drops_by_one_per_connection():
    # isolated + roots acts as a potential: starts at n, each connecting
    # rule takes exactly one off, nothing else changes it
    rng = make_rng(3)
    n = 12
    pop = fresh_pop(n)
    proto = FormationProtocol.arbitrary()

    def potential():
        net = pop.network
        return len(net.isolated()) + len(net.roots())

    value = potential()
    assert value == n
    steps = 0
    while not is_formation_complete(pop.network) and steps < 10_000:
        u, v = sample_pair(rng, n)
        tag = apply_formation_rule(proto, pop, u, v)
        steps += 1
        new_value = potential()
        if tag in CONNECTING_RULES:
            assert new_value == value - 1
        else:
            assert new_value == value
        value = new_value
    assert value == 1


def test_snapshot_roundtrip(demo_pop):
    demo_pop.w = [3, 1, 4, 0, 2, 5]
    demo_pop.d = [1, 2, 3, 2, 1, 0]
    demo_pop.h = [3] * 6
    lines = snapshot_lines(demo_pop)
    loaded = load_snapshot(lines)
    assert loaded.network.parent == demo_pop.network.parent
    assert loaded.w == demo_pop.w
    assert loaded.d == demo_pop.d
    assert loaded.h == demo_pop.h
    assert loaded.energy.per_node == demo_pop.energy.per_node
    assert snapshot_digest(loaded) == snapshot_digest(demo_pop)


def test_load_snapshot_rejects_garbage():
    with pytest.raises(DomainError):
        load_snapshot(["not a snapshot"])
    with pytest.raises(DomainError):
        load_snapshot([])


def test_protocol_parse():
    assert FormationProtocol.parse("arbitrary").kind == "arbitrary"
    assert FormationProtocol.parse("kary:4").k == 4
    with pytest.raises(DomainError):
        FormationProtocol.parse("kary:1")
    with pytest.raises(DomainError):
        FormationProtocol.parse("ring")


def _state_kind(pop, i):
    return classify(pop.network, i)


def test_fired_rules_match_classify_oracle():
    # the tag returned by the dispatcher must agree with the pair's derived
    # states before the firing, and the post-states must follow the rule
    from enertree.core import NodeKind, NodeState

    for proto, seed in [
        (FormationProtocol.arbitrary(), 0),
        (FormationProtocol.kary(2), 1),
        (FormationProtocol.kary(3), 2),
    ]:
        rng = make_rng(seed)
        n = 14
        pop = fresh_pop(n, arity=proto.k)
        rng.shuffle(pop.w)
        for _ in range(4000):
            u, v = sample_pair(rng, n)
            before_u = classify(pop.network, u)
            before_v = classify(pop.network, v)
            edges_before = pop.network.edge_count
            tag = apply_formation_rule(proto, pop, u, v)
            after_u = classify(pop.network, u)
            after_v = classify(pop.network, v)
            if tag == SS:
                assert before_u.kind == before_v.kind == NodeKind.ISOLATED
                assert after_u == NodeState(NodeKind.ROOT, 1)
                assert after_v == NodeState(NodeKind.LEAF)
            elif tag in (RS, IS, LS):
                kinds = {before_u.kind, before_v.kind}
                assert NodeKind.ISOLATED in kinds
                parent_pre = before_u if before_v.kind == NodeKind.ISOLATED else before_v
                child_post = after_v if before_v.kind == NodeKind.ISOLATED else after_u
                expected = {RS: NodeKind.ROOT, IS: NodeKind.INTERNAL, LS: NodeKind.LEAF}
                assert parent_pre.kind == expected[tag]
                assert child_post == NodeState(NodeKind.LEAF)
                if proto.k is not None:
                    assert parent_pre.children < proto.k
            elif tag == RR:
                assert before_u.kind == before_v.kind == NodeKind.ROOT
                assert {after_u.kind, after_v.kind} == {NodeKind.ROOT, NodeKind.INTERNAL}
            elif tag in (IR, LR):
                kinds = {before_u.kind, before_v.kind}
                assert NodeKind.ROOT in kinds
                other = before_u if before_v.kind == NodeKind.ROOT else before_v
                assert other.kind == (NodeKind.INTERNAL if tag == IR else NodeKind.LEAF)
                assert after_u.kind == after_v.kind == NodeKind.INTERNAL
            elif tag == UW:
                assert pop.network.parent[v] == u or pop.network.parent[u] == v
                assert pop.network.edge_count == edges_before
            else:
                assert tag == NOOP
                assert pop.network.edge_count == edges_before
                assert after_u == before_u and after_v == before_v
