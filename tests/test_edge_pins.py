"""The edge condition written out, pinned against ``energy.below_ratio``.

``below_ratio`` is the one definition of the condition of the edge
protocols. Two hot paths write it out in place of calling it: the lambda
and rand exchanges (``LambdaExchange.edge_step``, ``RandExchange.edge_step``)
and the energy-only loop of ``ActivePairs.refresh``. Each copy must decide
exactly as ``below_ratio`` does on every pair of energies a run can hold,
zero, subnormal and huge ones included.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from enertree.active import ActivePairs
from enertree.core import CONDITION_SLACK, MAX_ENERGY, EnergyState, Population, TreeNetwork
from enertree.energy import MAX_RATIO, LambdaExchange, RandExchange, below_ratio
from enertree.estimation import true_depths
from enertree.formation import FormationProtocol
from enertree.scheduler import make_rng

from conftest import Draws

PINS = settings(max_examples=1000, deadline=None, derandomize=True)
ENERGIES = (st.sampled_from([0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1.0, 1e300])
            | st.floats(0.0, 1e-300) | st.floats(0.0, MAX_ENERGY))
RATIOS = st.sampled_from([2.0, 3.0, MAX_RATIO]) | st.floats(2.0, MAX_RATIO)


@st.composite
def edges(draw, ratios=RATIOS) -> tuple[float, float, float]:
    """(E_p, E_c, ratio): E_p arbitrary, or on the ratio's exact or slack
    boundary (r * E_c, or r * E_c * (1 - slack)), or one ulp off either."""
    ec, ratio = draw(ENERGIES), draw(ratios)
    edge = draw(st.sampled_from([ratio * ec, ratio * ec * (1.0 - CONDITION_SLACK)]))
    near = [x for x in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf))
            if x <= MAX_ENERGY]
    return draw(ENERGIES | st.sampled_from(near or [0.0])), ec, ratio


class CountingDraws(Draws):
    """Draws that count the loss fractions taken: one per transfer."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.transfers = 0

    def beta(self):
        self.transfers += 1
        return super().beta()


@PINS
@given(edges())
def test_an_exchange_fires_exactly_where_below_ratio_holds(edge):
    ep, ec, ratio = edge
    # rand's degenerate interval [r, r] draws r itself
    for protocol, draws in [(LambdaExchange(ratio), CountingDraws()),
                            (RandExchange(ratio, ratio), CountingDraws(rng=make_rng(0)))]:
        e = EnergyState([ep, ec])
        moved = protocol.edge_step(e, 0, 1, draws)
        fired = below_ratio(ep, ec, ratio)
        assert draws.transfers == fired, protocol
        assert moved == ((ratio * ec - ep) / (ratio + 1.0) if fired else 0.0), protocol


def _settled_binary_tree(energies: list[float]) -> Population:
    n = len(energies)
    net = TreeNetwork(n, arity_bound=2)
    for c in range(1, n):
        net.add_edge((c - 1) // 2, c)
    d, height = true_depths(net)
    return Population(net, EnergyState(energies), w=[0] * n, d=d, h=[height] * n, fresh=False)


@PINS
@given(st.data(), st.lists(ENERGIES, min_size=2, max_size=12), RATIOS)
def test_a_refreshed_energy_row_is_below_ratio_on_every_edge(data, energies, ratio):
    # Settled registers leave no structural claim, so refresh takes its
    # energy-only loop. After each move on an edge, set here to any two
    # energies (often on a boundary of the condition), every edge must be
    # held exactly where below_ratio holds, and the rows must be those of a
    # mask built afresh, which tests each edge through below_ratio itself.
    pop = _settled_binary_tree(energies)
    protocol, formation = LambdaExchange(ratio), FormationProtocol.kary(2)
    mask = ActivePairs(pop, formation, protocol, Draws())
    assert mask.structural == 0
    e, parent = pop.energy.per_node, pop.network.parent
    for _ in range(4):
        c = data.draw(st.integers(1, len(e) - 1))
        p = parent[c]
        e[p], e[c], _ = data.draw(edges(st.just(ratio)))
        u, v = data.draw(st.sampled_from([(p, c), (c, p)]))
        mask.refresh(u, v, 1.0)
        for x in range(1, len(e)):
            assert mask.edge_on[x] == below_ratio(e[parent[x]], e[x], ratio), x
        fresh = ActivePairs(pop, formation, protocol, Draws())
        assert (mask.rows, mask.count) == (fresh.rows, fresh.count)
