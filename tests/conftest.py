import pytest

from enertree.core import EnergyState, Population, TreeNetwork
from enertree.scheduler import TraceRecord

# Files whose every test is in the byte-identity contract (marker
# ``contract``, registered in pyproject.toml); the contract's single tests
# elsewhere carry the marker themselves.
CONTRACT_FILES = {
    "test_golden.py", "test_skipping.py", "test_active_pairs.py", "test_tracer_hooks.py",
    "test_scheduler.py", "test_lazy_books.py", "test_edge_pins.py",
}


@pytest.hookimpl(tryfirst=True)  # before ``-m`` deselects
def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name in CONTRACT_FILES:
            item.add_marker(pytest.mark.contract)


def build_tree(n, edges, energies=None, arity=None, w=None):
    """Assemble a Population from explicit (parent, child) edges."""
    net = TreeNetwork(n, arity_bound=arity)
    for p, c in edges:
        net.add_edge(p, c)
    if energies is None:
        energies = [0.0] * n
    return Population(net, EnergyState(energies), w=w)


DEMO_EDGES = [(5, 0), (5, 4), (0, 1), (4, 3), (1, 2)]
DEMO_ENERGIES = [500.0, 100.0, 150.0, 400.0, 350.0, 600.0]
# depths: node5=0, node0=node4=1, node1=node3=2, node2=3; height 3
DEMO_DEPTHS = [1, 2, 3, 2, 1, 0]
DEMO_TOTAL = 2100.0
DEMO_IDEAL = [400.0, 200.0, 100.0, 200.0, 400.0, 800.0]


@pytest.fixture
def demo_pop():
    """Six-node binary demo tree used across the golden tests."""
    return build_tree(6, DEMO_EDGES, list(DEMO_ENERGIES))


def star_pop(root_energy=25.0, leaf_energy=12.5, leaves=6):
    n = leaves + 1
    edges = [(0, i) for i in range(1, n)]
    energies = [root_energy] + [leaf_energy] * leaves
    return build_tree(n, edges, energies)


def line_pop(energies):
    n = len(energies)
    edges = [(i, i + 1) for i in range(n - 1)]
    return build_tree(n, edges, list(energies))


def records(trace):
    """Every step of an ``InteractionTrace`` as a ``TraceRecord``."""
    return [
        TraceRecord(step, u, v, rule, *trace.moves.get(step, (None, None)))
        for step, ((u, v), rule) in enumerate(zip(trace.pairs, trace.rules))
    ]


def samples(outcome):
    """The metric samples of a ``SimOutcome`` as ``(step, dd, total_energy,
    lost)``, one per step of each ``MetricRun``, in step order."""
    return [(step, *run[1:]) for run in outcome.metric_runs for step in run.steps]


def pair_mask(n, pairs):
    """A ``skip`` mask over n nodes that stops at the given oriented pairs."""
    rows = [bytearray(n - 1) for _ in range(n)]
    for u, v in pairs:
        rows[u][v - (v > u)] = 1
    return [bytes(row) for row in rows]


class Draws:
    """The ``draws`` a protocol's step reads, with a fixed loss fraction:
    the generator, the ideal table and the total energy, each as given."""

    def __init__(self, beta=0.0, *, rng=None, table=None, total_energy=None):
        self.loss = beta
        self.rng = rng
        self.table = table
        self.total_energy = total_energy

    def beta(self):
        return self.loss
