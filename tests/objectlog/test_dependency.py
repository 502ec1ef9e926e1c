"""Tests for the dependency network of a condition (paper Fig. 1).

The propagation network is the only dependency graph: these checks build
it with ``PropagationNetwork.add_condition``.
"""

import pytest

from repro.errors import RecursionNotSupportedError
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.rules.network import PropagationNetwork

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def clause(head, *body):
    return HornClause(head, list(body))


@pytest.fixture
def program():
    """The paper's Fig.-1 shape: cnd depends on quantity and threshold;
    threshold depends on four stored functions."""
    p = Program()
    for name in ("quantity", "consume_freq", "min_stock"):
        p.declare_base(name, 2)
    p.declare_base("delivery_time", 3)
    p.declare_base("supplies", 2)
    p.declare_derived("threshold", 2)
    T, G1, G2, G3 = (Variable(n) for n in ("T", "G1", "G2", "G3"))
    p.add_clause(clause(
        PredLiteral("threshold", (X, T)),
        PredLiteral("consume_freq", (X, G1)),
        PredLiteral("delivery_time", (X, G2, G3)),
        PredLiteral("supplies", (X, G2)),
        PredLiteral("min_stock", (X, T)),
    ))
    p.declare_derived("cnd", 1)
    p.add_clause(clause(
        PredLiteral("cnd", (X,)),
        PredLiteral("quantity", (X, Y)),
        PredLiteral("threshold", (X, Z)),
    ))
    return p


def network_of(program, keep=frozenset()):
    network = PropagationNetwork(program)
    network.add_condition("cnd", keep=keep)
    return network


def influents_of(network, target):
    return {
        edge.source.name for edge in network.edges() if edge.target.name == target
    }


class TestDependencyNetwork:
    def test_bushy_network_keeps_threshold(self, program):
        network = network_of(program, keep=frozenset({"threshold"}))
        assert influents_of(network, "cnd") == {"quantity", "threshold"}
        assert influents_of(network, "threshold") == {
            "consume_freq",
            "delivery_time",
            "supplies",
            "min_stock",
        }

    def test_flat_network_has_five_influents(self, program):
        """Full expansion: exactly the paper's five partial differentials."""
        network = network_of(program)
        assert influents_of(network, "cnd") == {
            "quantity",
            "consume_freq",
            "delivery_time",
            "supplies",
            "min_stock",
        }
        assert "threshold" not in network.nodes

    def test_levels(self, program):
        network = network_of(program, keep=frozenset({"threshold"}))
        assert network.node("quantity").level == 0
        assert network.node("threshold").level == 1
        assert network.node("cnd").level == 2

    def test_bottom_up_order(self, program):
        network = network_of(program, keep=frozenset({"threshold"}))
        order = [node.name for node in network.bottom_up_nodes()]
        assert order.index("threshold") < order.index("cnd")
        assert all(order.index(base) < order.index("threshold")
                   for base in network.base_relations() if base != "quantity")

    def test_base_nodes_and_roots(self, program):
        network = network_of(program)
        assert {node.name for node in network.roots()} == {"cnd"}
        assert network.base_relations() == set(network.nodes) - {"cnd"}

    def test_dependents(self, program):
        network = network_of(program)
        for name in network.base_relations():
            targets = {edge.target.name for edge in network.node(name).out_edges}
            assert targets == {"cnd"}

    def test_to_dot_mentions_every_node(self, program):
        network = network_of(program, keep=frozenset({"threshold"}))
        dot = network.to_dot()
        for node in network.nodes:
            assert f'"{node}"' in dot
        assert dot.startswith("digraph")

    def test_recursion_rejected(self):
        program = Program()
        program.declare_base("e", 2)
        program.declare_derived("t", 2)
        program.add_clause(clause(
            PredLiteral("t", (X, Z)),
            PredLiteral("e", (X, Y)),
            PredLiteral("t", (Y, Z)),
        ))
        with pytest.raises(RecursionNotSupportedError):
            PropagationNetwork(program).add_condition("t")
