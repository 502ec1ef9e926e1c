"""Tests for propagation network construction (Fig. 2 / section 7.1)."""

import pytest

from repro.errors import PropagationError
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.rules.network import PropagationNetwork

X, Y, Z, T = Variable("X"), Variable("Y"), Variable("Z"), Variable("T")


def clause(head, *body):
    return HornClause(head, list(body))


@pytest.fixture
def program():
    """The paper's schema: cnd <- quantity & threshold; threshold over 4 fns."""
    p = Program()
    for name in ("quantity", "consume_freq", "min_stock"):
        p.declare_base(name, 2)
    p.declare_base("delivery_time", 3)
    p.declare_base("supplies", 2)
    p.declare_derived("threshold", 2)
    G1, G2 = Variable("G1"), Variable("G2")
    p.add_clause(clause(
        PredLiteral("threshold", (X, T)),
        PredLiteral("consume_freq", (X, G1)),
        PredLiteral("delivery_time", (X, G2, T)),
        PredLiteral("supplies", (X, G2)),
        PredLiteral("min_stock", (X, T)),
    ))
    p.declare_derived("cnd", 1)
    p.add_clause(clause(
        PredLiteral("cnd", (X,)),
        PredLiteral("quantity", (X, Y)),
        PredLiteral("threshold", (X, Z)),
        Comparison("<", Y, Z),
    ))
    return p


class TestFlatNetwork:
    def test_fig2_five_influents(self, program):
        """Full expansion: the condition node sits directly on the five
        stored functions — the paper's Fig. 2."""
        network = PropagationNetwork(program)
        network.add_condition("cnd")
        assert set(network.nodes) == {
            "cnd",
            "quantity",
            "consume_freq",
            "delivery_time",
            "supplies",
            "min_stock",
        }
        assert network.node("cnd").level == 1
        # 5 influents x (positive + negative) = 10 differentials
        assert network.differential_count() == 10

    def test_roots_marked(self, program):
        network = PropagationNetwork(program)
        network.add_condition("cnd")
        assert [node.name for node in network.roots()] == ["cnd"]


class TestSharedNetwork:
    def test_section71_bushy_network(self, program):
        """keep={threshold}: two differentials on the cnd edge pair and
        threshold becomes an intermediate node (the paper's refinement)."""
        network = PropagationNetwork(program)
        network.add_condition("cnd", keep=frozenset({"threshold"}))
        assert "threshold" in network.nodes
        threshold = network.node("threshold")
        assert threshold.kind == "derived"
        assert threshold.level == 1
        assert network.node("cnd").level == 2
        cnd_influents = {
            edge.source.name
            for edge in network.edges()
            if edge.target.name == "cnd"
        }
        assert cnd_influents == {"quantity", "threshold"}

    def test_node_sharing_across_conditions(self, program):
        """A second rule over threshold reuses the same intermediate node."""
        program.declare_derived("cnd2", 1)
        program.add_clause(clause(
            PredLiteral("cnd2", (X,)),
            PredLiteral("threshold", (X, Z)),
            Comparison(">", Z, 1000),
        ))
        network = PropagationNetwork(program)
        network.add_condition("cnd", keep=frozenset({"threshold"}))
        network.add_condition("cnd2", keep=frozenset({"threshold"}))
        threshold = network.node("threshold")
        targets = {edge.target.name for edge in threshold.out_edges}
        assert targets == {"cnd", "cnd2"}
        # threshold's own differentials exist only once
        incoming = [
            edge for edge in network.edges() if edge.target.name == "threshold"
        ]
        assert len(incoming) == 4


class TestStructure:
    def test_bottom_up_order_respects_levels(self, program):
        network = PropagationNetwork(program)
        network.add_condition("cnd", keep=frozenset({"threshold"}))
        order = [node.name for node in network.bottom_up_nodes()]
        assert order.index("threshold") < order.index("cnd")
        assert order.index("supplies") < order.index("threshold")

    def test_base_relations(self, program):
        network = PropagationNetwork(program)
        network.add_condition("cnd")
        assert network.base_relations() == {
            "quantity",
            "consume_freq",
            "delivery_time",
            "supplies",
            "min_stock",
        }

    def test_to_dot_contains_differential_labels(self, program):
        network = PropagationNetwork(program)
        network.add_condition("cnd")
        dot = network.to_dot()
        assert "Δcnd/Δ+quantity" in dot
        assert dot.startswith("digraph")

    def test_unknown_node_rejected(self, program):
        network = PropagationNetwork(program)
        with pytest.raises(PropagationError):
            network.node("nope")

    def test_add_condition_twice_is_stable(self, program):
        network = PropagationNetwork(program)
        network.add_condition("cnd")
        count = network.differential_count()
        network.add_condition("cnd")
        assert network.differential_count() == count
