"""The propagation network (paper Figs. 1-2 / section 7.1).

The rule compiler's one graph: the dependency network of Fig. 1 (which
predicate influences which, with bottom-up levels) whose edges carry
partial differentials.  Nodes are base relations and monitored derived
predicates; every edge ``X -> P`` carries the partial differential
clauses ``dP/d+X`` and ``dP/d-X``, each ordered and compiled once when
the condition is added.

Two construction modes, matching the paper:

* **full expansion** (default; the benchmarks' configuration): each
  condition is flattened into conjunctive clauses over base relations
  only, giving the flat network of Fig. 2;
* **node sharing** (``keep={...}``, section 7.1): listed derived
  predicates stay as intermediate nodes with their own differentials,
  giving a bushy network in which a sub-predicate referenced by many
  rules (``threshold``) is differenced once and its delta reused.

Negated sub-predicates always become intermediate nodes: negation is a
set-level operation that cannot be flattened through (see
:mod:`repro.objectlog.expand`).
"""

from __future__ import annotations

import dataclasses

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.algebra.delta import MutableDelta
from repro.errors import PropagationError
from repro.objectlog.batch import compile_plan
from repro.objectlog.clause import HornClause
from repro.objectlog.expand import expand_predicate
from repro.objectlog.optimize import order_clause
from repro.objectlog.program import (
    AggregatePredicate,
    DerivedPredicate,
    Program,
)
from repro.rules.differentials import (
    PartialDifferentialClause,
    generate_differentials,
)

__all__ = ["NetworkNode", "NetworkEdge", "PropagationNetwork"]


class NetworkNode:
    """One node: a base relation or a monitored derived predicate."""

    __slots__ = ("name", "kind", "level", "delta", "out_edges", "is_root", "clauses")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind  # "base" | "derived"
        self.level = 0
        self.delta = MutableDelta()
        self.out_edges: List["NetworkEdge"] = []
        self.is_root = False
        #: expanded clauses (derived nodes only) — used for membership
        #: tests and old-state recomputation
        self.clauses: List[HornClause] = []

    def __repr__(self) -> str:
        return (
            f"NetworkNode({self.name!r}, kind={self.kind}, level={self.level}, "
            f"edges={len(self.out_edges)}, root={self.is_root})"
        )


class NetworkEdge:
    """Edge ``source -> target`` with its partial differentials.

    An edge into an aggregate node carries no differential clauses;
    instead ``aggregate`` holds the :class:`AggregatePredicate` and the
    propagator recomputes the touched groups (old state by rollback).
    """

    __slots__ = ("source", "target", "positive", "negative", "aggregate")

    def __init__(self, source: NetworkNode, target: NetworkNode) -> None:
        self.source = source
        self.target = target
        #: differentials reading delta+source / delta-source
        self.positive: List[PartialDifferentialClause] = []
        self.negative: List[PartialDifferentialClause] = []
        #: set when the target is an aggregate node
        self.aggregate = None

    def add(self, differential: PartialDifferentialClause) -> None:
        if differential.input_sign == "+":
            self.positive.append(differential)
        else:
            self.negative.append(differential)

    def differentials(self) -> List[PartialDifferentialClause]:
        return self.positive + self.negative

    def __repr__(self) -> str:
        return (
            f"NetworkEdge({self.source.name!r} -> {self.target.name!r}, "
            f"+{len(self.positive)}/-{len(self.negative)})"
        )


class PropagationNetwork:
    """Nodes, edges, and differentials for a set of monitored conditions."""

    def __init__(self, program: Program, wcoj: bool = True) -> None:
        self.program = program
        #: let the plan compiler fuse multi-way joins into a
        #: worst-case-optimal kernel (differentials in either state;
        #: see repro.objectlog.join)
        self.wcoj = wcoj
        self.nodes: Dict[str, NetworkNode] = {}
        self._edges: Dict[Tuple[str, str], NetworkEdge] = {}
        self._bottom_up: Optional[List[NetworkNode]] = None

    # -- construction ---------------------------------------------------------------

    def add_condition(
        self, name: str, keep: FrozenSet[str] = frozenset()
    ) -> NetworkNode:
        """Add (or re-add) a monitored condition and everything below it.

        Raises :class:`~repro.errors.UnsafeClauseError` when a partial
        differential has no safe static order, and
        :class:`~repro.errors.RecursionNotSupportedError` on a recursive
        condition.  A network that raised is left partly built: callers
        build a fresh network and swap it in only on success."""
        node = self._build(name, frozenset(keep), frozenset())
        node.is_root = True
        self._recompute_levels()
        return node

    def _build(
        self, name: str, keep: FrozenSet[str], stack: FrozenSet[str]
    ) -> NetworkNode:
        if name in stack:
            raise PropagationError(f"propagation network cycle through {name!r}")
        existing = self.nodes.get(name)
        if existing is not None and (existing.kind != "derived" or existing.clauses):
            return existing
        definition = self.program.predicate(name)
        if isinstance(definition, AggregatePredicate):
            node = self.nodes.setdefault(name, NetworkNode(name, "aggregate"))
            child = self._build(definition.source, keep, stack | {name})
            edge = self._edge(child, node)
            edge.aggregate = definition
            return node
        if not isinstance(definition, DerivedPredicate):
            node = self.nodes.setdefault(name, NetworkNode(name, "base"))
            return node
        node = self.nodes.setdefault(name, NetworkNode(name, "derived"))
        # expand, keeping shared nodes and stopping at negation
        clauses = expand_predicate(
            self.program, name, keep=keep | self._negated_below(name)
        )
        node.clauses = clauses
        influents = self._clause_influents(clauses)
        differentials = [
            self._optimize(d)
            for d in generate_differentials(name, clauses, influents)
        ]
        for influent in sorted(influents):
            child = self._build(influent, keep, stack | {name})
            edge = self._edge(child, node)
            for differential in differentials:
                if differential.influent == influent:
                    edge.add(differential)
        return node

    def _negated_below(self, name: str) -> FrozenSet[str]:
        """Derived predicates referenced under negation below ``name``."""
        return frozenset(
            pred
            for pred in self.program.negated_references(name)
            if isinstance(self.program.predicate(pred), DerivedPredicate)
        )

    @staticmethod
    def _clause_influents(clauses: List[HornClause]) -> FrozenSet[str]:
        out: Set[str] = set()
        for clause in clauses:
            for literal in clause.pred_literals():
                if literal.delta is None:
                    out.add(literal.pred)
        return frozenset(out)

    def _optimize(
        self, differential: PartialDifferentialClause
    ) -> PartialDifferentialClause:
        """Statically order a differential's body and compile it to a
        set-at-a-time :class:`~repro.objectlog.batch.ClausePlan`
        (compile once at activation, execute every transaction).
        Raises :class:`~repro.errors.UnsafeClauseError` when no safe
        static order exists — exactly when the condition itself is
        unsafe (:mod:`repro.objectlog.optimize`).

        With :attr:`wcoj` the compiler cost-selects the WCOJ kernel for
        multi-way bodies in either state: an old-state differential's
        kernel reads :meth:`~repro.algebra.oldstate.RolledBack.trie_index`,
        the live trie patched by the delta on its paths.
        """
        ordered = order_clause(differential.clause, self.program)
        plan = compile_plan(ordered, self.program, wcoj=self.wcoj)
        return dataclasses.replace(differential, clause=ordered, plan=plan)

    def _edge(self, source: NetworkNode, target: NetworkNode) -> NetworkEdge:
        key = (source.name, target.name)
        edge = self._edges.get(key)
        if edge is None:
            edge = NetworkEdge(source, target)
            self._edges[key] = edge
            source.out_edges.append(edge)
        return edge

    def _recompute_levels(self) -> None:
        incoming: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for source_name, target_name in self._edges:
            incoming[target_name].append(source_name)

        cache: Dict[str, int] = {}

        def level(name: str, trail: FrozenSet[str]) -> int:
            if name in trail:
                raise PropagationError(f"propagation network cycle through {name!r}")
            if name in cache:
                return cache[name]
            below = incoming[name]
            value = 0 if not below else 1 + max(
                level(i, trail | {name}) for i in below
            )
            cache[name] = value
            return value

        for name, node in self.nodes.items():
            node.level = level(name, frozenset())
        self._bottom_up = None

    # -- queries ----------------------------------------------------------------------

    def node(self, name: str) -> NetworkNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise PropagationError(f"no network node named {name!r}") from None

    def roots(self) -> List[NetworkNode]:
        return [node for node in self.nodes.values() if node.is_root]

    def base_relations(self) -> FrozenSet[str]:
        return frozenset(
            name for name, node in self.nodes.items() if node.kind == "base"
        )

    def edges(self) -> List[NetworkEdge]:
        return list(self._edges.values())

    def bottom_up_nodes(self) -> List[NetworkNode]:
        """All nodes, lowest level first (breadth-first, bottom-up order).

        Cached between structural changes: the propagator walks this
        list on every transaction."""
        ordered = self._bottom_up
        if ordered is None:
            ordered = self._bottom_up = sorted(
                self.nodes.values(), key=lambda node: (node.level, node.name)
            )
        return ordered

    def differential_count(self) -> int:
        return sum(len(edge.differentials()) for edge in self._edges.values())

    def to_dot(self) -> str:
        """GraphViz rendering with differential labels on the edges."""
        lines = ["digraph propagation_network {", "  rankdir=BT;"]
        for node in sorted(self.nodes.values(), key=lambda n: n.name):
            shape = "box" if node.is_root else (
                "ellipse" if node.kind == "derived" else "plaintext"
            )
            lines.append(f'  "{node.name}" [shape={shape}];')
        for edge in sorted(self._edges.values(), key=lambda e: (e.source.name, e.target.name)):
            labels = sorted({d.label() for d in edge.differentials()})
            label = "\\n".join(labels)
            lines.append(
                f'  "{edge.source.name}" -> "{edge.target.name}" [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PropagationNetwork(nodes={len(self.nodes)}, "
            f"edges={len(self._edges)}, differentials={self.differential_count()})"
        )
