"""Condition monitoring engines: incremental and naive.

Both engines answer the same question each check phase — *how did
every monitored condition change?* — but differently:

* :class:`IncrementalEngine` — the paper's contribution: propagate the
  base-relation delta-sets through the propagation network, executing
  only the partial differentials whose influents actually changed.
* :class:`NaiveEngine` — the paper's baseline (section 6): whenever an
  update touched an influent of a condition, recompute the whole
  condition and diff it against the previous, materialized result.
  It is the reference the equivalence oracles compare against.

Both run compiled set-at-a-time plans: the naive recompute is the
condition fully expanded, statically ordered and compiled once at
:meth:`~MonitoringEngine.rebuild`, so the two engines differ in their
algorithm, not in their evaluator.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView, OldStateView, StateView
from repro.objectlog.batch import ClausePlan, compile_plan
from repro.objectlog.evaluate import Evaluator, goal_plans
from repro.objectlog.expand import expand_predicate
from repro.objectlog.optimize import order_clause
from repro.objectlog.program import Program
from repro.rules.network import PropagationNetwork
from repro.rules.propagation import PropagationTrace, Propagator
from repro.storage.database import Database

Row = Tuple

__all__ = ["MonitoringEngine", "IncrementalEngine", "NaiveEngine"]


class MonitoringEngine:
    """Common interface of the engines."""

    #: set by the manager: condition name -> base influents
    def rebuild(self, conditions: Mapping[str, FrozenSet[str]]) -> None:
        """(Re)configure for the given monitored conditions.

        All or nothing: the new configuration is built aside and
        swapped in only once complete, so a raise (an unsafe or
        recursive condition) leaves the engine as it was."""
        raise NotImplementedError

    def process(
        self, base_deltas: Mapping[str, DeltaSet], trace: bool = False
    ) -> Dict[str, DeltaSet]:
        """Condition deltas caused by ``base_deltas``."""
        raise NotImplementedError

    def held_before(
        self,
        condition: str,
        rows: Iterable[Row],
        base_deltas: Mapping[str, DeltaSet],
    ) -> FrozenSet[Row]:
        """The rows of ``rows`` that ``condition`` already held in the
        state before ``base_deltas`` — strict semantics drops them.

        The reference answer: one batched membership test against a
        fresh logical rollback.
        """
        old_eval = Evaluator(self.program, OldStateView(self.db, base_deltas))
        return old_eval.derivable(condition, rows)

    def resync(self, pending_deltas: Optional[Mapping[str, DeltaSet]] = None) -> None:
        """Drop any engine state that may be stale after a rollback.

        ``pending_deltas`` holds the *current* transaction's accumulated
        changes: engines that materialize previous results must rebuild
        them as of the pre-transaction state (logical rollback), not the
        live one.
        """

    @property
    def last_trace(self) -> Optional[PropagationTrace]:
        return None


class IncrementalEngine(MonitoringEngine):
    """Partial differencing over a propagation network."""

    def __init__(
        self,
        db: Database,
        program: Program,
        shared_nodes: FrozenSet[str] = frozenset(),
        wcoj: bool = True,
    ) -> None:
        self.db = db
        self.program = program
        self.shared_nodes = frozenset(shared_nodes)
        #: WCOJ kernel selection for multi-way differentials (either state)
        self.wcoj = wcoj
        self.rebuild({})

    def rebuild(self, conditions: Mapping[str, FrozenSet[str]]) -> None:
        network = PropagationNetwork(self.program, wcoj=self.wcoj)
        for condition in sorted(conditions):
            network.add_condition(condition, keep=self.shared_nodes)
        self._propagator = Propagator(self.program, self.db, network)
        self.network = network

    def process(
        self, base_deltas: Mapping[str, DeltaSet], trace: bool = False
    ) -> Dict[str, DeltaSet]:
        return self._propagator.run(base_deltas, trace=trace)

    def held_before(
        self,
        condition: str,
        rows: Iterable[Row],
        base_deltas: Mapping[str, DeltaSet],
    ) -> FrozenSet[Row]:
        return self._propagator.held_before(condition, rows, base_deltas)

    @property
    def last_trace(self) -> Optional[PropagationTrace]:
        return self._propagator.last_trace


class NaiveEngine(MonitoringEngine):
    """Full recomputation against a materialized previous result."""

    def __init__(self, db: Database, program: Program) -> None:
        self.db = db
        self.program = program
        self._influents: Dict[str, FrozenSet[str]] = {}
        #: condition -> compiled plans of its fully expanded clauses
        self._plans: Dict[str, List[ClausePlan]] = {}
        self._previous: Dict[str, FrozenSet[Row]] = {}

    def rebuild(self, conditions: Mapping[str, FrozenSet[str]]) -> None:
        plans = {condition: self._compile(condition) for condition in conditions}
        previous = self._recompute(plans, NewStateView(self.db))
        self._plans = plans
        self._previous = previous
        self._influents = dict(conditions)

    def _compile(self, condition: str) -> List[ClausePlan]:
        """One pairwise plan per expanded clause of ``condition``; a
        condition that is not derived is read by its goal plan."""
        clauses = expand_predicate(self.program, condition)
        if not clauses:
            return goal_plans(self.program, condition, ())
        return [
            compile_plan(order_clause(clause, self.program), self.program)
            for clause in clauses
        ]

    def _recompute(
        self, plans: Mapping[str, List[ClausePlan]], view: StateView
    ) -> Dict[str, FrozenSet[Row]]:
        evaluator = Evaluator(self.program, view)
        return {
            condition: frozenset(
                row for plan in condition_plans for row in plan.rows(evaluator)
            )
            for condition, condition_plans in plans.items()
        }

    def process(
        self, base_deltas: Mapping[str, DeltaSet], trace: bool = False
    ) -> Dict[str, DeltaSet]:
        changed = frozenset(base_deltas)
        touched = {
            condition: self._plans[condition]
            for condition, influents in self._influents.items()
            if influents & changed
        }
        results: Dict[str, DeltaSet] = {}
        for condition, current in self._recompute(
            touched, NewStateView(self.db)
        ).items():
            previous = self._previous[condition]
            delta = DeltaSet(current - previous, previous - current)
            self._previous[condition] = current
            if not delta.empty:
                results[condition] = delta
        return results

    def resync(self, pending_deltas: Optional[Mapping[str, DeltaSet]] = None) -> None:
        """Re-materialize all previous results as of the pre-transaction
        state (the live database rolled back by the pending deltas)."""
        if pending_deltas:
            view = OldStateView(self.db, pending_deltas)
        else:
            view = NewStateView(self.db)
        self._previous = self._recompute(self._plans, view)
