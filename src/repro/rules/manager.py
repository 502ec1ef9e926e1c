"""The rule manager: activation, the deferred check phase, firing.

The manager owns the whole CA-rule life cycle (paper section 3):

* rules are *created* (registered) and then *activated* per parameter
  tuple;
* activation computes the condition's base influent closure and marks
  those relations monitored, so their updates accumulate delta-sets —
  inactive rules cost nothing;
* at commit, the database calls the manager's **check phase**: the
  monitoring engine turns base delta-sets into condition delta-sets,
  strict/nervous semantics filter them, pending net changes accumulate
  per activation with delta-union (so a condition that becomes true and
  false again in the same transaction never fires), conflict resolution
  picks ONE triggered rule, its action executes set-oriented on the net
  changes — and the loop repeats, because actions are ordinary updates
  that may trigger further rules.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.algebra.delta import DeltaSet
from repro.errors import RuleActivationError, RuleError, UnknownRuleError
from repro.objectlog.program import Program
from repro.obs import metrics, tracing
from repro.rules.engines import IncrementalEngine, MonitoringEngine, NaiveEngine
from repro.rules.explain import CheckPhaseIteration, CheckPhaseReport, FiredRule
from repro.rules.rule import STRICT, Activation, Rule, default_conflict_resolver
from repro.storage.database import Database

Row = Tuple

__all__ = ["RuleManager"]


def resolve_auto_shards(mode: str) -> int:
    # frozen benchmark, dropped by the benchmark-only PR
    return 1


class RuleManager:
    """Coordinates rules, the monitoring engine, and the database.

    Parameters
    ----------
    mode:
        ``"incremental"`` (partial differencing, the default) or
        ``"naive"`` (the paper's baseline, the oracles' reference).
    shared_nodes:
        Derived predicates kept as shared intermediate network nodes
        (section 7.1); incremental mode only.
    explain:
        Record a :class:`CheckPhaseReport` for every check phase.
    processing:
        ``"deferred"`` (the paper's default: conditions are evaluated in
        the check phase at commit) or ``"immediate"`` (section 1 notes
        the technique "can also be used for immediate rule processing"):
        the check loop additionally runs after every data-model update
        statement, inside the transaction.  Immediate firings cannot be
        un-done by a later statement of the same transaction — that is
        the semantic difference, not an implementation limit.
    observe:
        Collect a per-commit observability window (:mod:`repro.obs`):
        a fresh metrics registry plus a ``check_phase`` span tree per
        check phase, exposed via :meth:`last_check_stats` and
        ``last_check_trace``.  Tees into any globally installed
        registry, so benchmarks can aggregate across commits.
    """

    def __init__(
        self,
        db: Database,
        program: Program,
        mode: str = "incremental",
        shared_nodes: FrozenSet[str] = frozenset(),
        explain: bool = False,
        max_iterations: int = 1000,
        conflict_resolver: Callable = default_conflict_resolver,
        processing: str = "deferred",
        observe: bool = False,
        wcoj: bool = True,
        shards: int = 1,  # frozen benchmark, dropped by the benchmark-only PR
    ) -> None:
        if processing not in ("deferred", "immediate"):
            raise RuleError(f"unknown processing mode {processing!r}")
        if shards != "auto" and (type(shards) is not int or shards != 1):
            raise RuleError(
                f"shards={shards!r}: the sharded check phase was removed "
                '(EXPERIMENTS.md, "Sharded check phase")'
            )
        self.db = db
        self.program = program
        self.mode = mode
        self.processing = processing
        #: WCOJ kernel selection for multi-way join differentials
        #: (incremental engine; repro.objectlog.join)
        self.wcoj = wcoj
        self.explain = explain
        #: collect per-commit metrics/spans (see repro.obs); read the
        #: results via last_check_stats / last_check_trace
        self.observe = observe
        self.last_check_registry: Optional[metrics.Registry] = None
        self.last_check_trace: Optional[tracing.Span] = None
        self.max_iterations = max_iterations
        self.conflict_resolver = conflict_resolver
        self._rules: Dict[str, Rule] = {}
        self._activations: Dict[Tuple[str, Tuple], Activation] = {}
        self._monitored: FrozenSet[str] = frozenset()
        self._dirty = False
        self._in_check_phase = False
        self.last_report: Optional[CheckPhaseReport] = None
        #: while a rule action is executing: the FiredRule being served
        #: (section 8: "By giving access to the results of partial
        #: differentials in the action part of a CA-rule it is possible
        #: [to] perform different actions depending on what has
        #: happened").  None outside action execution.
        self.current_firing: Optional[FiredRule] = None
        if mode == "incremental":
            self.engine: MonitoringEngine = IncrementalEngine(
                db, program, shared_nodes=shared_nodes, wcoj=wcoj
            )
        elif mode == "naive":
            self.engine = NaiveEngine(db, program)
        else:
            raise RuleError(f"unknown monitoring mode {mode!r}")
        db.add_check_hook(self._check_phase)

    # -- rule registry ------------------------------------------------------------

    def create_rule(self, rule: Rule) -> Rule:
        if rule.name in self._rules:
            raise RuleError(f"rule {rule.name!r} already exists")
        self.program.predicate(rule.condition)  # must exist
        self._rules[rule.name] = rule
        return rule

    def rule(self, name: str) -> Rule:
        try:
            return self._rules[name]
        except KeyError:
            raise UnknownRuleError(name) from None

    def drop_rule(self, name: str) -> None:
        rule = self.rule(name)
        for key in [k for k in self._activations if k[0] == name]:
            self.deactivate(name, key[1])
        del self._rules[rule.name]

    # -- activation ----------------------------------------------------------------

    def activate(self, name: str, params: Tuple = ()) -> Activation:
        """Activate ``name`` for ``params``.  Compiles the condition's
        partial differentials; an unsafe or recursive condition raises
        and leaves the manager exactly as it was."""
        rule = self.rule(name)
        key = (name, tuple(params))
        if key in self._activations:
            raise RuleActivationError(f"rule {name!r}{params!r} is already active")
        activation = Activation(rule, tuple(params))
        self._reconfigure({**self._activations, key: activation})
        return activation

    def deactivate(self, name: str, params: Tuple = ()) -> None:
        key = (name, tuple(params))
        if key not in self._activations:
            raise RuleActivationError(f"rule {name!r}{params!r} is not active")
        activations = dict(self._activations)
        del activations[key]
        self._reconfigure(activations)

    def is_active(self, name: str, params: Tuple = ()) -> bool:
        return (name, tuple(params)) in self._activations

    def active_rules(self) -> List[Tuple[str, Tuple]]:
        return sorted(self._activations)

    def _conditions(
        self, activations: Mapping[Tuple[str, Tuple], Activation]
    ) -> Dict[str, FrozenSet[str]]:
        """Monitored condition -> base influents."""
        out: Dict[str, FrozenSet[str]] = {}
        for activation in activations.values():
            condition = activation.rule.condition
            if condition not in out:
                out[condition] = self.program.base_influents(condition)
        return out

    def _reconfigure(self, activations: Dict[Tuple[str, Tuple], Activation]) -> None:
        """Switch to ``activations``: everything that can fail (influent
        closure, relation lookup, the engine's rebuild) runs before the
        first change, so a raise changes nothing."""
        conditions = self._conditions(activations)
        needed = frozenset().union(*conditions.values()) if conditions else frozenset()
        added = needed - self._monitored
        for name in added:
            self.db.relation(name)
        self.engine.rebuild(conditions)
        for name in added:
            self.db.monitor(name)
        for name in self._monitored - needed:
            self.db.unmonitor(name)
        self._monitored = needed
        self._activations = activations

    def resync_engine(self) -> None:
        """Re-baseline the engine's materialized state from the database.

        WAL recovery (:func:`repro.storage.wal.recover`) replays
        committed Δ-sets *beneath* the monitoring machinery, so any
        previous-state the engine materialized (naive extensions,
        propagation network node states) predates the replay.  Rebuild
        it from the recovered relations so the next check phase
        differences against the correct previous state.
        """
        self.engine.rebuild(self._conditions(self._activations))
        self._dirty = False

    # -- the check phase ---------------------------------------------------------------

    def maybe_immediate_check(self) -> None:
        """Run the check loop now if immediate processing is on.

        Called by the data-model layer after each update statement; a
        no-op for deferred processing, during the check phase itself,
        and when nothing relevant changed.
        """
        if self.processing != "immediate" or self._in_check_phase:
            return
        if not self._activations or not self.db.has_pending_changes():
            return
        self._check_phase(self.db)

    def _check_phase(self, db: Database) -> None:
        if self._in_check_phase:
            return
        if not self._activations:
            db.take_deltas()
            return
        self._in_check_phase = True
        report = CheckPhaseReport() if self.explain else None
        # observability window: a per-commit registry (teed into any
        # outer one) plus a check_phase span under the active tracer
        local_registry: Optional[metrics.Registry] = None
        own_tracer: Optional[tracing.Tracer] = None
        outer_registry = metrics.ACTIVE
        if self.observe:
            local_registry = metrics.Registry()
            metrics.install(
                local_registry
                if outer_registry is None
                else metrics.Tee(outer_registry, local_registry)
            )
            if tracing.ACTIVE is None:
                own_tracer = tracing.Tracer()
                tracing.install(own_tracer)
        tracer = tracing.ACTIVE
        phase_span = tracer.begin("check_phase") if tracer is not None else None
        try:
            self._run_check_loop(db, report)
        except Exception:
            # commit will roll the transaction back; engine state that
            # materializes previous results is now stale
            self._dirty = True
            raise
        finally:
            if phase_span is not None:
                tracer.finish(phase_span)
                self.last_check_trace = phase_span
            if self.observe:
                metrics.install(outer_registry)
                if own_tracer is not None:
                    tracing.uninstall()
                self.last_check_registry = local_registry
            self._in_check_phase = False
            # pending net changes are per-transaction: a condition that
            # went false and stayed false must not cancel changes of a
            # LATER transaction
            for activation in self._activations.values():
                activation.pending.clear()
            if report is not None:
                self.last_report = report

    def _run_check_loop(self, db: Database, report: Optional[CheckPhaseReport]) -> None:
        if self._dirty:
            # previous results must reflect the PRE-transaction state:
            # roll the live relations back by the pending deltas
            self.engine.resync(db.peek_deltas())
            self._dirty = False
        iterations = 0
        while True:
            reg = metrics.ACTIVE
            if reg is not None:
                reg.counter("check.iterations").inc()
            base_deltas = db.take_deltas()
            if base_deltas:
                condition_deltas = self.engine.process(
                    base_deltas, trace=self.explain
                )
                self._distribute(condition_deltas, base_deltas)
            else:
                condition_deltas = {}
            chosen = self._choose_triggered()
            iteration_record = None
            if report is not None and (base_deltas or chosen is not None):
                iteration_record = CheckPhaseIteration(
                    index=iterations,
                    base_deltas=dict(base_deltas),
                    condition_deltas=dict(condition_deltas),
                    trace=self.engine.last_trace if base_deltas else None,
                )
                report.iterations.append(iteration_record)
            if chosen is None:
                if not db.has_pending_changes():
                    break
                continue
            rows = chosen.take_triggered_rows()
            fired_record = None
            if report is not None:
                fired_record = self._fired_record(chosen, rows, report)
                if iteration_record is not None:
                    iteration_record.fired = fired_record
            self.current_firing = fired_record or FiredRule(
                rule=chosen.rule.name,
                params=chosen.params,
                rows=frozenset(rows),
                causes={},
            )
            if reg is not None:
                reg.counter("check.rules_fired").inc()
                reg.counter("check.action_rows").inc(len(rows))
            tr = tracing.ACTIVE
            action_span = (
                tr.begin(f"action:{chosen.rule.name}", rows=len(rows))
                if tr is not None
                else None
            )
            try:
                self._execute_action(chosen, rows)
            finally:
                if action_span is not None:
                    tr.finish(action_span)
                self.current_firing = None
            iterations += 1
            if iterations > self.max_iterations:
                raise RuleError(
                    f"check phase did not terminate after {self.max_iterations} "
                    "rule firings (rule actions keep (re)triggering rules)"
                )

    def _distribute(
        self,
        condition_deltas: Mapping[str, DeltaSet],
        base_deltas: Mapping[str, DeltaSet],
    ) -> None:
        """Fan condition deltas out to activations, applying semantics."""
        if not condition_deltas:
            return
        for activation in self._activations.values():
            condition = activation.rule.condition
            delta = condition_deltas.get(condition)
            if delta is None or delta.empty:
                continue
            events = activation.rule.events
            if events is not None and not (events & frozenset(base_deltas)):
                # ECA event filter: this iteration's triggering updates
                # are not among the rule's events
                continue
            delta = activation.restrict(delta)
            if delta.empty:
                continue
            if activation.rule.semantics == STRICT and delta.plus:
                held = self.engine.held_before(condition, delta.plus, base_deltas)
                delta = DeltaSet(delta.plus - held, delta.minus)
            activation.pending.merge(delta)

    def _choose_triggered(self) -> Optional[Activation]:
        candidates = [
            activation
            for activation in self._activations.values()
            if activation.pending.plus
        ]
        if not candidates:
            return None
        return self.conflict_resolver(candidates)

    def _execute_action(self, activation: Activation, rows: FrozenSet[Row]) -> None:
        rule = activation.rule
        if not rows:
            return
        if rule.action_mode == "set":
            rule.action(frozenset(rows))
        else:
            for row in sorted(rows, key=repr):
                rule.action(row)

    def _fired_record(
        self,
        activation: Activation,
        rows: FrozenSet[Row],
        report: CheckPhaseReport,
    ) -> FiredRule:
        causes: Dict[Row, Tuple] = {}
        condition = activation.rule.condition
        traces = [it.trace for it in report.iterations if it.trace is not None]
        for row in rows:
            contributors = []
            for trace in traces:
                contributors.extend(trace.contributors_of(condition, row))
            causes[row] = tuple(contributors)
        return FiredRule(
            rule=activation.rule.name,
            params=activation.params,
            rows=frozenset(rows),
            causes=causes,
        )

    # -- introspection -------------------------------------------------------------------

    def monitored_relations(self) -> FrozenSet[str]:
        return self._monitored

    def last_check_stats(self) -> Optional[Dict[str, object]]:
        """The last check phase's metrics (requires ``observe=True``).

        Returns the full registry dump plus a ``derived`` section with
        the headline numbers: edges fired, tuple flow through the
        differentials, the index-probe/scan split, and the wave-front
        peak.  None until the first observed check phase.
        """
        registry = self.last_check_registry
        if registry is None:
            return None
        counters = registry.counters()
        probes = counters.get("index.probes", 0)
        scans = counters.get("relation.scans", 0) + counters.get(
            "relation.snapshots", 0
        )
        gauges = registry.gauges()
        stats = registry.as_dict()
        stats["derived"] = {
            "iterations": counters.get("check.iterations", 0),
            "rules_fired": counters.get("check.rules_fired", 0),
            "edges_fired": counters.get("propagation.edges_fired", 0),
            "tuples_in": counters.get("propagation.tuples_in", 0),
            "tuples_out": counters.get("propagation.tuples_out", 0),
            "tuples_guarded": counters.get("propagation.tuples_guarded", 0),
            "cancellations": counters.get("propagation.cancellations", 0),
            "discarded_rows": counters.get("propagation.discarded_rows", 0),
            "index_probes": probes,
            "scans": scans,
            "probe_ratio": probes / (probes + scans) if probes + scans else None,
            "wavefront_peak": gauges.get("propagation.wavefront_peak", {}).get(
                "max", 0
            ),
            # join kernels (docs/PERFORMANCE.md "Join kernels"): WCOJ
            # kernel activity and trie index maintenance
            "wcoj_kernel_runs": counters.get("join.kernel_runs", 0),
            "wcoj_kernel_emits": counters.get("join.kernel_emits", 0),
            "trie_builds": counters.get("join.trie_builds", 0),
            "trie_evictions": counters.get("join.trie_evictions", 0),
        }
        return stats

    def __repr__(self) -> str:
        return (
            f"RuleManager(mode={self.mode!r}, rules={len(self._rules)}, "
            f"active={len(self._activations)})"
        )
