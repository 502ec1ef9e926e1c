"""Breadth-first, bottom-up propagation (paper section 5, Fig. 5).

The algorithm, as the paper outlines it::

    for each level (starting with the lowest level)
        for each changed node (a non-empty delta-set)
            for each edge to an above node
                execute the partial differential(s) and accumulate the
                result in the delta-set of the node above using
                delta-union

plus the two crucial refinements:

* a node's delta-set is **discarded** as soon as its out-edges have
  executed (the "wave-front materialization" that keeps memory flat);
* negative differential results are **guarded** (section 7.2): a
  deletion candidate still derivable in the new database state is
  dropped before accumulation, because an over-propagated negative
  change could cancel a genuine positive one and make rules
  under-react — "which is unacceptable".

Positive differentials are evaluated in the NEW state, negative ones in
the OLD state, reconstructed on demand by logical rollback from the
very delta-sets being propagated.

Execution is set-at-a-time: each differential executes its compiled
:class:`~repro.objectlog.batch.ClausePlan` against one of exactly two
evaluators per run (new-state and old-state) whose derived-predicate
memos amortize across the whole wave front, and negative candidates
are guarded by ONE derivability test per differential
(:meth:`~repro.objectlog.evaluate.Evaluator.derivable` on the new-state
evaluator) instead of one top-down derivation per tuple.  The network
compiles every differential at activation, so the check phase never
schedules a body at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView, OldStateView
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.program import Program
from repro.obs import metrics, tracing
from repro.rules.differentials import PartialDifferentialClause
from repro.rules.network import NetworkNode, PropagationNetwork
from repro.storage.database import Database

Row = Tuple

__all__ = ["DifferentialExecution", "PropagationTrace", "Propagator"]


@dataclass(frozen=True)
class DifferentialExecution:
    """One executed partial differential, for explainability (section 1)."""

    label: str
    target: str
    influent: str
    input_sign: str
    output_sign: str
    input_size: int
    produced: FrozenSet[Row]
    guarded_away: FrozenSet[Row]

    def __repr__(self) -> str:
        return (
            f"<{self.label} [{self.output_sign}] in={self.input_size} "
            f"out={len(self.produced)} guarded={len(self.guarded_away)}>"
        )


@dataclass
class PropagationTrace:
    """Record of everything one propagation run executed."""

    executions: List[DifferentialExecution] = field(default_factory=list)

    def executed_labels(self) -> List[str]:
        return [execution.label for execution in self.executions]

    def for_target(self, target: str) -> List[DifferentialExecution]:
        return [e for e in self.executions if e.target == target]

    def contributors_of(self, target: str, row: Row) -> List[DifferentialExecution]:
        """Which differentials produced ``row`` for ``target``?"""
        return [
            e for e in self.executions if e.target == target and row in e.produced
        ]


class Propagator:
    """Runs the breadth-first bottom-up algorithm over one network."""

    def __init__(
        self,
        program: Program,
        db: Database,
        network: PropagationNetwork,
    ) -> None:
        self.program = program
        self.db = db
        self.network = network
        #: statistics of the last run (differentials executed, tuples produced)
        self.last_trace: Optional[PropagationTrace] = None
        #: rows currently materialized across all node delta-sets,
        #: maintained incrementally on merge/discard (the wave-front
        #: footprint — recomputing it per node visit was O(network²))
        self._live = 0
        #: nodes whose delta-set was merged into this run — the run
        #: loop and reset touch only these, not the whole network
        self._dirty: set = set()
        # ONE old-state view and ONE pair of evaluators for the
        # propagator's lifetime; run() resets them per transaction
        # instead of reallocating (the check phase is the serialized
        # section — constant per-run cost is paid under the lock), and
        # within a run their derived-predicate memos amortize across
        # every edge and the aggregate path
        self._old_view = OldStateView(db, {})
        #: the very delta map ``_old_view`` currently rolls back
        self._old_deltas: Optional[Mapping[str, DeltaSet]] = None
        # sub-derivations (e.g. the running example's threshold
        # function probed once per differential row) compile once per
        # bound shape and amortize over the propagator's lifetime
        self._new_eval = Evaluator(program, NewStateView(db))
        self._old_eval = Evaluator(program, self._old_view)

    def run(
        self,
        base_deltas: Mapping[str, DeltaSet],
        trace: bool = False,
    ) -> Dict[str, DeltaSet]:
        """Propagate ``base_deltas`` — one ``{relation: DeltaSet}`` map,
        the current transaction's net change — upward; return the root
        delta-sets."""
        tracer = PropagationTrace() if trace else None
        self._roll_back(base_deltas)
        self._new_eval.reset()
        reg = metrics.ACTIVE
        tr = tracing.ACTIVE
        run_span = tr.begin("propagate") if tr is not None else None
        if reg is not None:
            reg.counter("propagation.runs").inc()

        try:
            self._reset()
            for name, delta in base_deltas.items():
                node = self.network.nodes.get(name)
                if node is not None and not delta.empty:
                    self._merge(node, delta)
            self._note_wavefront(reg)

            results: Dict[str, DeltaSet] = {}
            dirty = self._dirty
            for node in self.network.bottom_up_nodes():
                if node not in dirty or node.delta.empty:
                    continue
                frozen = node.delta.freeze()
                if node.is_root:
                    results[node.name] = frozen
                for edge in node.out_edges:
                    if edge.aggregate is not None:
                        self._execute_aggregate(edge, frozen, tracer, reg, tr)
                        continue
                    if frozen.plus:
                        for differential in edge.positive:
                            self._dispatch(
                                differential, frozen, edge.target, tracer, reg, tr
                            )
                    if frozen.minus:
                        for differential in edge.negative:
                            self._dispatch(
                                differential, frozen, edge.target, tracer, reg, tr
                            )
                # the wave-front peak is right now: this node's delta is
                # still materialized and its out-edges have already
                # merged their results upward
                self._note_wavefront(reg)
                # the wave front has passed: discard the temporary
                # materialization (the paper's section-6 space claim)
                self._discard(node, reg)

            if run_span is not None:
                run_span.annotate(
                    nodes_changed=len([n for n in base_deltas if n in self.network.nodes]),
                    roots=len(results),
                )
        finally:
            if run_span is not None:
                tr.finish(run_span)

        self.last_trace = tracer
        return results

    # -- the old state ------------------------------------------------------------

    def _roll_back(self, deltas: Mapping[str, DeltaSet]) -> None:
        """Point the old-state view and evaluator at the state before
        ``deltas``."""
        self._old_deltas = deltas
        self._old_view.reset(deltas)
        self._old_eval.reset()

    def held_before(
        self, pred: str, rows: Iterable[Row], base_deltas: Mapping[str, DeltaSet]
    ) -> FrozenSet[Row]:
        """The rows of ``rows`` that ``pred`` held in the state before
        ``base_deltas`` (strict semantics drops them).  Straight after
        ``run(base_deltas)`` the old-state evaluator — memos, minus
        indexes — is reused as the run left it."""
        if base_deltas is not self._old_deltas:
            self._roll_back(base_deltas)
        return self._old_eval.derivable(pred, rows)

    # -- wave-front bookkeeping ---------------------------------------------------

    def _reset(self) -> None:
        for node in self._dirty:
            if len(node.delta):
                node.delta.clear()
        self._dirty.clear()
        self._live = 0

    def _merge(self, node: NetworkNode, delta: DeltaSet) -> int:
        """Delta-union ``delta`` into ``node``, keeping the live-row
        count current; returns the cancelled-pair count."""
        before = len(node.delta)
        cancelled = node.delta.merge(delta)
        self._live += len(node.delta) - before
        self._dirty.add(node)
        return cancelled

    def _discard(self, node: NetworkNode, reg) -> None:
        discarded = len(node.delta)
        if discarded:
            self._live -= discarded
            if reg is not None:
                reg.counter("propagation.discarded_rows").inc(discarded)
                reg.counter("propagation.discards").inc()
            node.delta.clear()

    def _note_wavefront(self, reg) -> None:
        """Record the live wave-front footprint (rows materialized in
        node delta-sets right now) as a high-water-mark gauge."""
        if reg is None:
            return
        reg.gauge("propagation.wavefront_peak").set_max(self._live)

    # -- edge dispatch ------------------------------------------------------------

    def _dispatch(
        self,
        differential: PartialDifferentialClause,
        source_delta: DeltaSet,
        target: NetworkNode,
        tracer: Optional[PropagationTrace],
        reg=None,
        tr=None,
    ) -> None:
        span = tr.begin(f"edge:{differential.label()}") if tr is not None else None
        input_rows = (
            source_delta.plus
            if differential.input_sign == "+"
            else source_delta.minus
        )
        evaluator = self._new_eval if differential.state == "new" else self._old_eval
        evaluator.set_delta(differential.influent, source_delta)
        produced = frozenset(differential.plan.rows(evaluator))
        guarded_away: FrozenSet[Row] = frozenset()
        if produced and differential.output_sign == "-":
            # section 7.2: a deletion candidate still derivable in the
            # new state is dropped, all candidates in one test
            if reg is not None:
                reg.counter("propagation.guard_checks").inc(len(produced))
                reg.counter("propagation.guard_batched").inc()
            guarded_away = self._new_eval.derivable(differential.target, produced)
            produced = produced - guarded_away
        cancelled = 0
        if produced:
            if differential.output_sign == "+":
                cancelled = self._merge(target, DeltaSet(produced, ()))
            else:
                cancelled = self._merge(target, DeltaSet((), produced))
        if reg is not None:
            reg.counter("propagation.edges_fired").inc()
            reg.counter("propagation.tuples_in").inc(len(input_rows))
            reg.counter("propagation.tuples_out").inc(len(produced))
            if guarded_away:
                reg.counter("propagation.tuples_guarded").inc(len(guarded_away))
            if cancelled:
                reg.counter("propagation.cancellations").inc(cancelled)
        if span is not None:
            span.annotate(
                target=differential.target,
                influent=differential.influent,
                sign=f"{differential.input_sign}->{differential.output_sign}",
                state=differential.state,
                **{"in": len(input_rows)},
                out=len(produced),
                guarded=len(guarded_away),
                cancelled=cancelled,
            )
            tr.finish(span)
        if tracer is not None:
            tracer.executions.append(
                DifferentialExecution(
                    label=differential.label(),
                    target=differential.target,
                    influent=differential.influent,
                    input_sign=differential.input_sign,
                    output_sign=differential.output_sign,
                    input_size=len(input_rows),
                    produced=produced,
                    guarded_away=guarded_away,
                )
            )

    # -- aggregate edges ----------------------------------------------------------

    def _execute_aggregate(
        self,
        edge,
        source_delta: DeltaSet,
        tracer: Optional[PropagationTrace],
        reg=None,
        tr=None,
    ) -> None:
        """Per-group incremental maintenance of an aggregate node.

        Only the groups whose source rows changed are recomputed — in
        the new state directly, in the old state by logical rollback —
        and the difference of their aggregate rows becomes the node's
        delta.  This is exact (no guard needed).  The two shared run
        evaluators serve the group queries, so sub-predicate memos
        carry over from the differential edges.
        """
        definition = edge.aggregate
        n_group = definition.n_group
        touched = {
            row[:n_group] for row in source_delta.plus | source_delta.minus
        }
        if not touched:
            return
        label = f"Δ{definition.name}/Δ{edge.source.name} [groups]"
        span = tr.begin(f"edge:{label}") if tr is not None else None
        new_eval = self._new_eval
        old_eval = self._old_eval
        plus: set = set()
        minus: set = set()
        for group in touched:
            bound = tuple(enumerate(group))
            new_rows = set(new_eval.aggregate_rows(definition, bound))
            old_rows = set(old_eval.aggregate_rows(definition, bound))
            plus |= new_rows - old_rows
            minus |= old_rows - new_rows
        delta = DeltaSet(frozenset(plus) - frozenset(minus),
                         frozenset(minus) - frozenset(plus))
        cancelled = 0
        if delta:
            cancelled = self._merge(edge.target, delta)
        if reg is not None:
            reg.counter("propagation.edges_fired").inc()
            reg.counter("propagation.tuples_in").inc(len(touched))
            reg.counter("propagation.tuples_out").inc(len(plus) + len(minus))
            if cancelled:
                reg.counter("propagation.cancellations").inc(cancelled)
        if span is not None:
            span.annotate(
                target=definition.name,
                influent=edge.source.name,
                sign="*",
                groups=len(touched),
                out=len(plus) + len(minus),
                cancelled=cancelled,
            )
            tr.finish(span)
        if tracer is not None:
            tracer.executions.append(
                DifferentialExecution(
                    label=label,
                    target=definition.name,
                    influent=edge.source.name,
                    input_sign="*",
                    output_sign="*",
                    input_size=len(touched),
                    produced=frozenset(plus | minus),
                    guarded_away=frozenset(),
                )
            )
