"""Generation of partial differentials from rule conditions (sections 4.3-4.5).

Given the (expanded) Horn clauses of a monitored derived predicate P and
the set of its *network influents* (base relations, shared intermediate
nodes, negated sub-predicates), the generator produces — per clause, per
influent occurrence —

* a **positive** partial differential ``dP/d+X``: the clause with that
  occurrence replaced by a read of ``delta+X``, to be evaluated in the
  NEW database state, contributing insertions to P; and
* a **negative** partial differential ``dP/d-X``: the occurrence
  replaced by a read of ``delta-X``, evaluated in the OLD state
  (logical rollback), contributing deletions to P.

Occurrences under *negation* flip the signs (section 4.5,
``delta(~Q) = <delta-Q, delta+Q>``): deletions from X can make P gain
tuples, insertions can make it lose them.  A guard literal re-checks
the negation in the evaluation state so only genuine transitions pass.

Fig. 4 (section 4.6) is this same generator applied to one ObjectLog
condition per relational operator (:func:`fig4_programs`), rendered by
:func:`fig4_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable

__all__ = [
    "PartialDifferentialClause",
    "fig4_programs",
    "fig4_table",
    "generate_differentials",
]


@dataclass(frozen=True)
class PartialDifferentialClause:
    """One partial differential ``dP/d(sign)X`` as an executable clause.

    Attributes
    ----------
    target:
        The affected predicate P.
    influent:
        The influent X whose delta-set this differential reads.
    input_sign:
        Which side of X's delta it reads (``"+"`` or ``"-"``).
    output_sign:
        Whether results are insertions (``"+"``) or deletions (``"-"``)
        of P.  Differs from ``input_sign`` only for negated occurrences.
    state:
        Database state the non-delta literals are evaluated in:
        ``"new"`` for output_sign ``"+"``, ``"old"`` for ``"-"``.
    clause:
        The executable Horn clause (head = P's head, one delta literal);
        on a network edge, its body in the static order the plan runs.
    occurrence:
        Index of the replaced literal in the source clause body —
        distinguishes self-join occurrences of the same influent.
    plan:
        Compiled set-at-a-time execution plan
        (:class:`repro.objectlog.batch.ClausePlan`), attached when the
        propagation network adds the differential to an edge and kept
        for the lifetime of the activation.  Every differential on a
        network edge has one: a differential without a safe static
        order fails rule activation with
        :class:`~repro.errors.UnsafeClauseError`.  ``None`` only as
        returned by :func:`generate_differentials`.
    """

    target: str
    influent: str
    input_sign: str
    output_sign: str
    state: str
    clause: HornClause
    occurrence: int
    plan: Optional[object] = field(default=None, compare=False, repr=False)

    def label(self) -> str:
        """Human-readable name, e.g. ``Δcnd_monitor_items/Δ+quantity``."""
        return f"Δ{self.target}/Δ{self.input_sign}{self.influent}"

    def __repr__(self) -> str:
        return f"<{self.label()} [{self.output_sign}] occ={self.occurrence}>"


def generate_differentials(
    target: str,
    clauses: Iterable[HornClause],
    influents: FrozenSet[str],
) -> List[PartialDifferentialClause]:
    """All partial differentials of ``target`` w.r.t. ``influents``:
    one positive and one negative per influent occurrence.

    Parameters
    ----------
    clauses:
        The (expanded) clauses defining ``target``.
    influents:
        Names of predicates that are nodes of the propagation network
        below ``target`` — only their occurrences get differentials.
    """
    out: List[PartialDifferentialClause] = []
    for clause in clauses:
        for index, literal in enumerate(clause.body):
            if not isinstance(literal, PredLiteral):
                continue
            if literal.pred not in influents or literal.delta is not None:
                continue
            if not literal.negated:
                out.append(_positive_occurrence(target, clause, index, literal))
                out.append(_negative_occurrence(target, clause, index, literal))
            else:
                out.append(
                    _negated_positive_occurrence(target, clause, index, literal)
                )
                out.append(
                    _negated_negative_occurrence(target, clause, index, literal)
                )
    return out


def _positive_occurrence(
    target: str, clause: HornClause, index: int, literal: PredLiteral
) -> PartialDifferentialClause:
    """``dP/d+X``: substitute the occurrence by delta+X; evaluate in NEW."""
    replaced = clause.replace_body_literal(index, literal.with_delta("+"))
    return PartialDifferentialClause(
        target=target,
        influent=literal.pred,
        input_sign="+",
        output_sign="+",
        state="new",
        clause=replaced,
        occurrence=index,
    )


def _negative_occurrence(
    target: str, clause: HornClause, index: int, literal: PredLiteral
) -> PartialDifferentialClause:
    """``dP/d-X``: substitute by delta-X; evaluate others in OLD state."""
    replaced = clause.replace_body_literal(index, literal.with_delta("-"))
    return PartialDifferentialClause(
        target=target,
        influent=literal.pred,
        input_sign="-",
        output_sign="-",
        state="old",
        clause=replaced,
        occurrence=index,
    )


def _negated_positive_occurrence(
    target: str, clause: HornClause, index: int, literal: PredLiteral
) -> PartialDifferentialClause:
    """P gains when a negated influent loses: delta-X plus a ~X guard."""
    guard = PredLiteral(literal.pred, literal.args, negated=True)
    replaced = clause.replace_body_literal(index, literal.with_delta("-"), guard)
    return PartialDifferentialClause(
        target=target,
        influent=literal.pred,
        input_sign="-",
        output_sign="+",
        state="new",
        clause=replaced,
        occurrence=index,
    )


def _negated_negative_occurrence(
    target: str, clause: HornClause, index: int, literal: PredLiteral
) -> PartialDifferentialClause:
    """P loses when a negated influent gains: delta+X plus a ~X_old guard."""
    guard = PredLiteral(literal.pred, literal.args, negated=True)
    replaced = clause.replace_body_literal(index, literal.with_delta("+"), guard)
    return PartialDifferentialClause(
        target=target,
        influent=literal.pred,
        input_sign="+",
        output_sign="-",
        state="old",
        clause=replaced,
        occurrence=index,
    )


def fig4_programs() -> Dict[str, Program]:
    """One program per row of Fig. 4: ``p`` defined by one relational
    operator over the base relations ``q/2`` and ``r/2``, keyed by the
    row's label, in the paper's order."""
    X, Y, Z, W = (Variable(name) for name in "XYZW")

    def q(*args):
        return PredLiteral("q", args)

    def r(*args):
        return PredLiteral("r", args)

    def p(*args):
        return PredLiteral("p", args)

    shapes = {
        "σ_cond Q": [HornClause(p(X, Y), [q(X, Y), Comparison("<=", X, 2)])],
        "π_attr Q": [HornClause(p(X), [q(X, Y)])],
        "Q ∪ R": [HornClause(p(X, Y), [q(X, Y)]), HornClause(p(X, Y), [r(X, Y)])],
        "Q - R": [
            HornClause(p(X, Y), [q(X, Y), PredLiteral("r", (X, Y), negated=True)])
        ],
        "Q × R": [HornClause(p(X, Y, Z, W), [q(X, Y), r(Z, W)])],
        "Q ⋈ R": [HornClause(p(X, Y, W), [q(X, Y), r(Y, W)])],
        "Q ∩ R": [HornClause(p(X, Y), [q(X, Y), r(X, Y)])],
    }
    programs: Dict[str, Program] = {}
    for label, clauses in shapes.items():
        program = Program()
        program.declare_base("q", 2)
        program.declare_base("r", 2)
        program.declare_derived("p", clauses[0].head.arity)
        for clause in clauses:
            program.add_clause(clause)
        programs[label] = program
    return programs


def fig4_table() -> Dict[str, Dict[str, str]]:
    """Fig. 4 rendered from :func:`generate_differentials`.

    Rows are the operators of :func:`fig4_programs`; a column
    ``ΔP/Δ±Q`` / ``ΔP/Δ±R`` holds the differential clause reading that
    side of the influent's delta, tagged with the state it is evaluated
    in and the sign of its output, e.g.
    ``p(X, Y) <- Δ+q(X, Y) & r(X, Y) [new, +]``.
    """
    table: Dict[str, Dict[str, str]] = {}
    for label, program in fig4_programs().items():
        differentials = generate_differentials(
            "p", program.clauses_of("p"), frozenset({"q", "r"})
        )
        table[label] = {
            f"ΔP/Δ{d.input_sign}{d.influent.upper()}": (
                f"{d.clause!r} [{d.state}, {d.output_sign}]"
            )
            for d in differentials
        }
    return table
