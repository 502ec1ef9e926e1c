"""Property tests for Fig. 4: partial differencing of the relational operators.

Every cell of the paper's table is a partial differential the rule
compiler generates from an ObjectLog condition
(:func:`repro.rules.differentials.fig4_programs`).  We prove the cells
*extensionally* on the production path: apply a random but consistent
transaction to base relations q and r, build the condition's
propagation network, run :class:`~repro.rules.propagation.Propagator`
and compare the root delta against the brute-force change
``P_new - P_old`` / ``P_old - P_new`` of a plain-Python definition of
the same operator.

The propagator guards negatives (section 7.2), so a raw run never
under-reacts; positives may over-propagate (a projection or union
reporting a row that already held), which strict semantics removes with
:meth:`~repro.rules.propagation.Propagator.held_before`.  Filtered that
way, every operator and every nested shape is exact — with the
sub-predicates expanded away (flat network) and kept as shared nodes.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algebra.delta import DeltaSet
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import DerivedPredicate, Program
from repro.objectlog.terms import Variable
from repro.rules.differentials import fig4_programs, fig4_table
from repro.rules.network import PropagationNetwork
from repro.rules.propagation import Propagator
from repro.storage.database import Database

pairs = st.tuples(st.integers(0, 4), st.integers(0, 4))
relation_contents = st.frozensets(pairs, max_size=8)


@st.composite
def scenarios(draw):
    """(old_q, old_r, delta_q, delta_r) with consistent deltas."""
    old_q = draw(relation_contents)
    old_r = draw(relation_contents)
    plus_q = draw(relation_contents) - old_q
    minus_q = draw(relation_contents) & old_q
    plus_r = draw(relation_contents) - old_r
    minus_r = draw(relation_contents) & old_r
    return old_q, old_r, DeltaSet(plus_q, minus_q), DeltaSet(plus_r, minus_r)


def new_state(old, delta):
    return (old | delta.plus) - delta.minus


def run(program, case, keep=frozenset()):
    """Propagate ``case`` through ``p``'s network: (raw, strict) root delta."""
    old_q, old_r, delta_q, delta_r = case
    db = Database()
    db.create_relation("q", 2).bulk_insert(new_state(old_q, delta_q))
    db.create_relation("r", 2).bulk_insert(new_state(old_r, delta_r))
    network = PropagationNetwork(program)
    network.add_condition("p", keep=keep)
    propagator = Propagator(program, db, network)
    deltas = {"q": delta_q, "r": delta_r}
    raw = propagator.run(deltas).get("p", DeltaSet())
    held = propagator.held_before("p", raw.plus, deltas)
    return raw, DeltaSet(raw.plus - held, raw.minus)


def ground_truth(truth, case):
    old_q, old_r, delta_q, delta_r = case
    old = truth(old_q, old_r)
    new = truth(new_state(old_q, delta_q), new_state(old_r, delta_r))
    return DeltaSet(new - old, old - new)


def assert_superset(delta, truth):
    assert truth.plus <= delta.plus
    assert truth.minus <= delta.minus


EXACT_OPERATORS = [
    pytest.param("σ_cond Q", lambda q, r: {t for t in q if t[0] <= 2}, id="select"),
    pytest.param("Q ∪ R", lambda q, r: q | r, id="union"),
    pytest.param("Q - R", lambda q, r: q - r, id="difference"),
    pytest.param("Q × R", lambda q, r: {a + b for a in q for b in r}, id="product"),
    pytest.param(
        "Q ⋈ R",
        lambda q, r: {(x, y, w) for x, y in q for y2, w in r if y == y2},
        id="join",
    ),
    pytest.param("Q ∩ R", lambda q, r: q & r, id="intersect"),
]


def project_q(q, r):
    return {(x,) for x, _ in q}


class TestFig4CellsExact:
    @pytest.mark.parametrize("label, truth", EXACT_OPERATORS)
    @settings(max_examples=60, deadline=None)
    @given(case=scenarios())
    def test_differentials_equal_ground_truth(self, label, truth, case):
        _, strict = run(fig4_programs()[label], case)
        assert strict == ground_truth(truth, case)


class TestFig4Projection:
    @settings(max_examples=60, deadline=None)
    @given(case=scenarios())
    def test_projection_cells_are_sound_supersets(self, case):
        raw, _ = run(fig4_programs()["π_attr Q"], case)
        assert_superset(raw, ground_truth(project_q, case))

    @settings(max_examples=60, deadline=None)
    @given(case=scenarios())
    def test_guarded_compositional_projection_is_exact(self, case):
        _, strict = run(fig4_programs()["π_attr Q"], case)
        assert strict == ground_truth(project_q, case)


X, Y, Z, U = (Variable(name) for name in "XYZU")


def lit(pred, *args):
    return PredLiteral(pred, args)


def neg(pred, *args):
    return PredLiteral(pred, args, negated=True)


def program_of(*clauses):
    """Base q/2 and r/2 plus the derived predicates ``clauses`` define."""
    program = Program()
    program.declare_base("q", 2)
    program.declare_base("r", 2)
    for clause in clauses:
        if not program.has(clause.head.pred):
            program.declare_derived(clause.head.pred, clause.head.arity)
        program.add_clause(clause)
    return program


def union_of_q_and_r():
    return [HornClause(lit("u", X, Y), [lit("q", X, Y)]),
            HornClause(lit("u", X, Y), [lit("r", X, Y)])]


NESTED_SHAPES = [
    pytest.param(
        lambda: program_of(
            HornClause(lit("s", X, Y), [lit("q", X, Y), Comparison(">=", Y, 1)]),
            HornClause(lit("p", X, Y, Z), [lit("s", X, Y), lit("r", Y, Z)]),
        ),
        lambda q, r: {
            (x, y, z) for x, y in q if y >= 1 for y2, z in r if y2 == y
        },
        id="select-join",
    ),
    pytest.param(
        lambda: program_of(
            HornClause(lit("a", X), [lit("q", X, Y)]),
            HornClause(lit("b", X), [lit("r", Y, X)]),
            HornClause(lit("p", X), [lit("a", X)]),
            HornClause(lit("p", X), [lit("b", X)]),
        ),
        lambda q, r: project_q(q, r) | {(x,) for _, x in r},
        id="project-union",
    ),
    pytest.param(
        lambda: program_of(
            HornClause(lit("a", X), [lit("q", X, Y)]),
            HornClause(lit("b", X), [lit("r", X, Y)]),
            HornClause(lit("p", X), [lit("a", X), neg("b", X)]),
        ),
        lambda q, r: project_q(q, r) - {(x,) for x, _ in r},
        id="project-difference",
    ),
    pytest.param(
        lambda: program_of(
            HornClause(lit("j", X, Y), [lit("q", X, Y), lit("r", Y, Z)]),
            HornClause(lit("a", X), [lit("q", X, Y)]),
            HornClause(lit("b", X), [lit("r", X, Y)]),
            HornClause(lit("k", X, U), [lit("a", X), lit("b", U)]),
            HornClause(lit("p", X, Y), [lit("j", X, Y), lit("k", X, Y)]),
        ),
        lambda q, r: {
            (x, y) for x, y in q if any(y == y2 for y2, _ in r)
        } & {(x, u) for x, _ in q for u, _ in r},
        id="deep-mix",
    ),
    pytest.param(
        lambda: program_of(
            *union_of_q_and_r(),
            HornClause(lit("p", X, Y), [lit("u", X, Y), Comparison("!=", X, Y)]),
        ),
        lambda q, r: {t for t in q | r if t[0] != t[1]},
        id="select-over-union",
    ),
    pytest.param(
        lambda: program_of(
            HornClause(lit("e", X, Y), [lit("q", X, Y)]),
            HornClause(lit("p", X, Z), [lit("e", X, Y), lit("e", Y, Z)]),
        ),
        lambda q, r: {(x, z) for x, y in q for y2, z in q if y == y2},
        id="self-join",
    ),
    pytest.param(
        lambda: program_of(
            HornClause(lit("s", X, Y), [lit("q", X, Y), neg("q", Y, X)]),
            HornClause(lit("p", X), [lit("s", X, Y)]),
        ),
        lambda q, r: {(x,) for x, y in q if (y, x) not in q},
        id="q-and-not-q",
    ),
    pytest.param(
        lambda: program_of(
            *union_of_q_and_r(),
            HornClause(lit("p", X), [lit("u", X, Y)]),
        ),
        lambda q, r: {(x,) for x, _ in q | r},
        id="union-both-disjuncts",
    ),
]

ROW = frozenset({(1, 1)})
NONE = frozenset()
# a row entering a union through both disjuncts, leaving through one
# while the other still holds it, and switching disjuncts
GUARD_CASES = [
    (NONE, NONE, DeltaSet(ROW, ()), DeltaSet(ROW, ())),
    (ROW, ROW, DeltaSet((), ROW), DeltaSet()),
    (ROW, NONE, DeltaSet((), ROW), DeltaSet(ROW, ())),
]


def networks(program):
    """Flat expansion, and every sub-predicate kept as a shared node."""
    shared = frozenset(
        name
        for name in program.names()
        if name != "p" and isinstance(program.predicate(name), DerivedPredicate)
    )
    return [frozenset(), shared]


def with_guard_cases(test):
    for case in GUARD_CASES:
        test = example(case=case)(test)
    return test


class TestCompositionalDifferencing:
    @pytest.mark.parametrize("make_program, truth", NESTED_SHAPES)
    @settings(max_examples=40, deadline=None)
    @given(case=scenarios())
    @with_guard_cases
    def test_exact_mode_equals_recompute(self, make_program, truth, case):
        program = make_program()
        expected = ground_truth(truth, case)
        for keep in networks(program):
            _, strict = run(program, case, keep)
            assert strict == expected, sorted(keep)

    @pytest.mark.parametrize("make_program, truth", NESTED_SHAPES)
    @settings(max_examples=40, deadline=None)
    @given(case=scenarios())
    @with_guard_cases
    def test_default_mode_never_underreacts(self, make_program, truth, case):
        """Guarded negatives (section 7.2): every true change is reported."""
        program = make_program()
        expected = ground_truth(truth, case)
        for keep in networks(program):
            raw, _ = run(program, case, keep)
            assert_superset(raw, expected)


class TestFig4Table:
    def test_table_has_all_seven_rows(self):
        table = fig4_table()
        assert set(table) == {
            "σ_cond Q",
            "π_attr Q",
            "Q ∪ R",
            "Q - R",
            "Q × R",
            "Q ⋈ R",
            "Q ∩ R",
        }

    def test_binary_rows_have_four_columns(self):
        table = fig4_table()
        for label in ("Q ∪ R", "Q - R", "Q × R", "Q ⋈ R", "Q ∩ R"):
            assert set(table[label]) == {
                "ΔP/Δ+Q",
                "ΔP/Δ+R",
                "ΔP/Δ-Q",
                "ΔP/Δ-R",
            }, label

    def test_unary_rows_have_two_columns(self):
        table = fig4_table()
        for label in ("σ_cond Q", "π_attr Q"):
            assert set(table[label]) == {"ΔP/Δ+Q", "ΔP/Δ-Q"}

    def test_paper_cells_rendered(self):
        table = fig4_table()
        # the paper's most telling cells, as the generated differential
        # clauses tagged [state, output sign]: the union's "- R_old" is
        # strict semantics' held_before, the difference's "Q ∩ Δ-R" a
        # guard literal re-checking ~r in the new state
        assert table["Q ∪ R"]["ΔP/Δ+Q"] == "p(X, Y) <- Δ+q(X, Y) [new, +]"
        assert table["Q - R"]["ΔP/Δ-R"] == (
            "p(X, Y) <- q(X, Y) & Δ-r(X, Y) & ~r(X, Y) [new, +]"
        )
        assert table["Q × R"]["ΔP/Δ-Q"] == (
            "p(X, Y, Z, W) <- Δ-q(X, Y) & r(Z, W) [old, -]"
        )
        assert table["Q ∩ R"]["ΔP/Δ+Q"] == "p(X, Y) <- Δ+q(X, Y) & r(X, Y) [new, +]"
