"""Tests for the worst-case-optimal join kernel (repro.objectlog.join).

Three layers: the :class:`TrieIndex` structure itself (incremental
maintenance, pruning, budget/eviction via the relation), the fused
kernel step (plan-choice heuristic, equivalence against the pairwise
chain), and the intermediate-result economy the kernel exists for (a
triangle query whose pairwise intermediates dwarf the output).
"""

import itertools
import random

import pytest

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView
from repro.errors import SchemaError, UnsafeClauseError
from repro.objectlog.batch import compile_plan
from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.join import TrieIndex, compile_wcoj_step, wcoj_variable_order
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.obs import metrics
from repro.storage.database import Database

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")


class TestTrieIndex:
    def test_rejects_non_permutation(self):
        with pytest.raises(SchemaError):
            TrieIndex((0, 0))
        with pytest.raises(SchemaError):
            TrieIndex((1, 2))

    def test_add_contains_len(self):
        trie = TrieIndex((0, 1))
        rows = [(1, 2), (1, 3), (2, 2)]
        trie.bulk_load(rows)
        assert len(trie) == 3
        assert all(row in trie for row in rows)
        assert (9, 9) not in trie
        trie.add((1, 2))  # set semantics: re-add is a no-op
        assert len(trie) == 3

    def test_permuted_order_groups_by_that_column(self):
        trie = TrieIndex((1, 0))
        trie.bulk_load([(1, 5), (2, 5), (3, 6)])
        assert set(trie.root) == {5, 6}
        assert set(trie.root[5]) == {1, 2}

    def test_remove_prunes_empty_interior_nodes(self):
        trie = TrieIndex((0, 1, 2))
        trie.add((1, 2, 3))
        trie.add((1, 2, 4))
        trie.remove((1, 2, 3))
        assert len(trie) == 1
        trie.remove((1, 2, 4))
        # the whole branch must be gone: candidate-set sizes drive the
        # kernel's leader choice, stale empty dicts would skew it
        assert trie.root == {}
        trie.remove((1, 2, 4))  # absent row: no-op
        assert trie.root == {}

    def test_random_churn_matches_set_semantics(self):
        rng = random.Random(7)
        trie = TrieIndex((2, 0, 1))
        reference = set()
        for _ in range(500):
            row = (rng.randrange(4), rng.randrange(4), rng.randrange(4))
            if rng.random() < 0.5:
                trie.add(row)
                reference.add(row)
            else:
                trie.remove(row)
                reference.discard(row)
        assert len(trie) == len(reference)
        assert all(row in trie for row in reference)


class TestRelationTrieMaintenance:
    def test_tries_follow_insert_delete_clear(self):
        db = Database()
        relation = db.create_relation("e", 2)
        relation.bulk_insert([(1, 2), (2, 3)])
        trie = relation.trie_index((1, 0))
        assert len(trie) == 2
        relation.insert((3, 4))
        relation.delete((1, 2))
        assert (3, 4) in trie and (1, 2) not in trie
        relation.clear()
        assert len(trie) == 0

    def test_auto_trie_budget_evicts_lru(self):
        db = Database()
        relation = db.create_relation("wide", 4)
        relation.insert((1, 2, 3, 4))
        budget = relation.TRIE_INDEX_BUDGET
        orders = list(itertools.permutations(range(4)))[: budget + 1]
        with metrics.collecting() as reg:
            for order in orders:
                relation.trie_index(order, auto=True)
        assert len(relation.tries) == budget
        assert reg.counters()["join.trie_evictions"] == 1
        # the evicted permutation was the least recently used (first)
        assert orders[0] not in relation.tries

    def test_evicted_trie_is_rebuilt_on_next_resolution(self):
        """Kernels resolve their tries per run, so eviction needs no
        invalidation signal: the next resolution builds a fresh trie
        from the relation as it is then."""
        db = Database()
        relation = db.create_relation("wide", 4)
        relation.insert((1, 2, 3, 4))
        orders = list(itertools.permutations(range(4)))
        evicted = relation.trie_index(orders[0], auto=True)
        for order in orders[1 : relation.TRIE_INDEX_BUDGET + 1]:
            relation.trie_index(order, auto=True)
        assert orders[0] not in relation.tries
        relation.insert((5, 6, 7, 8))
        rebuilt = relation.trie_index(orders[0], auto=True)
        assert rebuilt is not evicted
        assert set(rebuilt.root) == {1, 5}
        assert set(evicted.root) == {1}


@pytest.fixture
def triangle():
    """A skewed triangle instance: hub 0 fans out to everything."""
    db = Database()
    program = Program()
    for name in ("e1", "e2", "e3"):
        program.declare_base(name, 2)
        db.create_relation(name, 2)
    rng = random.Random(3)
    rows = {(0, k) for k in range(1, 40)} | {
        (rng.randrange(8), rng.randrange(8)) for _ in range(60)
    }
    for name in ("e1", "e2", "e3"):
        db.relation(name).bulk_insert(rows)
    return db, program, rows


def pairwise_and_wcoj(db, program, head, body, bound_vars=()):
    clause = HornClause(PredLiteral("out", tuple(head)), list(body))
    plain = compile_plan(clause, program, bound_vars=bound_vars)
    fused = compile_plan(clause, program, bound_vars=bound_vars, wcoj=True)
    evaluator = Evaluator(program, NewStateView(db))
    return plain, fused, evaluator


class TestKernelEquivalence:
    def test_triangle_matches_pairwise(self, triangle):
        db, program, rows = triangle
        body = [
            PredLiteral("e1", (X, Y)),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (X, Z)),
        ]
        plain, fused, evaluator = pairwise_and_wcoj(db, program, (X, Y, Z), body)
        assert plain.fused == 0 and fused.fused == 3
        expected = {
            (x, y, z)
            for x, y in rows
            for z in range(8 if x or y else 40)
            if (y, z) in rows and (x, z) in rows
        }
        assert set(fused.rows(evaluator)) == set(plain.rows(evaluator))
        assert set(fused.rows(evaluator)) >= expected

    def test_filters_and_projection_still_apply(self, triangle):
        db, program, _ = triangle
        body = [
            PredLiteral("e1", (X, Y)),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (X, Z)),
            Comparison("<", Z, 5),
        ]
        plain, fused, evaluator = pairwise_and_wcoj(db, program, (X, Z), body)
        assert fused.fused == 3
        assert sorted(fused.rows(evaluator)) == sorted(plain.rows(evaluator))

    def test_bound_seeds_prefix_the_tries(self, triangle):
        """Delta-style seeding: X pre-bound, kernel joins Y then Z."""
        db, program, rows = triangle
        body = [
            PredLiteral("e1", (X, Y)),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (X, Z)),
        ]
        plain, fused, evaluator = pairwise_and_wcoj(
            db, program, (X, Y, Z), body, bound_vars=(X,)
        )
        assert fused.fused == 3
        seeds = [[x, None, None] for x in range(3)]
        got = fused.rows(evaluator, [list(s) for s in seeds])
        want = plain.rows(evaluator, [list(s) for s in seeds])
        assert sorted(got) == sorted(want)
        assert got, "seeded execution must produce rows"

    def test_repeated_variable_within_literal(self, triangle):
        db, program, _ = triangle
        db.relation("e1").insert((4, 4))
        body = [
            PredLiteral("e1", (X, X)),
            PredLiteral("e2", (X, Y)),
            PredLiteral("e3", (Y, Z)),
        ]
        plain, fused, evaluator = pairwise_and_wcoj(db, program, (X, Y, Z), body)
        assert sorted(fused.rows(evaluator)) == sorted(plain.rows(evaluator))

    def test_constant_argument_joins_through_prefix(self, triangle):
        db, program, _ = triangle
        body = [
            PredLiteral("e1", (0, Y)),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (Z, W)),
        ]
        plain, fused, evaluator = pairwise_and_wcoj(db, program, (Y, Z, W), body)
        assert sorted(fused.rows(evaluator)) == sorted(plain.rows(evaluator))

    def test_counters_and_step_metadata(self, triangle):
        db, program, _ = triangle
        body = [
            PredLiteral("e1", (X, Y)),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (X, Z)),
        ]
        with metrics.collecting() as reg:
            plain, fused, evaluator = pairwise_and_wcoj(
                db, program, (X, Y, Z), body
            )
            fused.rows(evaluator)
        counters = reg.counters()
        assert counters["join.plans_wcoj"] == 1
        assert counters["join.kernel_runs"] == 1
        assert counters["join.kernel_emits"] == len(set(plain.rows(evaluator)))
        assert counters["join.trie_builds"] == 3


class TestPlanChoice:
    def test_two_way_join_stays_pairwise(self):
        program = Program()
        program.declare_base("q", 2)
        program.declare_base("r", 2)
        clause = HornClause(
            PredLiteral("out", (X, Z)),
            [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
        )
        with metrics.collecting() as reg:
            plan = compile_plan(clause, program, wcoj=True)
        assert plan.fused == 0
        assert reg.counters()["join.plans_pairwise"] == 1

    def test_negated_literals_never_fuse(self, triangle):
        db, program, _ = triangle
        body = [
            PredLiteral("e1", (X, Y)),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (X, Z), negated=True),
        ]
        plain, fused, evaluator = pairwise_and_wcoj(db, program, (X, Y, Z), body)
        assert fused.fused == 0  # only 2 fusable candidates, one negated
        assert sorted(fused.rows(evaluator)) == sorted(plain.rows(evaluator))

    def test_two_member_residual_stays_pairwise(self, triangle):
        """Excluding the delta literal leaves only e2 ⋈ e3 — a single
        join, for which the pairwise chain is already worst-case
        optimal (every intermediate binding is an output row), so the
        compiler keeps the chain rather than paying kernel constants."""
        db, program, _ = triangle
        deltas = {"e1": DeltaSet(plus=[(0, 1), (0, 2)])}
        body = [
            PredLiteral("e1", (X, Y), delta="+"),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (X, Z)),
        ]
        clause = HornClause(PredLiteral("out", (X, Y, Z)), body)
        plain = compile_plan(clause, program)
        fused = compile_plan(clause, program, wcoj=True)
        assert fused.fused == 0
        ev = Evaluator(program, NewStateView(db), deltas=deltas)
        assert sorted(fused.rows(ev)) == sorted(plain.rows(ev))

    def test_delta_anchored_residual_of_three_fuses(self, triangle):
        """With three connected base reads left after the delta
        literal, the kernel engages and matches the chain."""
        db, program, rows = triangle
        program.declare_base("e4", 2)
        db.create_relation("e4", 2).bulk_insert(rows)
        deltas = {"e1": DeltaSet(plus=[(0, 1), (0, 2), (3, 4)])}
        body = [
            PredLiteral("e1", (X, Y), delta="+"),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (X, Z)),
            PredLiteral("e4", (Z, W)),
        ]
        clause = HornClause(PredLiteral("out", (X, Y, Z, W)), body)
        plain = compile_plan(clause, program)
        fused = compile_plan(clause, program, wcoj=True)
        assert fused.fused == 3
        ev = Evaluator(program, NewStateView(db), deltas=deltas)
        assert sorted(fused.rows(ev)) == sorted(plain.rows(ev))

    def test_disconnected_literal_excluded_from_group(self):
        """a, c and d share join variables and fuse; b is a cross
        product with no shared free variable and must stay a pairwise
        step."""
        program = Program()
        db = Database()
        for name in ("a", "b", "c", "d"):
            program.declare_base(name, 2)
            db.create_relation(name, 2)
        db.relation("a").bulk_insert([(1, 2), (3, 4)])
        db.relation("c").bulk_insert([(1, 2), (5, 6)])
        db.relation("d").bulk_insert([(2, 0), (4, 0)])
        db.relation("b").bulk_insert([(7, 8), (9, 10)])
        V = Variable("V")
        clause = HornClause(
            PredLiteral("out", (X, Y, Z, W, V)),
            [
                PredLiteral("a", (X, Y)),
                PredLiteral("b", (Z, W)),
                PredLiteral("c", (X, Y)),
                PredLiteral("d", (Y, V)),
            ],
        )
        plain = compile_plan(clause, program)
        fused = compile_plan(clause, program, wcoj=True)
        assert fused.fused == 3
        evaluator = Evaluator(program, NewStateView(db))
        assert sorted(fused.rows(evaluator)) == sorted(plain.rows(evaluator))
        assert set(fused.rows(evaluator)) == {
            (1, 2, 7, 8, 0),
            (1, 2, 9, 10, 0),
        }


class TestVariableOrder:
    def test_most_shared_first_name_tiebreak(self):
        literals = [
            PredLiteral("e1", (X, Y)),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (X, Z)),
        ]
        slot_of = {X: 0, Y: 1, Z: 2}
        order = wcoj_variable_order(literals, slot_of, set())
        assert order == [X, Y, Z]  # all count 2: name order

    def test_bound_slots_excluded(self):
        literals = [PredLiteral("e1", (X, Y)), PredLiteral("e2", (Y, Z))]
        slot_of = {X: 0, Y: 1, Z: 2}
        assert wcoj_variable_order(literals, slot_of, {0}) == [Y, Z]

    def test_empty_group_rejected(self):
        with pytest.raises(UnsafeClauseError):
            compile_wcoj_step(
                [PredLiteral("e1", (X,))], {X: 0}, {0}
            )


class TestWorstCaseEconomy:
    def test_kernel_emits_bounded_by_output_not_intermediates(self):
        """Hub-skewed triangle: every pairwise order materializes the
        hub fan-out squared; the kernel's emit count equals the output."""
        db = Database()
        program = Program()
        n = 60
        # e1: hub -> spokes, e2: spokes -> hub, e3 only (hub, hub)
        e1 = {(0, k) for k in range(1, n)}
        e2 = {(k, 0) for k in range(1, n)}
        e3 = {(0, 0)}
        for name, rows in (("e1", e1), ("e2", e2), ("e3", e3)):
            program.declare_base(name, 2)
            db.create_relation(name, 2).bulk_insert(rows)
        body = [
            PredLiteral("e1", (X, Y)),
            PredLiteral("e2", (Y, Z)),
            PredLiteral("e3", (X, Z)),
        ]
        clause = HornClause(PredLiteral("out", (X, Y, Z)), body)
        fused = compile_plan(clause, program, wcoj=True)
        with metrics.collecting() as reg:
            rows = fused.rows(Evaluator(program, NewStateView(db)))
        assert len(set(rows)) == n - 1  # (0, k, 0) for each spoke
        assert reg.counters()["join.kernel_emits"] == n - 1
