"""Worst-case-optimal multi-way join kernels over trie indexes.

The compiled :class:`~repro.objectlog.batch.ClausePlan`s execute joins
as a chain of pairwise index probes.  For the multi-way join conditions
where partial differencing matters most that shape can materialize
intermediate results asymptotically larger than the final output — the
classic triangle query blowup.  Veldhuizen's *leapfrog triejoin* (and
the Generic Join of Ngo, Porat, Ré & Rudra) avoids it: join one
**variable** at a time over all participating relations simultaneously,
always enumerating the smallest candidate set, and the total work is
bounded by the worst-case output size (the AGM bound) — no join order
to misestimate.

Two pieces live here:

* :class:`TrieIndex` — a per-relation nested-dict trie over a column
  permutation.  Level ``k`` of the trie maps the value of column
  ``order[k]`` to the sub-trie of the remaining columns (the last level
  maps to ``True``).  Under set semantics a full path identifies one
  row, so :meth:`add`/:meth:`remove` maintain the trie **incrementally
  from the update stream** — it is built once (lazily, under an LRU
  budget mirroring ``AUTO_INDEX_BUDGET``; see
  :meth:`repro.storage.relation.BaseRelation.trie_index`) and then kept
  current by the same eager maintenance that serves the hash indexes,
  never rebuilt per wave.

* :func:`compile_wcoj_step` — one fused plan step replacing a group of
  base-predicate literals.  Per pending register list it descends each
  literal's trie through the bound prefix, then runs a recursive
  generic join over the group's free variables in one global order:
  at each level the smallest candidate dict leads and the others are
  probed by hash lookup.  Python dicts are hash- rather than
  sort-ordered, so this is the hash-trie variant of leapfrog — the
  intersection at each level still costs O(min |candidates|), which is
  what the worst-case-optimality argument needs; only the sorted
  seek/galloping constant-factor trick is traded away.

Old-state plans run the same kernel: the trie a kernel reads in the
old state is the live trie with the transaction's delta patched in on
the delta's paths only
(:meth:`repro.algebra.oldstate.RolledBack.trie_index`).  The pairwise
probe chain remains the default for 2-way joins and negative guards;
see ``docs/PERFORMANCE.md`` ("Join kernels") for the plan-choice
heuristic.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import SchemaError, UnsafeClauseError
from repro.objectlog.literals import PredLiteral
from repro.objectlog.terms import Variable, ordered_variables
from repro.obs import metrics

Row = Tuple

__all__ = ["TrieIndex", "compile_wcoj_step", "wcoj_variable_order"]


class TrieIndex:
    """A nested-dict trie over one permutation of a relation's columns.

    ``order`` must be a permutation of ``range(arity)``.  ``root`` maps
    the value of column ``order[0]`` to the next level; the final level
    maps the value of column ``order[-1]`` to ``True``.  Set semantics
    make the structure exact (no per-leaf multiplicity needed).
    """

    __slots__ = ("order", "root", "_front", "_last")

    def __init__(self, order: Sequence[int]) -> None:
        order = tuple(order)
        if sorted(order) != list(range(len(order))):
            raise SchemaError(
                f"trie order {order!r} is not a permutation of the columns"
            )
        self.order = order
        self.root: Dict = {}
        self._front = order[:-1]
        self._last = order[-1]

    def add(self, row: Row) -> None:
        node = self.root
        for col in self._front:
            value = row[col]
            child = node.get(value)
            if child is None:
                child = node[value] = {}
            node = child
        node[row[self._last]] = True

    def remove(self, row: Row) -> None:
        node = self.root
        stack: List[Tuple[Dict, object]] = []
        for col in self._front:
            value = row[col]
            child = node.get(value)
            if child is None:
                return
            stack.append((node, value))
            node = child
        if node.pop(row[self._last], None) is None:
            return
        # prune now-empty interior nodes so dict sizes stay honest —
        # the per-level candidate counts drive the kernel's leader
        # choice, which is what the worst-case bound leans on
        while not node and stack:
            parent, value = stack.pop()
            del parent[value]
            node = parent

    def bulk_load(self, rows) -> None:
        add = self.add
        for row in rows:
            add(row)

    def clear(self) -> None:
        self.root.clear()

    def __len__(self) -> int:
        # row count = number of leaves; O(nodes), for tests/diagnostics
        def count(node, depth):
            if depth == len(self.order) - 1:
                return len(node)
            return sum(count(child, depth + 1) for child in node.values())

        return count(self.root, 0) if self.order else 0

    def __contains__(self, row: Row) -> bool:
        node = self.root
        for col in self._front:
            node = node.get(row[col])
            if node is None:
                return False
        return row[self._last] in node

    def __repr__(self) -> str:
        return f"TrieIndex(order={self.order}, rows={len(self)})"


def wcoj_variable_order(
    literals: Sequence[PredLiteral],
    slot_of: Dict[Variable, int],
    bound: Set[int],
) -> List[Variable]:
    """The global join-variable order for a fused literal group.

    Most-shared variables first (they constrain the most relations, so
    intersecting them early prunes hardest), name as the deterministic
    tie-break — plans must compile identically across processes.
    """
    counts: Dict[Variable, int] = {}
    for literal in literals:
        for var in ordered_variables(literal.variables()):
            if slot_of[var] not in bound:
                counts[var] = counts.get(var, 0) + 1
    return sorted(counts, key=lambda v: (-counts[v], v.name))


def _prefix_getter(slot_of: Dict[Variable, int], bound: Set[int], arg):
    if isinstance(arg, Variable):
        slot = slot_of[arg]
        if slot not in bound:
            raise UnsafeClauseError(
                f"wcoj prefix variable {arg!r} read before being bound"
            )
        return lambda regs, _s=slot: regs[_s]
    return lambda regs, _v=arg: _v


def compile_wcoj_step(
    literals: Sequence[PredLiteral],
    slot_of: Dict[Variable, int],
    bound: Set[int],
):
    """Compile one fused generic-join step over ``literals``.

    Every literal must be a positive, non-delta read of a base
    predicate.  Arguments whose variables are already ``bound`` (or are
    constants) form each literal's trie *prefix*; the remaining
    variables are joined level-by-level in the global order from
    :func:`wcoj_variable_order`.  ``bound`` is updated with the slots
    the step binds, exactly like the pairwise step factories in
    :mod:`repro.objectlog.batch`.
    """
    order_vars = wcoj_variable_order(literals, slot_of, bound)
    if not order_vars:
        raise UnsafeClauseError(
            f"wcoj group {literals!r} has no free join variables"
        )
    var_level = {var: level for level, var in enumerate(order_vars)}
    n_levels = len(order_vars)
    level_slots = tuple(slot_of[var] for var in order_vars)

    specs = []  # (pred, trie_order, prefix_getters)
    schedule: List[List[Tuple[int, int]]] = [[] for _ in range(n_levels)]
    for lit_index, literal in enumerate(literals):
        prefix_cols: List[int] = []
        prefix_get = []
        positions: Dict[int, List[int]] = {}
        for pos, arg in enumerate(literal.args):
            if isinstance(arg, Variable) and slot_of[arg] not in bound:
                positions.setdefault(var_level[arg], []).append(pos)
            else:
                prefix_cols.append(pos)
                prefix_get.append(_prefix_getter(slot_of, bound, arg))
        trie_order = list(prefix_cols)
        for level in sorted(positions):
            trie_order.extend(positions[level])
            schedule[level].append((lit_index, len(positions[level])))
        specs.append((literal.pred, tuple(trie_order), tuple(prefix_get)))
    for level, participants in enumerate(schedule):
        if not participants:  # pragma: no cover - order built from occurrences
            raise UnsafeClauseError(
                f"join variable {order_vars[level]!r} occurs in no literal"
            )
    bound.update(level_slots)
    specs = tuple(specs)
    schedule = tuple(tuple(participants) for participants in schedule)
    n_literals = len(specs)
    last_level = n_levels - 1

    def step(evaluator, batch):
        relation = evaluator.view.relation
        roots = [
            relation(pred).trie_index(order, auto=True).root
            for pred, order, _ in specs
        ]
        out: List[List] = []
        append = out.append

        def join(level: int, nodes, regs) -> None:
            participants = schedule[level]
            slot = level_slots[level]
            # smallest candidate set leads the level — the choice that
            # makes the enumeration worst-case optimal
            leader, leader_arity = participants[0]
            if len(participants) > 1:
                best = len(nodes[leader])
                for index, arity in participants[1:]:
                    size = len(nodes[index])
                    if size < best:
                        leader, leader_arity, best = index, arity, size
            emit = level == last_level
            for value, child in nodes[leader].items():
                if leader_arity > 1:
                    descents = leader_arity - 1
                    while descents:
                        child = child.get(value)
                        if child is None:
                            break
                        descents -= 1
                    if child is None:
                        continue
                next_nodes = None
                ok = True
                for index, arity in participants:
                    if index == leader:
                        continue
                    node = nodes[index]
                    probes = arity
                    while probes:
                        node = node.get(value)
                        if node is None:
                            ok = False
                            break
                        probes -= 1
                    if not ok:
                        break
                    if not emit:
                        if next_nodes is None:
                            next_nodes = nodes[:]
                            next_nodes[leader] = child
                        next_nodes[index] = node
                if not ok:
                    continue
                regs[slot] = value
                if emit:
                    append(regs[:])
                else:
                    if next_nodes is None:
                        next_nodes = nodes[:]
                        next_nodes[leader] = child
                    join(level + 1, next_nodes, regs)

        for regs in batch:
            nodes: List = []
            ok = True
            for root, (_pred, _order, prefix_get) in zip(roots, specs):
                node = root
                for getter in prefix_get:
                    node = node.get(getter(regs))
                    if node is None:
                        ok = False
                        break
                if not ok:
                    break
                nodes.append(node)
            if ok:
                join(0, nodes, regs)
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("join.kernel_runs").inc()
            reg.counter("join.kernel_seeds").inc(len(batch))
            reg.counter("join.kernel_emits").inc(len(out))
            reg.histogram("join.kernel_fanout").observe(len(out))
        return out

    step.wcoj = (n_literals, n_levels)  # type: ignore[attr-defined]
    return step
