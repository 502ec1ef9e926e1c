"""Engine oracles: incremental ≡ naive, and WCOJ ≡ pairwise chain.

The incremental engine (partial differencing over the propagation
network) and the naive engine (full recomputation diffed against a
materialized previous result — the paper's baseline) answer the same
question each check phase, so on identical transaction workloads they
must produce

* identical *net* condition delta-sets per commit — the incremental
  engine may report a confirming update as a plus row the condition
  already held (strict semantics filters those when distributing), so
  both sides are netted against the pre-commit extension; minus sets
  must agree as reported, which pins the §7.2 negative guard from both
  directions (an unguarded over-propagated deletion and a wrongly
  guarded genuine one both differ from the recompute),
* identical rule firings, commit by commit and in order — strict
  semantics included: the incremental engine answers "which of these
  rows did the condition hold before the transaction?" from the
  propagator's long-lived old-state evaluator, the naive one from a
  fresh rollback and evaluator (``MonitoringEngine.held_before``),
  and the two answers are also compared directly after every commit.

The generated schema covers every operator partial differencing
handles — σ selection, π projection (derived function), ⋈ join,
− negation, ∪ disjunction — plus an aggregate condition (per-group
incremental recompute, which shares the run evaluators with the
differential edges and must not observe stale memos) and two multi-way
joins (``r_tri``/``r_quad``) that take the fused join-kernel path.

Run size: ``ORACLE_EXAMPLES`` (default 25 so tier-1 stays fast; CI's
oracle job runs 500+, see docs/TESTING.md).
"""

import os
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algebra.oldstate import RolledBack
from repro.amosql.interpreter import AmosqlEngine
from repro.bench.workload import build_inventory, build_multiway
from repro.rules.engines import MonitoringEngine

pytestmark = pytest.mark.oracle

MAX_EXAMPLES = int(os.environ.get("ORACLE_EXAMPLES", "25"))

N_NODES = 4

SCHEMA = """
create type node;
create function val(node) -> integer;
create function tag(node) -> integer;
create function link(node) -> node;
create function link2(node) -> node;
create function link3(node) -> node;
create function double_val(node n) -> integer as select val(n) * 2;
create function fanin_total(node g) -> integer as
    select sum(val(m)) for each node m where link(m) = g;
"""

RULES = """
create rule r_sigma() as
    when for each node n where val(n) < 5
    do log_sigma(n);
create rule r_pi() as
    when for each node n where double_val(n) > 10
    do log_pi(n);
create rule r_join() as
    when for each node n, node m where link(n) = m and val(m) > 3
    do log_join(n, m);
create rule r_neg() as
    when for each node n where tag(n) = 1 and not (val(n) < 3)
    do log_neg(n);
create rule r_union() as
    when for each node n where val(n) < 2 or tag(n) > 5
    do log_union(n);
create rule r_agg() as
    when for each node g where fanin_total(g) > 6
    do log_agg(g);
create rule r_tri() as
    when for each node x, node y, node z
    where link(x) = y and link2(y) = z and link3(x) = z
    do log_tri(x, y, z);
create rule r_quad() as
    when for each node x, node y, node z
    where link(x) = y and link2(y) = z and link3(x) = z and val(z) > 3
    do log_quad(x, y, z);
activate r_sigma();
activate r_pi();
activate r_join();
activate r_neg();
activate r_union();
activate r_agg();
activate r_tri();
activate r_quad();
"""

LOGGED_RULES = ("r_sigma", "r_pi", "r_join", "r_neg", "r_union", "r_agg",
                "r_tri", "r_quad")
RULE_ARITY = {"r_join": 2, "r_tri": 3, "r_quad": 3}


CONDITIONS = tuple(f"cnd_{rule}" for rule in LOGGED_RULES)


def build(mode="incremental", **engine_options):
    """A fresh monitored database + nodes + firing log.

    ``engine_options`` flow through to the rule manager — the WCOJ
    oracle passes ``wcoj`` to build the A and B engines of the same
    calculus.
    """
    engine = AmosqlEngine(mode=mode, explain=True, **engine_options)
    fired = []
    for rule in LOGGED_RULES:
        arity = RULE_ARITY.get(rule, 1)
        engine.amos.create_procedure(
            f"log_{rule[2:]}",
            tuple("node" for _ in range(arity)),
            lambda *args, _rule=rule: fired.append((_rule, args)),
        )
    engine.execute(SCHEMA)
    decls = ", ".join(f":n{i}" for i in range(N_NODES))
    engine.execute(f"create node instances {decls};")
    nodes = [engine.get(f"n{i}") for i in range(N_NODES)]
    engine.execute(RULES)
    return engine, nodes, fired


def run_transaction(engines, ops, commits):
    """Apply the same transaction to every ``(engine, nodes)`` pair."""
    for engine, nodes in engines:
        amos = engine.amos
        amos.begin()
        apply_ops(amos, nodes, ops)
        if commits:
            amos.commit()
        else:
            amos.rollback()


def apply_ops(amos, nodes, ops):
    for op in ops:
        kind = op[0]
        if kind == "val":
            amos.set_value("val", [nodes[op[1]]], op[2])
        elif kind == "tag":
            amos.set_value("tag", [nodes[op[1]]], op[2])
        elif kind in ("link", "link2", "link3"):
            amos.set_value(kind, [nodes[op[1]]], nodes[op[2]])
        elif kind == "clear_val":
            amos.clear_value("val", [nodes[op[1]]])
        elif kind == "clear_tag":
            amos.clear_value("tag", [nodes[op[1]]])
        elif kind in ("clear_link", "clear_link2", "clear_link3"):
            amos.clear_value(kind[len("clear_"):], [nodes[op[1]]])


_AUX_NAME = re.compile(r"_not_\d+")


def _normalizer():
    """Rename gensym'd auxiliary predicates (``_not_<n>``) to canonical
    names by order of first appearance: the counter is process-global,
    so two databases built in the same process disagree on the suffix
    without disagreeing on anything semantic."""
    mapping = {}

    def normalize(text):
        return _AUX_NAME.sub(
            lambda m: mapping.setdefault(m.group(0), f"_aux{len(mapping)}"),
            text,
        )

    return normalize


def trace_digest(trace, normalize):
    """A propagation trace as comparable plain data (execution order
    preserved — both engines walk the same network bottom-up)."""
    if trace is None:
        return None
    return [
        (
            normalize(e.label),
            normalize(e.target),
            e.input_sign,
            e.output_sign,
            e.input_size,
            frozenset(e.produced),
            frozenset(e.guarded_away),
        )
        for e in trace.executions
    ]


def report_digest(report, normalize=None):
    """One check phase as comparable plain data."""
    if report is None:
        return None
    if normalize is None:
        normalize = _normalizer()
    return [
        (
            iteration.index,
            {
                normalize(name): (delta.plus, delta.minus)
                for name, delta in iteration.condition_deltas.items()
            },
            trace_digest(iteration.trace, normalize),
            None
            if iteration.fired is None
            else (iteration.fired.rule, iteration.fired.rows),
        )
        for iteration in report.iterations
    ]


def reported_deltas(report):
    """One check phase's condition delta-sets as reported, delta-unioned
    over its iterations: ``{condition: (plus, minus)}``."""
    out = {}
    for iteration in report.iterations if report is not None else ():
        for condition, delta in iteration.condition_deltas.items():
            plus, minus = out.get(condition, (frozenset(), frozenset()))
            out[condition] = (
                (plus - delta.minus) | delta.plus,
                (minus - delta.plus) | delta.minus,
            )
    return out


def minus_sets(reported):
    """The non-empty reported deletions: ``{condition: minus}``."""
    return {cnd: minus for cnd, (_, minus) in reported.items() if minus}


def net_deltas(reported, extensions):
    """Fold ``reported`` into the running ``extensions`` and return the
    commit's net change per condition: ``{condition: (entered, left)}``,
    unchanged conditions omitted."""
    net = {}
    for condition, (plus, minus) in reported.items():
        before = extensions[condition]
        after = (before - minus) | plus
        extensions[condition] = after
        if after != before:
            net[condition] = (after - before, before - after)
    return net


def assert_held_before_matches_reference(engine, extensions):
    """After a commit whose actions changed nothing (so the database is
    still in the state the check phase saw): for every condition the
    phase touched, the engine's ``held_before`` over the reported rows
    and the folded extension equals the base class's answer from a
    fresh rollback.  The report holds a COPY of the delta map, so the
    incremental engine re-points its old-state view here; the reuse
    path is what the firing histories compare."""
    manager = engine.amos.rules
    for iteration in manager.last_report.iterations:
        for condition, delta in iteration.condition_deltas.items():
            rows = delta.plus | delta.minus | extensions[condition]
            assert manager.engine.held_before(
                condition, rows, iteration.base_deltas
            ) == MonitoringEngine.held_before(
                manager.engine, condition, rows, iteration.base_deltas
            ), condition


node_ids = st.integers(0, N_NODES - 1)
values = st.integers(0, 8)
operation = st.one_of(
    st.tuples(st.just("val"), node_ids, values),
    st.tuples(st.just("tag"), node_ids, values),
    st.tuples(st.just("link"), node_ids, node_ids),
    st.tuples(st.just("link2"), node_ids, node_ids),
    st.tuples(st.just("link3"), node_ids, node_ids),
    st.tuples(st.just("clear_val"), node_ids),
    st.tuples(st.just("clear_tag"), node_ids),
    st.tuples(st.just("clear_link"), node_ids),
    st.tuples(st.just("clear_link2"), node_ids),
    st.tuples(st.just("clear_link3"), node_ids),
)
transactions = st.lists(
    st.tuples(st.lists(operation, min_size=1, max_size=6), st.booleans()),
    min_size=1,
    max_size=8,
)


class TestEngineEquivalence:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(workload=transactions)
    # n0 enters r_union through both disjuncts, then loses one: the
    # negative differential's candidate must be guarded away
    @example(
        workload=[
            ([("val", 0, 1), ("tag", 0, 7)], True),
            ([("val", 0, 3)], True),
        ]
    )
    def test_incremental_matches_naive(self, workload):
        inc_engine, inc_nodes, inc_fired = build("incremental")
        nai_engine, nai_nodes, nai_fired = build("naive")
        # identical creation order => identical OIDs (compared by id)
        assert inc_nodes == nai_nodes
        inc_ext = {cnd: frozenset() for cnd in CONDITIONS}
        nai_ext = {cnd: frozenset() for cnd in CONDITIONS}

        for ops, commits in workload:
            run_transaction(
                [(inc_engine, inc_nodes), (nai_engine, nai_nodes)], ops, commits
            )
            if commits:
                inc_reported = reported_deltas(inc_engine.amos.rules.last_report)
                nai_reported = reported_deltas(nai_engine.amos.rules.last_report)
                assert minus_sets(inc_reported) == minus_sets(nai_reported)
                assert net_deltas(inc_reported, inc_ext) == net_deltas(
                    nai_reported, nai_ext
                )
                for cnd in CONDITIONS:
                    assert inc_ext[cnd] == inc_engine.amos.extension(cnd), cnd
                assert_held_before_matches_reference(inc_engine, inc_ext)
            # the full firing history must agree in content AND order
            # (a rolled-back transaction fires nothing on either side)
            assert inc_fired == nai_fired


class TestWcojEquivalence:
    """A/B oracle for the join kernels: the WCOJ path and the pure
    pairwise chain are two executors of the same partial differencing
    calculus — identical condition deltas, propagation traces (same
    differential labels in the same order, same produced rows, same
    guard decisions) and rule firings on every workload, multi-way
    joins included (``r_tri``/``r_quad`` fuse; the rest stay
    pairwise)."""

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(workload=transactions)
    def test_wcoj_matches_pairwise_chain(self, workload):
        opt_engine, opt_nodes, opt_fired = build(wcoj=True)
        ref_engine, ref_nodes, ref_fired = build(wcoj=False)
        assert opt_nodes == ref_nodes

        for ops, commits in workload:
            run_transaction(
                [(opt_engine, opt_nodes), (ref_engine, ref_nodes)], ops, commits
            )
            if not commits:
                continue

            opt_report = report_digest(opt_engine.amos.rules.last_report)
            ref_report = report_digest(ref_engine.amos.rules.last_report)
            assert opt_report == ref_report
            assert opt_fired == ref_fired

    def test_multiway_rules_actually_fuse(self):
        """The oracle is vacuous if no plan takes the kernel path —
        pin that the triangle/quad differentials fused, and that on the
        multiway schema the old-state (Δ⁻r, Δ⁻val) plans fuse too."""
        engine, _, _ = build(wcoj=True)
        network = engine.amos.rules.engine.network
        assert any(
            d.plan is not None and d.plan.fused
            for edge in network.edges()
            for d in edge.differentials()
        )
        workload = build_multiway(8, 1, 2, fanout_big=4, wcoj=True)
        workload.activate()
        fused = {
            (d.influent, d.input_sign, d.state): d.plan.fused
            for edge in workload.amos.rules.engine.network.edges()
            for d in edge.differentials()
        }
        for influent in ("r", "val"):
            assert fused[(influent, "-", "old")] == 3, fused
            assert fused[(influent, "+", "new")] == 3, fused


def multiway_engines():
    """The multiway schema three ways: kernel, pairwise chain, naive."""
    workloads = {
        "wcoj": build_multiway(8, 2, 3, fanout_big=4, wcoj=True, explain=True),
        "pairwise": build_multiway(8, 2, 3, fanout_big=4, wcoj=False, explain=True),
        "naive": build_multiway(8, 2, 3, fanout_big=4, mode="naive", explain=True),
    }
    for workload in workloads.values():
        workload.activate()
    return workloads


def multiway_txn(amos, rng, workload):
    """One transaction changing ``r`` and ``small`` together and flipping
    a ``val`` sign — so Δ⁻r's kernel reads rolled-back ``small`` and
    ``val`` tries, not the live ones."""
    sources = [source for chunk in workload.slices for source, _ in chunk]
    with amos.transaction():
        for _ in range(rng.randint(1, 3)):
            source = rng.choice(sources)
            hub = rng.choice(workload.hubs)
            if amos.value("r", source, hub) is None:
                amos.set_value("r", (source, hub), 1)
            else:
                amos.clear_value("r", (source, hub))
        for _ in range(rng.randint(1, 3)):
            source, spoke = rng.choice(sources), rng.choice(workload.spokes)
            if amos.value("small", source, spoke) is None:
                amos.set_value("small", (source, spoke), 1)
            else:
                amos.clear_value("small", (source, spoke))
        spoke = rng.choice(workload.spokes)
        amos.set_value("val", (spoke,), -amos.value("val", spoke))


class TestMultiwayRolledBackTries:
    """wcoj ≡ pairwise ≡ naive on the multiway schema under
    transactions whose old-state kernel reads patched tries."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rolled_back_kernel_matches_pairwise_and_naive(self, seed, monkeypatch):
        patched = []
        live_trie_index = RolledBack.trie_index

        def spy(self, order, auto=False):
            trie = live_trie_index(self, order, auto)
            patched.append(trie is not self._new.trie_index(order, auto))
            return trie

        monkeypatch.setattr(RolledBack, "trie_index", spy)
        workloads = multiway_engines()
        names = list(workloads)
        assert workloads["wcoj"].spokes == workloads["naive"].spokes
        extensions = {name: frozenset() for name in names}
        condition = "cnd_monitor_multiway"
        for step in range(12):
            nets = {}
            for name, workload in workloads.items():
                multiway_txn(workload.amos, random.Random(seed * 100 + step), workload)
                reported = reported_deltas(workload.amos.rules.last_report)
                ext = {condition: extensions[name]}
                nets[name] = net_deltas(reported, ext)
                extensions[name] = ext[condition]
                assert extensions[name] == workload.amos.extension(condition), name
            assert nets["wcoj"] == nets["pairwise"] == nets["naive"], step
            assert report_digest(
                workloads["wcoj"].amos.rules.last_report
            ) == report_digest(workloads["pairwise"].amos.rules.last_report)
        flagged = [workloads[name].flagged for name in names]
        assert flagged[0] == flagged[1] == flagged[2]
        assert flagged[0], "the schedule must make the rule fire"
        assert any(patched), "no old-state kernel read a patched trie"


class TestInventoryEquivalence:
    """Deterministic incremental-vs-naive run over the paper's Fig. 6
    inventory schema: threshold churn fires the rule and exercises the
    negative guard."""

    def run_churn(self, mode):
        workload = build_inventory(12, mode=mode, explain=True)
        workload.activate()
        extensions = {"cnd_monitor_items": frozenset()}
        nets = []

        def record():
            reported = reported_deltas(workload.amos.rules.last_report)
            nets.append(net_deltas(reported, extensions))

        for step in range(40):
            workload.touch_one_item(step, below=(step % 2 == 0))
            record()
        workload.massive_change(quantity_delta=-30)
        record()
        orders = [(item.id, amount) for item, amount in workload.orders]
        return orders, nets

    def test_orders_and_deltas_identical(self):
        inc_orders, inc_nets = self.run_churn("incremental")
        nai_orders, nai_nets = self.run_churn("naive")
        assert inc_orders == nai_orders
        assert inc_orders, "churn workload must fire the rule"
        assert inc_nets == nai_nets
        assert any(net for net in inc_nets)
