"""Concurrency semantics: interleaved server commits ≡ sequential runs.

The engine lock makes each commit's apply + deferred check phase one
critical section, so any interleaving of transactions over **disjoint
items** must produce exactly the state and rule firings of running the
same transactions sequentially in process.  Two ``build_inventory``
calls with the same seed create identical OIDs, which lets the tests
compare :meth:`AmosDatabase.snapshot_extensions` byte for byte.
"""

import threading
from collections import Counter

from hypothesis import given, settings

from repro.bench.workload import build_inventory
from repro.server import AmosClient, AmosServer

from tests.obs.test_property_obs import N_ITEMS as SCRIPT_ITEMS
from tests.obs.test_property_obs import script

SEED = 7


def run_on_server(n_items, thread_scripts, observe=True):
    """Run one transaction script per concurrent client session.

    Each script is ``[(ops, commit), ...]`` with ops ``(global item
    index, quantity)``.  Every commit is its own check phase under the
    engine lock.  Returns ``(workload, server)`` after ``server.stop()``
    — stats and traces remain readable.
    """
    workload = build_inventory(n_items, seed=SEED)
    workload.activate()
    server = AmosServer(amos=workload.amos, observe=observe)
    server.start()
    host, port = server.address
    barrier = threading.Barrier(len(thread_scripts))
    failures = []

    def worker(txns):
        try:
            with AmosClient(host, port, timeout=30.0) as client:
                indexes = sorted({i for ops, _ in txns for i, _ in ops})
                for index in indexes:
                    client.bind(f"i{index}", workload.items[index])
                barrier.wait(timeout=30.0)
                for ops, commit in txns:
                    client.begin()
                    for index, quantity in ops:
                        client.execute(f"set quantity(:i{index}) = {quantity};")
                    if commit:
                        client.commit()
                    else:
                        client.rollback()
        except BaseException as exc:  # noqa: BLE001 - reported to the main thread
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(txns,)) for txns in thread_scripts
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    server.stop()
    assert not failures, failures
    return workload, server


def run_sequentially(n_items, thread_scripts):
    """The baseline: same transactions, one after another, in process."""
    workload = build_inventory(n_items, seed=SEED)
    workload.activate()
    amos = workload.amos
    for txns in thread_scripts:
        for ops, commit in txns:
            amos.begin()
            for index, quantity in ops:
                amos.set_value("quantity", (workload.items[index],), quantity)
            if commit:
                amos.commit()
            else:
                amos.rollback()
    return workload


def firing_multiset(workload):
    return Counter(workload.orders)


class TestDeterministicEquivalence:
    # four sessions, three items each; quantities straddle the
    # threshold (140) so rules fire, recover, and net out
    SCRIPTS = [
        [
            ([(base + 0, 120)], True),  # fire
            ([(base + 1, 130), (base + 1, 150)], True),  # dip nets out
            ([(base + 2, 100)], False),  # rolled back, no effect
            ([(base + 0, 5000), (base + 2, 135)], True),  # recover + fire
        ]
        for base in (0, 3, 6, 9)
    ]

    def test_final_state_and_firings_match_sequential(self):
        concurrent, server = run_on_server(12, self.SCRIPTS)
        sequential = run_sequentially(12, self.SCRIPTS)
        assert (
            concurrent.amos.snapshot_extensions()
            == sequential.amos.snapshot_extensions()
        )
        assert firing_multiset(concurrent) == firing_multiset(sequential)
        # sanity: the script genuinely fires rules
        assert sum(firing_multiset(concurrent).values()) >= 8

    def test_server_accounting_after_the_run(self):
        _, server = run_on_server(12, self.SCRIPTS)
        stats = server.stats()
        commits = sum(1 for txns in self.SCRIPTS for _, commit in txns if commit)
        rollbacks = sum(
            1 for txns in self.SCRIPTS for _, commit in txns if not commit
        )
        assert stats["counters"]["server.commits"] == commits
        assert stats["counters"]["server.rollbacks"] == rollbacks
        assert stats["counters"]["server.sessions_opened"] == len(self.SCRIPTS)
        assert stats["gauges"]["server.connections"]["value"] == 0
        # every session went through the closed-session history
        closed = {snap["id"]: snap for snap in stats["closed_sessions"]}
        assert len(closed) == len(self.SCRIPTS)
        assert sum(snap["counters"]["commits"] for snap in closed.values()) == commits

    def test_last_commit_trace_nests_the_check_phase(self):
        _, server = run_on_server(12, self.SCRIPTS)
        trace = server.last_commit_trace
        assert trace is not None and trace.name == "server.commit"
        assert trace.find("check_phase")


class TestPropertyEquivalence:
    @given(txns=script)
    @settings(max_examples=5, deadline=None)
    def test_any_script_is_interleaving_independent(self, txns):
        """Two sessions run the SAME randomly drawn script remapped onto
        disjoint item ranges; any interleaving must equal the
        sequential baseline."""

        def remap(txns, offset):
            return [
                ([(index + offset, quantity) for index, quantity in ops], commit)
                for ops, commit in txns
            ]

        thread_scripts = [remap(txns, 0), remap(txns, SCRIPT_ITEMS)]
        n_items = 2 * SCRIPT_ITEMS
        concurrent, _ = run_on_server(n_items, thread_scripts, observe=False)
        sequential = run_sequentially(n_items, thread_scripts)
        assert (
            concurrent.amos.snapshot_extensions()
            == sequential.amos.snapshot_extensions()
        )
        assert firing_multiset(concurrent) == firing_multiset(sequential)
