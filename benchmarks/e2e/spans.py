"""Spans recorded from the benchmark's side of the public API.

Nothing under ``src/`` is instrumented: a span opens before the
benchmark calls into a layer and closes when the call returns.  Where
one layer calls another inside a single public call (``commit`` runs the
check phase, ``append_commit`` encodes and fsyncs) the inner boundary is
found by wrapping a public attribute, as ``benchmarks/conftest``'s
``CheckPhaseTimer`` does, or by a check hook registered after the rule
manager's.

A span is ``[name, start, end, parent index, transaction id]``; all
spans of a run stay in one list in memory and are written out at exit.
A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, TXN = range(5)

#: root spans: one per client operation; their self time is benchmark
#: glue between layer calls, which no layer owns
ROOTS = ("txn", "read")


class Recorder:
    """In-memory span recorder with an open-span stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._txn = -1
        self._restores: List[Tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._txn])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][END] = now
            if top == index:
                return

    def root(self, name: str, txn: int) -> int:
        """Open the root span of client operation ``txn``."""
        self._txn = txn
        return self.begin(name)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        inner = getattr(owner, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                end(index)

        self._restores.append((owner, attr, inner))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._restores:
            owner, attr, inner = self._restores.pop()
            setattr(owner, attr, inner)

    # -- reading ------------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, total seconds, self seconds)}``."""
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _txn in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            own[name] += duration
            if parent >= 0:
                own[self.spans[parent][NAME]] -= duration
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def coverage(self) -> float:
        """Share of the traced wall (root spans) that some layer's span
        accounts for: 1 - root self time / root duration."""
        totals = self.totals()
        wall = sum(totals[r][1] for r in ROOTS if r in totals)
        glue = sum(totals[r][2] for r in ROOTS if r in totals)
        return 1.0 - glue / wall if wall else 0.0

    def as_rows(self) -> List[Dict[str, object]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "txn": txn}
            for name, start, end, parent, txn in self.spans
        ]


class CommitTracer:
    """Brackets ``commit()`` of one ``AmosDatabase`` into spans.

    ``commit`` runs the check hooks first, so the span from entering
    ``commit`` to a hook registered *after* the rule manager's is the
    check phase; the engine's ``process`` attribute is wrapped inside
    it.  What is left of ``commit`` (folding the log into net Δs,
    clearing accumulators, the shard pool's commit listener) is the
    storage layer's own time.  The committed net Δ is kept for the
    caller, which logs it the way the WAL's own listener would.

    With ``recorder=None`` nothing is wrapped and ``commit`` is the bare
    call: the untraced replay of the same inputs takes the same path.
    ``capture`` registers the commit listener that keeps the net Δ; the
    embedded workloads have no log to write and leave it off, so their
    commit path gains no listener the default configuration lacks.
    """

    def __init__(self, recorder: Optional[Recorder], amos, capture: bool = False) -> None:
        self.recorder = recorder
        self.amos = amos
        self.capture = capture
        self.committed = None
        self._check: Optional[int] = None
        if capture:
            amos.storage.add_commit_listener(self._on_commit)
        if recorder is not None:
            for call in ("begin", "set_value", "clear_value"):
                recorder.wrap(amos, call, f"amos.{call}")
            recorder.wrap(amos.rules.engine, "process", "rules.engine_process")
            amos.storage.add_check_hook(self._after_check)

    def _after_check(self, _db) -> None:
        if self._check is not None:
            self.recorder.end(self._check)
            self._check = None

    def _on_commit(self, committed) -> None:
        self.committed = committed

    def commit(self) -> None:
        rec = self.recorder
        if rec is None:
            self.amos.commit()
            return
        outer = rec.begin("storage.commit")
        self._check = rec.begin("rules.check_phase")
        try:
            self.amos.commit()
        finally:
            rec.end(outer)  # closes an unfinished check-phase span too
            self._check = None

    def close(self) -> None:
        if self.capture:
            self.amos.storage.remove_commit_listener(self._on_commit)
        if self.recorder is not None:
            self.amos.storage.remove_check_hook(self._after_check)
            self.recorder.unwrap_all()


def traced_call(recorder: Optional[Recorder], name: str, fn: Callable, *args):
    """``fn(*args)`` under a span, or bare when not tracing — so the
    untraced replay of the same inputs pays for no recorder."""
    if recorder is None:
        return fn(*args)
    index = recorder.begin(name)
    try:
        return fn(*args)
    finally:
        recorder.end(index)
