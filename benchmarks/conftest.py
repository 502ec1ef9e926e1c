"""Shared helpers for the benchmark suite."""

import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


class CheckPhaseTimer:
    """Accumulates wall-clock seconds spent inside the monitoring
    engine's ``process`` (= differential propagation), excluding the
    update path and rule-action execution around it.

    Wraps the ``process`` *attribute* of whatever engine the manager
    holds, so it times the incremental and naive engines alike.
    """

    def __init__(self, manager):
        self.seconds = 0.0
        engine = manager.engine
        inner = engine.process

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        engine.process = timed


def best_of(trials, run_trial):
    """(best check-phase seconds, best full-transaction seconds)."""
    best_check = best_total = float("inf")
    for _ in range(trials):
        check, total = run_trial()
        best_check = min(best_check, check)
        best_total = min(best_total, total)
    return best_check, best_total


def hardware():
    """The host the cells were measured on (the artifact's meta)."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
