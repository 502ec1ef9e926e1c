"""Smoke test of the end-to-end benchmark, outside tier-1's testpaths:

    python3 -m pytest benchmarks/e2e/test_smoke.py -q

Every workload at 1/50 scale, untraced and traced, through the same
command line the driver uses.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUDGET_SECONDS = 20.0

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0.3",
            "--trace", str(trace), "--scale", "0.02",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def stray_processes() -> list:
    """Server subprocesses and idle-priority spinners still alive."""
    found = []
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    command = handle.read()
                if b"serverproc.py" in command or b"SCHED_IDLE" in command:
                    found.append(int(pid))
            except OSError:
                pass  # the process ended while we looked
    return found


def test_every_workload_prints_the_listed_metrics_and_fails_nothing():
    started = time.monotonic()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert list(result["metrics"]) == [m["name"] for m in SPEC[listed]]
            units = {m["name"]: m["unit"] for m in SPEC[listed]}
            assert all(
                cell["unit"] == units[name] for name, cell in result["metrics"].items()
            )
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            assert result["attempted"] >= 1
    assert time.monotonic() - started < BUDGET_SECONDS
    assert not stray_processes(), "a subprocess outlived its run"
    assert not os.path.exists(os.path.join(HERE, ".work")), "a work directory survived"


def test_the_workload_choices_are_the_benchmark_json_list():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "no_such"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    for workload in SPEC["workloads"]:
        assert workload["name"] in done.stderr
