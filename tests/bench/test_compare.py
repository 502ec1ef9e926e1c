"""The bench-regression comparator against the committed baselines.

Every committed ``BENCH_<artifact>.json`` must pass its own gates
(a table entry that no longer matches its artifact fails here, not in
CI), and a regressed copy must exit 1.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
ARTIFACTS = ("checkphase", "joinkernel", "wal", "replication")


def baseline_path(artifact):
    return os.path.join(ROOT, f"BENCH_{artifact}.json")


def compare(artifact, fresh_path):
    return subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "benchmarks", "compare.py"),
            artifact, baseline_path(artifact), fresh_path,
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )


def write_variant(tmp_path, artifact, mutate):
    with open(baseline_path(artifact)) as handle:
        payload = json.load(handle)
    mutate(payload)
    path = tmp_path / f"BENCH_{artifact}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_committed_baseline_passes_and_gates_something(artifact):
    done = compare(artifact, baseline_path(artifact))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "[gated] ok" in done.stdout


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_slower_gated_cells_exit_1(tmp_path, artifact):
    def slow_down(payload):
        for row in payload["rows"]:
            row["ms_per_transaction"] *= 1.5

    done = compare(artifact, write_variant(tmp_path, artifact, slow_down))
    assert done.returncode == 1
    assert "REGRESSION" in done.stdout


@pytest.mark.parametrize(
    "artifact, key, value",
    [
        ("joinkernel", "speedup_at_5000", 1.5),
        ("wal", "overhead_ratio", 1.4),
        ("replication", "read_scaleout", 1.5),
    ],
)
def test_missed_meta_bar_exits_1(tmp_path, artifact, key, value):
    def miss(payload):
        payload["meta"][key] = value

    done = compare(artifact, write_variant(tmp_path, artifact, miss))
    assert done.returncode == 1
    assert "bench-regression FAILED" in done.stdout
