"""The end-to-end benchmark's contract with ``src/``.

``benchmarks/e2e/`` is measured by the driver from a fresh checkout and
may not be edited by the PRs it judges, so a PR that renames or removes
a ``repro`` name it uses breaks the benchmark at measurement time, after
the tests passed.  This scans the benchmark's source for every
``repro`` name it imports or reaches through an attribute and resolves
each one here, in tier-1 — and every engine counter ``layers.py`` reads
is matched against what ``src/`` still emits, so a counter removal
fails here and not as a silent 0 in an artifact.
"""

import ast
import pathlib
import pkgutil

import pytest

from repro.bench.workload import build_inventory

ROOT = pathlib.Path(__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"
SOURCES = sorted(E2E.glob("*.py"))

#: counters ``layers.py`` still reads although ``src/`` stopped
#: emitting them (they read 0); ``benchmarks/e2e/`` may not change in
#: the PRs it judges, so the pending benchmark-only PR drops the reads
#: and empties this list
STALE_COUNTERS = {
    "join.ho_hits",
    "join.ho_misses",
    "join.ho_disabled",
    "evaluate.prober_cache.hits",
    "evaluate.prober_cache.misses",
    "evaluate.env_extensions",
    "shard.exchange_bytes",
    "shard.pool.forks",
    "shard.pool.respawns",
    "shard.merge_cancellations",
}


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def repro_names(path):
    """Every dotted ``repro…`` name ``path`` imports or dereferences."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    modules = {}  # local name -> the dotted repro name it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                names.add(dotted)
                modules[alias.asname or alias.name] = dotted
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    continue
                names.add(alias.name)
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:  # ``import repro.a.b`` binds the name ``repro``
                    modules["repro"] = "repro"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            if head in modules:
                names.add(f"{modules[head]}.{rest}")
    return names


def test_the_scan_sees_the_benchmark():
    assert SOURCES, f"no benchmark sources under {E2E}"
    found = set().union(*(repro_names(path) for path in SOURCES))
    assert "repro.bench.workload.build_inventory" in found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_repro_name_the_benchmark_uses_resolves(path):
    missing = []
    for dotted in sorted(repro_names(path)):
        try:
            pkgutil.resolve_name(dotted)
        except (ImportError, AttributeError) as error:
            missing.append(f"{dotted}: {error}")
    assert not missing, f"{path.name} uses names src/ no longer has: {missing}"


def test_the_benchmarks_default_inventory_constructs():
    # harness.default_inventory passes shards="auto"
    workload = build_inventory(8, shards="auto")
    workload.activate()
    workload.touch_one_item(0, below=True)
    assert len(workload.orders) == 1


def _strings(node):
    return {
        c.value
        for c in ast.walk(node)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    }


def _get_keys(tree):
    """The first-argument nodes of every ``x.get(...)`` call."""
    return [
        call.args[0]
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "get"
        and call.args
    ]


def counters_the_benchmark_reads():
    """The dotted metric names ``layers.py`` looks up in the engine's
    registries: the values of its two counter tables and the keys
    ``from_counters`` ``.get()``s."""
    tree = ast.parse((E2E / "layers.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _dotted(node.targets[0]) in (
            "PER_TXN_COUNTERS",
            "WHOLE_RUN_COUNTERS",
        ):
            for value in node.value.values:
                names |= _strings(value)
        elif isinstance(node, ast.FunctionDef) and node.name == "from_counters":
            for key in _get_keys(node):
                names |= _strings(key)
    return {name for name in names if "." in name}


def metrics_src_emits():
    """Every string literal under ``src/`` that is not itself a
    ``.get()`` key (``last_check_stats`` reads counters by name too)."""
    literals = set()
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = {id(key) for key in _get_keys(tree)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in reads
            ):
                literals.add(node.value)
    return literals


def test_every_counter_the_benchmark_reads_is_still_emitted():
    read = counters_the_benchmark_reads()
    assert "propagation.guard_checks" in read and "index.probes" in read
    assert read - metrics_src_emits() == STALE_COUNTERS
