"""The end-to-end benchmark's contract with ``src/``.

``benchmarks/e2e/`` is measured by the driver from a fresh checkout and
may not be edited by the PRs it judges, so a PR that renames or removes
a ``repro`` name it uses breaks the benchmark at measurement time, after
the tests passed.  This scans the benchmark's source for every
``repro`` name it imports or reaches through an attribute and resolves
each one here, in tier-1.
"""

import ast
import pathlib
import pkgutil

import pytest

from repro.bench.workload import build_inventory

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
SOURCES = sorted(E2E.glob("*.py"))


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
