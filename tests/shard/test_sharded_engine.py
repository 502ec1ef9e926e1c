"""The ``shards=`` option after the sharded check phase was removed.

The option survives only as a stub for the frozen end-to-end benchmark:
it accepts ``1`` and ``"auto"`` and builds the plain serial engine.
Every other value must still be rejected with a ``RuleError`` when the
database is built, never silently accepted.  The accepted values are
pinned in ``tests/rules/test_manager.py::TestEngineSelection``.
"""

import pytest

from repro.bench.workload import build_inventory
from repro.errors import RuleError


class TestWiring:
    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(RuleError):
            build_inventory(2, shards=0)


class TestShardErrors:
    def test_manager_rejects_garbage_shard_strings(self):
        with pytest.raises(RuleError):
            build_inventory(2, shards="many")
