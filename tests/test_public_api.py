"""The public API surface: everything README advertises must import."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_classes(self):
        from repro import (
            AmosDatabase,
            AmosqlEngine,
            Database,
            DeltaSet,
            Rule,
            RuleManager,
        )

        assert AmosDatabase and AmosqlEngine and Database
        assert DeltaSet and Rule and RuleManager


SUBPACKAGES = [
    "repro.storage",
    "repro.algebra",
    "repro.objectlog",
    "repro.amos",
    "repro.amosql",
    "repro.rules",
    "repro.bench",
    "repro.obs",
    "repro.server",
]


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_main_module_importable(self):
        importlib.import_module("repro.__main__")

    def test_every_public_callable_has_a_docstring(self):
        import inspect

        missing = []
        for module_name in SUBPACKAGES + ["repro"]:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{module_name}.{name}")
        assert not missing, missing


#: callable -> (independently settable values as ROADMAP's knobs item
#: counts them, the parameters that count leaves out)
OPTION_SURFACE = {
    "repro.rules.manager:RuleManager": (9, {"db", "program"}),
    "repro.rules.engines:IncrementalEngine": (2, {"db", "program"}),
    "repro.rules.network:PropagationNetwork": (1, {"program"}),
    "repro.rules.propagation:Propagator": (0, {"program", "db", "network"}),
    "repro.objectlog.evaluate:Evaluator": (3, set()),
    "repro.algebra.oldstate:NewStateView": (1, set()),
    "repro.storage.wal:recover": (3, {"directory", "wal_options"}),
    "repro.server.server:AmosServer": (8, {"amos", "amos_options"}),
    "repro.server.server:serve": (7, {"out"}),
}


class TestOptionSurface:
    """The knob count ROADMAP recounts by hand each round, pinned: a PR
    that adds (or removes) an option, an abstract ``StateView`` member
    or a tuned constant fails here until the number is changed on
    purpose — and ROADMAP's knobs item with it."""

    @pytest.mark.parametrize("target", sorted(OPTION_SURFACE))
    def test_parameter_counts(self, target):
        import inspect
        import pkgutil

        expected, uncounted = OPTION_SURFACE[target]
        parameters = set(inspect.signature(pkgutil.resolve_name(target)).parameters)
        assert uncounted <= parameters
        assert len(parameters - uncounted) == expected, sorted(parameters)

    def test_state_view_has_one_abstract_member(self):
        import inspect

        from repro.algebra import RowSet, StateView

        abstract = {
            name
            for name, member in vars(StateView).items()
            if inspect.isfunction(member)
            and "NotImplementedError" in inspect.getsource(member)
        }
        assert abstract == {"relation"}

        class OneTable(StateView):
            def relation(self, name):
                return RowSet({(1, 2), (3, 4)})

        view = OneTable()
        assert view.rows("t") == {(1, 2), (3, 4)}
        assert view.contains("t", [1, 2])
        assert view.lookup("t", [0], [3]) == {(3, 4)}
        assert list(view.prober("t", (1,))((2,))) == [(1, 2)]

    def test_tuned_constants(self):
        import inspect

        from repro.objectlog.evaluate import Evaluator
        from repro.replication import ReplicaServer
        from repro.storage import BaseRelation, Database

        def default(callable_, name):
            return inspect.signature(callable_).parameters[name].default

        assert {
            "AUTO_INDEX_BUDGET": BaseRelation.AUTO_INDEX_BUDGET,
            "TRIE_INDEX_BUDGET": BaseRelation.TRIE_INDEX_BUDGET,
            "ro_cache_size": default(ReplicaServer, "ro_cache_size"),
            "snapshot_history": Database().snapshot_history,
        } == {
            "AUTO_INDEX_BUDGET": 8,
            "TRIE_INDEX_BUDGET": 4,
            "ro_cache_size": 128,
            "snapshot_history": 8,
        }
        assert not hasattr(Evaluator, "DELTA_INDEX_THRESHOLD")
