"""The paper's core: partial differentials, propagation, rule management."""

from repro.rules.differentials import (
    PartialDifferentialClause,
    generate_differentials,
)
from repro.rules.engines import IncrementalEngine, MonitoringEngine, NaiveEngine
from repro.rules.explain import CheckPhaseIteration, CheckPhaseReport, FiredRule
from repro.rules.manager import RuleManager
from repro.rules.network import NetworkEdge, NetworkNode, PropagationNetwork
from repro.rules.propagation import (
    DifferentialExecution,
    PropagationTrace,
    Propagator,
)
from repro.rules.rule import (
    NERVOUS,
    STRICT,
    Activation,
    Rule,
    default_conflict_resolver,
)

__all__ = [
    "PartialDifferentialClause",
    "generate_differentials",
    "IncrementalEngine",
    "MonitoringEngine",
    "NaiveEngine",
    "CheckPhaseIteration",
    "CheckPhaseReport",
    "FiredRule",
    "RuleManager",
    "NetworkEdge",
    "NetworkNode",
    "PropagationNetwork",
    "DifferentialExecution",
    "PropagationTrace",
    "Propagator",
    "NERVOUS",
    "STRICT",
    "Activation",
    "Rule",
    "default_conflict_resolver",
]
