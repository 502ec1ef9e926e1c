"""repro — reproduction of Sköld & Risch, "Using Partial Differencing for
Efficient Monitoring of Deferred Complex Rule Conditions" (ICDE 1996).

The package layers, bottom-up:

* :mod:`repro.storage`  — relations, indexes, transactions as net Δ-maps
* :mod:`repro.algebra`  — delta-sets, delta-union, logical rollback
* :mod:`repro.objectlog` — typed Datalog (ObjectLog): clauses, evaluation,
  full expansion, static ordering and compiled plans
* :mod:`repro.amos`     — the functional data model (types, OIDs,
  stored/derived/foreign functions, procedures)
* :mod:`repro.amosql`   — the AMOSQL language front end
* :mod:`repro.rules`    — the paper's contribution: partial differentials
  (Fig. 4's operator table among them), the propagation network (the
  dependency network of Fig. 1 with differentials on its edges), the
  breadth-first bottom-up propagation algorithm, rule management with
  strict/nervous semantics, plus the naive baseline
* :mod:`repro.bench`    — workload generators and measurement harness for
  the paper's performance figures
* :mod:`repro.obs`      — zero-dependency metrics + tracing: delta-size,
  probe/scan, and wave-front accounting behind an opt-in registry
* :mod:`repro.server`   — the network front end: a concurrent TCP server
  with sessioned transactions and a blocking client library

Quickstart::

    from repro import AmosqlEngine

    engine = AmosqlEngine()
    engine.amos.create_procedure("order", ("item", "integer"), my_order_fn)
    engine.execute(open("inventory.amosql").read())
"""

from repro.algebra import DeltaSet, MutableDelta, delta_union
from repro.amos import AmosDatabase, OID
from repro.amosql import AmosqlEngine
from repro.errors import ReproError
from repro.obs import Registry, Tracer, collecting, render_trace
from repro.rules import (
    CheckPhaseReport,
    PropagationNetwork,
    Propagator,
    Rule,
    RuleManager,
)
from repro.server import AmosClient, AmosServer
from repro.storage import Database

__version__ = "1.0.0"

__all__ = [
    "DeltaSet",
    "MutableDelta",
    "delta_union",
    "AmosDatabase",
    "OID",
    "AmosqlEngine",
    "ReproError",
    "CheckPhaseReport",
    "PropagationNetwork",
    "Propagator",
    "Rule",
    "RuleManager",
    "Database",
    "AmosServer",
    "AmosClient",
    "Registry",
    "Tracer",
    "collecting",
    "render_trace",
    "__version__",
]
