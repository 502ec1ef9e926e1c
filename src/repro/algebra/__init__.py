"""The difference calculus: delta-sets, logical rollback, and Fig.-4 differencing."""

from repro.algebra.delta import (
    EMPTY_DELTA,
    DeltaSet,
    MutableDelta,
    RowSet,
    apply_delta,
    delta_union,
    rollback_delta,
)
from repro.algebra.differencing import (
    PartialDifferential,
    differentiate,
    evaluate_delta,
    fig4_table,
    operator_differentials,
)
from repro.algebra.expression import (
    DeltaLeaf,
    Difference,
    EvalContext,
    Expression,
    Intersect,
    Join,
    Product,
    Project,
    Relation,
    Select,
    Union,
)
from repro.algebra.oldstate import NewStateView, OldStateView, RolledBack, StateView

__all__ = [
    "EMPTY_DELTA",
    "DeltaSet",
    "MutableDelta",
    "RowSet",
    "apply_delta",
    "delta_union",
    "rollback_delta",
    "PartialDifferential",
    "differentiate",
    "evaluate_delta",
    "fig4_table",
    "operator_differentials",
    "DeltaLeaf",
    "Difference",
    "EvalContext",
    "Expression",
    "Intersect",
    "Join",
    "Product",
    "Project",
    "Relation",
    "Select",
    "Union",
    "NewStateView",
    "OldStateView",
    "RolledBack",
    "StateView",
]
