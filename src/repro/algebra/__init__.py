"""The difference calculus: delta-sets, delta-union and logical rollback.

Fig. 4's partial differencing of the relational operators is generated
by the rule compiler itself (:func:`repro.rules.differentials.fig4_table`).
"""

from repro.algebra.delta import (
    EMPTY_DELTA,
    DeltaSet,
    MutableDelta,
    RowSet,
    apply_delta,
    delta_union,
    rollback_delta,
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
    "NewStateView",
    "OldStateView",
    "RolledBack",
    "StateView",
]
