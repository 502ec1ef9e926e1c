"""The reusable fault-injection harness (docs/TESTING.md).

Production code exposes *named fault points* — ``fault_hook`` seams
called with a point name at interesting moments (``WriteAheadLog``
during append/rotation, ``persistence.save`` around the atomic
rename).  The harness arms ONE of those points and simulates a process
kill there by raising :class:`InjectedCrash`, which derives from
``BaseException`` so ordinary ``except Exception`` recovery code cannot
accidentally "survive" the crash.

The same :class:`FaultPoint` object records every point it saw, so
tests can also assert ordering invariants (e.g. fsync before ack)
without killing anything (leave ``point=None``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: every WAL fault point, re-exported for parametrized tests
from repro.storage.wal import FAULT_POINTS as WAL_FAULT_POINTS  # noqa: F401

PERSISTENCE_FAULT_POINTS = ("save.mid_write", "save.pre_rename")


class InjectedCrash(BaseException):
    """The process dies here.  BaseException: not catchable by the
    ``except Exception`` blocks that handle ordinary failures."""


class FaultPoint:
    """A deterministic kill switch for one named fault point.

    Parameters
    ----------
    point:
        The fault-point name to crash at; None records hits without
        ever crashing (pure observation).
    after:
        Skip this many matching hits before crashing — ``after=2``
        crashes on the third time the armed point is reached, so tests
        can kill the Nth commit, the Nth rotation, etc.

    Use the instance directly as a ``fault_hook`` callable.
    """

    def __init__(self, point: Optional[str] = None, after: int = 0) -> None:
        self.point = point
        self.after = int(after)
        self.fired = False
        self.hits: List[Tuple[str, Dict]] = []

    def __call__(self, point: str, context: Optional[Dict] = None) -> None:
        self.hits.append((point, dict(context or {})))
        if self.fired or self.point is None or point != self.point:
            return
        if self.after > 0:
            self.after -= 1
            return
        self.fired = True
        raise InjectedCrash(f"injected crash at {point}")

    def seen(self, point: str) -> int:
        """How many times ``point`` was reached."""
        return sum(1 for name, _ in self.hits if name == point)

    def sequence(self) -> List[str]:
        """The point names in the order they were reached."""
        return [name for name, _ in self.hits]

    def __repr__(self) -> str:
        return (
            f"FaultPoint(point={self.point!r}, fired={self.fired}, "
            f"hits={len(self.hits)})"
        )

