"""Bottom-Up scheduler (Section 2's second strawman).

The mirror image of Top-Down: operations are visited in *reverse*
topological order and placed **as late as possible** before their
scheduled successors.  Operations with no successors in the partial
schedule are placed at the latest currently-used cycle ("in order to not
delay any possible predecessor it is scheduled as late as possible") —
which is what stretches V2 in the motivating example: the store C lands
far below its producer B.

Recurrence closers additionally respect the EarlyStart bound from their
scheduled predecessors.
"""

from __future__ import annotations

from typing import Any

from repro.engine.session import SchedulingSession
from repro.schedulers.base import (
    ModuloScheduler,
    downward_window,
    early_start,
    late_start,
)
from repro.schedulers.topdown import acyclic_topological_order


class BottomUpScheduler(ModuloScheduler):
    """ALAP list scheduling in reverse topological order."""

    name = "bottomup"

    def prepare(self, session: SchedulingSession) -> list[str]:
        return list(
            reversed(
                acyclic_topological_order(session.graph, session.analysis)
            )
        )

    def attempt(
        self,
        session: SchedulingSession,
        ii: int,
        context: Any,
    ) -> dict[str, int] | None:
        order: list[str] = context
        graph = session.graph
        mrt = session.mrt(ii)
        start: dict[str, int] = {}
        for name in order:
            op = graph.operation(name)
            es = early_start(graph, start, name, ii)
            ls = late_start(graph, start, name, ii)
            if ls is None:
                # Nothing below us yet: align with the latest used cycle so
                # predecessors keep maximal freedom.
                ls = max(start.values(), default=0)
            if es is not None and es > ls:
                return None
            window = downward_window(ls, ii, es)
            cycle = mrt.scan_place(op, window)
            if cycle is None:
                return None
            start[name] = cycle
        return start
