"""FRLC — Wang & Eisenbeis's decomposed software pipelining [23].

The published method decomposes modulo scheduling into (1) choosing *row
numbers* (which iteration-relative stage each operation belongs to, i.e. a
retiming that removes loop-carried edges) and (2) list-scheduling the
resulting acyclic graph.  Both decisions optimise the initiation interval
only; register pressure is never consulted — which is exactly the role the
paper assigns FRLC in Table 1.

Our implementation computes the cyclic-ASAP time of every operation at the
candidate II (equivalent to the retiming ``row = asap // II`` composed
with the in-row offset) and list-schedules in that priority, placing each
operation as soon as possible.  Flat-ASAP placement is aggressive about
the II and indifferent to lifetimes, reproducing FRLC's behaviour:
competitive initiation intervals, materially worse buffer counts.
"""

from __future__ import annotations

from typing import Any

from repro.engine.session import SchedulingSession
from repro.schedulers.base import (
    ModuloScheduler,
    early_start,
    late_start,
    upward_window,
)


class FRLCScheduler(ModuloScheduler):
    """Decomposed software pipelining (register-insensitive)."""

    name = "frlc"

    def prepare(self, session: SchedulingSession) -> dict[str, int]:
        return dict(session.op_index)

    def attempt(
        self,
        session: SchedulingSession,
        ii: int,
        context: Any,
    ) -> dict[str, int] | None:
        position: dict[str, int] = context
        graph = session.graph
        asap = session.cyclic_asap(ii)
        if asap is None:
            return None
        order = sorted(graph.node_names(), key=lambda n: (asap[n], position[n]))

        mrt = session.mrt(ii)
        start: dict[str, int] = {}
        for name in order:
            op = graph.operation(name)
            es = early_start(graph, start, name, ii)
            # The retiming floor keeps every op at or after its cyclic-ASAP
            # time, so recurrence circuits are never stretched beyond
            # distance * II by construction.
            es = max(asap[name], es if es is not None else 0)
            ls = late_start(graph, start, name, ii)
            if ls is not None and es > ls:
                return None
            window = upward_window(es, ii, ls)
            cycle = mrt.scan_place(op, window)
            if cycle is None:
                return None
            start[name] = cycle
        return start
