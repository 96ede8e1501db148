"""Ablations — design-choice checks the paper asserts but does not table.

* **Initial hypernode invariance** (Section 3.1, footnote 1): the paper
  claims the choice of starting node barely changes register pressure.
  :func:`hypernode_sensitivity` re-runs HRMS once per candidate starting
  node and reports the MaxLive spread per loop.

* **Value of the pre-ordering**: scheduling the same bidirectional placer
  in plain program order (no hypernode reduction) shows how much of
  HRMS's advantage comes from the ordering itself.
  :func:`preordering_value` compares the two on a loop population.

* **Phase cost split** (Section 4.2): ordering is claimed to be a small
  fraction of total scheduling time; :func:`phase_split` measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.scheduler import HRMSScheduler
from repro.engine.session import SchedulingSession
from repro.experiments.results import render_table
from repro.graph.ddg import DependenceGraph
from repro.machine.machine import MachineModel
from repro.schedule.maxlive import max_live
from repro.schedulers.base import (
    ModuloScheduler,
    downward_window,
    early_start,
    late_start,
    upward_window,
)
from repro.workloads.loops import Loop


@dataclass
class SensitivityRow:
    loop: str
    candidates: int
    min_maxlive: int
    max_maxlive: int
    min_ii: int
    max_ii: int


def hypernode_sensitivity(
    loops: list[Loop],
    machine: MachineModel,
    max_candidates: int = 8,
) -> list[SensitivityRow]:
    """Run HRMS from several initial hypernodes; report the spread."""
    rows = []
    for loop in loops:
        names = loop.graph.node_names()[:max_candidates]
        maxlives: list[int] = []
        iis: list[int] = []
        for name in names:
            scheduler = HRMSScheduler(initial_hypernode=name)
            schedule = scheduler.schedule(loop.graph, machine)
            maxlives.append(max_live(schedule))
            iis.append(schedule.ii)
        rows.append(
            SensitivityRow(
                loop=loop.name,
                candidates=len(names),
                min_maxlive=min(maxlives),
                max_maxlive=max(maxlives),
                min_ii=min(iis),
                max_ii=max(iis),
            )
        )
    return rows


def render_sensitivity(rows: list[SensitivityRow]) -> str:
    headers = ["Loop", "starts", "MaxLive min", "MaxLive max", "II min",
               "II max"]
    return render_table(
        headers,
        [
            [r.loop, r.candidates, r.min_maxlive, r.max_maxlive, r.min_ii,
             r.max_ii]
            for r in rows
        ],
    )


class ProgramOrderScheduler(ModuloScheduler):
    """HRMS's placement rules without its ordering (the ablated variant).

    Operations are visited in program order; each is placed as soon /
    as late as possible depending on which neighbours happen to be
    scheduled — the bidirectional placer is identical to HRMS's, so any
    difference in output is attributable to the pre-ordering phase.
    """

    name = "program-order"

    def prepare(self, session: SchedulingSession) -> list[str]:
        return session.graph.node_names()

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
            if es is not None and ls is None:
                window = upward_window(es, ii)
            elif ls is not None and es is None:
                window = downward_window(ls, ii)
            elif es is not None and ls is not None:
                if es > ls:
                    return None
                window = upward_window(es, ii, ls)
            else:
                window = upward_window(0, ii)
            cycle = mrt.scan_place(op, window)
            if cycle is None:
                return None
            start[name] = cycle
        return start


@dataclass
class PreorderingValue:
    loops: int
    hrms_maxlive: int
    ablated_maxlive: int
    hrms_optimal: int
    ablated_optimal: int

    @property
    def register_ratio(self) -> float:
        return (
            self.hrms_maxlive / self.ablated_maxlive
            if self.ablated_maxlive
            else 0.0
        )


def preordering_value(
    loops: list[Loop], machine: MachineModel
) -> PreorderingValue:
    """Compare full HRMS against the program-order ablation."""
    from repro.mii.analysis import compute_mii

    hrms = HRMSScheduler()
    ablated = ProgramOrderScheduler()
    h_live = a_live = h_opt = a_opt = 0
    for loop in loops:
        analysis = compute_mii(loop.graph, machine)
        hs = hrms.schedule(loop.graph, machine, analysis)
        try:
            as_ = ablated.schedule(loop.graph, machine, analysis)
        except Exception:
            continue
        h_live += max_live(hs)
        a_live += max_live(as_)
        h_opt += hs.ii == analysis.mii
        a_opt += as_.ii == analysis.mii
    return PreorderingValue(
        loops=len(loops),
        hrms_maxlive=h_live,
        ablated_maxlive=a_live,
        hrms_optimal=h_opt,
        ablated_optimal=a_opt,
    )


@dataclass
class PhaseSplit:
    ordering_share: float
    scheduling_share: float


def phase_split(loops: list[Loop], machine: MachineModel) -> PhaseSplit:
    """Measure pre-ordering vs placement time over a loop population."""
    scheduler = HRMSScheduler()
    ordering = placing = total = 0.0
    for loop in loops:
        schedule = scheduler.schedule(loop.graph, machine)
        ordering += schedule.stats.ordering_seconds
        placing += schedule.stats.scheduling_seconds
        total += schedule.stats.total_seconds
    return PhaseSplit(
        ordering_share=ordering / total if total else 0.0,
        scheduling_share=placing / total if total else 0.0,
    )
