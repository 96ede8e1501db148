"""Modulo reservation table (MRT).

The MRT enforces the *modulo constraint*: an operation placed at cycle ``t``
occupies its functional unit at row ``t mod II`` (and, for unpipelined
units, the following ``latency - 1`` rows as well) in **every** iteration.
All schedulers in the library share this implementation, including the
ejection-based ones, so slots track their occupant and can be vacated.

Occupancy is held twice: one Python-int row bitmask per unit (bit ``r``
set while row ``r`` is reserved — what every feasibility test reads) and
a per-slot occupant-name table (what Slack's ejection machinery and the
diagnostics read).  A scan folds the units' masks into one "every unit
blocked" mask — a plain AND for pipelined ops, O(span) shift-ors per
unit for unpipelined ones — and walks the candidates only until the
first row whose bit is clear, so its cost follows the window it stops
in, not the size of the table.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import MachineError
from repro.graph.ops import Operation
from repro.machine.machine import MachineModel
from repro.obs import trace


class ModuloReservationTable:
    """Resource tracker for one candidate initiation interval."""

    def __init__(self, machine: MachineModel, ii: int) -> None:
        if ii < 1:
            raise MachineError(f"II must be >= 1, got {ii}")
        self.machine = machine
        self.ii = ii
        self._full = (1 << ii) - 1
        # busy[class name][unit index] -> row bitmask (bit r: row r taken)
        self._busy: dict[str, list[int]] = {
            unit.name: [0] * unit.count for unit in machine.unit_classes()
        }
        # names[class name][unit index][row] -> occupant op name or None
        self._names: dict[str, list[list[str | None]]] = {
            unit.name: [[None] * ii for _ in range(unit.count)]
            for unit in machine.unit_classes()
        }
        # op name -> (class name, unit index, start row, span)
        self._placements: dict[str, tuple[str, int, int, int]] = {}
        # (opclass, latency) -> (class name, span); fixed by the machine
        self._kinds: dict[tuple[str, int], tuple[str, int]] = {}

    def reset(self) -> None:
        """Vacate every slot; equivalent to a fresh table at the same II.

        Sessions reuse one table across a scheduler's repeated attempts
        at a single II (clearing the masks and name slots in place is
        far cheaper than reallocating the per-unit name tables).
        """
        for class_name, index, row, span in self._placements.values():
            unit_names = self._names[class_name][index]
            for offset in range(span):
                unit_names[(row + offset) % self.ii] = None
        self._placements.clear()
        for units in self._busy.values():
            units[:] = [0] * len(units)

    # ------------------------------------------------------------------
    def _kind(self, op: Operation) -> tuple[str, int]:
        """``(unit class name, reservation span)`` of *op*, cached."""
        key = (op.opclass, op.latency)
        kind = self._kinds.get(key)
        if kind is None:
            kind = self._kinds[key] = (
                self.machine.class_for(op).name,
                self.machine.reservation_cycles(op),
            )
        return kind

    def _span_mask(self, row: int, span: int) -> int:
        """Rows ``row .. row + span - 1`` (mod II) as a bitmask."""
        mask = ((1 << span) - 1) << row
        return (mask | (mask >> self.ii)) & self._full

    def _blocked_starts(self, busy: int, span: int) -> int:
        """Start rows at which a *span*-cycle reservation hits *busy*."""
        if not busy:
            return busy
        # Two back-to-back copies: bit r + o of ``doubled`` is row
        # (r + o) mod II for every r < II and offset o < span <= II.
        doubled = busy | (busy << self.ii)
        blocked = busy
        for offset in range(1, span):
            blocked |= doubled >> offset
        return blocked & self._full

    def fits(self, op: Operation, cycle: int) -> bool:
        """Can *op* issue at absolute *cycle* without a resource conflict?"""
        return self._find_unit(op, cycle) is not None

    def _find_unit(self, op: Operation, cycle: int) -> int | None:
        class_name, span = self._kind(op)
        if span > self.ii:
            # An unpipelined unit cannot start a new op every II cycles if
            # one execution lasts longer than II.
            return None
        mask = self._span_mask(cycle % self.ii, span)
        for index, busy in enumerate(self._busy[class_name]):
            if not busy & mask:
                return index  # first free unit
        return None

    def place(self, op: Operation, cycle: int) -> bool:
        """Reserve a unit for *op* at *cycle*; ``False`` if none is free."""
        if op.name in self._placements:
            raise MachineError(f"operation {op.name!r} is already placed")
        index = self._find_unit(op, cycle)
        if index is None:
            return False
        class_name, span = self._kind(op)
        self._reserve(class_name, index, cycle % self.ii, span, op.name)
        return True

    def scan_place(
        self, op: Operation, candidates: Sequence[int]
    ) -> int | None:
        """Place *op* at the first candidate cycle with a free unit.

        Equivalent to trying :meth:`place` per candidate, but the units'
        blocked-start masks are built once per scan and the candidates
        are walked, in order, only until the first free row.
        """
        if op.name in self._placements:
            raise MachineError(f"operation {op.name!r} is already placed")
        class_name, span = self._kind(op)
        ii = self.ii
        if span > ii:
            return None
        blocked = self._busy[class_name]
        if span > 1:
            blocked = [self._blocked_starts(busy, span) for busy in blocked]
        taken = self._full
        for unit_blocked in blocked:
            taken &= unit_blocked
        for cycle in candidates:
            row = cycle % ii
            if not taken >> row & 1:
                for index, unit_blocked in enumerate(blocked):
                    if not unit_blocked >> row & 1:
                        break  # first free unit
                self._reserve(class_name, index, row, span, op.name)
                return cycle
        # Only failed scans are recorded: successful placements are
        # implied by the schedule itself, and scan_place is the inner
        # placement loop — eventing every call would dominate the
        # enabled-tracing overhead budget.
        if trace.ACTIVE is not None and len(candidates):
            trace.add_event(
                "mrt.scan", {"op": op.name, "candidates": len(candidates)}
            )
        return None

    def _reserve(
        self, class_name: str, index: int, row: int, span: int, name: str
    ) -> None:
        self._busy[class_name][index] |= self._span_mask(row, span)
        unit_names = self._names[class_name][index]
        for offset in range(span):
            unit_names[(row + offset) % self.ii] = name
        self._placements[name] = (class_name, index, row, span)

    def unplace(self, op: Operation) -> None:
        """Release the reservation held by *op* (no-op when absent)."""
        placement = self._placements.pop(op.name, None)
        if placement is None:
            return
        class_name, index, row, span = placement
        self._busy[class_name][index] &= ~self._span_mask(row, span)
        unit_names = self._names[class_name][index]
        for offset in range(span):
            unit_names[(row + offset) % self.ii] = None

    def is_placed(self, op: Operation) -> bool:
        return op.name in self._placements

    def occupants(self, class_name: str, row: int) -> list[str]:
        """Names occupying *class_name* units at *row* (for diagnostics)."""
        return [
            unit_names[row % self.ii]
            for unit_names in self._names[class_name]
            if unit_names[row % self.ii] is not None
        ]

    def conflicting_ops(self, op: Operation, cycle: int) -> set[str]:
        """Occupants that prevent *op* from issuing at *cycle*.

        Used by ejection-based schedulers (Slack) to decide whom to evict.
        Returns the union of occupants over the rows *op* would need; when
        the table simply has no capacity the set may cover every unit.
        """
        class_name, span = self._kind(op)
        row = cycle % self.ii
        blockers: set[str] = set()
        for unit_names in self._names[class_name]:
            for offset in range(span):
                occupant = unit_names[(row + offset) % self.ii]
                if occupant is not None:
                    blockers.add(occupant)
        return blockers

    def utilisation(self) -> float:
        """Fraction of slot-rows currently reserved (diagnostics)."""
        units = [busy for masks in self._busy.values() for busy in masks]
        total = len(units) * self.ii
        used = sum(busy.bit_count() for busy in units)
        return used / total if total else 0.0
