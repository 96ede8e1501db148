"""The machine model.

A machine is a set of functional-unit classes.  Each class has a number of
identical unit instances and is either fully pipelined (a new operation can
start every cycle on each unit) or unpipelined (a unit is busy for the full
latency of the operation it executes — the paper's Div/Sqrt units).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError, UnknownResourceError
from repro.graph.ops import GENERIC, Operation


@dataclass(frozen=True)
class UnitClass:
    """A class of identical functional units."""

    name: str
    count: int
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise MachineError(
                f"unit class {self.name!r}: count must be >= 1, "
                f"got {self.count}"
            )


class MachineModel:
    """An execution target described by its functional-unit classes.

    A machine either declares the single :data:`~repro.graph.ops.GENERIC`
    class (every operation runs on any unit) or one class per opclass used
    by the graphs it schedules.
    """

    def __init__(self, name: str, units: list[UnitClass]) -> None:
        if not units:
            raise MachineError("a machine needs at least one unit class")
        self.name = name
        self._classes: dict[str, UnitClass] = {}
        for unit in units:
            if unit.name in self._classes:
                raise MachineError(f"duplicate unit class {unit.name!r}")
            self._classes[unit.name] = unit
        self._generic = set(self._classes) == {GENERIC}

    # ------------------------------------------------------------------
    @property
    def is_generic(self) -> bool:
        """``True`` when all operations share one general-purpose class."""
        return self._generic

    def unit_classes(self) -> list[UnitClass]:
        """All unit classes, declaration order."""
        return list(self._classes.values())

    def class_for(self, op: Operation) -> UnitClass:
        """The unit class that executes *op*."""
        if self._generic:
            return self._classes[GENERIC]
        try:
            return self._classes[op.opclass]
        except KeyError:
            raise UnknownResourceError(op.opclass) from None

    def reservation_cycles(self, op: Operation) -> int:
        """How many consecutive cycles *op* holds a unit instance."""
        unit = self.class_for(op)
        return 1 if unit.pipelined else op.latency

    def total_units(self) -> int:
        """Total number of unit instances across all classes."""
        return sum(unit.count for unit in self._classes.values())

    # ------------------------------------------------------------------
    # Wire format.  The scheduling service accepts machine descriptions
    # over HTTP, so machines round-trip through plain dicts the same way
    # graphs do (:mod:`repro.graph.serialization`).
    SCHEMA = 1

    def to_dict(self) -> dict:
        """Serialise the machine to a plain, JSON-ready dict."""
        return {
            "schema": self.SCHEMA,
            "name": self.name,
            "units": [
                {
                    "name": unit.name,
                    "count": unit.count,
                    "pipelined": unit.pipelined,
                }
                for unit in self._classes.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineModel":
        """Rebuild a machine serialised by :meth:`to_dict`.

        The loader is tolerant: a missing ``schema`` is treated as
        version 1 and unknown keys are ignored, so envelopes written by
        future minor revisions stay readable.  A *newer* declared schema
        is rejected — the fields it adds could change meaning.
        """
        if not isinstance(data, dict):
            raise MachineError(
                f"machine description must be a dict, got {type(data).__name__}"
            )
        schema = data.get("schema", cls.SCHEMA)
        if not isinstance(schema, int) or not 1 <= schema <= cls.SCHEMA:
            raise MachineError(f"unsupported machine schema {schema!r}")
        units = data.get("units")
        if not units:
            raise MachineError("machine description declares no unit classes")
        try:
            unit_classes = [
                UnitClass(
                    name=str(unit["name"]),
                    count=int(unit.get("count", 1)),
                    pipelined=bool(unit.get("pipelined", True)),
                )
                for unit in units
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise MachineError(f"bad unit class description: {exc}") from exc
        return cls(name=str(data.get("name", "machine")), units=unit_classes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{u.name}x{u.count}{'' if u.pipelined else ' (unpipelined)'}"
            for u in self._classes.values()
        )
        return f"MachineModel({self.name!r}: {parts})"
