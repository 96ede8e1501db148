"""Unit tests for the machine model and modulo reservation table."""

import random

import pytest

from repro.errors import MachineError, UnknownResourceError
from repro.graph.ops import FADD, FDIV, FMUL, GENERIC, MEM, Operation
from repro.machine.configs import (
    govindarajan_machine,
    motivating_machine,
    perfect_club_machine,
)
from repro.machine.machine import MachineModel, UnitClass
from repro.machine.mrt import ModuloReservationTable


class TestMachineModel:
    def test_generic_machine_accepts_any_opclass(self, generic4):
        op = Operation("x", opclass="weird")
        assert generic4.class_for(op).name == GENERIC

    def test_typed_machine_rejects_unknown_class(self, gov_machine):
        with pytest.raises(UnknownResourceError):
            gov_machine.class_for(Operation("x", opclass="vector"))

    def test_unit_count_validation(self):
        with pytest.raises(MachineError):
            UnitClass("fadd", 0)

    def test_duplicate_class_rejected(self):
        with pytest.raises(MachineError):
            MachineModel("m", [UnitClass("a", 1), UnitClass("a", 2)])

    def test_empty_machine_rejected(self):
        with pytest.raises(MachineError):
            MachineModel("m", [])

    def test_reservation_cycles(self, pc_machine):
        div = Operation("d", latency=17, opclass=FDIV)
        add = Operation("a", latency=4, opclass=FADD)
        assert pc_machine.reservation_cycles(div) == 17  # unpipelined
        assert pc_machine.reservation_cycles(add) == 1  # pipelined

    def test_total_units(self):
        assert motivating_machine().total_units() == 4
        assert govindarajan_machine().total_units() == 4
        assert perfect_club_machine().total_units() == 10


class TestMRT:
    def test_capacity_per_row(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=2)
        ops = [Operation(f"o{i}", latency=2) for i in range(5)]
        # Four ops fit in row 0 (cycles 0, 2, 4, 6), the fifth does not.
        for i, op in enumerate(ops[:4]):
            assert mrt.place(op, 2 * i)
        assert not mrt.place(ops[4], 8)
        assert mrt.place(ops[4], 9)  # row 1 is empty

    def test_unplace_frees_slot(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=1)
        ops = [Operation(f"o{i}") for i in range(5)]
        for op in ops[:4]:
            assert mrt.place(op, 0)
        assert not mrt.place(ops[4], 0)
        mrt.unplace(ops[0])
        assert mrt.place(ops[4], 0)

    def test_double_place_rejected(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=2)
        op = Operation("o")
        mrt.place(op, 0)
        with pytest.raises(MachineError):
            mrt.place(op, 1)

    def test_negative_cycles_wrap(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=3)
        op = Operation("o")
        assert mrt.place(op, -2)  # row 1
        assert mrt.occupants(GENERIC, 1) == ["o"]

    def test_unpipelined_spans_rows(self, pc_machine):
        mrt = ModuloReservationTable(pc_machine, ii=17)
        div1 = Operation("d1", latency=17, opclass=FDIV)
        div2 = Operation("d2", latency=17, opclass=FDIV)
        div3 = Operation("d3", latency=17, opclass=FDIV)
        assert mrt.place(div1, 0)  # fills unit 0 completely
        assert mrt.place(div2, 5)  # second unit
        assert not mrt.place(div3, 11)  # no third unit

    def test_unpipelined_span_longer_than_ii_rejected(self, pc_machine):
        mrt = ModuloReservationTable(pc_machine, ii=10)
        div = Operation("d", latency=17, opclass=FDIV)
        assert not mrt.fits(div, 0)

    def test_conflicting_ops(self, gov_machine):
        mrt = ModuloReservationTable(gov_machine, ii=2)
        add1 = Operation("a1", latency=1, opclass=FADD)
        add2 = Operation("a2", latency=1, opclass=FADD)
        mrt.place(add1, 0)
        assert mrt.conflicting_ops(add2, 2) == {"a1"}
        assert mrt.conflicting_ops(add2, 1) == set()

    def test_ii_must_be_positive(self, generic4):
        with pytest.raises(MachineError):
            ModuloReservationTable(generic4, ii=0)

    def test_utilisation(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=2)
        assert mrt.utilisation() == 0.0
        mrt.place(Operation("o"), 0)
        assert 0.0 < mrt.utilisation() <= 1.0


class _ReferenceMRT:
    """The seed's list-of-lists MRT — the parity oracle for the bitmask
    implementation.  Deliberately kept dumb: per-cycle, per-unit ``all``
    scans over occupant lists."""

    def __init__(self, machine, ii):
        self.machine = machine
        self.ii = ii
        self._table = {
            unit.name: [[None] * ii for _ in range(unit.count)]
            for unit in machine.unit_classes()
        }
        self._placements = {}

    def _find_unit(self, op, cycle):
        unit_class = self.machine.class_for(op)
        span = self.machine.reservation_cycles(op)
        if span > self.ii:
            return None
        row = cycle % self.ii
        for index, unit_rows in enumerate(self._table[unit_class.name]):
            if all(
                unit_rows[(row + offset) % self.ii] is None
                for offset in range(span)
            ):
                return index
        return None

    def place(self, op, cycle):
        if op.name in self._placements:
            raise MachineError(f"operation {op.name!r} is already placed")
        index = self._find_unit(op, cycle)
        if index is None:
            return False
        unit_class = self.machine.class_for(op)
        span = self.machine.reservation_cycles(op)
        row = cycle % self.ii
        unit_rows = self._table[unit_class.name][index]
        for offset in range(span):
            unit_rows[(row + offset) % self.ii] = op.name
        self._placements[op.name] = (unit_class.name, index, row, span)
        return True

    def scan_place(self, op, candidates):
        for cycle in candidates:
            if self.place(op, cycle):
                return cycle
        return None

    def unplace(self, op):
        placement = self._placements.pop(op.name, None)
        if placement is None:
            return
        class_name, index, row, span = placement
        unit_rows = self._table[class_name][index]
        for offset in range(span):
            unit_rows[(row + offset) % self.ii] = None

    def occupants(self, class_name, row):
        return [
            unit_rows[row % self.ii]
            for unit_rows in self._table[class_name]
            if unit_rows[row % self.ii] is not None
        ]

    def fits(self, op, cycle):
        return self._find_unit(op, cycle) is not None

    def conflicting_ops(self, op, cycle):
        unit_class = self.machine.class_for(op)
        span = self.machine.reservation_cycles(op)
        return {
            unit_rows[(cycle + offset) % self.ii]
            for unit_rows in self._table[unit_class.name]
            for offset in range(span)
        } - {None}

    def utilisation(self):
        slots = [
            slot
            for unit_rows in self._table.values()
            for rows in unit_rows
            for slot in rows
        ]
        return sum(slot is not None for slot in slots) / len(slots)

    def reset(self):
        self.__init__(self.machine, self.ii)


#: Mixed unit counts; the unpipelined class takes spans up to 30.
WIDE_MACHINE = MachineModel(
    "wide",
    [
        UnitClass(FADD, 2),
        UnitClass(FMUL, 1),
        UnitClass(FDIV, 2, pipelined=False),
        UnitClass(MEM, 3),
    ],
)


def _staggered(window, shift):
    """A window rotated as the staggered neighbour-directed scans pass it."""
    cycles = list(window)
    if len(cycles) < 2:
        return cycles
    shift %= len(cycles)
    return cycles[shift:] + cycles[:shift]


class TestBitmaskMRTParity:
    """The bitmask MRT behaves exactly like the seed's table."""

    def _random_op(self, rng, name):
        opclass, latency = rng.choice(
            [(FADD, 4), (FMUL, 4), (FDIV, 17), (MEM, 2), (FADD, 1)]
        )
        return Operation(name, latency=latency, opclass=opclass)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_place_unplace_parity(self, seed, pc_machine):
        rng = random.Random(seed)
        ii = rng.randint(1, 20)
        new = ModuloReservationTable(pc_machine, ii)
        ref = _ReferenceMRT(pc_machine, ii)
        live: list[Operation] = []
        for step in range(300):
            action = rng.random()
            if action < 0.55 or not live:
                op = self._random_op(rng, f"op{seed}_{step}")
                cycle = rng.randint(-10, 4 * ii)
                got, want = new.place(op, cycle), ref.place(op, cycle)
                assert got == want, (seed, step, op, cycle)
                if got:
                    live.append(op)
            elif action < 0.8:
                op = self._random_op(rng, f"scan{seed}_{step}")
                base = rng.randint(-5, 3 * ii)
                window = range(base, base + rng.randint(0, 2 * ii))
                if rng.random() < 0.5:
                    window = range(
                        window.stop - 1, window.start - 1, -1
                    )
                got, want = (
                    new.scan_place(op, window),
                    ref.scan_place(op, window),
                )
                assert got == want, (seed, step, op, window)
                if got is not None:
                    live.append(op)
            else:
                victim = live.pop(rng.randrange(len(live)))
                new.unplace(victim)
                ref.unplace(victim)
            # Occupant tables stay identical row by row.
            unit = rng.choice(pc_machine.unit_classes()).name
            row = rng.randint(0, ii - 1)
            assert new.occupants(unit, row) == ref.occupants(unit, row)

    def _wide_op(self, rng, name):
        opclass = rng.choice([FADD, FMUL, FDIV, FDIV, MEM])
        latency = rng.randint(1, 30) if opclass == FDIV else rng.randint(1, 4)
        return Operation(name, latency=latency, opclass=opclass)

    def _assert_same_state(self, rng, new, ref, machine, step):
        """Every read-only query agrees on a random probe."""
        ii = new.ii
        for unit in machine.unit_classes():
            row = rng.randint(0, ii - 1)
            assert new.occupants(unit.name, row) == ref.occupants(
                unit.name, row
            ), (step, unit.name, row)
        probe = self._wide_op(rng, f"probe{step}")
        cycle = rng.randint(-2 * ii, 3 * ii)
        assert new.fits(probe, cycle) == ref.fits(probe, cycle), (
            step, probe, cycle,
        )
        assert new.conflicting_ops(probe, cycle) == ref.conflicting_ops(
            probe, cycle
        ), (step, probe, cycle)
        assert new.utilisation() == pytest.approx(ref.utilisation()), step

    @pytest.mark.parametrize("seed", range(12))
    def test_wide_ii_long_spans_parity(self, seed):
        """II up to 200, unpipelined spans up to 30 wrapping past row
        II - 1, list candidates as the staggered scans pass them, and
        reset() followed by reuse."""
        rng = random.Random(1000 + seed)
        ii = rng.choice([rng.randint(1, 40), rng.randint(30, 200), 200])
        new = ModuloReservationTable(WIDE_MACHINE, ii)
        ref = _ReferenceMRT(WIDE_MACHINE, ii)
        live: list[Operation] = []
        for step in range(400):
            action = rng.random()
            if action < 0.3 or not live:
                op = self._wide_op(rng, f"w{seed}_{step}")
                # Rows near II - 1 make long spans wrap around.
                cycle = rng.choice(
                    [rng.randint(-3 * ii, 4 * ii), ii - 1 - rng.randint(0, 3)]
                )
                got, want = new.place(op, cycle), ref.place(op, cycle)
                assert got == want, (seed, step, op, cycle)
                if got:
                    live.append(op)
            elif action < 0.75:
                op = self._wide_op(rng, f"s{seed}_{step}")
                base = rng.randint(-2 * ii, 3 * ii)
                window = range(base, base + rng.randint(0, 2 * ii))
                shape = rng.random()
                if shape < 0.3:
                    window = range(window.stop - 1, window.start - 1, -1)
                candidates = window
                if shape > 0.6:
                    candidates = _staggered(window, rng.randint(1, ii))
                got = new.scan_place(op, candidates)
                want = ref.scan_place(op, candidates)
                assert got == want, (seed, step, op, candidates)
                if got is not None:
                    live.append(op)
            elif action < 0.97:
                victim = live.pop(rng.randrange(len(live)))
                new.unplace(victim)
                ref.unplace(victim)
            else:
                new.reset()
                ref.reset()
                live.clear()
                assert new.utilisation() == 0.0
            self._assert_same_state(rng, new, ref, WIDE_MACHINE, step)

    def test_wrapping_span_reserves_low_rows(self):
        mrt = ModuloReservationTable(WIDE_MACHINE, ii=7)
        div = Operation("d", latency=5, opclass=FDIV)
        assert mrt.place(div, 12)  # row 5: rows 5, 6, 0, 1, 2
        assert [r for r in range(7) if mrt.occupants(FDIV, r)] == [
            0, 1, 2, 5, 6,
        ]
        # The second unit takes the same rows; only rows 3-4 stay free.
        assert mrt.scan_place(Operation("e", 5, FDIV), range(5, 6)) == 5
        short = Operation("s", latency=2, opclass=FDIV)
        assert mrt.scan_place(short, [5, 6, 2, 3]) == 3
        assert mrt.conflicting_ops(short, 6) == {"d", "e"}

    def test_reset_then_reuse_matches_fresh_table(self, pc_machine):
        used = ModuloReservationTable(pc_machine, ii=9)
        for k in range(12):
            used.scan_place(Operation(f"a{k}", 17, FDIV), range(k, k + 9))
            used.scan_place(Operation(f"m{k}", 2, MEM), [k, k + 1, k - 1])
        used.reset()
        fresh = ModuloReservationTable(pc_machine, ii=9)
        assert used.utilisation() == fresh.utilisation() == 0.0
        for k in range(12):
            for table in (used, fresh):
                table.scan_place(Operation(f"b{k}", 17, FDIV), range(k, k + 9))
            assert used.occupants(FDIV, k) == fresh.occupants(FDIV, k)
        # Names placed before the reset may be placed again.
        assert used.place(Operation("a0", 2, MEM), 0)

    def test_ii_zero_and_negative_rejected(self, generic4):
        for ii in (0, -3):
            with pytest.raises(MachineError):
                ModuloReservationTable(generic4, ii=ii)

    def test_span_longer_than_ii_fast_reject(self, pc_machine):
        mrt = ModuloReservationTable(pc_machine, ii=5)
        div = Operation("d", latency=17, opclass=FDIV)  # unpipelined
        assert not mrt.fits(div, 0)
        assert not mrt.place(div, 0)
        assert mrt.scan_place(div, range(0, 100)) is None
        assert mrt.utilisation() == 0.0

    def test_scan_place_empty_window(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=4)
        assert mrt.scan_place(Operation("o"), range(3, 3)) is None

    def test_scan_place_rejects_double_placement(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=4)
        op = Operation("o")
        assert mrt.scan_place(op, range(0, 4)) == 0
        with pytest.raises(MachineError):
            mrt.scan_place(op, range(0, 4))
