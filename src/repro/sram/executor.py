"""Program execution with cycle and energy accounting.

The :class:`Executor` interprets Fig 4d instruction streams against an
:class:`~repro.sram.subarray.SRAMSubarray`, updating storage and
peripheral state exactly as the hardware would, while charging each
instruction's cycles and energy from the technology model.

Semantics worth calling out (each mirrors a paper mechanism):

- **Operand gating** (``gate_operand1``): operand 1 is ANDed with the
  expanded per-tile predicate flags — the ``m = M or 0`` selection of
  Algorithm 2 line 11 vectored across tiles.
- **Segmented shifts**: `ShiftRow(segmented=True)` and the `CarryStep`
  latch shift zero-fill at tile boundaries.  Algorithm 2's two
  observations guarantee the discarded bit is 0, which is precisely why
  the whole computation fits in ``n`` columns per tile.
- **Carry-out capture**: bits leaving a tile's MSB during `CarryStep`
  are ORed into the per-tile carry-out register; `CheckCarry` turns them
  into predicate flags (>= comparison for conditional subtraction).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ExecutionError
from repro.sram.energy import TECH_45NM, TechnologyModel
from repro.sram.isa import (
    BinaryOp,
    BinaryPair,
    CarryStep,
    Check,
    CheckCarry,
    CopyGated,
    LogicBinary,
    SetFlags,
    SetLatch,
    ShiftDirection,
    ShiftRow,
    Unary,
    UnaryOp,
)
from repro.sram.program import Program
from repro.sram.subarray import SRAMSubarray


#: Technology-model class of every instruction type: the one table that
#: static pricing, section attribution and the program verifier share.
INSTRUCTION_KINDS: Dict[type, str] = {
    Check: "check",
    CheckCarry: "check",
    SetFlags: "check",
    Unary: "unary",
    ShiftRow: "shift",
    LogicBinary: "logic",
    BinaryPair: "pair",
    CarryStep: "carry_step",
    SetLatch: "set_latch",
    CopyGated: "copy_gated",
}


@dataclass
class ExecutionStats:
    """Aggregate counters from one or more program runs."""

    cycles: int = 0
    energy_pj: float = 0.0
    instructions: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    shift_count: int = 0
    section_cycles: Dict[str, int] = field(default_factory=dict)

    def charge(self, kind: str, cycles: int, energy_pj: float) -> None:
        """Record one executed instruction."""
        self.cycles += cycles
        self.energy_pj += energy_pj
        self.instructions += 1
        self.op_counts[kind] = self.op_counts.get(kind, 0) + 1

    def accumulate(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one."""
        self.cycles += other.cycles
        self.energy_pj += other.energy_pj
        self.instructions += other.instructions
        self.shift_count += other.shift_count
        for k, v in other.op_counts.items():
            self.op_counts[k] = self.op_counts.get(k, 0) + v
        for k, v in other.section_cycles.items():
            self.section_cycles[k] = self.section_cycles.get(k, 0) + v

    @classmethod
    def merge(cls, *stats: "ExecutionStats") -> "ExecutionStats":
        """A new stats object combining several runs (e.g. NTT->mul->INTT)."""
        merged = cls()
        for s in stats:
            merged.accumulate(s)
        return merged

    @property
    def energy_nj(self) -> float:
        """Total energy in nanojoules."""
        return self.energy_pj / 1000.0

    def latency_s(self, tech: TechnologyModel) -> float:
        """Wall-clock time of the recorded cycles at a node's frequency."""
        return tech.cycles_to_seconds(self.cycles)

    def __repr__(self) -> str:
        return (
            f"ExecutionStats(cycles={self.cycles}, "
            f"energy={self.energy_nj:.2f}nJ, instructions={self.instructions})"
        )


class Executor:
    """Interprets programs on a subarray, charging the technology model."""

    def __init__(self, subarray: SRAMSubarray, tech: TechnologyModel = TECH_45NM):
        self.subarray = subarray
        self.tech = tech
        self.stats = ExecutionStats()

    def _charge(self, kind: str) -> None:
        self.stats.charge(
            kind,
            self.tech.instruction_cycles(kind),
            self.tech.instruction_energy_pj(kind),
        )

    def run(self, program: Program) -> ExecutionStats:
        """Execute every instruction; returns stats for *this run only*."""
        before = self.stats.cycles
        run_stats = ExecutionStats()
        # Temporarily swap in a fresh stats object so per-run numbers are
        # isolated, then merge into the lifetime counters.
        lifetime = self.stats
        self.stats = run_stats
        try:
            for instruction in program.instructions:
                self.execute(instruction)
        finally:
            self.stats = lifetime
        # Section cycles follow from the cycle table alone, so they are
        # the static profile's (one attribution rule for both paths).
        run_stats.section_cycles = profile_program(program, self.tech).section_cycles
        self.stats.accumulate(run_stats)
        assert self.stats.cycles >= before
        return run_stats

    def execute(self, instruction) -> None:
        """Execute a single instruction (dispatch by type)."""
        sub = self.subarray
        storage = sub.storage
        logic = sub.logic

        if isinstance(instruction, Check):
            value = storage.read_row(instruction.row)
            flags = sub.extract_tile_bits(value, instruction.bit_index)
            if instruction.invert:
                flags = (~flags) & ((1 << sub.num_tiles) - 1)
            sub.flags = flags
            self._charge("check")

        elif isinstance(instruction, CheckCarry):
            flags = sub.carry_out
            if instruction.invert:
                flags = (~flags) & ((1 << sub.num_tiles) - 1)
            sub.flags = flags
            sub.carry_out = 0
            self._charge("check")

        elif isinstance(instruction, SetFlags):
            sub.flags = instruction.mask & ((1 << sub.num_tiles) - 1)
            self._charge("check")

        elif isinstance(instruction, Unary):
            if instruction.op is UnaryOp.ZERO:
                out = 0
            elif instruction.op is UnaryOp.COPY:
                out = storage.read_row(instruction.src)
            elif instruction.op is UnaryOp.NOT:
                value = storage.read_row(instruction.src)
                out = (~value) & ((1 << sub.cols) - 1)
            else:  # pragma: no cover - enum is exhaustive
                raise ExecutionError(f"unknown unary op {instruction.op}")
            if instruction.set_lsb:
                out |= _lsb_columns(sub)
            storage.write_row(instruction.dst, out)
            self._charge("unary")

        elif isinstance(instruction, ShiftRow):
            value = storage.read_row(instruction.src)
            segment = sub.tile_width if instruction.segmented else 0
            result = logic.shift_segmented(
                value, instruction.direction is ShiftDirection.LEFT, segment
            )
            storage.write_row(instruction.dst, result.value)
            self.stats.shift_count += 1
            self._charge("shift")

        elif isinstance(instruction, LogicBinary):
            a = storage.read_row(instruction.src0)
            b = storage.read_row(instruction.src1)
            if instruction.gate_operand1:
                b &= sub.expand_flags(sub.flags)
            op = instruction.op
            if op is BinaryOp.AND:
                out = logic.logic_and(a, b)
            elif op is BinaryOp.OR:
                out = logic.logic_or(a, b)
            elif op is BinaryOp.XOR:
                out = logic.logic_xor(a, b)
            elif op is BinaryOp.NOR:
                out = logic.logic_nor(a, b)
            else:  # pragma: no cover - enum is exhaustive
                raise ExecutionError(f"unknown binary op {op}")
            storage.write_row(instruction.dst, out)
            self._charge("logic")

        elif isinstance(instruction, BinaryPair):
            a = storage.read_row(instruction.src0)
            b = storage.read_row(instruction.src1)
            if instruction.gate_operand1:
                b &= sub.expand_flags(sub.flags)
            xor_out = logic.logic_xor(a, b)
            and_out = logic.logic_and(a, b)
            if instruction.carry_in:
                # Bit 0 of every tile becomes a full-adder position with
                # carry-in 1: sum LSB flips, latch LSB takes OR polarity.
                lsb = _lsb_columns(sub)
                xor_out ^= lsb
                and_out = (and_out & ~lsb) | (logic.logic_or(a, b) & lsb)
            storage.write_row(instruction.dst_xor, xor_out)
            sub.latch = and_out
            sub.carry_out = 0
            self._charge("pair")

        elif isinstance(instruction, CarryStep):
            shifted = logic.shift_segmented(sub.latch, True, sub.tile_width)
            sub.carry_out |= shifted.out_bits
            row = storage.read_row(instruction.src)
            storage.write_row(instruction.dst, logic.logic_xor(row, shifted.value))
            sub.latch = logic.logic_and(row, shifted.value)
            self._charge("carry_step")

        elif isinstance(instruction, SetLatch):
            sub.latch = 0 if instruction.row is None else storage.read_row(instruction.row)
            self._charge("set_latch")

        elif isinstance(instruction, CopyGated):
            gate = sub.expand_flags(sub.flags)
            current = storage.read_row(instruction.dst)
            incoming = storage.read_row(instruction.src)
            storage.write_row(instruction.dst, (current & ~gate) | (incoming & gate))
            self._charge("copy_gated")

        else:
            raise ExecutionError(f"unknown instruction {instruction!r}")


def profile_program(program: Program, tech: TechnologyModel = TECH_45NM) -> ExecutionStats:
    """Cost a program *without* executing it.

    Cycles and energy are charged per instruction class from fixed
    tables, so they are a pure function of the instruction mix — the
    stats returned here are identical to what :meth:`Executor.run` would
    report for the same program on any data (asserted in the tests).
    The serving simulator uses this to price a kernel invocation once
    per compiled program instead of interpreting millions of bitline
    operations per batch.

    Energy is summed one instruction at a time in program order, exactly
    as the interpreter charges it, so the float total is bit-identical
    (a count-times-unit product or a compensated sum would not be).
    """
    instructions = program.instructions
    type_counts = Counter(map(type, instructions))  # first-appearance order
    op_counts: Dict[str, int] = {}
    unit = {}
    for cls, count in type_counts.items():
        if cls not in INSTRUCTION_KINDS:
            # The interpreter's error, naming the first such instruction.
            _instruction_kind(next(i for i in instructions if type(i) is cls))
        kind = INSTRUCTION_KINDS[cls]
        op_counts[kind] = op_counts.get(kind, 0) + count
        unit[cls] = (tech.instruction_cycles(kind), tech.instruction_energy_pj(kind))
    cycles = 0
    energy = 0.0
    cycle_at = []
    append = cycle_at.append
    for instruction in instructions:
        unit_cycles, unit_energy = unit[type(instruction)]
        cycles += unit_cycles
        energy += unit_energy
        append(cycles)
    stats = ExecutionStats(
        cycles=cycles, energy_pj=energy, instructions=len(instructions),
        op_counts=op_counts, shift_count=type_counts[ShiftRow],
    )
    _attribute_sections(program, cycle_at, stats.section_cycles)
    return stats


def _attribute_sections(program: Program, cycle_at, section_cycles: Dict[str, int]) -> None:
    """Fold each section's cycle span into ``section_cycles`` in place.

    ``cycle_at[i]`` is the cumulative cycle count after instruction
    ``i`` — the one attribution rule shared by execution and static
    profiling, which is what keeps the two paths cycle-identical.
    """
    for label, start, end in program.sections:
        if end > len(cycle_at):
            raise ExecutionError(f"section {label!r} exceeds program length")
        start_cycles = cycle_at[start - 1] if start else 0
        end_cycles = cycle_at[end - 1] if end else 0
        section_cycles[label] = section_cycles.get(label, 0) + (
            end_cycles - start_cycles
        )


def _lsb_columns(sub: SRAMSubarray) -> int:
    """Mask with a 1 in the LSB column of every tile."""
    mask_bits = 0
    for tile in range(sub.num_tiles):
        mask_bits |= 1 << (tile * sub.tile_width)
    return mask_bits


def _instruction_kind(instruction) -> str:
    """Map an instruction to its technology-model class name."""
    try:
        return INSTRUCTION_KINDS[type(instruction)]
    except KeyError:
        raise ExecutionError(f"unknown instruction {instruction!r}") from None
