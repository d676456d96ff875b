"""Compile Algorithm 2 into Fig 4d instruction streams.

The twiddle factor ``A`` never touches the data array: its bits decide
*at compile time* which iterations emit the conditional-add block
("twiddle factor A is hidden in the control commands", §IV-D).  Only
``B`` (a coefficient row), ``Sum``, ``Carry``, two temporaries and the
modulus row participate at runtime — the six intermediate rows of
Fig 5(a).

Register choreography per iteration (scratch rows S=Sum, C=Carry,
T0/T1 temporaries, MOD modulus):

conditional add (twiddle bit set) — ``P += B``::

    T1 = S AND B          # c1
    T0 = S XOR B          # s1
    C  = C << 1           # Observation 1: tile MSB is 0
    S  = C XOR T0         # new Sum
    T0 = C AND T0         # c2
    C  = T1 OR T0         # new Carry (c1, c2 provably disjoint)

reduction — ``P = (P + m) >> 1`` with ``m = M or 0`` selected per tile
by the predicate latch::

    Check S[0]            # per-tile LSB -> predicate flags
    T1 = S AND M?         # c1   (M gated by flags)
    T0 = S XOR M?         # s1
    T0 = T0 >> 1          # Observation 2: tile LSB is 0
    S  = T0 XOR T1        # s2 parked in Sum (old Sum fully consumed)
    T0 = T0 AND T1        # c2
    T1 = C AND S          # c3
    S  = C XOR S          # new Sum
    C  = T0 OR T1         # new Carry

After ``width`` iterations the product sits in carry-save form
``(Sum, Carry)``; :func:`repro.core.addsub.emit_resolve` collapses it.
"""

from __future__ import annotations

from repro.core.layout import DataLayout
from repro.errors import ParameterError
from repro.sram.isa import (
    BinaryOp,
    Check,
    LogicBinary,
    ShiftDirection,
    ShiftRow,
    Unary,
    UnaryOp,
)
from repro.sram.program import Program


def emit_modmul(program: Program, layout: DataLayout, twiddle: int, b_row: int) -> None:
    """Emit ``(Sum, Carry) = twiddle * row[b_row] * R^-1 mod M`` (carry-save).

    ``twiddle`` is the Montgomery-scaled multiplier (``zeta * R mod M``);
    its bits are burned into the instruction stream by choosing, per
    iteration, the reduction block alone or the add block followed by
    it.  Both blocks are built once per layout (and ``b_row``).
    """
    if not 0 <= twiddle < (1 << layout.width):
        raise ParameterError(
            f"twiddle {twiddle} does not fit the {layout.width}-bit container"
        )
    s = layout.scratch
    prologue = layout.block(("modmul_prologue",), lambda: (
        Unary(UnaryOp.ZERO, s.sum),
        Unary(UnaryOp.ZERO, s.carry),
    ))
    reduce = layout.block(("modmul_reduce",), lambda: (
        Check(s.sum, bit_index=0),
        LogicBinary(BinaryOp.AND, s.t1, s.sum, s.mod, gate_operand1=True),
        LogicBinary(BinaryOp.XOR, s.t0, s.sum, s.mod, gate_operand1=True),
        ShiftRow(s.t0, s.t0, ShiftDirection.RIGHT),
        LogicBinary(BinaryOp.XOR, s.sum, s.t0, s.t1),
        LogicBinary(BinaryOp.AND, s.t0, s.t0, s.t1),
        LogicBinary(BinaryOp.AND, s.t1, s.carry, s.sum),
        LogicBinary(BinaryOp.XOR, s.sum, s.carry, s.sum),
        LogicBinary(BinaryOp.OR, s.carry, s.t0, s.t1),
    ))
    add_reduce = layout.block(("modmul_add", b_row), lambda: (
        LogicBinary(BinaryOp.AND, s.t1, s.sum, b_row),
        LogicBinary(BinaryOp.XOR, s.t0, s.sum, b_row),
        ShiftRow(s.carry, s.carry, ShiftDirection.LEFT),
        LogicBinary(BinaryOp.XOR, s.sum, s.carry, s.t0),
        LogicBinary(BinaryOp.AND, s.t0, s.carry, s.t0),
        LogicBinary(BinaryOp.OR, s.carry, s.t1, s.t0),
    ) + reduce)
    program.begin_section("modmul")
    program.extend(prologue)
    for i in range(layout.width):
        program.extend(add_reduce if (twiddle >> i) & 1 else reduce)
    program.end_section()


def modmul_instruction_count(width: int, twiddle: int) -> int:
    """Closed-form instruction count of :func:`emit_modmul`.

    Used by the analytical sweeps to predict cycle counts without
    compiling: 2 prologue ops, 9 reduction ops per iteration, 6 extra
    per set twiddle bit.
    """
    set_bits = bin(twiddle & ((1 << width) - 1)).count("1")
    return 2 + 9 * width + 6 * set_bits
