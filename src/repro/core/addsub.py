"""Carry resolution, modular add/sub, and spill data movement.

These are the butterfly's non-multiplicative pieces (Algorithm 1 lines
7-8).  Additions use the sense-amp latch as the carry register: a
:class:`~repro.sram.isa.BinaryPair` performs the half-adder layer and
each :class:`~repro.sram.isa.CarryStep` ripples the latched carries one
position — ``width`` rounds complete a full addition *and* deposit the
adder carry-out in the per-tile carry-out register, which is exactly the
``>=`` predicate conditional subtraction needs.

The "implicit shift" of §IV-E is visible here as an absence: aligning
the butterfly's two coefficients costs nothing because they are rows of
the same tile — only the *carry* movement inside an addition shifts.
"""

from __future__ import annotations

from repro.core.layout import DataLayout
from repro.errors import LayoutError
from repro.sram.isa import (
    BinaryPair,
    CarryStep,
    CheckCarry,
    CopyGated,
    SetFlags,
    ShiftDirection,
    ShiftRow,
    Unary,
    UnaryOp,
)
from repro.sram.program import Program


def _ripple(row: int, rounds: int) -> tuple:
    """``rounds`` in-place :class:`CarryStep` rounds on ``row``."""
    return (CarryStep(row, row),) * rounds


def _slide(row: int, shifts: int, direction: ShiftDirection) -> tuple:
    """``shifts`` array-wide 1-bit shifts of ``row`` (spill movement)."""
    return (ShiftRow(row, row, direction, segmented=False),) * shifts


def emit_resolve(program: Program, layout: DataLayout) -> None:
    """Collapse the carry-save pair into a plain value in the Sum row.

    ``Sum += Carry << 1`` with full ripple; afterwards ``Sum`` holds the
    Montgomery product (< 2M) and ``Carry`` is free scratch.
    """
    s = layout.scratch
    program.begin_section("carry_resolve")
    program.extend(layout.block(("resolve",), lambda: (
        ShiftRow(s.carry, s.carry, ShiftDirection.LEFT),
        BinaryPair(s.sum, s.sum, s.carry),
    ) + _ripple(s.sum, layout.width - 1)))
    program.end_section()


def emit_cond_subtract(program: Program, layout: DataLayout, x_row: int) -> None:
    """Canonicalize ``row[x] in [0, 2M)`` to ``[0, M)``.

    Computes ``x - M`` into T1 via two's complement (the negated modulus
    is ``NOT M`` with the tile LSB forced — exact because M is odd) and
    keeps it wherever the subtraction did not borrow.
    """
    s = layout.scratch
    if x_row in (s.t0, s.t1):
        raise LayoutError("cond_subtract operand may not alias its temporaries")
    program.begin_section("cond_subtract")
    program.extend(layout.block(("cond_subtract", x_row), lambda: (
        Unary(UnaryOp.NOT, s.t0, s.mod, set_lsb=True),
        BinaryPair(s.t1, x_row, s.t0),
    ) + _ripple(s.t1, layout.width) + (
        CheckCarry(),
        CopyGated(x_row, s.t1),
    )))
    program.end_section()


def emit_mod_add(program: Program, layout: DataLayout, dst: int, a_row: int, b_row: int) -> None:
    """``row[dst] = (row[a] + row[b]) mod M`` for canonical operands.

    ``dst`` may alias ``a_row`` or ``b_row`` (reads happen before the
    writeback within each instruction) but not the temporaries.
    """
    s = layout.scratch
    if dst in (s.t0, s.t1):
        raise LayoutError("mod_add destination may not alias the temporaries")
    program.begin_section("mod_add")
    # a + b < 2M < 2^w: the value settles within width-1 rounds and no
    # carry leaves the tile.
    program.extend(layout.block(("mod_add", dst, a_row, b_row), lambda: (
        (BinaryPair(dst, a_row, b_row),) + _ripple(dst, layout.width - 1)
    )))
    program.end_section()
    emit_cond_subtract(program, layout, dst)


def emit_mod_sub(program: Program, layout: DataLayout, dst: int, a_row: int, b_row: int) -> None:
    """``row[dst] = (row[a] - row[b]) mod M`` for canonical operands.

    Two's-complement subtraction; the carry-out distinguishes
    ``a >= b`` (no fix-up) from a borrow (add M back, gated per tile).
    """
    s = layout.scratch
    if dst in (s.t0, s.t1):
        raise LayoutError("mod_sub destination may not alias the temporaries")
    program.begin_section("mod_sub")
    program.extend(layout.block(("mod_sub", dst, a_row, b_row), lambda: (
        Unary(UnaryOp.NOT, s.t0, b_row),
        BinaryPair(dst, a_row, s.t0, carry_in=True),
    ) + _ripple(dst, layout.width) + (
        CheckCarry(invert=True),
        BinaryPair(dst, dst, s.mod, gate_operand1=True),
    ) + _ripple(dst, layout.width - 1)))
    program.end_section()


def emit_fetch(program: Program, layout: DataLayout, dst: int, src_row: int,
               tile_offset: int) -> int:
    """Make a (possibly spilled) coefficient readable on base-tile bitlines.

    Returns the row to read the operand from: the original row when the
    coefficient is resident, else ``dst`` after copying and sliding it
    ``tile_offset * width`` columns down with array-wide shifts (the
    cross-tile merge of §IV-B).
    """
    if tile_offset == 0:
        return src_row
    program.begin_section("spill_fetch")
    program.extend(layout.block(("fetch", dst, src_row, tile_offset), lambda: (
        (Unary(UnaryOp.COPY, dst, src_row),)
        + _slide(dst, tile_offset * layout.width, ShiftDirection.RIGHT)
    )))
    program.end_section()
    return dst


def emit_store(program: Program, layout: DataLayout, value_row: int, dst_row: int,
               tile_offset: int, shuttle_row: int) -> None:
    """Write a computed value back to a coefficient location.

    Resident layouts write the row directly.  Spill layouts must never
    write a coefficient row across its full width (other tiles of that
    row hold live data), so the value is slid to the owning tile column
    range (via ``shuttle_row`` when a shift is needed) and committed with
    a per-tile gated copy.
    """
    program.begin_section("store")
    program.extend(layout.block(
        ("store", value_row, dst_row, tile_offset, shuttle_row),
        lambda: _store_block(layout, value_row, dst_row, tile_offset, shuttle_row),
    ))
    program.end_section()


def _store_block(layout: DataLayout, value_row: int, dst_row: int,
                 tile_offset: int, shuttle_row: int) -> tuple:
    if not layout.uses_spill:
        return () if value_row == dst_row else (Unary(UnaryOp.COPY, dst_row, value_row),)
    staging, source = (), value_row
    if tile_offset:
        staging = (Unary(UnaryOp.COPY, shuttle_row, value_row),) + _slide(
            shuttle_row, tile_offset * layout.width, ShiftDirection.LEFT)
        source = shuttle_row
    return staging + (SetFlags(layout.offset_tile_mask(tile_offset)),
                      CopyGated(dst_row, source))
