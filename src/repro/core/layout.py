"""Tile-based data layout (Fig 5a) and the implicit-shift addressing.

The layout places each polynomial's coefficients in distinct *rows* of
one tile (coefficient ``c`` -> row ``c``), so a butterfly aligns its two
operands simply by activating their rows — no word shifting ("costless
shift", §IV-B/E).  The top :data:`~repro.core.tiles.SCRATCH_ROW_COUNT`
rows of the subarray are the shared intermediate variables.

When the polynomial order exceeds one tile's coefficient capacity, the
polynomial occupies ``k`` adjacent tiles (coefficient ``c`` lives in
tile offset ``c // capacity`` at row ``c % capacity``) and the batch
shrinks to ``num_tiles // k``.  Accessing a spilled coefficient costs
``offset * width`` array-wide 1-bit shifts to slide it onto the base
tile's bitlines — the "additional shift overhead" the paper attributes
to large orders in Fig 8(b).  Because every polynomial group has the
same internal geometry, all groups perform these shifts in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable

from repro.core.tiles import SCRATCH_ROW_COUNT
from repro.errors import CapacityError, LayoutError, ParameterError
from repro.utils.bitops import mask


@dataclass(frozen=True)
class ScratchRows:
    """Row addresses of the six intermediate variables (Fig 5a)."""

    sum: int      # Algorithm 2 Sum register
    carry: int    # Algorithm 2 Carry register
    t0: int       # compressor temporary / negated-operand scratch
    t1: int       # compressor temporary / subtraction scratch
    landing: int  # spill landing pad (T2)
    mod: int      # modulus constant, replicated per tile


@dataclass(frozen=True)
class CoeffLocation:
    """Physical position of one coefficient within a polynomial group."""

    row: int
    tile_offset: int  # 0 = base tile; >0 = spill tile (needs shifting)

    @property
    def is_spilled(self) -> bool:
        return self.tile_offset > 0


class DataLayout:
    """Maps (polynomial slot, coefficient index) -> (tile, row).

    One layout describes how a batch of equal-order polynomials shares a
    subarray.  All slots are geometrically congruent, which is what lets
    a single instruction stream drive the whole batch.
    """

    def __init__(self, rows: int, cols: int, width: int, order: int):
        if width <= 2:
            raise ParameterError(f"coefficient width must exceed 2, got {width}")
        if width > cols:
            raise ParameterError(f"width {width} exceeds the column count {cols}")
        if order <= 0:
            raise ParameterError(f"polynomial order must be positive, got {order}")
        self.rows = rows
        self.cols = cols
        self.width = width
        self.order = order
        # floor(cols / width) tiles; leftover columns stay unused, exactly
        # like the paper's floor(256/n) tile arithmetic.
        self.num_tiles = cols // width
        self.used_cols = self.num_tiles * width
        self.coeff_rows = rows - SCRATCH_ROW_COUNT
        if self.coeff_rows <= 0:
            raise CapacityError(f"{rows} rows cannot host scratch plus coefficients")
        self.tiles_per_poly = -(-order // self.coeff_rows)  # ceil
        if self.tiles_per_poly > self.num_tiles:
            raise CapacityError(
                f"{order}-point polynomial needs {self.tiles_per_poly} tiles; "
                f"subarray has {self.num_tiles} ({width}-bit each)"
            )
        self.batch = self.num_tiles // self.tiles_per_poly
        base = rows - SCRATCH_ROW_COUNT
        self.scratch = ScratchRows(
            sum=base, carry=base + 1, t0=base + 2, t1=base + 3,
            landing=base + 4, mod=base + 5,
        )
        # The compiler's instruction blocks and the instructions inside
        # them.  Block keys name rows and shift counts, never twiddle or
        # operand values, so both memos are bounded by this geometry.
        self._blocks: Dict[tuple, tuple] = {}
        self._instructions: Dict[object, object] = {}

    @property
    def uses_spill(self) -> bool:
        """True when coefficients overflow into adjacent tiles."""
        return self.tiles_per_poly > 1

    def locate(self, coeff_index: int) -> CoeffLocation:
        """Position of a coefficient within its polynomial group."""
        if not 0 <= coeff_index < self.order:
            raise LayoutError(
                f"coefficient {coeff_index} out of range [0, {self.order})"
            )
        return CoeffLocation(
            row=coeff_index % self.coeff_rows,
            tile_offset=coeff_index // self.coeff_rows,
        )

    def tile_of(self, slot: int, coeff_index: int) -> int:
        """Absolute tile index holding a coefficient of batch slot ``slot``."""
        if not 0 <= slot < self.batch:
            raise LayoutError(f"slot {slot} out of range [0, {self.batch})")
        return slot * self.tiles_per_poly + self.locate(coeff_index).tile_offset

    def base_tile_mask(self) -> int:
        """Per-tile flag mask selecting every group's base tile."""
        flags = 0
        for slot in range(self.batch):
            flags |= 1 << (slot * self.tiles_per_poly)
        return flags

    def offset_tile_mask(self, tile_offset: int) -> int:
        """Per-tile flag mask selecting tile ``tile_offset`` of each group."""
        if not 0 <= tile_offset < self.tiles_per_poly:
            raise LayoutError(
                f"tile offset {tile_offset} out of range [0, {self.tiles_per_poly})"
            )
        flags = 0
        for slot in range(self.batch):
            flags |= 1 << (slot * self.tiles_per_poly + tile_offset)
        return flags

    def block(self, key: tuple, build: Callable[[], Iterable]) -> tuple:
        """The instruction block named ``key``, built once by ``build``.

        Blocks are tuples of frozen instructions, interned per layout, so
        every program compiled on this layout streams shared copies of
        one small template set (the twiddle bits only choose which
        blocks are emitted, §IV-D).
        """
        block = self._blocks.get(key)
        if block is None:
            intern = self._instructions.setdefault
            block = self._blocks[key] = tuple(intern(i, i) for i in build())
        return block

    def word_mask(self) -> int:
        """All-ones value of one coefficient word."""
        return mask(self.width)

    def __repr__(self) -> str:
        return (
            f"DataLayout(order={self.order}, width={self.width}, "
            f"batch={self.batch}, tiles_per_poly={self.tiles_per_poly})"
        )
