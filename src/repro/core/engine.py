"""BPNTTEngine — the public face of the accelerator.

Wraps a subarray + layout + compiled programs behind a polynomial-level
API: load a batch, run ``ntt()`` / ``intt()`` / ``polymul_pointwise()``,
read results, and collect a :class:`NTTRunReport` with the cycle,
latency, energy and derived Table-I metrics.

The engine also implements the :class:`repro.backends.base.Backend`
protocol (``capabilities`` / ``compile`` / ``execute`` / ``profile``),
which is how the serving pool drives it through the backend registry.

Example (a small ring so the doctest compiles in milliseconds):

    >>> from repro.core.engine import BPNTTEngine
    >>> from repro.ntt.params import NTTParams
    >>> from repro.ntt.transform import ntt_negacyclic
    >>> params = NTTParams(n=8, q=17)
    >>> engine = BPNTTEngine(params, width=8, rows=32, cols=32)
    >>> polys = [[i % params.q for i in range(params.n)]] * engine.batch
    >>> engine.load(polys)
    >>> report = engine.ntt()
    >>> engine.results() == [ntt_negacyclic(p, params) for p in polys]
    True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.backends.base import BackendCapabilities, CompiledKernel, KERNEL_OPS, price_programs
from repro.core.layout import DataLayout
from repro.core.scheduler import compile_intt, compile_ntt, compile_pointwise_mul
from repro.core.tiles import container_width
from repro.errors import ParameterError, VerificationError
from repro.ntt.params import NTTParams
from repro.ntt.twiddles import TwiddleTable
from repro.sram.cost import CostReport
from repro.sram.energy import TECH_45NM, TechnologyModel
from repro.sram.executor import ExecutionStats, Executor
from repro.sram.program import Program
from repro.sram.subarray import SRAMSubarray


@dataclass(frozen=True)
class NTTRunReport:
    """Performance report for one kernel execution (whole batch)."""

    kernel: str
    batch: int
    cycles: int
    instructions: int
    shift_count: int
    energy_nj: float
    latency_s: float
    section_cycles: dict

    @property
    def throughput_kntt_per_s(self) -> float:
        """Batch transforms per second, in KNTT/s (Table I units)."""
        return self.batch / self.latency_s / 1e3

    @property
    def energy_per_ntt_nj(self) -> float:
        """Energy divided across the batch."""
        return self.energy_nj / self.batch

    @property
    def power_w(self) -> float:
        """Average power: batch energy over batch latency."""
        return self.energy_nj * 1e-9 / self.latency_s

    def throughput_per_area(self, area_mm2: float) -> float:
        """KNTT/s per mm^2 — Table I's TA column."""
        return self.throughput_kntt_per_s / area_mm2

    @property
    def throughput_per_power(self) -> float:
        """KNTT per mJ — Table I's TP column (= batch / batch energy)."""
        return self.batch / (self.energy_nj * 1e-6) / 1e3

    @classmethod
    def from_cost(cls, kernel: str, batch: int, cost: CostReport) -> "NTTRunReport":
        """Build a run report from the shared cost report (the single
        place pj->nj and cycles->seconds are derived)."""
        return cls(
            kernel=kernel,
            batch=batch,
            cycles=cost.cycles,
            instructions=cost.instructions,
            shift_count=cost.shift_count,
            energy_nj=cost.energy_nj,
            latency_s=cost.latency_s,
            section_cycles=dict(cost.section_cycles),
        )


def run_compiled_kernel(engine, kernel: CompiledKernel,
                        payloads: Sequence[Sequence[int]]) -> List[List[int]]:
    """Load ``payloads``, dispatch one compiled kernel, read back the
    live slots — the one ``Backend.execute`` body shared by
    :class:`BPNTTEngine` and the banked engine (anything exposing
    ``load``/``ntt``/``intt``/``polymul_with_hat``/``results``)."""
    engine.load(payloads)
    if kernel.op == "ntt":
        engine.ntt()
    elif kernel.op == "intt":
        engine.intt()
    else:
        engine.polymul_with_hat(list(kernel.operand_hat))
    return engine.results()[: len(payloads)]


class BPNTTEngine:
    """One subarray configured as a batched NTT accelerator."""

    def __init__(
        self,
        params: NTTParams,
        *,
        width: Optional[int] = None,
        rows: int = 256,
        cols: int = 256,
        tech: TechnologyModel = TECH_45NM,
    ):
        if not params.negacyclic:
            raise ParameterError("the in-SRAM engine implements negacyclic rings")
        self.params = params
        self.width = width or container_width(params.q)
        if self.width > cols:
            raise ParameterError(
                f"container width {self.width} exceeds subarray columns {cols}"
            )
        self.tech = tech
        self.physical_cols = cols
        self.layout = DataLayout(rows, cols, self.width, params.n)
        # The subarray is built over the *used* columns; leftover columns
        # exist physically (and are charged in the area model) but hold
        # no tiles.
        self.subarray = SRAMSubarray(rows, self.layout.used_cols, self.width)
        self.executor = Executor(self.subarray, tech)
        self._table = TwiddleTable(params)
        self._programs = {}
        self._kernels = {}
        self._loaded = False
        self.subarray.broadcast_word(self.layout.scratch.mod, params.q)

    # -- capacity ---------------------------------------------------------

    @property
    def batch(self) -> int:
        """Polynomials processed per kernel invocation."""
        return self.layout.batch

    @property
    def twiddle_table(self) -> TwiddleTable:
        """The engine's precomputed twiddles (shared with callers that
        need host-side transforms, e.g. the serving pool)."""
        return self._table

    @property
    def area_mm2(self) -> float:
        """Silicon area of the (physical) subarray."""
        return self.tech.subarray_area_mm2(self.layout.rows, self.physical_cols)

    # -- data movement ----------------------------------------------------

    def load(self, polynomials: Sequence[Sequence[int]]) -> None:
        """Host-write a batch of polynomials into the subarray.

        Fewer than ``batch`` polynomials leaves the remaining slots
        zero-filled ("place coefficients from other polynomials in unused
        rows" is the paper's suggestion for the converse case).
        """
        if len(polynomials) > self.batch:
            raise ParameterError(
                f"{len(polynomials)} polynomials exceed the batch capacity {self.batch}"
            )
        q = self.params.q
        n = self.params.n
        for slot in range(self.batch):
            coeffs = polynomials[slot] if slot < len(polynomials) else [0] * n
            if len(coeffs) != n:
                raise ParameterError(
                    f"polynomial {slot} has {len(coeffs)} coefficients, expected {n}"
                )
            for index, coeff in enumerate(coeffs):
                loc = self.layout.locate(index)
                tile = self.layout.tile_of(slot, index)
                self.subarray.write_word(loc.row, tile, coeff % q)
        self._loaded = True

    def results(self) -> List[List[int]]:
        """Read every slot's polynomial back out of the subarray."""
        out = []
        for slot in range(self.batch):
            coeffs = []
            for index in range(self.params.n):
                loc = self.layout.locate(index)
                tile = self.layout.tile_of(slot, index)
                coeffs.append(self.subarray.read_word(loc.row, tile))
            out.append(coeffs)
        return out

    # -- kernels -----------------------------------------------------------

    def compiled_program(self, kernel: str) -> Program:
        """The cached instruction stream for ``"ntt"`` or ``"intt"``.

        Compilation happens once per engine; the CTRL/CMD subarray
        stores one program per kernel regardless of how many batches it
        serves (the serving pool leans on this for program reuse).
        """
        if kernel not in self._programs:
            if kernel == "ntt":
                self._programs[kernel] = compile_ntt(self.layout, self.params, self._table)
            elif kernel == "intt":
                self._programs[kernel] = compile_intt(self.layout, self.params, self._table)
            else:
                raise ParameterError(f"unknown kernel {kernel!r}")
        return self._programs[kernel]

    def pointwise_program(self, other_hat: Sequence[int]) -> Program:
        """Cached pointwise-multiply program for one multiplier polynomial.

        The multiplier's (NTT-domain) coefficients are baked into the
        instruction stream as compile-time constants, so the cache is
        keyed by the canonical coefficient tuple.  Server-side traffic
        multiplies many batches by the same fixed polynomial (a public
        key, a plaintext operand), making recompilation the hot path
        this cache removes.
        """
        q = self.params.q
        key = ("pointwise", tuple(c % q for c in other_hat))
        if key not in self._programs:
            self._programs[key] = compile_pointwise_mul(
                self.layout, self.params, [c % q for c in other_hat]
            )
        return self._programs[key]

    def _execute(self, program: Program) -> ExecutionStats:
        if not self._loaded:
            raise ParameterError("no data loaded; call load() first")
        self.subarray.reset_peripherals()
        return self.executor.run(program)

    def _run(self, program: Program, kernel: str) -> NTTRunReport:
        return self._report(kernel, self._execute(program))

    def _report(self, kernel: str, stats: ExecutionStats) -> NTTRunReport:
        return NTTRunReport.from_cost(
            kernel, self.batch, CostReport.from_stats(stats, self.tech)
        )

    def ntt(self) -> NTTRunReport:
        """Run the forward NTT over the loaded batch (in place)."""
        return self._run(self.compiled_program("ntt"), "ntt")

    def intt(self) -> NTTRunReport:
        """Run the inverse NTT over the loaded batch (in place)."""
        return self._run(self.compiled_program("intt"), "intt")

    def pointwise_multiply(self, other_hat: Sequence[int]) -> NTTRunReport:
        """Multiply the (NTT-domain) batch pointwise by a fixed polynomial."""
        return self._run(self.pointwise_program(other_hat), "pointwise")

    def polymul_with_hat(self, other_hat: Sequence[int]) -> NTTRunReport:
        """As :meth:`polymul_with`, with the multiplier already in NTT
        domain (lets callers transform it once for many engines)."""
        stats = ExecutionStats.merge(
            self._execute(self.compiled_program("ntt")),
            self._execute(self.pointwise_program(other_hat)),
            self._execute(self.compiled_program("intt")),
        )
        return self._report("polymul", stats)

    def polymul_with(self, other: Sequence[int]) -> NTTRunReport:
        """Full negacyclic product of every slot with a fixed polynomial.

        Runs forward NTT, pointwise multiply by ``NTT(other)`` and the
        inverse NTT; returns a merged report.
        """
        from repro.ntt.transform import ntt_negacyclic

        return self.polymul_with_hat(
            ntt_negacyclic(list(other), self.params, self._table)
        )

    # -- the execution-backend protocol -------------------------------------
    #
    # One subarray *is* the reference "sram" backend: the registry's
    # factory (repro.backends.sram) hands instances of this class (or
    # BankedEngine) straight to the serving pool.

    backend_name = "sram"

    def capabilities(self) -> BackendCapabilities:
        """Backend-protocol facts: exact interpreter, one lane per instance."""
        return BackendCapabilities(
            name=self.backend_name,
            description="bitline-accurate subarray interpreter (exact, slow)",
            batch=self.batch,
            stateful=True,
        )

    def compile(self, op: str, operand: Optional[Sequence[int]] = None) -> CompiledKernel:
        """The cached backend handle for one ``(op, operand)`` kernel.

        For ``polymul`` the operand is forward-transformed once here and
        its NTT baked into the handle, so every later batch skips the
        host transform and reuses the compiled pointwise program.
        """
        q = self.params.q
        canonical = None if operand is None else tuple(c % q for c in operand)
        cache_key = (op, canonical)
        if cache_key in self._kernels:
            return self._kernels[cache_key]
        if op in ("ntt", "intt"):
            if operand is not None:
                raise ParameterError(f"{op} kernels take no second operand")
            kernel = CompiledKernel(
                op=op, operand=None, operand_hat=None,
                programs=(self.compiled_program(op),),
            )
        elif op == "polymul":
            if canonical is None:
                raise ParameterError("polymul kernels need a second operand")
            from repro.ntt.transform import ntt_negacyclic

            hat = tuple(ntt_negacyclic(list(canonical), self.params, self._table))
            kernel = CompiledKernel(
                op=op, operand=canonical, operand_hat=hat,
                programs=(
                    self.compiled_program("ntt"),
                    self.pointwise_program(list(hat)),
                    self.compiled_program("intt"),
                ),
            )
        else:
            raise ParameterError(f"unknown op {op!r}; expected one of {KERNEL_OPS}")
        self._kernels[cache_key] = kernel
        return kernel

    def execute(self, kernel: CompiledKernel,
                payloads: Sequence[Sequence[int]]) -> List[List[int]]:
        """Load ``payloads``, interpret the kernel, read back the live slots."""
        return run_compiled_kernel(self, kernel, payloads)

    def profile(self, kernel: CompiledKernel) -> CostReport:
        """Static price of one invocation (identical to executing it)."""
        return price_programs(kernel.programs, self.tech)

    # -- verification -------------------------------------------------------

    def verify_against_gold(self, inputs: Sequence[Sequence[int]]) -> None:
        """Assert the subarray contents equal ``NTT(inputs)`` (gold model).

        Intended for tests and examples: call after :meth:`ntt` with the
        polynomials originally loaded.
        """
        from repro.ntt.transform import ntt_negacyclic

        measured = self.results()
        for slot, coeffs in enumerate(inputs):
            expected = ntt_negacyclic(list(coeffs), self.params, self._table)
            if measured[slot] != expected:
                raise VerificationError(
                    f"slot {slot} disagrees with the gold model "
                    f"(first mismatch at index "
                    f"{next(i for i, (a, b) in enumerate(zip(measured[slot], expected)) if a != b)})"
                )

    def __repr__(self) -> str:
        return (
            f"BPNTTEngine({self.params!r}, width={self.width}, "
            f"batch={self.batch}, spill={self.layout.uses_spill})"
        )
