"""Static pricing against its oracles.

``profile_program`` prices a program in one pass over a type-to-kind
table.  Two oracles pin it:

- the per-instruction pricer it replaced (an ``isinstance`` chain plus
  one ``ExecutionStats.charge`` per instruction), exact to the last bit
  of ``energy_pj`` for every built-in parameter set and kernel op;
- the bit-line interpreter, field for field, on random small rings.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.breakdown import technology_variant
from repro.backends.base import KERNEL_OPS
from repro.core.engine import BPNTTEngine
from repro.errors import ParameterError
from repro.ntt.params import NTTParams, get_params, list_param_names
from repro.sram.cost import CostReport
from repro.sram.energy import TECH_45NM
from repro.sram.executor import ExecutionStats, profile_program
from repro.sram.isa import (
    BinaryPair,
    CarryStep,
    Check,
    CheckCarry,
    CopyGated,
    LogicBinary,
    SetFlags,
    SetLatch,
    ShiftRow,
    Unary,
)
from repro.utils.primes import find_ntt_prime


def reference_stats(program, tech):
    """The per-instruction pricer ``profile_program`` replaced."""
    stats = ExecutionStats()
    cycle_at = []
    for instruction in program.instructions:
        if isinstance(instruction, (Check, CheckCarry, SetFlags)):
            kind = "check"
        elif isinstance(instruction, Unary):
            kind = "unary"
        elif isinstance(instruction, ShiftRow):
            kind = "shift"
            stats.shift_count += 1
        elif isinstance(instruction, LogicBinary):
            kind = "logic"
        elif isinstance(instruction, BinaryPair):
            kind = "pair"
        elif isinstance(instruction, CarryStep):
            kind = "carry_step"
        elif isinstance(instruction, SetLatch):
            kind = "set_latch"
        else:
            assert isinstance(instruction, CopyGated)
            kind = "copy_gated"
        stats.charge(kind, tech.instruction_cycles(kind), tech.instruction_energy_pj(kind))
        cycle_at.append(stats.cycles)
    for label, start, end in program.sections:
        span = (cycle_at[end - 1] if end else 0) - (cycle_at[start - 1] if start else 0)
        stats.section_cycles[label] = stats.section_cycles.get(label, 0) + span
    return stats


@pytest.mark.parametrize("name", list_param_names())
def test_every_op_prices_like_the_reference(name):
    params = get_params(name)
    engine = BPNTTEngine(params)
    operand = [(31 * i + 5) % params.q for i in range(params.n)]
    references = {}
    for op in KERNEL_OPS:
        kernel = engine.compile(op, operand if op == "polymul" else None)
        for program in kernel.programs:
            if id(program) not in references:
                references[id(program)] = reference_stats(program, engine.tech)
        expected = CostReport.from_stats(
            ExecutionStats.merge(*(references[id(p)] for p in kernel.programs)),
            engine.tech,
        )
        assert engine.profile(kernel) == expected, op


def test_kind_counts_follow_first_appearance():
    engine = BPNTTEngine(NTTParams(n=8, q=17), width=8, rows=32, cols=32)
    program = engine.compiled_program("ntt")
    expected = reference_stats(program, TECH_45NM)
    static = profile_program(program)
    assert list(static.op_counts.items()) == list(expected.op_counts.items())


TECHS = (TECH_45NM, TECH_45NM.scale_to(32.0), technology_variant(2, 3))


@st.composite
def small_rings(draw):
    n = draw(st.sampled_from((8, 16, 32, 64)))
    bits = draw(st.integers(min_value=n.bit_length() + 2, max_value=16))
    try:
        q = find_ntt_prime(bits, n)
    except ParameterError:
        assume(False)
    spill = draw(st.booleans())
    # A spill layout splits every polynomial across two tiles.
    rows = n // 2 + 6 if spill else n + 6
    return NTTParams(n=n, q=q), rows


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_rings(), st.sampled_from(("ntt", "intt", "pointwise")),
       st.sampled_from(TECHS), st.integers(min_value=0, max_value=2**32))
def test_profile_matches_execution_on_random_rings(ring, op, tech, seed):
    params, rows = ring
    engine = BPNTTEngine(params, rows=rows, cols=128, tech=tech)
    rng = random.Random(seed)
    if op == "pointwise":
        program = engine.pointwise_program(
            [rng.randrange(params.q) for _ in range(params.n)])
    else:
        program = engine.compiled_program(op)
    engine.load([[rng.randrange(params.q) for _ in range(params.n)]
                 for _ in range(engine.batch)])
    engine.subarray.reset_peripherals()
    executed = engine.executor.run(program)
    static = profile_program(program, tech)
    for field in ("cycles", "energy_pj", "instructions", "op_counts",
                  "shift_count", "section_cycles"):
        assert getattr(static, field) == getattr(executed, field), field
