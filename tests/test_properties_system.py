"""Property-based tests at the system level: MPI collective semantics,
interpreter-vs-oracle differential execution, and timing invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa import Interpreter, assemble
from repro.isa.trace import TraceBuilder
from repro.smpi import Comm, run_mpi
from repro.soc import ROCKET1, System
from repro.core.inorder import InOrderConfig, InOrderCore
from repro.mem.hierarchy import HierarchyConfig, TilePort, Uncore

FAST = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------ collectives

@given(
    nranks=st.integers(1, 4),
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4,
                    max_size=4),
)
@FAST
def test_allreduce_equals_sum(nranks, values):
    def program(comm: Comm):
        return (yield from comm.allreduce(values[comm.rank]))

    results = run_mpi(System(ROCKET1), nranks, program)
    expected = sum(values[:nranks])
    for r in results:
        assert r.value == pytest.approx(expected, rel=1e-12, abs=1e-9)


@given(nranks=st.integers(2, 4))
@FAST
def test_alltoall_is_transpose(nranks):
    def program(comm: Comm):
        vals = [(comm.rank, j) for j in range(comm.size)]
        return (yield from comm.alltoall(vals))

    results = run_mpi(System(ROCKET1), nranks, program)
    for j, r in enumerate(results):
        assert r.value == [(i, j) for i in range(nranks)]


@given(nranks=st.integers(1, 4),
       sizes=st.lists(st.integers(0, 2000), min_size=4, max_size=4))
@FAST
def test_allgather_preserves_payloads(nranks, sizes):
    def program(comm: Comm):
        data = np.full(sizes[comm.rank], float(comm.rank))
        return (yield from comm.allgather(data))

    results = run_mpi(System(ROCKET1), nranks, program)
    for r in results:
        assert len(r.value) == nranks
        for i, arr in enumerate(r.value):
            assert len(arr) == sizes[i]
            assert np.all(arr == i)


@given(nranks=st.integers(1, 4), n=st.integers(1, 500))
@FAST
def test_rank_clocks_never_negative_and_instructions_counted(nranks, n):
    b = TraceBuilder()
    for i in range(n):
        b.alu(5 + i % 8, 20, 21)
    t = b.build()

    def program(comm: Comm):
        yield from comm.compute(t)
        yield from comm.barrier()
        return None

    results = run_mpi(System(ROCKET1), nranks, program)
    for r in results:
        assert r.cycles >= 0
        assert r.instructions == n
        assert r.compute_cycles >= 0 and r.comm_cycles >= 0


# ------------------------------------------- interpreter differential

_OPS = ["add", "sub", "and", "or", "xor", "sll", "srl", "mul"]


@given(
    prog=st.lists(
        st.tuples(
            st.sampled_from(_OPS),
            st.integers(1, 7),   # rd in a small window
            st.integers(1, 7),
            st.integers(1, 7),
        ),
        min_size=1, max_size=40,
    ),
    init=st.lists(st.integers(-100, 100), min_size=7, max_size=7),
)
@FAST
def test_interpreter_matches_python_oracle(prog, init):
    """Random straight-line integer programs: the RV64 interpreter must
    agree with a direct Python evaluation with 64-bit wrapping."""
    mask = (1 << 64) - 1
    lines = [f"li x{i + 1}, {v}" for i, v in enumerate(init)]
    regs = [0] * 8
    for i, v in enumerate(init):
        regs[i + 1] = v & mask
    for op, rd, rs1, rs2 in prog:
        lines.append(f"{op} x{rd}, x{rs1}, x{rs2}")
        a, b = regs[rs1], regs[rs2]
        if op == "add":
            r = a + b
        elif op == "sub":
            r = a - b
        elif op == "and":
            r = a & b
        elif op == "or":
            r = a | b
        elif op == "xor":
            r = a ^ b
        elif op == "sll":
            r = a << (b & 63)
        elif op == "srl":
            r = a >> (b & 63)
        else:  # mul
            r = a * b
        regs[rd] = r & mask
    interp = Interpreter(assemble("\n".join(lines)))
    interp.run()
    for i in range(1, 8):
        got = interp.regs[i]
        assert got == regs[i], f"x{i}: {got:#x} != {regs[i]:#x}"


# ------------------------------------------------------------ core timing

@given(
    ops=st.lists(st.sampled_from(["alu", "load", "store"]), min_size=1,
                 max_size=300),
    width=st.integers(1, 2),
)
@FAST
def test_inorder_cycle_lower_bound(ops, width):
    """Cycles can never beat the issue width, and every run on identical
    fresh state is deterministic."""
    b = TraceBuilder()
    for i, o in enumerate(ops):
        if o == "alu":
            b.alu(5 + i % 8, 20, 21)
        elif o == "load":
            b.load(5 + i % 8, 0x8000 + (i % 64) * 8)
        else:
            b.store(5, 0x9000 + (i % 64) * 8)
    t = b.build()
    t.pc[:] = 0x1_0000 + (np.arange(len(t), dtype=np.uint64) % 64) * 4

    def run():
        cfg = HierarchyConfig(core_ghz=1.6)
        port = TilePort(Uncore(cfg))
        core = InOrderCore(InOrderConfig(issue_width=width), port)
        return core.run(t).cycles

    c1, c2 = run(), run()
    assert c1 == c2
    assert c1 >= len(ops) / width


@given(
    ops=st.lists(st.sampled_from(["alu", "mul", "fp"]), min_size=10,
                 max_size=250),
    decode=st.integers(1, 4),
)
@FAST
def test_ooo_bandwidth_lower_bounds(ops, decode):
    """Commit can never beat decode width or issue-port throughput."""
    from repro.core.ooo import OoOConfig, OoOCore
    from repro.isa.opcodes import OpClass

    b = TraceBuilder()
    for i, o in enumerate(ops):
        if o == "alu":
            b.alu(5 + i % 8, 20, 21)
        elif o == "mul":
            b.mul(5 + i % 8, 20, 21)
        else:
            b.fp(OpClass.FP_FMA, 40 + i % 8, 50, 51)
    t = b.build()
    t.pc[:] = 0x1_0000 + (np.arange(len(t), dtype=np.uint64) % 64) * 4

    cfg = OoOConfig(fetch_width=8, decode_width=decode, rob_size=96,
                    int_iq=32, int_issue=2, mem_iq=16, fp_iq=24, fp_issue=1,
                    ldq=16, stq=16)
    hcfg = HierarchyConfig(core_ghz=1.6)
    core = OoOCore(cfg, TilePort(Uncore(hcfg)))
    r = core.run(t)
    n_fp = sum(1 for o in ops if o == "fp")
    n_int = len(ops) - n_fp
    assert r.cycles >= len(ops) / decode - 2
    assert r.cycles >= n_fp / cfg.fp_issue - 2
    assert r.cycles >= n_int / cfg.int_issue - 2


@given(rob=st.sampled_from([8, 32, 96]))
@FAST
def test_ooo_more_rob_never_slower_on_miss_stream(rob):
    """A larger ROB cannot make an independent miss stream slower."""
    from repro.core.ooo import OoOConfig, OoOCore

    b = TraceBuilder()
    for i in range(400):
        b.load(5 + i % 8, 0x800000 + i * 4096)
    t = b.build()
    t.pc[:] = 0x1_0000 + (np.arange(len(t), dtype=np.uint64) % 64) * 4

    def cycles(robsize):
        cfg = OoOConfig(fetch_width=8, decode_width=3, rob_size=robsize,
                        int_iq=32, mem_iq=16, fp_iq=24, ldq=min(robsize, 24),
                        stq=8)
        return OoOCore(cfg, TilePort(Uncore(HierarchyConfig(core_ghz=1.6)))
                       ).run(t).cycles

    assert cycles(96) <= cycles(rob) + 2
