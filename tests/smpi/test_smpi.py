"""Tests of the simulated MPI runtime: semantics against numpy references,
timing sanity, deadlock detection."""

import numpy as np
import pytest

from repro.isa.trace import TraceBuilder
from repro.smpi import (
    Comm,
    DeadlockError,
    NetworkModel,
    SMPIRuntime,
    nbytes_of,
    run_mpi,
    shared_memory_network,
)
from repro.soc import ROCKET1, System


def small_trace(n=100):
    b = TraceBuilder()
    for i in range(n):
        b.alu(5 + i % 8, 20, 21)
    t = b.build()
    t.pc[:] = 0x1_0000 + (np.arange(n, dtype=np.uint64) % 64) * 4
    return t


def make_runtime(nranks=4, **kw):
    return SMPIRuntime(System(ROCKET1), nranks, **kw)


# ------------------------------------------------------------ semantics

@pytest.mark.parametrize("nranks", [1, 2, 3, 4])
def test_allreduce_sum_matches_numpy(nranks):
    def program(comm: Comm):
        value = np.full(16, float(comm.rank + 1))
        total = yield from comm.allreduce(value)
        return total

    results = run_mpi(System(ROCKET1), nranks, program)
    expected = sum(range(1, nranks + 1))
    for r in results:
        assert np.allclose(r.value, expected)


@pytest.mark.parametrize("nranks", [2, 3, 4])
def test_allgather_order(nranks):
    def program(comm: Comm):
        return (yield from comm.allgather(comm.rank * 10))

    for r in run_mpi(System(ROCKET1), nranks, program):
        assert r.value == [i * 10 for i in range(nranks)]


@pytest.mark.parametrize("nranks", [2, 3, 4])
def test_alltoall_permutes(nranks):
    def program(comm: Comm):
        vals = [f"{comm.rank}->{j}" for j in range(comm.size)]
        return (yield from comm.alltoall(vals))

    results = run_mpi(System(ROCKET1), nranks, program)
    for j, r in enumerate(results):
        assert r.value == [f"{i}->{j}" for i in range(nranks)]


def test_point_to_point_payload():
    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.send(1, np.arange(10.0))
            return None
        return (yield from comm.recv(0))

    results = run_mpi(System(ROCKET1), 2, program)
    assert np.allclose(results[1].value, np.arange(10.0))


def test_sendrecv_crosses_payloads():
    def program(comm: Comm):
        other = yield from comm.sendrecv(1 - comm.rank, f"from{comm.rank}")
        return other

    results = run_mpi(System(ROCKET1), 2, program)
    assert results[0].value == "from1"
    assert results[1].value == "from0"


def test_barrier_synchronises_clocks():
    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.compute(small_trace(5000))  # rank 0 is slow
        yield from comm.barrier()
        return None

    results = run_mpi(System(ROCKET1), 4, program)
    clocks = [r.cycles for r in results]
    assert max(clocks) - min(clocks) < 0.2 * max(clocks)
    assert min(clocks) > 4000  # everyone waited for rank 0


def test_tag_separation():
    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.send(1, "tagged-5", tag=5)
            yield from comm.send(1, "tagged-6", tag=6)
            return None
        b = yield from comm.recv(0, tag=6)
        a = yield from comm.recv(0, tag=5)
        return (a, b)

    results = run_mpi(System(ROCKET1), 2, program)
    assert results[1].value == ("tagged-5", "tagged-6")


# ------------------------------------------------------------ timing

def test_compute_advances_clock():
    def program(comm: Comm):
        yield from comm.compute(small_trace(2000))
        return None

    r = run_mpi(System(ROCKET1), 1, program)[0]
    assert r.instructions == 2000
    assert r.cycles >= 2000
    assert r.compute_cycles > 0


def test_large_message_costs_more():
    def cost(nbytes):
        def program(comm: Comm):
            if comm.rank == 0:
                yield from comm.send(1, np.zeros(nbytes // 8), nbytes=nbytes)
                return None
            yield from comm.recv(0)
            return None

        rs = run_mpi(System(ROCKET1), 2, program)
        return rs[1].cycles

    assert cost(1 << 20) > cost(1 << 10) + 1000


def test_rendezvous_blocks_sender():
    net = NetworkModel(alpha_cycles=100, bytes_per_cycle=8, eager_limit=64)

    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.send(1, np.zeros(4096), nbytes=32768)
            return None
        yield from comm.compute(small_trace(9000))  # receiver is late
        yield from comm.recv(0)
        return None

    rs = run_mpi(System(ROCKET1), 2, program, network=net)
    # rendezvous: the sender's clock advanced to the transfer completion
    assert rs[0].cycles >= 8000
    assert rs[0].comm_cycles > 5000


def test_eager_send_returns_quickly():
    net = NetworkModel(alpha_cycles=100, bytes_per_cycle=8, eager_limit=1 << 20)

    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.send(1, b"x" * 1000)
            return None
        yield from comm.compute(small_trace(9000))
        yield from comm.recv(0)
        return None

    rs = run_mpi(System(ROCKET1), 2, program, network=net)
    assert rs[0].cycles < 2000  # sender did not wait for the receiver


def test_comm_cycles_counted():
    def program(comm: Comm):
        if comm.rank == 1:
            yield from comm.compute(small_trace(8000))
            yield from comm.send(0, b"late")
            return None
        yield from comm.recv(1)
        return None

    rs = run_mpi(System(ROCKET1), 2, program)
    assert rs[0].comm_cycles > 5000  # rank 0 waited for rank 1


# ------------------------------------------------------------ errors

def test_deadlock_detection():
    def program(comm: Comm):
        # everyone receives, nobody sends
        yield from comm.recv((comm.rank + 1) % comm.size)

    with pytest.raises(DeadlockError):
        run_mpi(System(ROCKET1), 2, program)


def test_too_many_ranks_rejected():
    with pytest.raises(ValueError):
        make_runtime(nranks=5)
    with pytest.raises(ValueError):
        make_runtime(nranks=0)


def test_comm_validation():
    with pytest.raises(ValueError):
        Comm(4, 4)


def test_nbytes_of():
    assert nbytes_of(np.zeros(10)) == 80
    assert nbytes_of(b"abc") == 3
    assert nbytes_of(1.5) == 8
    assert nbytes_of(None) == 0
    assert nbytes_of({"a": 1}) == 64


def test_network_presets_scale_with_clock():
    slow = shared_memory_network(1.6)
    fast = shared_memory_network(3.2)
    assert fast.alpha_cycles == pytest.approx(2 * slow.alpha_cycles, rel=0.01)


def test_message_stats():
    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.send(1, np.zeros(128))
            return None
        yield from comm.recv(0)
        return None

    rs = run_mpi(System(ROCKET1), 2, program)
    assert rs[0].messages_sent == 1
    assert rs[0].bytes_sent == 1024


def test_fifo_ordering_within_tag():
    """Two sends on the same (src, dst, tag) must arrive in order."""

    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.send(1, "first", tag=9)
            yield from comm.send(1, "second", tag=9)
            return None
        a = yield from comm.recv(0, tag=9)
        b = yield from comm.recv(0, tag=9)
        return (a, b)

    rs = run_mpi(System(ROCKET1), 2, program)
    assert rs[1].value == ("first", "second")


def test_many_outstanding_eager_messages():
    def program(comm: Comm):
        if comm.rank == 0:
            for i in range(20):
                yield from comm.send(1, i, tag=i)
            return None
        got = []
        for i in reversed(range(20)):  # receive in reverse tag order
            got.append((yield from comm.recv(0, tag=i)))
        return got

    rs = run_mpi(System(ROCKET1), 2, program)
    assert rs[1].value == list(reversed(range(20)))


def test_self_messaging_not_required_for_size_one():
    def program(comm: Comm):
        total = yield from comm.allreduce(5.0)
        out = yield from comm.allgather("x")
        yield from comm.barrier()
        return (total, out)

    r = run_mpi(System(ROCKET1), 1, program)[0]
    assert r.value == (5.0, ["x"])


# ------------------------------------------------- pinned multi-chunk runs

@pytest.mark.parametrize("name", ["BananaPi-K1", "BananaPiSim"])
def test_lammps_four_ranks_matches_pins(name):
    from ..core import loop_pins
    objs = loop_pins.check(f"lammps_4_ranks/{name}")
    energies = [r.value["energies"] for r in objs["results"]]
    assert all(np.allclose(e, energies[0]) for e in energies)


@pytest.mark.parametrize("case", [
    "npb_cg_4_ranks/BananaPiSim", "npb_mg_4_ranks/BananaPiSim",
    "npb_cg_4_ranks/MILKV-SG2042", "npb_mg_4_ranks/MILKV-SG2042"])
def test_npb_four_ranks_matches_pins(case):
    from ..core import loop_pins
    loop_pins.check(case)


def test_two_nodes_match_pins():
    from ..core import loop_pins
    objs = loop_pins.check("two_nodes/BananaPiSim")
    assert [r.value for r in objs["results"]] == [6.0] * 4
