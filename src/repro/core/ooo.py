"""Out-of-order core timing model (BOOM-like; also the SG2042 silicon model).

A timestamp-dataflow model in the tradition of interval analysis: each
micro-op's fetch, dispatch, issue, completion, and commit times are computed
from explicit resource constraints —

* fetch bandwidth (``fetch_width``/cycle) and I-cache line availability,
* decode/dispatch bandwidth (``decode_width``/cycle),
* ROB occupancy (dispatch blocks until the op ``rob_size`` older commits),
* per-issue-queue capacity and issue ports (int / mem / fp queues),
* load-queue / store-queue occupancy (freed at commit),
* functional-unit latencies and an unpipelined divider,
* branch resolution redirecting fetch with a front-end refill penalty.

Bandwidth chains use fractional-cycle accumulation (an op consumes
``1/width`` of a cycle of its stage), the standard O(1)-per-instruction
approximation; capacity constraints are exact ring-buffer bookkeeping.

:meth:`OoOCore.run` reads the plain-list columns of a
:class:`~repro.accel.compile.CompiledTrace` and per-opcode latency and
FP-steering lists.  Memory goes through the walk
:meth:`~repro.mem.hierarchy.TilePort.bind` returns and control ops
through :meth:`~repro.core.branch.BranchUnit.bind`; their ``close``
functions write back the counters and scalar registers kept in locals,
including when the trace raises, so the components hold the whole state
between runs.  What a run costs the host beyond an in-order one is
mostly its front end (TAGE) and memory walk, not this scheduler loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..isa.opcodes import (DEFAULT_LATENCIES, FP_OPS, NUM_REGS, LatencyTable,
                           OpClass)
from .base import CoreModel, CoreResult
from .branch import BranchUnit, boom_branch_unit

if TYPE_CHECKING:
    from ..isa.trace import Trace

__all__ = ["OoOConfig", "OoOCore"]

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_AMO = int(OpClass.AMO)
_DIV = int(OpClass.INT_DIV)
_VLOAD = int(OpClass.VLOAD)
_VSETVL = int(OpClass.VSETVL)
#: per-opcode FP classification (issue-queue steering)
_IS_FP = [op in FP_OPS for op in range(256)]


@dataclass(frozen=True)
class OoOConfig:
    """BOOM-style resource parameters (paper Table 4 columns)."""

    fetch_width: int = 4
    decode_width: int = 1
    rob_size: int = 32
    int_iq: int = 8           #: integer issue-queue entries
    int_issue: int = 1        #: integer issue ports
    mem_iq: int = 8
    mem_issue: int = 1
    fp_iq: int = 8
    fp_issue: int = 1
    ldq: int = 8              #: load-queue entries
    stq: int = 8              #: store-queue entries
    commit_width: int = 0     #: 0 = same as decode_width
    frontend_depth: int = 10  #: mispredict redirect penalty (fetch refill)
    latencies: LatencyTable = DEFAULT_LATENCIES

    def __post_init__(self) -> None:
        for name in ("fetch_width", "decode_width", "rob_size", "int_iq",
                     "mem_iq", "fp_iq", "ldq", "stq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def effective_commit_width(self) -> int:
        return self.commit_width or self.decode_width


class OoOCore(CoreModel):
    """BOOM-like out-of-order core."""

    def __init__(self, cfg: OoOConfig, port, branch_unit: BranchUnit | None = None,
                 icache_hit_latency: int = 1) -> None:
        self.cfg = cfg
        self.port = port
        self.bru = branch_unit if branch_unit is not None else boom_branch_unit()
        self._icache_hit = icache_hit_latency
        # counts the uops run() retires (telemetry's per-tile ``accel``)
        from ..accel.stats import AccelStats
        self.accel_stats = AccelStats()
        self.reset()

    def reset(self) -> None:
        cfg = self.cfg
        self._reg_ready = [0.0] * NUM_REGS
        self._rob_ring = [0.0] * cfg.rob_size
        self._ldq_ring = [0.0] * cfg.ldq
        self._stq_ring = [0.0] * cfg.stq
        self._intq_ring = [0.0] * cfg.int_iq
        self._memq_ring = [0.0] * cfg.mem_iq
        self._fpq_ring = [0.0] * cfg.fp_iq
        self._int_ports = [0.0] * cfg.int_issue
        self._mem_ports = [0.0] * cfg.mem_issue
        self._fp_ports = [0.0] * cfg.fp_issue
        self._rob_head = 0
        self._ldq_head = 0
        self._stq_head = 0
        self._intq_head = 0
        self._memq_head = 0
        self._fpq_head = 0
        self._fetch_chain = 0.0
        self._dispatch_chain = 0.0
        self._commit_chain = 0.0
        self._fetch_floor = 0.0       #: redirect constraint on fetch
        self._div_free = 0.0
        self._cur_line = -1
        self._pending_stores: dict[int, float] = {}
        self._time = 0

    @property
    def local_time(self) -> int:
        """Current position of this core's target clock, in cycles."""
        return self._time

    # -- main loop ---------------------------------------------------------

    def run(self, trace: Trace, start_time: int = 0, start: int = 0,
            stop: int | None = None) -> CoreResult:
        # the trace compiler and the latency tables import the SoC
        # config, which imports this module
        from ..accel import memo
        from ..accel.compile import compiled_trace

        cfg = self.cfg
        port = self.port
        bru = self.bru
        astats = self.accel_stats

        ct = compiled_trace(trace, start, stop)
        cols = ct.cols
        op_l = cols["op"]
        dst_l = cols["dst"]
        s1_l = cols["src1"]
        s2_l = cols["src2"]
        addr_l = cols["addr"]
        taken_l = cols["taken"]
        pc_l = cols["pc"]
        tgt_l = cols["target"]
        is_fp_op = _IS_FP
        n = ct.n
        lat_list = memo.latency_lut(cfg.latencies)

        dload, dstore, ifetch, mem_close = port.bind()
        resolve, bru_close = bru.bind()

        # ---- loop state ----
        reg_ready = self._reg_ready
        d_fetch = 1.0 / cfg.fetch_width
        d_disp = 1.0 / cfg.decode_width
        d_commit = 1.0 / cfg.effective_commit_width

        fetch_chain = max(self._fetch_chain, float(start_time))
        dispatch_chain = max(self._dispatch_chain, float(start_time))
        commit_chain = max(self._commit_chain, float(start_time))
        fetch_floor = max(self._fetch_floor, float(start_time))
        t0 = commit_chain
        div_free = self._div_free
        cur_line = self._cur_line
        line_entry = fetch_chain

        rob_ring, rob_head = self._rob_ring, self._rob_head
        ldq_ring, ldq_head = self._ldq_ring, self._ldq_head
        stq_ring, stq_head = self._stq_ring, self._stq_head
        intq_ring, intq_head = self._intq_ring, self._intq_head
        memq_ring, memq_head = self._memq_ring, self._memq_head
        fpq_ring, fpq_head = self._fpq_ring, self._fpq_head
        int_ports = self._int_ports
        mem_ports = self._mem_ports
        fp_ports = self._fp_ports
        n_int_ports = len(int_ports)
        n_mem_ports = len(mem_ports)
        n_fp_ports = len(fp_ports)
        rob_size = cfg.rob_size
        ldq_size = len(ldq_ring)
        stq_size = len(stq_ring)
        intq_size = len(intq_ring)
        memq_size = len(memq_ring)
        fpq_size = len(fpq_ring)
        pending_stores = self._pending_stores
        pending_max = 4 * cfg.stq

        stall_fe = stall_rob = stall_iq = stall_lsq = 0.0
        l1d_st = port.l1d.stats
        l1i_st = port.l1i.stats
        bst = bru.stats
        l1d_miss0 = l1d_st.misses
        l1i_miss0 = l1i_st.misses
        br0, mp0 = bst.branches, bst.mispredicts
        icache_hit = self._icache_hit
        fe_depth = cfg.frontend_depth
        amo_extra = cfg.latencies.amo_extra

        last_commit = commit_chain

        try:
            for i in range(n):
                op = op_l[i]
                pc = pc_l[i]
                if _VLOAD <= op < _VSETVL:
                    raise ValueError(
                        "trace contains RVV vector ops, but the BOOM-like "
                        "out-of-order model has no vector unit (the study's "
                        "FireSim targets run scalar code only)"
                    )

                # ---- fetch ----
                f = fetch_chain + d_fetch
                if fetch_floor > f:
                    stall_fe += fetch_floor - f
                    f = fetch_floor
                line = pc >> 6
                if line != cur_line:
                    # sequential crossings use next-line fetch-ahead
                    # (issued when the previous line started draining);
                    # redirects pay in full
                    issue_at = line_entry if line == cur_line + 1 else f
                    cur_line = line
                    done = ifetch(pc, int(issue_at))
                    extra = done - f - icache_hit
                    if extra > 0:
                        stall_fe += extra
                        f += extra
                    line_entry = f
                fetch_chain = f

                # ---- dispatch (decode bandwidth, ROB, IQ, LSQ space) ----
                d = dispatch_chain + d_disp
                if f + 1.0 > d:  # 1-cycle decode stage after fetch
                    d = f + 1.0
                rob_free = rob_ring[rob_head]
                if rob_free > d:
                    stall_rob += rob_free - d
                    d = rob_free

                is_mem = op == _LOAD or op == _STORE or op == _AMO
                is_fp = is_fp_op[op]
                if is_mem:
                    ring, head = memq_ring, memq_head
                elif is_fp:
                    ring, head = fpq_ring, fpq_head
                else:
                    ring, head = intq_ring, intq_head
                iq_free = ring[head]
                if iq_free > d:
                    stall_iq += iq_free - d
                    d = iq_free
                if op == _LOAD:
                    lq_free = ldq_ring[ldq_head]
                    if lq_free > d:
                        stall_lsq += lq_free - d
                        d = lq_free
                elif op == _STORE or op == _AMO:
                    sq_free = stq_ring[stq_head]
                    if sq_free > d:
                        stall_lsq += sq_free - d
                        d = sq_free
                dispatch_chain = d

                # ---- issue: operands + issue port ----
                t = d + 1.0
                s1 = s1_l[i]
                if s1 > 0 and reg_ready[s1] > t:
                    t = reg_ready[s1]
                s2 = s2_l[i]
                if s2 > 0 and reg_ready[s2] > t:
                    t = reg_ready[s2]
                if is_mem:
                    ports = mem_ports
                    nports = n_mem_ports
                elif is_fp:
                    ports = fp_ports
                    nports = n_fp_ports
                else:
                    ports = int_ports
                    nports = n_int_ports
                pi = 0
                pmin = ports[0]
                for k in range(1, nports):
                    if ports[k] < pmin:
                        pmin = ports[k]
                        pi = k
                if pmin > t:
                    t = pmin
                ports[pi] = t + 1.0
                if op == _DIV and div_free > t:
                    t = div_free

                # record issue time for IQ occupancy (entry freed at issue)
                ring[head] = t + 1.0
                if is_mem:
                    memq_head = (head + 1) % memq_size
                elif is_fp:
                    fpq_head = (head + 1) % fpq_size
                else:
                    intq_head = (head + 1) % intq_size

                # ---- execute / complete ----
                dst = dst_l[i]
                if op == _LOAD:
                    addr = addr_l[i]
                    lineaddr = addr >> 6
                    st_pending = pending_stores.get(lineaddr)
                    if st_pending is not None and st_pending > t:
                        # memory ordering: wait for the older store's data
                        t = st_pending
                    complete = float(dload(addr, int(t) + 1))
                elif op == _STORE:
                    addr = addr_l[i]
                    complete = float(dstore(addr, int(t) + 1))
                    lineaddr = addr >> 6
                    pending_stores[lineaddr] = t + 2.0
                    if len(pending_stores) > pending_max:
                        pending_stores.clear()
                elif op == _AMO:
                    complete = float(dstore(addr_l[i], int(t) + 1)) + amo_extra
                else:
                    l = lat_list[op]
                    complete = t + l
                    if op == _DIV:
                        div_free = complete
                if dst > 0:
                    reg_ready[dst] = complete

                # ---- control resolution ----
                if 6 <= op <= 9:  # BRANCH / JUMP / CALL / RET
                    kind = resolve(op, pc, taken_l[i], tgt_l[i])
                    if kind == 2:  # FLUSH
                        nf = complete + fe_depth
                        if nf > fetch_floor:
                            fetch_floor = nf
                    elif kind == 1:  # BUBBLE
                        nf = f + 3.0
                        if nf > fetch_floor:
                            fetch_floor = nf

                # ---- commit (in-order, commit-width limited) ----
                c = commit_chain + d_commit
                if complete + 1.0 > c:
                    c = complete + 1.0
                commit_chain = c
                last_commit = c
                rob_ring[rob_head] = c
                rob_head = (rob_head + 1) % rob_size
                if op == _LOAD:
                    ldq_ring[ldq_head] = c
                    ldq_head = (ldq_head + 1) % ldq_size
                elif op == _STORE or op == _AMO:
                    stq_ring[stq_head] = c
                    stq_head = (stq_head + 1) % stq_size
        finally:
            mem_close()
            bru_close()

        astats.engine_uops += n
        memo.global_stats().engine_uops += n

        self._fetch_chain = fetch_chain
        self._dispatch_chain = dispatch_chain
        self._commit_chain = commit_chain
        self._fetch_floor = fetch_floor
        self._div_free = div_free
        self._cur_line = cur_line
        self._rob_head, self._ldq_head, self._stq_head = \
            rob_head, ldq_head, stq_head
        self._intq_head, self._memq_head, self._fpq_head = \
            intq_head, memq_head, fpq_head
        self._time = int(last_commit) + 1

        return CoreResult(
            cycles=max(1, int(round(last_commit - t0))),
            instructions=n,
            stalls={
                "frontend": int(stall_fe),
                "rob": int(stall_rob),
                "iq": int(stall_iq),
                "lsq": int(stall_lsq),
            },
            branches=bst.branches - br0,
            mispredicts=bst.mispredicts - mp0,
            l1d_misses=l1d_st.misses - l1d_miss0,
            l1i_misses=l1i_st.misses - l1i_miss0,
        )
