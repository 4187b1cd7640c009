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
:class:`~repro.accel.compile.CompiledTrace`, a per-opcode latency list,
and two per-uop columns derived once per trace: the class byte it
dispatches on (integer, FP, divide, control, load, store, AMO, refused
vector) and the ``newline`` flags that limit the fetch-line test to the
first uop of a line.  Control ops are resolved before the loop, by
:meth:`~repro.core.branch.BranchUnit.resolve_window`, and the loop reads
each one's redirect class.  Memory goes through the walk
:meth:`~repro.mem.hierarchy.TilePort.bind` returns; its ``close`` writes
back the counters and scalar registers kept in locals, including when
the trace raises, so the components hold the whole state between runs.

What a run costs the host beyond an in-order one is this scheduler loop
as much as the front end (TAGE) and the memory walk: counted with
``scripts/host_ledger.py --opcodes``, this loop's own frame executed 292
bytecodes per uop on ``EI``/``LargeBOOM`` before it dispatched on the
class byte and 185 after, against 97 for the in-order loop on
``EI``/``BananaPiSim``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..isa.opcodes import DEFAULT_LATENCIES, NUM_REGS, LatencyTable
from .base import CoreModel, CoreResult
from .branch import BranchUnit, boom_branch_unit

if TYPE_CHECKING:
    from ..isa.trace import Trace

__all__ = ["OoOConfig", "OoOCore"]


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
        pc_l = cols["pc"]
        cls_l = ct.classes()
        newline_l = ct.issue_flags()[1]
        n = ct.n
        # the loop stops at the first vector op and raises there
        refused = ct.refused()
        lat_list = memo.latency_lut(cfg.latencies)
        bst = bru.stats
        br0, mp0 = bst.branches, bst.mispredicts

        kinds = bru.resolve_window(trace, ct, refuse_vector=True)
        dload, dstore, ifetch, mem_close = port.bind()

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
        l1d_miss0 = l1d_st.misses
        l1i_miss0 = l1i_st.misses
        icache_hit = self._icache_hit
        fe_depth = cfg.frontend_depth
        amo_extra = cfg.latencies.amo_extra

        try:
            for i in range(refused):
                k = cls_l[i]

                # ---- fetch ----
                f = fetch_chain + d_fetch
                if fetch_floor > f:
                    stall_fe += fetch_floor - f
                    f = fetch_floor
                # only the first uop of a fetch line can leave cur_line
                if newline_l[i]:
                    pc = pc_l[i]
                    line = pc >> 6
                    if line != cur_line:
                        # sequential crossings use next-line fetch-ahead
                        # (issued when the previous line started
                        # draining); redirects pay in full
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
                # operands are ready at the later of their two writes
                ready = 0.0
                s1 = s1_l[i]
                if s1 > 0:
                    ready = reg_ready[s1]
                s2 = s2_l[i]
                if s2 > 0 and reg_ready[s2] > ready:
                    ready = reg_ready[s2]

                # per class: IQ (and LSQ) space, then issue on the
                # class's ports once operands are ready, then complete
                if k >= 4:  # LOAD / STORE / AMO
                    iq_free = memq_ring[memq_head]
                    if iq_free > d:
                        stall_iq += iq_free - d
                        d = iq_free
                    if k == 4:
                        lq_free = ldq_ring[ldq_head]
                        if lq_free > d:
                            stall_lsq += lq_free - d
                            d = lq_free
                    else:
                        sq_free = stq_ring[stq_head]
                        if sq_free > d:
                            stall_lsq += sq_free - d
                            d = sq_free
                    dispatch_chain = d
                    t = d + 1.0
                    if ready > t:
                        t = ready
                    pmin = min(mem_ports)
                    if pmin > t:
                        t = pmin
                    mem_ports[mem_ports.index(pmin)] = t + 1.0
                    # the IQ entry is freed at issue
                    memq_ring[memq_head] = t + 1.0
                    memq_head = (memq_head + 1) % memq_size
                    addr = addr_l[i]
                    if k == 4:
                        st_pending = pending_stores.get(addr >> 6)
                        if st_pending is not None and st_pending > t:
                            # memory ordering: wait for the older
                            # store's data
                            t = st_pending
                        complete = float(dload(addr, int(t) + 1))
                    elif k == 5:
                        complete = float(dstore(addr, int(t) + 1))
                        pending_stores[addr >> 6] = t + 2.0
                        if len(pending_stores) > pending_max:
                            pending_stores.clear()
                    else:
                        complete = float(dstore(addr, int(t) + 1)) + amo_extra
                elif k == 1:  # FP
                    iq_free = fpq_ring[fpq_head]
                    if iq_free > d:
                        stall_iq += iq_free - d
                        d = iq_free
                    dispatch_chain = d
                    t = d + 1.0
                    if ready > t:
                        t = ready
                    pmin = min(fp_ports)
                    if pmin > t:
                        t = pmin
                    fp_ports[fp_ports.index(pmin)] = t + 1.0
                    fpq_ring[fpq_head] = t + 1.0
                    fpq_head = (fpq_head + 1) % fpq_size
                    complete = t + lat_list[op_l[i]]
                else:  # integer, divide, control
                    iq_free = intq_ring[intq_head]
                    if iq_free > d:
                        stall_iq += iq_free - d
                        d = iq_free
                    dispatch_chain = d
                    t = d + 1.0
                    if ready > t:
                        t = ready
                    pmin = min(int_ports)
                    if pmin > t:
                        t = pmin
                    int_ports[int_ports.index(pmin)] = t + 1.0
                    if k == 2 and div_free > t:
                        t = div_free
                    intq_ring[intq_head] = t + 1.0
                    intq_head = (intq_head + 1) % intq_size
                    complete = t + lat_list[op_l[i]]
                    if k == 2:
                        div_free = complete
                    elif k == 3:  # the front end's redirect class
                        kind = kinds[i]
                        if kind == 2:  # FLUSH
                            nf = complete + fe_depth
                            if nf > fetch_floor:
                                fetch_floor = nf
                        elif kind == 1:  # BUBBLE
                            nf = f + 3.0
                            if nf > fetch_floor:
                                fetch_floor = nf
                dst = dst_l[i]
                if dst > 0:
                    reg_ready[dst] = complete

                # ---- commit (in-order, commit-width limited) ----
                c = commit_chain + d_commit
                if complete + 1.0 > c:
                    c = complete + 1.0
                commit_chain = c
                rob_ring[rob_head] = c
                rob_head = (rob_head + 1) % rob_size
                if k >= 4:
                    if k == 4:
                        ldq_ring[ldq_head] = c
                        ldq_head = (ldq_head + 1) % ldq_size
                    else:
                        stq_ring[stq_head] = c
                        stq_head = (stq_head + 1) % stq_size
            if refused < n:
                raise ValueError(
                    "trace contains RVV vector ops, but the BOOM-like "
                    "out-of-order model has no vector unit (the study's "
                    "FireSim targets run scalar code only)"
                )
        finally:
            mem_close()

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
        self._time = int(commit_chain) + 1

        return CoreResult(
            cycles=max(1, int(round(commit_chain - t0))),
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
