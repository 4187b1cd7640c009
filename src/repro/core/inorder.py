"""In-order core timing model (Rocket-like; also the SpacemiT K1 silicon model).

A timestamp-scoreboard model: instructions issue strictly in program order,
bounded by issue width per cycle, operand readiness (full bypass network),
structural hazards (one memory port, unpipelined divider, store-buffer
capacity), I-cache miss stalls, and branch-redirect penalties scaled to the
pipeline depth.  Loads are non-blocking (hit-under-miss): a miss only
stalls the first dependent consumer, which matches Rocket's scoreboard.

This style of model is O(1) per instruction, which is what makes sweeping
39 microbenchmarks across many SoC configurations tractable in Python while
still being *mechanistic* — every stall traces back to a concrete resource.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..isa.opcodes import DEFAULT_LATENCIES, LatencyTable, OpClass
from ..isa.trace import NUM_REGS, Trace
from .base import CoreModel, CoreResult
from .branch import BranchUnit, rocket_branch_unit
from .vector import VectorConfig

__all__ = ["InOrderConfig", "InOrderCore"]


@dataclass(frozen=True)
class InOrderConfig:
    """Parameters of the in-order pipeline.

    ``pipeline_depth`` sets the mispredict flush penalty (redirect from
    execute back to fetch); Rocket is 5 stages, the SpacemiT K1 is 8.
    ``issue_width`` is 1 for Rocket, 2 for the K1's dual-issue cores.
    """

    issue_width: int = 1
    fetch_width: int = 2
    pipeline_depth: int = 5
    mem_ports: int = 1
    store_buffer: int = 4
    load_to_use: int = 1        #: extra cycles between load data and use
    latencies: LatencyTable = DEFAULT_LATENCIES
    #: unpipelined divider (next div waits for previous)
    pipelined_div: bool = False
    #: optional RVV unit (None = scalar-only core; vector ops then raise)
    vector: VectorConfig | None = None

    def __post_init__(self) -> None:
        if self.issue_width < 1 or self.fetch_width < 1:
            raise ValueError("widths must be >= 1")
        if self.pipeline_depth < 3:
            raise ValueError("pipeline_depth must be >= 3")

    @property
    def flush_penalty(self) -> int:
        """Cycles lost on a branch mispredict (fetch..execute refill)."""
        return self.pipeline_depth - 2

    @property
    def bubble_penalty(self) -> int:
        """Cycles lost on a taken-branch BTB miss (fetch redirect)."""
        return 2


class InOrderCore(CoreModel):
    """Rocket-like in-order scoreboard core."""

    def __init__(self, cfg: InOrderConfig, port, branch_unit: BranchUnit | None = None,
                 icache_hit_latency: int = 1, accel: bool = False) -> None:
        self.cfg = cfg
        self.port = port
        self.bru = branch_unit if branch_unit is not None else rocket_branch_unit()
        self._icache_hit = icache_hit_latency
        # accelerated engine (repro.accel): bit-identical fast path,
        # imported on first run so reference-only cores never load it;
        # accel_stats counts the uops it retires
        self._accel_on = accel
        from ..accel.stats import AccelStats
        self.accel_stats = AccelStats()
        self.reset()

    def reset(self) -> None:
        self._reg_ready = [0] * NUM_REGS
        self._div_free = 0
        self._vu_free = 0
        self._sb: deque[int] = deque()
        self._cur_fetch_line = -1
        self._fe_ready = 0
        self._time = 0

    @property
    def local_time(self) -> int:
        """Current position of this core's target clock, in cycles."""
        return self._time

    # -- main loop ---------------------------------------------------------

    def run(self, trace: Trace, start_time: int = 0) -> CoreResult:
        if self._accel_on:
            from ..accel.engine import run_inorder
            return run_inorder(self, trace, start_time)
        cfg = self.cfg
        lat = cfg.latencies
        port = self.port
        bru = self.bru
        reg_ready = self._reg_ready
        sb = self._sb
        line_shift = 6  # 64-byte fetch lines

        op_a = trace.op
        dst_a = trace.dst
        src1_a = trace.src1
        src2_a = trace.src2
        addr_a = trace.addr
        size_a = trace.size
        taken_a = trace.taken
        pc_a = trace.pc
        tgt_a = trace.target
        n = len(op_a)

        LOAD, STORE, BRANCH = int(OpClass.LOAD), int(OpClass.STORE), int(OpClass.BRANCH)
        JUMP, CALL, RET = int(OpClass.JUMP), int(OpClass.CALL), int(OpClass.RET)
        DIV, AMO = int(OpClass.INT_DIV), int(OpClass.AMO)
        VLOAD, VSTORE = int(OpClass.VLOAD), int(OpClass.VSTORE)
        VALU, VFMA = int(OpClass.VALU), int(OpClass.VFMA)
        vcfg = cfg.vector
        vu_free = self._vu_free

        cycle = max(start_time, self._time)
        t0 = cycle
        slots = 0
        mem_slots_used = 0
        ctrl_slots_used = 0
        fe_ready = max(self._fe_ready, cycle)
        cur_line = self._cur_fetch_line
        line_entry = cycle  #: when we started consuming the current fetch line
        div_free = self._div_free

        stall_fe = stall_dep = stall_mem = stall_struct = 0
        l1d_miss0 = port.l1d.stats.misses
        l1i_miss0 = port.l1i.stats.misses
        br0 = bru.stats.branches
        mp0 = bru.stats.mispredicts
        sb_depth = cfg.store_buffer
        flush_pen = cfg.flush_penalty
        bubble_pen = cfg.bubble_penalty
        lat_of = lat.latency_of
        icache_hit = self._icache_hit

        # the memory walk and the branch unit, bound for this run;
        # closing the walk flushes the counters it keeps in locals, so
        # the miss deltas follow it
        dload, dstore, ifetch, mem_close = port.bind()
        resolve, bru_close = bru.bind()
        try:
            for i in range(n):
                op = op_a[i]
                pc = int(pc_a[i])

                # ---- front end: I-cache line fetch ----
                # Sequential line crossings model next-line fetch-ahead: the
                # access is issued when the previous line started draining, so
                # short fills overlap with execution.  Redirects pay in full.
                line = pc >> line_shift
                if line != cur_line:
                    need_at = cycle if cycle > fe_ready else fe_ready
                    issue_at = line_entry if line == cur_line + 1 else need_at
                    cur_line = line
                    done = ifetch(pc, issue_at)
                    extra = done - need_at - icache_hit
                    if extra > 0:
                        fe_ready = need_at + extra
                        stall_fe += extra
                    line_entry = fe_ready if fe_ready > cycle else cycle

                # ---- operand readiness ----
                t = cycle
                if fe_ready > t:
                    t = fe_ready
                s1 = src1_a[i]
                if s1 > 0 and reg_ready[s1] > t:
                    stall_dep += reg_ready[s1] - t
                    t = reg_ready[s1]
                s2 = src2_a[i]
                if s2 > 0 and reg_ready[s2] > t:
                    stall_dep += reg_ready[s2] - t
                    t = reg_ready[s2]

                # ---- structural hazards ----
                if op == DIV and not cfg.pipelined_div and div_free > t:
                    stall_struct += div_free - t
                    t = div_free
                is_vec = VLOAD <= op <= VALU or op == VFMA
                if is_vec:
                    if vcfg is None:
                        raise ValueError(
                            "trace contains RVV vector ops but this core has "
                            "no vector unit (InOrderConfig.vector is None)"
                        )
                    if vu_free > t:
                        stall_struct += vu_free - t
                        t = vu_free

                # ---- issue-slot accounting (in-order) ----
                if t > cycle:
                    cycle = t
                    slots = 0
                    mem_slots_used = 0
                    ctrl_slots_used = 0
                is_mem = (op == LOAD or op == STORE or op == AMO
                          or op == VLOAD or op == VSTORE)
                is_ctrl = op == BRANCH or op == JUMP or op == CALL or op == RET
                while (slots >= cfg.issue_width
                       or (is_mem and mem_slots_used >= cfg.mem_ports)
                       or (is_ctrl and ctrl_slots_used >= 1)):
                    cycle += 1
                    slots = 0
                    mem_slots_used = 0
                    ctrl_slots_used = 0
                t = cycle
                slots += 1
                if is_mem:
                    mem_slots_used += 1
                if is_ctrl:
                    ctrl_slots_used += 1

                # ---- execute ----
                dst = dst_a[i]
                if op == LOAD:
                    done = dload(int(addr_a[i]), t + 1)
                    if dst > 0:
                        reg_ready[dst] = done + cfg.load_to_use
                elif op == STORE:
                    # store buffer: prune retired entries, stall if full
                    while sb and sb[0] <= t:
                        sb.popleft()
                    if len(sb) >= sb_depth:
                        wait = sb.popleft()
                        if wait > t:
                            stall_mem += wait - t
                            cycle = wait
                            slots = 1
                            mem_slots_used = 1
                            ctrl_slots_used = 0
                            t = wait
                    done = dstore(int(addr_a[i]), t + 1)
                    sb.append(done)
                elif op == AMO:
                    done = dstore(int(addr_a[i]), t + 1) + lat.amo_extra
                    if dst > 0:
                        reg_ready[dst] = done
                elif op == VLOAD or op == VSTORE:
                    nbytes = int(size_a[i])
                    base_addr = int(addr_a[i])
                    is_st = op == VSTORE
                    done = t + 1
                    for off in range(0, nbytes, 64):
                        acc = (dstore if is_st else dload)(
                            base_addr + off, t + 1)
                        if acc > done:
                            done = acc
                    occ = vcfg.startup + vcfg.mem_beats(nbytes)
                    vu_free = t + occ
                    if dst > 0 and not is_st:
                        reg_ready[dst] = max(done, t + occ)
                elif op == VALU or op == VFMA:
                    occ = vcfg.startup + vcfg.exec_beats(int(size_a[i]) * 8)
                    vu_free = t + occ
                    if dst > 0:
                        reg_ready[dst] = t + occ + lat_of(OpClass(op)) - 1
                elif is_ctrl:
                    kind = resolve(op, pc, bool(taken_a[i]), int(tgt_a[i]))
                    if kind == BranchUnit.FLUSH:
                        fe_ready = t + 1 + flush_pen
                    elif kind == BranchUnit.BUBBLE:
                        fe_ready = t + 1 + bubble_pen
                    if dst > 0:  # call writes link register
                        reg_ready[dst] = t + 1
                else:
                    l = lat_of(OpClass(op))
                    if dst > 0:
                        reg_ready[dst] = t + l
                    if op == DIV and not cfg.pipelined_div:
                        div_free = t + l
        finally:
            mem_close()
            bru_close()

        # drain: final time is the last issue cycle plus pipeline drain
        end = cycle + cfg.pipeline_depth - 1
        self._time = cycle + 1
        self._fe_ready = fe_ready
        self._cur_fetch_line = cur_line
        self._div_free = div_free
        self._vu_free = vu_free

        return CoreResult(
            cycles=end - t0,
            instructions=n,
            stalls={
                "frontend": stall_fe,
                "dep": stall_dep,
                "mem": stall_mem,
                "structural": stall_struct,
            },
            branches=bru.stats.branches - br0,
            mispredicts=bru.stats.mispredicts - mp0,
            l1d_misses=port.l1d.stats.misses - l1d_miss0,
            l1i_misses=port.l1i.stats.misses - l1i_miss0,
        )
