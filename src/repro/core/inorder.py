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

:meth:`InOrderCore.run` reads the plain-list columns of a
:class:`~repro.accel.compile.CompiledTrace` (no numpy scalar unboxing per
micro-op) and per-opcode latencies from a list.  Two per-uop flags of
:meth:`~repro.accel.compile.CompiledTrace.issue_flags` let an op with no
structural hazard, memory port or control slot take a short branch, and
let the fetch-line test run only where the line can change.  Control ops
are resolved before the loop starts, by
:meth:`~repro.core.branch.BranchUnit.resolve_window`, and the loop reads
each one's redirect class; memory goes through the walk
:meth:`~repro.mem.hierarchy.TilePort.bind` returns, whose ``close`` runs
in ``finally``, so the counters kept in locals are written back even
when the run raises.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..isa.opcodes import DEFAULT_LATENCIES, NUM_REGS, LatencyTable
from .base import CoreModel, CoreResult
from .branch import BranchUnit, rocket_branch_unit
from .vector import VectorConfig

if TYPE_CHECKING:
    from ..isa.trace import Trace

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
                 icache_hit_latency: int = 1) -> None:
        self.cfg = cfg
        self.port = port
        self.bru = branch_unit if branch_unit is not None else rocket_branch_unit()
        self._icache_hit = icache_hit_latency
        # counts the uops run() retires (telemetry's per-tile ``accel``)
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

    def run(self, trace: Trace, start_time: int = 0, start: int = 0,
            stop: int | None = None) -> CoreResult:
        # the trace compiler and the latency tables import the SoC
        # config, which imports this module
        from ..accel import memo
        from ..accel.compile import compiled_trace

        cfg = self.cfg
        port = self.port
        bru = self.bru

        ct = compiled_trace(trace, start, stop)
        view = ct.cols
        op_l = view["op"]
        dst_l = view["dst"]
        s1_l = view["src1"]
        s2_l = view["src2"]
        addr_l = view["addr"]
        size_l = view["size"]
        pc_l = view["pc"]
        simple_l, newline_l = ct.issue_flags()
        n = ct.n
        lat_list = memo.latency_lut(cfg.latencies)
        vcfg = cfg.vector
        bst = bru.stats
        br0 = bst.branches
        mp0 = bst.mispredicts

        # ---- the front end, resolved ahead; then bind the memory walk ----
        kinds = bru.resolve_window(trace, ct, refuse_vector=vcfg is None)
        dload, dstore, ifetch, mem_close = port.bind()

        # ---- loop state ----
        reg_ready = self._reg_ready
        sb = self._sb
        vu_free = self._vu_free
        cycle = max(start_time, self._time)
        t0 = cycle
        slots = 0
        mem_used = 0
        ctrl_used = 0
        fe_ready = max(self._fe_ready, cycle)
        cur_line = self._cur_fetch_line
        line_entry = cycle
        div_free = self._div_free
        stall_fe = stall_dep = stall_mem = stall_struct = 0
        l1d_st = port.l1d.stats
        l1i_st = port.l1i.stats
        l1d_miss0 = l1d_st.misses
        l1i_miss0 = l1i_st.misses
        sb_depth = cfg.store_buffer
        flush_pen = cfg.flush_penalty
        bubble_pen = cfg.bubble_penalty
        icache_hit = self._icache_hit
        W = cfg.issue_width
        mem_ports = cfg.mem_ports
        pipelined_div = cfg.pipelined_div
        load_to_use = cfg.load_to_use
        amo_extra = cfg.latencies.amo_extra

        try:
            for i in range(n):
                # only the first uop of a fetch line can leave cur_line
                # (and uop 0, which follows another run's last line)
                if newline_l[i]:
                    pc = pc_l[i]
                    line = pc >> 6
                    if line != cur_line:
                        need_at = cycle if cycle > fe_ready else fe_ready
                        issue_at = (line_entry if line == cur_line + 1
                                    else need_at)
                        cur_line = line
                        done = ifetch(pc, issue_at)
                        extra = done - need_at - icache_hit
                        if extra > 0:
                            fe_ready = need_at + extra
                            stall_fe += extra
                        line_entry = fe_ready if fe_ready > cycle else cycle

                t = cycle
                if fe_ready > t:
                    t = fe_ready
                s1 = s1_l[i]
                if s1 > 0:
                    r = reg_ready[s1]
                    if r > t:
                        stall_dep += r - t
                        t = r
                s2 = s2_l[i]
                if s2 > 0:
                    r = reg_ready[s2]
                    if r > t:
                        stall_dep += r - t
                        t = r

                if simple_l[i]:
                    # no structural hazard, memory port or control slot:
                    # the issue-slot loop below runs at most once
                    if t > cycle:
                        cycle = t
                        slots = 1
                        mem_used = 0
                        ctrl_used = 0
                    elif slots >= W:
                        cycle += 1
                        t = cycle
                        slots = 1
                        mem_used = 0
                        ctrl_used = 0
                    else:
                        slots += 1
                    dst = dst_l[i]
                    if dst > 0:
                        reg_ready[dst] = t + lat_list[op_l[i]]
                    continue

                op = op_l[i]
                if op == 3 and not pipelined_div and div_free > t:
                    stall_struct += div_free - t
                    t = div_free
                if 20 <= op <= 23:
                    if vcfg is None:
                        raise ValueError(
                            "trace contains RVV vector ops but this "
                            "core has no vector unit "
                            "(InOrderConfig.vector is None)"
                        )
                    if vu_free > t:
                        stall_struct += vu_free - t
                        t = vu_free

                if t > cycle:
                    cycle = t
                    slots = 0
                    mem_used = 0
                    ctrl_used = 0
                is_mem = (op == 4 or op == 5 or op == 19
                          or op == 20 or op == 21)
                is_ctrl = 6 <= op <= 9
                while (slots >= W
                       or (is_mem and mem_used >= mem_ports)
                       or (is_ctrl and ctrl_used >= 1)):
                    cycle += 1
                    slots = 0
                    mem_used = 0
                    ctrl_used = 0
                t = cycle
                slots += 1
                if is_mem:
                    mem_used += 1
                if is_ctrl:
                    ctrl_used += 1

                dst = dst_l[i]
                if op == 4:  # LOAD
                    done = dload(addr_l[i], t + 1)
                    if dst > 0:
                        reg_ready[dst] = done + load_to_use
                elif op == 5:  # STORE
                    while sb and sb[0] <= t:
                        sb.popleft()
                    if len(sb) >= sb_depth:
                        wait = sb.popleft()
                        if wait > t:
                            stall_mem += wait - t
                            cycle = wait
                            slots = 1
                            mem_used = 1
                            ctrl_used = 0
                            t = wait
                    done = dstore(addr_l[i], t + 1)
                    sb.append(done)
                elif op == 19:  # AMO
                    done = dstore(addr_l[i], t + 1) + amo_extra
                    if dst > 0:
                        reg_ready[dst] = done
                elif op == 20 or op == 21:  # VLOAD / VSTORE
                    nbytes = size_l[i]
                    base_addr = addr_l[i]
                    is_st = op == 21
                    done = t + 1
                    macc = dstore if is_st else dload
                    for off in range(0, nbytes, 64):
                        acc = macc(base_addr + off, t + 1)
                        if acc > done:
                            done = acc
                    occ = vcfg.startup + vcfg.mem_beats(nbytes)
                    vu_free = t + occ
                    if dst > 0 and not is_st:
                        reg_ready[dst] = max(done, t + occ)
                elif op == 22 or op == 23:  # VALU / VFMA
                    occ = vcfg.startup + vcfg.exec_beats(size_l[i] * 8)
                    vu_free = t + occ
                    if dst > 0:
                        reg_ready[dst] = t + occ + lat_list[op] - 1
                elif is_ctrl:
                    kind = kinds[i]
                    if kind == 2:
                        fe_ready = t + 1 + flush_pen
                    elif kind == 1:
                        fe_ready = t + 1 + bubble_pen
                    if dst > 0:
                        reg_ready[dst] = t + 1
                else:
                    l = lat_list[op]
                    if dst > 0:
                        reg_ready[dst] = t + l
                    if op == 3 and not pipelined_div:
                        div_free = t + l
        finally:
            # flush the local counters even when the loop raises (vector
            # op on a vector-less core), so the stats match the state
            mem_close()

        self.accel_stats.engine_uops += n
        memo.global_stats().engine_uops += n
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
            branches=bst.branches - br0,
            mispredicts=bst.mispredicts - mp0,
            l1d_misses=l1d_st.misses - l1d_miss0,
            l1i_misses=l1i_st.misses - l1i_miss0,
        )
