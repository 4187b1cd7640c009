"""Accelerated core loop for :class:`~repro.core.ooo.OoOCore`.

The out-of-order timestamp-dataflow model dominates sweep wall-clock:
the five BOOM-like configurations are most of an ALL_CONFIGS sweep.
This engine runs them the same way
:func:`~repro.accel.engine.run_inorder` runs the in-order model, and
under the same contract: **bit-identical results by construction**.
What an OoO run costs the host beyond an in-order one is mostly its
front end and memory system, not this scheduler loop: TAGE (one table
walk and one folded-history register update per conditional branch,
see ``docs/performance.md`` "Constant-time TAGE") and the cache/DRAM
calls of the memory walk per load.

The engine owns only a core loop.  Every timing decision below is a
line-for-line transliteration of ``OoOCore.run`` — the same
fractional-cycle bandwidth chains, the same ring-buffer capacity
bookkeeping, the same issue-port min-scan, in the same order on the
same values — executed over the plain-list columns of a
:class:`~repro.accel.compile.CompiledTrace`.  Memory goes through the
walk :meth:`~repro.mem.hierarchy.TilePort.bind` returns and control ops
through :meth:`~repro.core.branch.BranchUnit.bind`, the same ones the
reference loop binds.  Their ``close`` functions write back only the
counters and scalar registers kept in locals — including when the
trace raises — so the components hold the whole state between runs.
"""

from __future__ import annotations

from repro.core.base import CoreResult
from repro.isa.opcodes import FP_OPS, OpClass

from . import memo
from .compile import compiled_trace

__all__ = ["run_ooo"]

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_AMO = int(OpClass.AMO)
_DIV = int(OpClass.INT_DIV)
_VLOAD = int(OpClass.VLOAD)
_VSETVL = int(OpClass.VSETVL)
#: per-opcode FP classification (issue-queue steering)
_IS_FP = [op in FP_OPS for op in range(256)]


def run_ooo(core, trace, start_time: int = 0) -> CoreResult:
    """Run *trace* on one :class:`OoOCore` through the accelerated path."""
    cfg = core.cfg
    port = core.port
    bru = core.bru
    astats = core.accel_stats

    ct = compiled_trace(trace)
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

    # ---- loop state (identical to the reference prologue) ----
    reg_ready = core._reg_ready
    d_fetch = 1.0 / cfg.fetch_width
    d_disp = 1.0 / cfg.decode_width
    d_commit = 1.0 / cfg.effective_commit_width

    fetch_chain = max(core._fetch_chain, float(start_time))
    dispatch_chain = max(core._dispatch_chain, float(start_time))
    commit_chain = max(core._commit_chain, float(start_time))
    fetch_floor = max(core._fetch_floor, float(start_time))
    t0 = commit_chain
    div_free = core._div_free
    cur_line = core._cur_line
    line_entry = fetch_chain

    rob_ring, rob_head = core._rob_ring, core._rob_head
    ldq_ring, ldq_head = core._ldq_ring, core._ldq_head
    stq_ring, stq_head = core._stq_ring, core._stq_head
    intq_ring, intq_head = core._intq_ring, core._intq_head
    memq_ring, memq_head = core._memq_ring, core._memq_head
    fpq_ring, fpq_head = core._fpq_ring, core._fpq_head
    int_ports = core._int_ports
    mem_ports = core._mem_ports
    fp_ports = core._fp_ports
    n_int_ports = len(int_ports)
    n_mem_ports = len(mem_ports)
    n_fp_ports = len(fp_ports)
    rob_size = cfg.rob_size
    ldq_size = len(ldq_ring)
    stq_size = len(stq_ring)
    intq_size = len(intq_ring)
    memq_size = len(memq_ring)
    fpq_size = len(fpq_ring)
    pending_stores = core._pending_stores
    pending_max = 4 * cfg.stq

    stall_fe = stall_rob = stall_iq = stall_lsq = 0.0
    l1d_st = port.l1d.stats
    l1i_st = port.l1i.stats
    bst = bru.stats
    l1d_miss0 = l1d_st.misses
    l1i_miss0 = l1i_st.misses
    br0, mp0 = bst.branches, bst.mispredicts
    icache_hit = core._icache_hit
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

    core._fetch_chain = fetch_chain
    core._dispatch_chain = dispatch_chain
    core._commit_chain = commit_chain
    core._fetch_floor = fetch_floor
    core._div_free = div_free
    core._cur_line = cur_line
    core._rob_head, core._ldq_head, core._stq_head = \
        rob_head, ldq_head, stq_head
    core._intq_head, core._memq_head, core._fpq_head = \
        intq_head, memq_head, fpq_head
    core._time = int(last_commit) + 1

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
