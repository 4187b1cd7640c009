"""Accelerated core loop for :class:`~repro.core.inorder.InOrderCore`.

The reference loop is exact but pays interpreter overhead on every
micro-op: numpy scalar unboxing on each trace column read, an enum
round-trip per latency lookup, and a method call per branch.  This
engine owns only a core loop; it removes that overhead while producing
**bit-identical results** by construction: every timing decision is a
line-for-line transliteration of ``InOrderCore.run``, executed over the
components' own state.

How it stays exact
------------------

* **One memory walk.**  Loads, stores and fetches go through the
  closures :meth:`~repro.mem.hierarchy.TilePort.bind` returns — the
  hierarchy's only access path, which the reference loop binds too.
  ``close`` flushes the counters the walk keeps in locals, even when
  the run raises.

* **One home for branch state.**  The BTB rows and direction-predictor
  counters are plain lists owned by their objects, and the branch-unit
  mirror here binds those very lists.  Only scalars live in locals
  while a run is bound — the BTB stamp and a predictor's global
  history — and ``detach`` writes them back, so the reference objects
  hold the whole state between runs.

* **One scalar loop.**  Micro-ops execute through a transliteration of
  ``InOrderCore.run`` over pre-decoded Python-list trace columns with
  closure-bound memory/branch operations — the same arithmetic on the
  same values, minus the interpreter overhead.  Every micro-op of the
  trace retires through this loop, in program order; the two per-uop
  flags of :meth:`~repro.accel.compile.CompiledTrace.issue_flags` let an
  op with no structural hazard take a short branch of it and let the
  fetch-line test run only where the line can change.

The two modes therefore agree value-for-value on cycles, stall
attribution, and every stats counter.
"""

from __future__ import annotations

import functools

from repro.core.base import CoreResult
from repro.core.branch import BimodalBHT, GShare

from . import memo
from .compile import compiled_trace

__all__ = ["run_inorder"]


# -- branch-unit mirrors ------------------------------------------------------

@functools.cache
def _rotl1_table(width):
    """Every *width*-bit value rotated left by one."""
    top = width - 1
    return tuple((v << 1) & ((1 << width) - 1) | v >> top
                 for v in range(1 << width))


def _mirror_direction(d):
    """Mirror of a direction predictor; returns (predict_update, detach).

    ``predict_update(pc, taken)`` returns what ``d.predict(pc)`` would
    and leaves the state ``d.update(pc, taken)`` would: the two reference
    calls see the same tables, so one lookup serves both.  The counter
    tables are the predictor's own lists; ``detach`` writes back the
    global history register, and is None where there is none.
    """
    if type(d) is BimodalBHT:
        ctr = d._ctr
        mask = d.entries - 1

        def predict_update(pc, taken):
            i = (pc >> 2) & mask
            c = ctr[i]
            if taken:
                if c < 3:
                    ctr[i] = c + 1
            elif c > 0:
                ctr[i] = c - 1
            return c >= 2

        return predict_update, None

    if type(d) is GShare:
        ctr = d._ctr
        mask = d.entries - 1
        hmask = (1 << d.hist_bits) - 1
        hist = d._hist

        def predict_update(pc, taken):
            nonlocal hist
            i = ((pc >> 2) ^ hist) & mask
            c = ctr[i]
            if taken:
                if c < 3:
                    ctr[i] = c + 1
                hist = ((hist << 1) | 1) & hmask
            else:
                if c > 0:
                    ctr[i] = c - 1
                hist = (hist << 1) & hmask
            return c >= 2

        def detach():
            d._hist = hist

        return predict_update, detach

    # TAGE: what build_branch_unit makes of every other kind
    nt = d.num_tables
    size_mask = d.size - 1
    tag_bits = d.tag_bits
    tag_mask = (1 << tag_bits) - 1
    ctrs = d._ctr
    tags = d._tag
    useful = d._useful
    hist = d._hist
    base_ctr = d.base._ctr
    base_mask = d.base.entries - 1

    def fold(bits, out_bits):
        h = hist & ((1 << bits) - 1)
        folded = 0
        omask = (1 << out_bits) - 1
        while h:
            folded ^= h & omask
            h >>= out_bits
        return folded

    # Folded-history registers, as TAGE hardware keeps them: per table
    # the history window folded to the index width and to the two tag
    # widths.  An outcome advances each register by
    #     f' = rotl1(f) ^ taken ^ (leaving_bit << (window % width))
    # so nothing is re-folded per lookup.  The history register is 64
    # bits wide, so a table's window is its hist_len capped there.
    # Seeded from ``d._hist`` on every attach (restore swaps the
    # predictor object) and never written back: ``_hist`` alone is the
    # architectural state.
    windows = [min(n, 64) for n in d.hist_len]
    widths = (d.size.bit_length() - 1, tag_bits, tag_bits - 1)
    f_idx, f_tag, f_tag1 = ([fold(L, w) for L in windows] for w in widths)
    #: per table: the history part of ``_tag_of``
    h_tag = [f ^ (g << 1) for f, g in zip(f_tag, f_tag1)]
    rot_idx, rot_tag, rot_tag1 = (_rotl1_table(w) for w in widths)
    #: per table: the history bit about to leave the window, and what
    #: to XOR into each rotated register for (leaving bit, new bit)
    geom = [(L - 1, tuple(tuple(b ^ (o << L % w) for w in widths)
                          for o in (0, 1) for b in (0, 1)))
            for L in windows]
    tables = range(nt - 1, -1, -1)

    def predict_update(pc, taken):
        nonlocal hist
        p = pc >> 2
        for t in tables:
            idx = (p ^ f_idx[t]) & size_mask
            if tags[t][idx] == (p ^ h_tag[t]) & tag_mask:
                row = ctrs[t]
                c = row[idx]
                pred = c >= 0
                mis = pred != taken
                if taken:
                    if c < 3:
                        row[idx] = c + 1
                elif c > -4:
                    row[idx] = c - 1
                row = useful[t]
                if mis:
                    if row[idx] > 0:
                        row[idx] -= 1
                elif row[idx] < 3:
                    row[idx] += 1
                prov = t
                break
        else:
            prov = -1
            i = p & base_mask
            c = base_ctr[i]
            pred = c >= 2
            mis = pred != taken
            if taken:
                if c < 3:
                    base_ctr[i] = c + 1
            elif c > 0:
                base_ctr[i] = c - 1
        if mis and prov < nt - 1:
            # allocate in a longer-history table with a non-useful entry
            for t in range(prov + 1, nt):
                i = (p ^ f_idx[t]) & size_mask
                if useful[t][i] == 0:
                    tags[t][i] = (p ^ h_tag[t]) & tag_mask
                    ctrs[t][i] = 0 if taken else -1
                    break
            else:
                # decay usefulness so future allocations can succeed
                for t in range(prov + 1, nt):
                    i = (p ^ f_idx[t]) & size_mask
                    u = useful[t][i]
                    if u > 0:
                        useful[t][i] = u - 1
        b = 1 if taken else 0
        for t, (out, inject) in enumerate(geom):
            xi, xt, xs = inject[(hist >> out & 1) << 1 | b]
            f_idx[t] = rot_idx[f_idx[t]] ^ xi
            f = f_tag[t] = rot_tag[f_tag[t]] ^ xt
            g = f_tag1[t] = rot_tag1[f_tag1[t]] ^ xs
            h_tag[t] = f ^ (g << 1)
        hist = ((hist << 1) | b) & 0xFFFF_FFFF_FFFF_FFFF
        return pred

    def detach():
        d._hist = hist

    return predict_update, detach


def _mirror_branch_unit(bru):
    """Closure twin of ``BranchUnit.resolve``; returns (resolve, detach)."""
    bst = bru.stats
    predict_update, dir_detach = _mirror_direction(bru.direction)
    btb = bru.btb
    nsets = btb.sets
    tag_m = btb._tag
    tgt_m = btb._target
    lru_m = btb._lru
    stamp = btb._stamp
    ras = bru.ras._stack
    ras_depth = bru.ras.depth

    def lookup(pc):
        nonlocal stamp
        s = (pc >> 2) % nsets
        tag = pc >> 2
        row = tag_m[s]
        if tag not in row:
            return None
        w = row.index(tag)
        stamp += 1
        lru_m[s][w] = stamp
        return tgt_m[s][w]

    def insert(pc, target):
        nonlocal stamp
        s = (pc >> 2) % nsets
        tag = pc >> 2
        row = tag_m[s]
        if tag in row:
            w = row.index(tag)
        else:
            lr = lru_m[s]
            w = lr.index(min(lr))
        row[w] = tag
        tgt_m[s][w] = target
        stamp += 1
        lru_m[s][w] = stamp

    def resolve(op, pc, taken, target):
        bst.branches += 1
        if op == 6:  # BRANCH
            pred = predict_update(pc, taken)
            if pred != taken:
                bst.mispredicts += 1
                if taken:
                    insert(pc, target)
                return 2
            if taken and lookup(pc) != target:
                insert(pc, target)
                bst.btb_misses += 1
                return 1
            return 0
        if op == 7 or op == 8:  # JUMP / CALL
            if op == 8:
                ras.append(pc + 4)
                if len(ras) > ras_depth:
                    del ras[0]
            pred = lookup(pc)
            if pred == target:
                return 0
            insert(pc, target)
            if pred is None:
                bst.btb_misses += 1
                return 1
            bst.mispredicts += 1
            return 2
        if op == 9:  # RET
            pred_target = ras.pop() if ras else None
            if pred_target != target:
                bst.mispredicts += 1
                bst.ras_mispredicts += 1
                return 2
            return 0
        return 0

    def detach():
        btb._stamp = stamp
        if dir_detach is not None:
            dir_detach()

    return resolve, detach


# -- the engine ---------------------------------------------------------------

def run_inorder(core, trace, start_time: int = 0) -> CoreResult:
    """Run *trace* on one :class:`InOrderCore` through the accelerated path."""
    cfg = core.cfg
    port = core.port
    bru = core.bru

    ct = compiled_trace(trace)
    view = ct.cols
    op_l = view["op"]
    dst_l = view["dst"]
    s1_l = view["src1"]
    s2_l = view["src2"]
    addr_l = view["addr"]
    size_l = view["size"]
    taken_l = view["taken"]
    pc_l = view["pc"]
    tgt_l = view["target"]
    simple_l, newline_l = ct.issue_flags()
    n = ct.n
    lat_list = memo.latency_lut(cfg.latencies)

    # ---- bind the memory walk and the branch-unit mirror ----
    dload, dstore, ifetch, mem_close = port.bind()
    resolve, bru_detach = _mirror_branch_unit(bru)

    # ---- loop state (identical to the reference prologue) ----
    reg_ready = core._reg_ready
    sb = core._sb
    vcfg = cfg.vector
    vu_free = core._vu_free
    cycle = max(start_time, core._time)
    t0 = cycle
    slots = 0
    mem_used = 0
    ctrl_used = 0
    fe_ready = max(core._fe_ready, cycle)
    cur_line = core._cur_fetch_line
    line_entry = cycle
    div_free = core._div_free
    stall_fe = stall_dep = stall_mem = stall_struct = 0
    l1d_st = port.l1d.stats
    l1i_st = port.l1i.stats
    bst = bru.stats
    l1d_miss0 = l1d_st.misses
    l1i_miss0 = l1i_st.misses
    br0 = bst.branches
    mp0 = bst.mispredicts
    sb_depth = cfg.store_buffer
    flush_pen = cfg.flush_penalty
    bubble_pen = cfg.bubble_penalty
    icache_hit = core._icache_hit
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
                kind = resolve(op, pc_l[i], taken_l[i], tgt_l[i])
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
        bru_detach()

    core.accel_stats.engine_uops += n
    memo.global_stats().engine_uops += n
    end = cycle + cfg.pipeline_depth - 1
    core._time = cycle + 1
    core._fe_ready = fe_ready
    core._cur_fetch_line = cur_line
    core._div_free = div_free
    core._vu_free = vu_free
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
