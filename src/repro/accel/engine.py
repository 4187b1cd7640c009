"""Accelerated execution engine for :class:`~repro.core.inorder.InOrderCore`.

The reference model is exact but pays interpreter overhead on every
micro-op: numpy scalar unboxing on each trace column read, a method call
and attribute chase per level of the hierarchy, and per-branch predictor
table indexing.  This engine removes that overhead while producing
**bit-identical results** by construction: every timing decision is a
line-for-line transliteration of the reference code paths, executed over
the reference components' own state.

How it stays exact
------------------

* **One home for state.**  Every table is a plain list owned by its
  reference object — cache tag/dirty/LRU rows (made per set on first
  access, by ``Cache._row`` on either path), BTB rows, direction-
  predictor counters — and the closures here bind those very lists, as
  they do the MSHR dicts, bank/bus/channel timelines, TLB sets, the
  coherence directory's dicts, DRAM bank state, the RAS, the store
  buffer and the register scoreboard.  Attaching copies nothing.  Only
  scalars live in locals while a run is attached: stats counters, a
  cache's LRU use counter, the BTB stamp and a predictor's global
  history; ``detach`` writes those back, even when the run raises, so
  the reference objects hold the whole state between runs.

* **One flat memory walk.**  :func:`attach_port` builds TLB -> L1 ->
  bus -> directory -> L2 -> DRAM as closures that call each other
  directly, each a transliteration of the reference method it replaces
  (``TilePort.dload``, ``Cache.access``, ``SystemBus.transfer``,
  ``SnoopDirectory.observe``, ``DRAM.access``).  Only an LLC, when the
  config has one, is still reached through its reference ``access``.
  The shortcuts on the way are exact, each by a bound that says the
  skipped scan would have found nothing: a booking at or after a
  timeline's last end appends at the tail, and ``mshr_hw`` /
  ``inflight_hw`` say no fill or DRAM request can still be outstanding.

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
from repro.mem.dram import DRAM
from repro.mem.tlb import TwoLevelTLB

from . import memo
from .compile import compiled_trace

__all__ = ["run_inorder"]


# -- component mirrors --------------------------------------------------------

def _mirror_cache(cache, next_access):
    """Closure-compiled twin of ``Cache.access`` over the cache's own rows.

    The tag/dirty/LRU tables, MSHRs and bank timelines are the
    reference objects, bound live; a set's rows are made on its first
    access by the same ``Cache._row`` the reference path uses.  The LRU
    use counter and the stats live in locals for the duration of a run
    and are all ``detach`` writes back.
    Returns ``(access, contains, detach)``.
    """
    cfg = cache.cfg
    st = cache.stats
    line_shift = cache._line_shift
    set_mask = cache._set_mask
    hit_lat = cfg.hit_latency
    banks = cfg.banks
    n_mshrs = cfg.mshrs
    cyc = cfg.cycle_time
    tags, dirty, lru = cache._tags, cache._dirty, cache._lru
    make_row = cache._row
    use_counter = cache._use_counter
    mshr = cache._mshr
    #: no fill in ``mshr`` completes later than this, so a lookup at or
    #: past it finds nothing outstanding and is skipped
    mshr_hw = max(mshr.values(), default=0)
    bank_tl = cache._bank_free
    bank_starts = [tl._starts for tl in bank_tl]
    bank_ends = [tl._ends for tl in bank_tl]
    bank_max = [tl.max_intervals for tl in bank_tl]
    # stats accumulate in locals and flush at detach (same totals, fewer
    # attribute round-trips on the hottest call in the simulator)
    n_access = n_misses = n_wb = n_merges = 0
    n_conflict = 0
    n_mshr_stall = 0

    def access(addr, time, is_store):
        nonlocal n_access, n_misses, n_wb, n_merges, n_conflict, \
            n_mshr_stall, use_counter, mshr_hw
        n_access += 1
        line = addr >> line_shift
        set_idx = line & set_mask

        start = float(time)
        if cyc > 0:
            bank = line % banks
            ends = bank_ends[bank]
            if not ends or start >= ends[-1]:
                # monotone arrival: what reserve() does at the tail
                bank_starts[bank].append(start)
                ends.append(start + cyc)
                drop = len(ends) - bank_max[bank]
                if drop > 0:
                    del bank_starts[bank][:drop]
                    del ends[:drop]
            else:
                start = bank_tl[bank].reserve(time, cyc)
                if start > time:
                    n_conflict += int(start - time)

        row = tags[set_idx]
        if row is None:
            row = make_row(set_idx)
        if line in row:
            way = row.index(line)
            use_counter += 1
            lru[set_idx][way] = use_counter
            done = start + hit_lat
            if is_store:
                dirty[set_idx][way] = True
            if mshr_hw > done:
                pending = mshr.get(line << line_shift)
                if pending is not None and pending > done:
                    return pending
            return done

        n_misses += 1
        tag_time = start + hit_lat
        line_base = line << line_shift
        pending = mshr.get(line_base, 0) if mshr_hw > tag_time else 0
        if pending > tag_time:
            n_merges += 1
            fill_time = pending
        else:
            if mshr_hw > tag_time and len(mshr) >= n_mshrs:
                in_flight = [ft for ft in mshr.values() if ft > tag_time]
                if len(in_flight) >= n_mshrs:
                    wait_until = min(in_flight)
                    n_mshr_stall += wait_until - tag_time
                    tag_time = wait_until
            fill_time = next_access(line_base, tag_time, False)
            mshr[line_base] = fill_time
            if fill_time > mshr_hw:
                mshr_hw = fill_time
            if len(mshr) > 2 * n_mshrs:
                for a in [a for a, ft in mshr.items() if ft <= tag_time]:
                    del mshr[a]

        if -1 in row:
            way = row.index(-1)
        else:
            lr = lru[set_idx]
            way = lr.index(min(lr))
        vtag = row[way]
        if dirty[set_idx][way] and vtag != -1:
            n_wb += 1
            next_access(vtag << line_shift, fill_time, True)
        row[way] = line
        dirty[set_idx][way] = bool(is_store)
        use_counter += 1
        lru[set_idx][way] = use_counter
        return fill_time

    def contains(addr):
        line = addr >> line_shift
        row = tags[line & set_mask]
        return row is not None and line in row

    def detach():
        cache._use_counter = use_counter
        st.accesses += n_access
        st.hits += n_access - n_misses
        st.misses += n_misses
        st.writebacks += n_wb
        st.mshr_merges += n_merges
        st.bank_conflict_cycles += n_conflict
        if n_mshr_stall:
            st.mshr_stall_cycles += n_mshr_stall

    return access, contains, detach


def _mirror_dram(dram):
    """Closure twin of ``DRAM.access`` (all state shared in place).

    Nothing is mirrored — bank state lists, channel timelines, in-flight
    queues, and stats are the reference objects — but the per-request
    attribute chases, the ``map_address`` call, and the common-case
    channel-bus reservation (monotone arrivals append at the tail) are
    flattened into one closure.  Returns ``(access, detach)``.
    """
    cfg = dram.cfg
    st = dram.stats
    line_bytes = dram.line_bytes
    channels = cfg.channels
    row_div = cfg.row_bytes * channels
    banks_per_chan = dram._banks_per_chan
    open_row = dram._open_row
    bank_ready = dram._bank_ready
    inflight = dram._inflight
    #: per channel: no queued request finishes later than this
    inflight_hw = [max(q, default=0.0) for q in inflight]
    cCAS = dram._cCAS
    cRCD = dram._cRCD
    cRP = dram._cRP
    cRAS = dram._cRAS
    cCTRL = dram._cCTRL
    cREFI = dram._cREFI
    cRFC = dram._cRFC
    cXFER = dram._cXFER
    chan_bus = dram._chan_bus
    bus_starts = [tl._starts for tl in chan_bus]
    bus_ends = [tl._ends for tl in chan_bus]
    bus_max = [tl.max_intervals for tl in chan_bus]
    queue_depth = cfg.queue_depth
    qmax = 4 * queue_depth
    n_access = n_writes = 0

    def access(addr, time, is_store):
        nonlocal n_access, n_writes
        n_access += 1
        if is_store:
            n_writes += 1
        line = addr // line_bytes
        chan = line % channels
        row_global = addr // row_div
        bank = chan * banks_per_chan + row_global % banks_per_chan
        row = row_global // banks_per_chan

        start = time + cCTRL
        q = inflight[chan]
        if q:
            if inflight_hw[chan] > start:
                live = [t for t in q if t > start]
                if len(live) >= queue_depth:
                    live.sort()
                    wait_until = live[-queue_depth]
                    st.queue_wait_cycles += int(wait_until - start)
                    start = wait_until
                inflight[chan] = q = live
            else:
                q.clear()

        if cREFI > 0 and start >= cREFI:
            since = start % cREFI
            if since < cRFC:
                st.refresh_stall_cycles += int(cRFC - since)
                start += cRFC - since
                open_row[bank] = -1
        if open_row[bank] == row:
            st.row_hits += 1
            ready = bank_ready[bank] - cRAS
            if start > ready:
                ready = start
            access_done = ready + cCAS
            if access_done > bank_ready[bank]:
                bank_ready[bank] = access_done
        else:
            st.row_misses += 1
            ready = bank_ready[bank]
            if start > ready:
                ready = start
            pre = cRP if open_row[bank] != -1 else 0.0
            access_done = ready + pre + cRCD + cCAS
            open_row[bank] = row
            bank_ready[bank] = access_done

        xfer_start = float(access_done)
        if cXFER > 0:
            ends = bus_ends[chan]
            if not ends or xfer_start >= ends[-1]:
                bus_starts[chan].append(xfer_start)
                ends.append(xfer_start + cXFER)
                drop = len(ends) - bus_max[chan]
                if drop > 0:
                    del bus_starts[chan][:drop]
                    del ends[:drop]
            else:
                xfer_start = chan_bus[chan].reserve(access_done, cXFER)
        finish = xfer_start + cXFER
        q.append(finish)
        if finish > inflight_hw[chan]:
            inflight_hw[chan] = finish
        if len(q) > qmax:
            inflight[chan] = [ft for ft in q if ft > finish - 1]
        if is_store:
            return int(start + cCTRL)
        return int(finish)

    def detach():
        st.reads += n_access - n_writes
        st.writes += n_writes

    return access, detach


def _tlb_entry(tlb, l2_access, l1_access, is_store, observe):
    """One port entry point: translate, L1 access, prefetcher observe.

    Closure twin of ``TilePort.dload``/``dstore``/``ifetch`` for one
    (TLB, L1, direction): the first-level TLB probe is inlined, so a TLB
    hit costs no call, and a miss walks the page table through
    *l2_access* directly, as ``TilePort._walker`` does.  Returns
    ``(entry, detach)``; set dicts and miss counts are shared in place,
    the access count flushes at detach.
    """
    if type(tlb) is TwoLevelTLB:
        l1 = tlb.l1
        l2st = tlb.l2.stats
        l2_shift = tlb.l2._page_shift
        l2_nsets = tlb.l2._num_sets
        l2_assoc = tlb.l2._assoc
        l2_sets = tlb.l2._sets
        l2_hit = tlb.l2_hit_latency
    else:
        l1 = tlb
        l2_sets = None
    st = l1.stats
    shift = l1._page_shift
    nsets = l1._num_sets
    assoc = l1._assoc
    sets = l1._sets
    hit_lat = l1.cfg.hit_latency
    walk_lat = l1.cfg.walk_latency
    walk_n = l1.cfg.walk_accesses
    n_access = 0

    def miss(addr, time, vpn, s):
        st.misses += 1
        if len(s) >= assoc:
            s.popitem(last=False)
        s[vpn] = True
        if l2_sets is not None:
            l2st.accesses += 1
            vpn2 = addr >> l2_shift
            s = l2_sets[vpn2 % l2_nsets]
            if vpn2 in s:
                s.move_to_end(vpn2)
                return time + l2_hit
            l2st.misses += 1
            if len(s) >= l2_assoc:
                s.popitem(last=False)
            s[vpn2] = True
        t = time + walk_lat
        base = 0x8000_0000 + (vpn % 4096) * 8
        for level in range(walk_n):
            t = l2_access(base + level * 4096, t, False)
        return t

    def entry(addr, time):
        nonlocal n_access
        n_access += 1
        vpn = addr >> shift
        s = sets[vpn % nsets]
        if vpn in s:
            s.move_to_end(vpn)
            t = time + hit_lat
        else:
            t = miss(addr, time, vpn, s)
        if observe is None:
            return l1_access(addr, t, is_store)
        done = l1_access(addr, t, is_store)
        observe(addr, t)
        return done

    def detach():
        st.accesses += n_access

    return entry, detach


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


def _inline_prefetcher(pf, contains_f, access_f):
    """Closure twin of ``StridePrefetcher.observe`` over a mirrored cache.

    The reference ``observe`` would fill through ``Cache.access``, whose
    LRU use counter and stats the mirror holds in locals mid-run, so
    prefetch traffic must flow through the same fast closures as demand
    traffic.
    """
    cfg = pf.cfg
    st = pf.stats
    table = pf._table
    line_b = pf._line
    degree = cfg.degree
    min_conf = cfg.min_confidence
    max_entries = cfg.table_entries

    def observe(addr, time):
        line = addr // line_b
        region = addr >> 12
        entry = table.pop(region, None)
        if entry is None:
            table[region] = (line, 0, 0)
        else:
            last, stride, conf = entry
            new_stride = line - last
            if new_stride == 0:
                table[region] = (line, stride, conf)
            elif new_stride == stride:
                conf = conf + 1 if conf < 4 else 4
                table[region] = (line, stride, conf)
                if conf >= min_conf:
                    st.triggers += 1
                    for k in range(1, degree + 1):
                        target = (line + stride * k) * line_b
                        if not contains_f(target):
                            st.issued += 1
                            access_f(target, time, False)
            else:
                table[region] = (line, new_stride, 1)
        if len(table) > max_entries:
            table.pop(next(iter(table)))

    return observe


# -- port attachment ----------------------------------------------------------

def attach_port(port):
    """Build the fast memory call graph over one TilePort's mirrored state.

    Returns ``(dload, dstore, ifetch, detach)`` — closure twins of the
    TilePort entry points.  The walk TLB -> L1 -> bus -> directory -> L2
    -> DRAM is wired here, each level a closure that calls the next one
    directly.  Shared by the in-order engine, the out-of-order engine,
    and the batched sweep driver; ``detach`` adds the counters the
    closures kept in locals to the stats objects and must run exactly
    once, even when the simulated trace raises.
    """
    uncore = port.uncore
    l2 = uncore.l2
    below_l2 = l2.next_level
    if type(below_l2) is DRAM:
        below_access, below_detach = _mirror_dram(below_l2)
    else:  # an LLC: its reference access, nothing to flush
        below_access, below_detach = below_l2.access, None
    l2_access, _, l2_detach = _mirror_cache(l2, below_access)
    bus = uncore.bus
    bus_st = bus.stats
    line_bytes = uncore._line
    bus_occ = bus.cfg.beats(line_bytes) / bus.cfg.clock_ratio
    bus_arb = bus.cfg.arbitration_latency
    bus_tl = bus._timeline
    bus_starts = bus_tl._starts
    bus_ends = bus_tl._ends
    bus_max = bus_tl.max_intervals
    bus_reserve = bus_tl.reserve
    n_transfers = 0
    directory = uncore.directory
    tile_id = port.tile_id
    dst = directory.stats
    shr = directory._sharers
    own = directory._owner
    inv_lat = directory.invalidate_latency
    max_lines = directory.max_lines
    dir_prune = directory._prune
    bit = 1 << tile_id

    def uncore_access(addr, time, is_store):
        # bus.transfer + SnoopDirectory.observe + L2, fused
        nonlocal n_transfers
        n_transfers += 1
        start = float(time)
        if not bus_ends or start >= bus_ends[-1]:
            bus_starts.append(start)
            bus_ends.append(start + bus_occ)
            drop = len(bus_ends) - bus_max
            if drop > 0:
                del bus_starts[:drop]
                del bus_ends[:drop]
        else:
            start = bus_reserve(start, bus_occ)
            if start > time:
                bus_st.contention_cycles += int(start - time)
        t = int(start + bus_arb + bus_occ)
        dline = addr // line_bytes
        sharers = shr.get(dline, 0)
        if is_store:
            extra = 0
            others = sharers & ~bit
            if others:
                dst.invalidations += bin(others).count("1")
                extra = inv_lat
            prev_owner = own.get(dline)
            if prev_owner is not None and prev_owner != tile_id:
                dst.ownership_changes += 1
                if inv_lat > extra:
                    extra = inv_lat
            shr[dline] = bit
            own[dline] = tile_id
            t += extra
        else:
            if dline in own and own[dline] != tile_id:
                dst.ownership_changes += 1
                del own[dline]
                t += inv_lat
            shr[dline] = sharers | bit
        if len(shr) > max_lines:
            dir_prune()
        return l2_access(addr, t, is_store)

    l1d_access, l1d_contains, l1d_detach = _mirror_cache(
        port.l1d, uncore_access)
    l1i_access, _, l1i_detach = _mirror_cache(port.l1i, uncore_access)

    pf = port.prefetcher  # TilePort builds it over its own L1D
    observe = (_inline_prefetcher(pf, l1d_contains, l1d_access)
               if pf is not None else None)

    dload, dload_detach = _tlb_entry(
        port.dtlb, l2_access, l1d_access, False, observe)
    dstore, dstore_detach = _tlb_entry(
        port.dtlb, l2_access, l1d_access, True, observe)
    ifetch, ifetch_detach = _tlb_entry(
        port.itlb, l2_access, l1i_access, False, None)

    def detach():
        for flush in (dload_detach, dstore_detach, ifetch_detach,
                      l1i_detach, l1d_detach, l2_detach, below_detach):
            if flush is not None:
                flush()
        bus_st.transfers += n_transfers

    return dload, dstore, ifetch, detach


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

    # ---- attach: build the fast call graph over the live state ----
    dload, dstore, ifetch, mem_detach = attach_port(port)
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
        mem_detach()
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
