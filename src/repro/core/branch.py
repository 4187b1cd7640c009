"""Branch-prediction models: bimodal BHT, gshare, BTB, RAS, and TAGE-L.

Rocket tiles use a BTB + BHT + RAS front end; BOOM uses a TAGE-L
predictor with a fetch-target queue (paper Table 5).  These are real
predictor implementations — tables, tags, useful counters — not statistical
stand-ins, because several MicroBench kernels (Cca, Cce, CCh, CRd, CRf,
CS1, CS3) exist specifically to separate predictable from unpredictable
control flow.

The direction predictors and the BTB each hold their state and have
one ``bind`` method, the only implementation of their operations.
``BranchUnit.bind()`` returns ``(resolve, close)`` over those two binds
and the RAS stack.  A binder uses the tables in place — every table is a plain list,
2-D tables a list of per-set rows, only ever mutated in place — keeps
the scalar registers (the BTB stamp, a global history) in locals and
writes them back at ``close``.  TAGE's folded-history registers are
state too, advanced per outcome and saved by checkpoints, so no lookup
and no bind re-folds the history.

The front end depends on the predictor and the trace, never on timing,
so ``InOrderCore.run`` and ``OoOCore.run`` resolve a window's control
ops before their timing loop: ``BranchUnit.resolve_window`` runs the
bound ``resolve`` over them (stopping at the first vector op the core
will refuse) and returns every uop's redirect class as one byte.  A
whole trace resolved by a unit with a lineage — its predictor config
plus the traces it has resolved since construction — is kept in
:mod:`repro.accel.memo`, so the next unit of that predictor config in a
sweep replays the stored classes, stats delta and changed table entries
instead of walking the trace again.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "PREDICTOR_TABLES",
    "BimodalBHT",
    "GShare",
    "BTB",
    "ReturnAddressStack",
    "TAGE",
    "BranchUnit",
    "BranchStats",
    "rocket_branch_unit",
    "boom_branch_unit",
]


def _nothing_to_close() -> None:
    pass


class BimodalBHT:
    """Table of 2-bit saturating counters indexed by PC."""

    #: the state a walk changes, the one list of it: tables (lists of
    #: scalars, or of per-set rows of scalars, mutated in place) and int
    #: registers.  Window reuse replays exactly these; checkpoints copy
    #: and hash these tables row by row (``PREDICTOR_TABLES``).
    TABLES: tuple[str, ...] = ("_ctr",)
    REGISTERS: tuple[str, ...] = ()

    def __init__(self, entries: int = 512) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self._ctr = [1] * entries  # weakly not-taken

    def bind(self):
        """Bind the predictor over its counter table.

        Returns ``(predict_update, close)``: ``predict_update(pc, taken)``
        returns the prediction for *pc* and trains the counter with the
        outcome.  Nothing is kept in locals, so ``close`` has nothing to
        write back.
        """
        ctr = self._ctr
        mask = self.entries - 1

        def predict_update(pc, taken):
            i = (pc >> 2) & mask
            c = ctr[i]
            if taken:
                if c < 3:
                    ctr[i] = c + 1
            elif c > 0:
                ctr[i] = c - 1
            return c >= 2

        return predict_update, _nothing_to_close


class GShare:
    """Global-history-XOR-PC indexed 2-bit counter table."""

    TABLES = ("_ctr",)
    REGISTERS = ("_hist",)

    def __init__(self, entries: int = 1024, hist_bits: int = 10) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self.hist_bits = hist_bits
        self._ctr = [1] * entries
        self._hist = 0

    def bind(self):
        """Bind the predictor; returns ``(predict_update, close)`` as
        :meth:`BimodalBHT.bind` does.  The global history lives in a
        local until ``close`` writes it back."""
        ctr = self._ctr
        mask = self.entries - 1
        hmask = (1 << self.hist_bits) - 1
        hist = self._hist

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

        def close():
            self._hist = hist

        return predict_update, close


class BTB:
    """Branch target buffer: set-associative PC -> target mapping."""

    TABLES = ("_tag", "_target", "_lru")
    REGISTERS = ("_stamp",)

    def __init__(self, entries: int = 32, assoc: int = 2) -> None:
        if entries % assoc:
            raise ValueError("entries must be divisible by assoc")
        self.sets = entries // assoc
        self.assoc = assoc
        self._tag = [[-1] * assoc for _ in range(self.sets)]
        self._target = [[0] * assoc for _ in range(self.sets)]
        self._lru = [[0] * assoc for _ in range(self.sets)]
        self._stamp = 0

    def bind(self):
        """Bind the buffer over its rows; returns ``(lookup, insert, close)``.

        ``lookup(pc)`` returns the stored target or None; ``insert(pc,
        target)`` fills the PC's way, or the least recently used one.
        Both stamp the way they touch; the stamp lives in a local until
        ``close`` writes it back.
        """
        nsets = self.sets
        tag_m = self._tag
        tgt_m = self._target
        lru_m = self._lru
        stamp = self._stamp

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

        def close():
            self._stamp = stamp

        return lookup, insert, close


class ReturnAddressStack:
    """Fixed-depth RAS; overflow wraps (overwrites oldest), as in hardware.

    :meth:`BranchUnit.bind` pushes and pops ``_stack`` in place.
    """

    def __init__(self, depth: int = 8) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._stack: list[int] = []


@functools.cache
def _rotl1_table(width):
    """Every *width*-bit value rotated left by one."""
    top = width - 1
    return tuple((v << 1) & ((1 << width) - 1) | v >> top
                 for v in range(1 << width))


class TAGE:
    """TAGE predictor: bimodal base + tagged tables with geometric history.

    A functional implementation of the TAGE scheme (Seznec): provider =
    longest-history tagged hit; alternate prediction on low-confidence new
    entries; usefulness counters steer allocation on mispredicts.

    Tables are indexed and tagged with the PC XOR the history window
    folded down to the index width (``_fidx``) and to the tag widths
    (``_ftag``, ``_ftag1``: the tag is ``f ^ (g << 1)``).  As in TAGE
    hardware, these folded registers are state: they start at zero with
    ``_hist`` and advance by one rotate per outcome (see :meth:`bind`),
    so nothing is re-folded per lookup.
    """

    TABLES = ("_ctr", "_tag", "_useful", "_fidx", "_ftag", "_ftag1")
    REGISTERS = ("_hist",)

    def __init__(
        self,
        num_tables: int = 4,
        table_bits: int = 9,
        tag_bits: int = 9,
        min_hist: int = 4,
        max_hist: int = 64,
        base_entries: int = 2048,
    ) -> None:
        self.num_tables = num_tables
        self.size = 1 << table_bits
        self.tag_bits = tag_bits
        self.base = BimodalBHT(base_entries)
        # geometric history lengths
        if num_tables == 1:
            self.hist_len = [min_hist]
        else:
            ratio = (max_hist / min_hist) ** (1 / (num_tables - 1))
            self.hist_len = [int(round(min_hist * ratio**i)) for i in range(num_tables)]
        self._ctr = [[0] * self.size for _ in range(num_tables)]
        self._tag = [[-1] * self.size for _ in range(num_tables)]
        self._useful = [[0] * self.size for _ in range(num_tables)]
        self._hist = 0
        self._fidx = [0] * num_tables
        self._ftag = [0] * num_tables
        self._ftag1 = [0] * num_tables

    def bind(self):
        """Bind the predictor; returns ``(predict_update, close)`` as
        :meth:`BimodalBHT.bind` does.

        One walk of the tagged tables serves the prediction and the
        update.  The folded registers advance in place; per table an
        outcome makes each
        ``f' = rotl1(f) ^ taken ^ (leaving_bit << (window % width))``.
        The history register is 64 bits wide, so a table's window is its
        ``hist_len`` capped there.  ``_hist`` lives in a local until
        ``close`` writes it back.
        """
        nt = self.num_tables
        size_mask = self.size - 1
        tag_bits = self.tag_bits
        tag_mask = (1 << tag_bits) - 1
        ctrs = self._ctr
        tags = self._tag
        useful = self._useful
        hist = self._hist
        base_ctr = self.base._ctr
        base_mask = self.base.entries - 1
        f_idx, f_tag, f_tag1 = self._fidx, self._ftag, self._ftag1
        #: per table: the history part of a tag
        h_tag = [f ^ (g << 1) for f, g in zip(f_tag, f_tag1)]
        windows = [min(n, 64) for n in self.hist_len]
        widths = (self.size.bit_length() - 1, tag_bits, tag_bits - 1)
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

        def close():
            self._hist = hist

        return predict_update, close


#: every predictor table name, for checkpoint capture and hashing
PREDICTOR_TABLES = frozenset().union(
    *(cls.TABLES for cls in (BimodalBHT, GShare, BTB, TAGE)))


@dataclass
class BranchStats:
    branches: int = 0
    mispredicts: int = 0
    btb_misses: int = 0
    ras_mispredicts: int = 0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    def reset(self) -> None:
        self.__init__()


class _Window(NamedTuple):
    """A resolved whole-trace window, as :meth:`BranchUnit.resolve_window`
    keeps it for reuse: what the live walk returned and what it changed."""

    kinds: bytes                #: per-uop redirect class
    stats: tuple                #: BranchStats field deltas
    rows: tuple                 #: (row, positions, values) that changed
    regs: tuple                 #: (register, value) that changed
    ras: tuple                  #: the RAS stack at the end


class BranchUnit:
    """Front-end control-flow handling shared by both core models.

    The ``resolve`` that :meth:`bind` returns processes one control op
    and returns the redirect class: ``0`` = correctly predicted, ``1`` =
    taken-but-BTB-miss (front-end bubble), ``2`` = full mispredict
    (pipeline flush).

    A unit given the *config* it was built from has a lineage: that
    config plus the content digest of every whole trace
    :meth:`resolve_window` has resolved since construction.  Its tables
    are a function of the lineage, which is what lets a window be reused
    across units of one config.  Any other use of the tables (a direct
    :meth:`bind`, a chunked window, a checkpoint restore) ends it.
    """

    CORRECT, BUBBLE, FLUSH = 0, 1, 2

    def __init__(self, direction, btb: BTB, ras: ReturnAddressStack,
                 config=None) -> None:
        self.direction = direction
        self.btb = btb
        self.ras = ras
        self.stats = BranchStats()
        self._lineage = None if config is None else (config,)

    def bind(self):
        """Bind the unit over its predictor, BTB and RAS; returns
        ``(resolve, close)``.

        ``resolve(op, pc, taken, target)`` handles one control op and
        returns its redirect class.  The RAS stack and the stats are used
        in place; ``close`` writes back what the predictor and the BTB
        keep in locals, and must run exactly once.
        """
        # whatever the caller walks, no lineage accounts for it;
        # resolve_window sets the lineage again after its own walks
        self._lineage = None
        bst = self.stats
        predict_update, dir_close = self.direction.bind()
        lookup, insert, btb_close = self.btb.bind()
        ras = self.ras._stack
        ras_depth = self.ras.depth

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
                    # cold BTB: direct jumps still resolve at decode (bubble)
                    bst.btb_misses += 1
                    return 1
                # stale target: an indirect jump/call went elsewhere — full flush
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

        def close():
            btb_close()
            dir_close()

        return resolve, close

    def resolve_window(self, trace, ct, refuse_vector: bool) -> bytes:
        """Resolve the control ops of *ct*, a compiled window of *trace*,
        before a core loop runs it; returns each uop's redirect class as
        one byte (0 for every other op).

        The front end depends on the predictor and the control ops only,
        never on timing, so resolving them ahead of the loop leaves what
        a per-uop ``resolve`` would.  With *refuse_vector* the walk stops
        at the window's first vector op, where the core will raise.

        A whole trace resolved under a lineage is kept in
        :func:`~repro.accel.memo.window_get`'s LRU, keyed on the lineage
        extended by the trace's digest.  A unit that reaches the same key
        takes the stored kinds, adds the stored stats delta and writes the
        stored changes into its tables in place, without binding.  The
        key is made only when the trace's digest is already computed.
        """
        from ..accel import memo

        stop = ct.refused() if refuse_vector else ct.n
        digest = memo.window_digest(trace, ct)
        key = None
        if self._lineage is not None and digest is not None and stop == ct.n:
            key = self._lineage + (digest,)
            hit = memo.window_get(key)
            if hit is not None:
                self._replay(hit)
                self._lineage = key
                return hit.kinds
            before = self._snapshot()
        control = ct.control()
        if stop < ct.n:
            control = control[:bisect.bisect_left(control, stop)]
        cols = ct.cols
        op_l, pc_l = cols["op"], cols["pc"]
        taken_l, tgt_l = cols["taken"], cols["target"]
        kinds = bytearray(ct.n)
        resolve, close = self.bind()
        try:
            for i in control:
                kinds[i] = resolve(op_l[i], pc_l[i], taken_l[i], tgt_l[i])
        finally:
            close()
        kinds = bytes(kinds)
        if key is not None:
            memo.window_put(key, self._changes(before, kinds))
            self._lineage = key
        return kinds

    def _state(self) -> tuple[list[list], list[tuple[object, str]]]:
        """The predictor's and the BTB's declared ``TABLES`` as rows of
        scalars, and their ``REGISTERS`` as ``(object, name)``, in an
        order fixed by the predictor config."""
        rows: list[list] = []
        regs: list[tuple[object, str]] = []
        for obj in (self.direction, getattr(self.direction, "base", None),
                    self.btb):
            if obj is None:
                continue
            for name in obj.TABLES:
                table = getattr(obj, name)
                if table and type(table[0]) is list:
                    rows.extend(table)
                else:
                    rows.append(table)
            for name in obj.REGISTERS:
                regs.append((obj, name))
        return rows, regs

    def _snapshot(self) -> tuple:
        rows, regs = self._state()
        return ([row[:] for row in rows],
                [getattr(obj, name) for obj, name in regs],
                list(vars(self.stats).values()))

    def _changes(self, before: tuple, kinds: bytes) -> _Window:
        """What a live walk changed since *before* (a :meth:`_snapshot`):
        only the entries that differ are kept."""
        old_rows, old_regs, old_stats = before
        rows, regs = self._state()
        changed = []
        for r, (old, row) in enumerate(zip(old_rows, rows)):
            if old != row:
                # a walk touches few entries of a long row: compare it a
                # block at a time, entry by entry only where a block moved
                at = [j for k in range(0, len(row), 64)
                      if old[k:k + 64] != row[k:k + 64]
                      for j in range(k, min(k + 64, len(row)))
                      if old[j] != row[j]]
                changed.append((r, tuple(at), tuple([row[j] for j in at])))
        new_regs = [getattr(obj, name) for obj, name in regs]
        return _Window(
            kinds,
            tuple([b - a for a, b in zip(old_stats, vars(self.stats).values())]),
            tuple(changed),
            tuple([(r, v) for r, (a, v) in enumerate(zip(old_regs, new_regs))
                   if a != v]),
            tuple(self.ras._stack))

    def _replay(self, w: _Window) -> None:
        """Leave the tables and stats where the walk *w* records left
        them, starting from where it started."""
        rows, regs = self._state()
        for r, at, vals in w.rows:
            row = rows[r]
            for j, v in zip(at, vals):
                row[j] = v
        for r, v in w.regs:
            setattr(*regs[r], v)
        self.ras._stack[:] = w.ras
        counts = vars(self.stats)
        for name, d in zip(list(counts), w.stats):
            counts[name] += d


def rocket_branch_unit(bht_entries: int = 512, btb_entries: int = 32,
                       ras_depth: int = 6) -> BranchUnit:
    """Rocket-style front end: bimodal BHT + small BTB + RAS."""
    return BranchUnit(BimodalBHT(bht_entries), BTB(btb_entries),
                      ReturnAddressStack(ras_depth))


def boom_branch_unit(tables: int = 6, table_bits: int = 10,
                     btb_entries: int = 128, ras_depth: int = 32) -> BranchUnit:
    """BOOM-style front end: TAGE-L + larger BTB + deep RAS."""
    return BranchUnit(
        TAGE(num_tables=tables, table_bits=table_bits, max_hist=128),
        BTB(btb_entries, assoc=4),
        ReturnAddressStack(ras_depth),
    )
