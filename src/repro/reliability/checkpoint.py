"""Versioned, content-hashed simulation checkpoints.

FireSim survives multi-hour FPGA runs by snapshotting target state and
replaying deterministically from the snapshot; this module is the
reproduction's equivalent for :class:`repro.soc.System`.  A
:class:`SimCheckpoint` captures every piece of mutable simulation state —
tile pipelines, branch predictors, caches/TLBs/LLC/DRAM/bus/directory,
lockstep-scheduler position, token channels, and partial per-lane
results — at a quantum boundary, so a resumed ``run_parallel`` produces
**bit-identical** :class:`~repro.core.base.CoreResult`\\ s to an
uninterrupted run.

Design notes:

* ``System`` wires components to each other (cores to ports, ports to
  the shared uncore), so it is not safely deep-copyable.  Capture
  therefore walks each component's ``__dict__`` explicitly and restore
  applies the captured values **in place** onto the existing component
  objects — component identity never changes, and tables are filled in
  place, so the lists a bound memory walk holds stay the live ones.
* Checkpoints are self-verifying: a sha-256 digest over the pickled
  payload detects torn/corrupted files, a config fingerprint refuses
  restores onto a mismatched topology, and :func:`audit_checkpoint`
  checks physical invariants (token conservation, monotonic lane clocks,
  cache tag uniqueness and set bounds, dirty ⊆ resident, TLB set bounds)
  on every restore.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .._atomic import atomic_write
from ..core.branch import PREDICTOR_TABLES
from ..isa.trace import trace_digest
from ..soc.config import config_digest

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointAuditError",
    "SimCheckpoint",
    "audit_checkpoint",
    "capture_system",
    "restore_system",
    "config_fingerprint",
    "trace_fingerprint",
]

#: bump when the capture layout below changes incompatibly (2: cache and
#: predictor tables are lists of rows, predictors captured as components;
#: 3: TAGE's folded-history registers are captured state; 4: a cache set
#: is its resident tags in LRU order and a cache's dirty lines one set)
CHECKPOINT_SCHEMA = 4

_PICKLE_PROTOCOL = 4  # fixed so digests are stable across interpreters


class CheckpointError(RuntimeError):
    """A checkpoint could not be created, read, or applied."""


class CheckpointAuditError(CheckpointError):
    """A checkpoint failed its invariant audit.

    ``problems`` lists every violated invariant (the audit does not stop
    at the first failure).
    """

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        lines = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(
            f"checkpoint failed invariant audit "
            f"({len(self.problems)} problem(s)):\n{lines}")


# -- fingerprints -------------------------------------------------------------

#: a checkpoint's config stamp is the package's one config digest
config_fingerprint = config_digest


#: a lane's trace stamp is the trace's own content digest
trace_fingerprint = trace_digest


# -- component state capture --------------------------------------------------

#: attribute names never captured: configs/wiring, not mutable sim state
#: (``direction``, ``base`` and ``btb`` are captured as components), and
#: the branch unit's lineage, host bookkeeping a restore ends
_WIRING = {"cfg", "name", "port", "bru", "uncore", "tile_id", "prefetcher",
           "direction", "base", "btb", "_lineage"}

#: the list-native tables of caches, the BTB and the direction
#: predictors (each predictor class declares its own ``TABLES``, TAGE's
#: folded registers included): lists of scalars or of rows of scalars
#: (a cache's unmade sets are None), so they are copied row by row and
#: hashed per table
_TABLES = frozenset({"_tags", "_lru"}) | PREDICTOR_TABLES


def _copy_table(table: list) -> list:
    return [row[:] if type(row) is list else row for row in table]


def _grab(obj) -> dict[str, Any]:
    """Copy every mutable (non-wiring, non-callable) attribute."""
    out: dict[str, Any] = {}
    for k, v in vars(obj).items():
        if k in _WIRING or callable(v):
            continue
        out[k] = _copy_table(v) if k in _TABLES else copy.deepcopy(v)
    return out


def _apply(obj, state: dict[str, Any]) -> None:
    """Write captured state back onto an existing object, in place.

    Values are copied on the way in so one checkpoint can be restored
    into several systems without aliasing live state.  Tables are
    filled in place: the core loops and bound walks hold those very lists.
    """
    for k, v in state.items():
        if not hasattr(obj, k):
            raise CheckpointError(
                f"checkpoint state key {k!r} does not exist on "
                f"{type(obj).__name__}; schema drift?")
        if k in _TABLES:
            getattr(obj, k)[:] = _copy_table(v)
        else:
            setattr(obj, k, copy.deepcopy(v))


def _tile_components(tile) -> dict[str, Any]:
    """One tile's stateful components by capture name (None: absent)."""
    port, bru = tile.port, tile.core.bru
    return {"core": tile.core, "bru": bru, "direction": bru.direction,
            "base": getattr(bru.direction, "base", None),  # TAGE's bimodal
            "btb": bru.btb, "l1i": port.l1i, "l1d": port.l1d,
            "itlb": port.itlb, "dtlb": port.dtlb,
            "prefetch": port.prefetcher}


def capture_system(system) -> dict:
    """Capture the full mutable state tree of a :class:`repro.soc.System`."""
    tiles = [{k: _grab(c) if c is not None else None
              for k, c in _tile_components(tile).items()}
             for tile in system.tiles]
    unc = system.uncore
    return {
        "tiles": tiles,
        "uncore": {
            "l2": _grab(unc.l2),
            "bus": _grab(unc.bus),
            "directory": _grab(unc.directory),
            "drams": [_grab(d) for d in unc.drams],
            "llc": ([_grab(s) for s in unc.llc.slices]
                    if unc.llc is not None else None),
        },
    }


def restore_system(system, state: dict) -> None:
    """Apply a :func:`capture_system` tree onto *system*, in place."""
    tiles = state["tiles"]
    if len(tiles) != len(system.tiles):
        raise CheckpointError(
            f"checkpoint has {len(tiles)} tiles, system has "
            f"{len(system.tiles)}")
    for tile, ts in zip(system.tiles, tiles):
        for k, c in _tile_components(tile).items():
            if (ts[k] is None) != (c is None):
                raise CheckpointError(f"{k} presence mismatch")
            if c is not None:
                _apply(c, ts[k])
        # the predictor tables now hold the checkpoint's state, which no
        # lineage describes
        tile.core.bru._lineage = None
    unc = system.uncore
    ustate = state["uncore"]
    _apply(unc.l2, ustate["l2"])
    _apply(unc.bus, ustate["bus"])
    _apply(unc.directory, ustate["directory"])
    if len(ustate["drams"]) != len(unc.drams):
        raise CheckpointError(
            f"checkpoint has {len(ustate['drams'])} DRAM channels, system "
            f"has {len(unc.drams)}")
    for dram, ds in zip(unc.drams, ustate["drams"]):
        _apply(dram, ds)
    if (ustate["llc"] is None) != (unc.llc is None):
        raise CheckpointError("LLC presence mismatch")
    if ustate["llc"] is not None:
        if len(ustate["llc"]) != len(unc.llc.slices):
            raise CheckpointError("LLC slice count mismatch")
        for sl, ss in zip(unc.llc.slices, ustate["llc"]):
            _apply(sl, ss)


# -- invariant audit ----------------------------------------------------------


def _cache_ways(system) -> dict[str, int]:
    """Each cache's associativity, by its audit label."""
    out = {}
    for t, tile in enumerate(system.tiles):
        out[f"tile{t}.l1i"] = tile.port.l1i.cfg.ways
        out[f"tile{t}.l1d"] = tile.port.l1d.cfg.ways
    out["l2"] = system.uncore.l2.cfg.ways
    for i, sl in enumerate(system.uncore.llc.slices
                           if system.uncore.llc is not None else []):
        out[f"llc{i}"] = sl.cfg.ways
    return out


def _audit_cache(label: str, cs: dict, ways: int | None,
                 problems: list[str]) -> None:
    """Rows hold distinct tags, no more than *ways* of them (unchecked
    when None), and every dirty line is resident in its own set."""
    tags = cs["_tags"]
    for s, row in enumerate(tags):
        if row is None:
            continue
        if len(row) != len(set(row)):
            problems.append(
                f"{label}: duplicate tag in set {s} (cache line corruption)")
        if ways is not None and len(row) > ways:
            problems.append(
                f"{label}: set {s} holds {len(row)} lines (ways {ways})")
    mask = cs["_set_mask"]
    if any(t not in (tags[t & mask] or ()) for t in cs["_dirty"]):
        problems.append(f"{label}: dirty line not resident in its set")


def _audit_tlb(label: str, ts: dict, problems: list[str]) -> None:
    if "_sets" in ts:  # single-level TLB
        assoc = ts.get("_assoc")
        for s, entries in enumerate(ts["_sets"]):
            if assoc is not None and len(entries) > assoc:
                problems.append(
                    f"{label}: set {s} holds {len(entries)} entries "
                    f"(assoc {assoc})")
    else:  # TwoLevelTLB captured as whole TLB objects
        for lvl in ("l1", "l2"):
            tlb = ts.get(lvl)
            if tlb is None:
                continue
            for s, entries in enumerate(tlb._sets):
                if len(entries) > tlb._assoc:
                    problems.append(
                        f"{label}.{lvl}: set {s} holds {len(entries)} "
                        f"entries (assoc {tlb._assoc})")


def audit_checkpoint(ckpt: "SimCheckpoint", system=None) -> list[str]:
    """Check a checkpoint's physical invariants; returns all problems.

    Invariants: schema match, (optional) config fingerprint vs *system*,
    token conservation on every channel, monotonic non-negative lane
    clocks with offsets inside the trace, per-set cache tag uniqueness,
    dirty ⊆ resident, TLB set occupancy within associativity, and, given
    a matching *system*, cache set occupancy within associativity.
    """
    problems: list[str] = []
    if ckpt.schema != CHECKPOINT_SCHEMA:
        problems.append(
            f"schema {ckpt.schema} != supported {CHECKPOINT_SCHEMA}")
    ways: dict[str, int] = {}
    if system is not None:
        fp = config_fingerprint(system.cfg)
        if fp != ckpt.config_fp:
            problems.append(
                f"config fingerprint mismatch: checkpoint is for "
                f"{ckpt.config_name!r}, system is {system.cfg.name!r}")
        else:
            ways = _cache_ways(system)

    sched = ckpt.scheduler
    if sched is not None:
        total = 0
        for i, ch in enumerate(sched.get("channels", [])):
            produced, consumed = int(ch["produced"]), int(ch["consumed"])
            if produced != consumed:
                problems.append(
                    f"token channel {i}: produced {produced} != consumed "
                    f"{consumed} at quantum boundary (token leak)")
            if consumed > produced:
                problems.append(
                    f"token channel {i}: consumed {consumed} exceeds "
                    f"produced {produced}")
            total += produced
        if total != int(sched.get("quanta", 0)):
            problems.append(
                f"token conservation: {total} tokens across channels != "
                f"{sched.get('quanta')} scheduler quanta")
        live = set(sched.get("live", []))
    else:
        live = set()

    if ckpt.lanes is not None:
        for i, lane in enumerate(ckpt.lanes):
            t = int(lane["local_time"])
            off, n = int(lane["offset"]), int(lane["trace_len"])
            if t < 0:
                problems.append(f"lane {i}: negative local time {t}")
            if not 0 <= off <= n:
                problems.append(
                    f"lane {i}: offset {off} outside trace [0, {n}]")
            if i not in live and off != n:
                problems.append(
                    f"lane {i}: marked done at offset {off} of {n}")
            res = lane.get("result")
            if res is not None and (res["cycles"] < 0
                                    or res["instructions"] < 0):
                problems.append(f"lane {i}: negative partial result")

    caches = []
    for t, ts in enumerate(ckpt.state.get("tiles", [])):
        caches += [(f"tile{t}.l1i", ts["l1i"]), (f"tile{t}.l1d", ts["l1d"])]
        _audit_tlb(f"tile{t}.itlb", ts["itlb"], problems)
        _audit_tlb(f"tile{t}.dtlb", ts["dtlb"], problems)
    ustate = ckpt.state.get("uncore", {})
    if ustate:
        caches.append(("l2", ustate["l2"]))
        caches += [(f"llc{i}", ss) for i, ss in enumerate(ustate["llc"] or [])]
    for label, cs in caches:
        _audit_cache(label, cs, ways.get(label), problems)
    return problems


# -- content hashing ----------------------------------------------------------


def _digest_update(h, obj) -> None:
    """Feed *obj* into hash *h* by structure, not by pickle bytes.

    The one exception is a table under a ``_TABLES`` key: it holds no
    shared or interned object whose pickle could vary, so its pickle is
    hashed whole.
    """
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, int):
        h.update(b"I" + str(int(obj)).encode())
    elif isinstance(obj, float):
        h.update(b"F" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"Y" + obj)
    elif isinstance(obj, (list, tuple, deque)):
        h.update(b"L" + str(len(obj)).encode())
        for v in obj:
            _digest_update(h, v)
    elif isinstance(obj, (set, frozenset)):
        # no order to keep: the sorted elements
        h.update(b"E" + str(len(obj)).encode())
        for v in sorted(obj):
            _digest_update(h, v)
    elif isinstance(obj, dict):
        # insertion order is state (OrderedDict = LRU order in TLBs)
        h.update(b"D" + str(len(obj)).encode())
        for k, v in obj.items():
            _digest_update(h, k)
            if k in _TABLES:
                h.update(b"T" + pickle.dumps(v, protocol=_PICKLE_PROTOCOL))
            else:
                _digest_update(h, v)
    elif dataclasses.is_dataclass(obj):
        h.update(b"C" + type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _digest_update(h, getattr(obj, f.name))
    elif hasattr(obj, "__dict__"):
        h.update(b"O" + type(obj).__name__.encode())
        for k in sorted(vars(obj)):
            h.update(k.encode())
            _digest_update(h, vars(obj)[k])
    elif hasattr(obj, "__slots__"):
        h.update(b"O" + type(obj).__name__.encode())
        for k in obj.__slots__:
            h.update(k.encode())
            _digest_update(h, getattr(obj, k))
    else:
        raise CheckpointError(
            f"cannot digest a {type(obj).__name__} in checkpoint state")


# -- the checkpoint record ----------------------------------------------------


@dataclass
class SimCheckpoint:
    """One versioned, digest-protected snapshot of a simulation.

    ``lanes``/``scheduler`` are None for a bare system snapshot (no
    in-flight ``run_parallel``); ``extras`` is caller data carried
    verbatim (the farm stashes its telemetry baseline there so a resumed
    job reports identical deltas).
    """

    schema: int
    config_name: str
    config_fp: str
    state: dict
    lanes: list[dict] | None = None
    scheduler: dict | None = None
    extras: dict = field(default_factory=dict)
    digest: str = ""

    # -- construction ---------------------------------------------------------

    @classmethod
    def capture(cls, system, run=None, extras: dict | None = None,
                ) -> "SimCheckpoint":
        """Snapshot *system* (and the in-flight *run*, if any), sealed."""
        lanes = scheduler = None
        if run is not None:
            lanes = [lane_state(lane) for lane in run.lanes]
            scheduler = run.scheduler.state()
        ckpt = cls(
            schema=CHECKPOINT_SCHEMA,
            config_name=system.cfg.name,
            config_fp=config_fingerprint(system.cfg),
            state=capture_system(system),
            lanes=lanes,
            scheduler=scheduler,
            extras=dict(extras or {}),
        )
        ckpt.digest = ckpt.compute_digest()
        return ckpt

    # -- integrity ------------------------------------------------------------

    def compute_digest(self) -> str:
        """Structural sha-256 over the checkpoint content.

        Walks the value tree in deterministic order rather than hashing
        pickle bytes: pickle output depends on object-sharing/interning
        accidents, so it is not stable across a dump/load round-trip.
        """
        h = hashlib.sha256()
        for name in ("schema", "config_name", "config_fp", "state",
                     "lanes", "scheduler", "extras"):
            h.update(name.encode())
            _digest_update(h, getattr(self, name))
        return h.hexdigest()

    def verify(self) -> None:
        """Raise :class:`CheckpointError` if content does not match digest.

        A checkpoint of another schema is refused before its content is
        walked: schema 1 held numpy tables this build does not read,
        schema 2 lacks TAGE's folded-history registers, and schema 3
        holds per-way cache tag, dirty and LRU-stamp rows.
        """
        if self.schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint schema {self.schema} is not the supported "
                f"schema {CHECKPOINT_SCHEMA}; re-run from the start")
        actual = self.compute_digest()
        if actual != self.digest:
            raise CheckpointError(
                f"checkpoint digest mismatch: stored {self.digest[:12]}…, "
                f"content hashes to {actual[:12]}… (corrupt or tampered)")

    def audit(self, system=None) -> None:
        """Run the invariant audit; raise :class:`CheckpointAuditError`."""
        problems = audit_checkpoint(self, system)
        if problems:
            raise CheckpointAuditError(problems)

    # -- (de)serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        # shallow field dict, NOT dataclasses.asdict: the state tree holds
        # component stats dataclasses that must survive as objects
        body = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}
        return pickle.dumps(body, protocol=_PICKLE_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SimCheckpoint":
        try:
            body = pickle.loads(blob)
            ckpt = cls(**body)
        except Exception as exc:  # torn file, bad pickle, missing keys
            raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
        ckpt.verify()
        return ckpt

    def save(self, path: str | Path) -> Path:
        """Atomically write the checkpoint to *path*."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, self.to_bytes())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SimCheckpoint":
        try:
            blob = Path(path).read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
                from exc
        return cls.from_bytes(blob)

    @property
    def quanta(self) -> int:
        """Scheduler quanta completed when this checkpoint was taken."""
        return int(self.scheduler["quanta"]) if self.scheduler else 0


def result_from_state(d: dict):
    """Rebuild a :class:`~repro.core.base.CoreResult` from its asdict form."""
    from ..core.base import CoreResult  # local: keep import graph acyclic
    return CoreResult(**d)


def lane_state(lane) -> dict:
    """Serializable progress of one ``_TileLane``."""
    result = lane.result
    return {
        "offset": lane.offset,
        "chunk": lane.chunk,
        "trace_len": len(lane.trace),
        "trace_fp": trace_fingerprint(lane.trace),
        "local_time": lane.local_time(),
        "result": (dataclasses.asdict(result)
                   if result is not None else None),
    }
