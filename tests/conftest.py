"""Fixtures shared across the test packages.

The memory and branch components have one implementation of their
operations, the closures their ``bind`` methods return; the helpers
below drive it one request per bind (bind, call, close), so a
component's stats and registers are current after every call.
"""

from repro.mem.tlb import bind_entry


class MemoryPort:
    """Terminal memory model with a fixed latency, to put under a Cache."""

    def __init__(self, latency: int = 100) -> None:
        self.latency = int(latency)
        self.accesses = 0

    def access(self, addr: int, time: int, is_store: bool = False) -> int:
        self.accesses += 1
        return time + self.latency


class Bound:
    """A cache or DRAM driven through ``component.bind(*below)``.

    ``access(addr, time, is_store=False)`` binds, makes the one request
    and closes; every other attribute is the component's own.
    """

    def __init__(self, component, *below) -> None:
        self.component = component
        self._below = below

    def __getattr__(self, name):
        return getattr(self.component, name)

    def access(self, addr: int, time: int, is_store: bool = False):
        access, close = self.component.bind(*self._below)
        try:
            return access(addr, time, is_store)
        finally:
            close()


def port_call(port, kind: str, addr: int, time: int):
    """One ``dload``/``dstore``/``ifetch`` through ``port.bind()``."""
    dload, dstore, ifetch, close = port.bind()
    entry = {"dload": dload, "dstore": dstore, "ifetch": ifetch}[kind]
    try:
        return entry(addr, time)
    finally:
        close()


def uncore_call(uncore, tile: int, addr: int, time: int,
                is_store: bool = False):
    """One L1-miss request from *tile* through ``uncore.bind(tile)``."""
    access, _, close = uncore.bind(tile)
    try:
        return access(addr, time, is_store)
    finally:
        close()


def _free(addr: int, time: int, is_store: bool) -> int:
    return time


def translate(tlb, addr: int, time: int, walk=_free):
    """When a translation at *time* is ready: one request through
    :func:`~repro.mem.tlb.bind_entry` over an L1 that costs nothing.
    Page-table loads go to *walk* (``(addr, time, is_store) -> finish``),
    free by default."""
    entry, close = bind_entry(tlb, walk, _free, False, None)
    try:
        return entry(addr, time)
    finally:
        close()


def predict_update(predictor, pc: int, taken: bool) -> bool:
    """The prediction for *pc*, then training with *taken*, through
    ``predictor.bind()``."""
    call, close = predictor.bind()
    try:
        return call(pc, taken)
    finally:
        close()


def btb_call(btb, kind: str, *args):
    """One ``lookup(pc)`` or ``insert(pc, target)`` through ``btb.bind()``."""
    lookup, insert, close = btb.bind()
    try:
        return {"lookup": lookup, "insert": insert}[kind](*args)
    finally:
        close()


def resolve(bru, op: int, pc: int, taken: bool, target: int) -> int:
    """One control op through ``bru.bind()``; its redirect class."""
    call, close = bru.bind()
    try:
        return call(op, pc, taken, target)
    finally:
        close()
