"""Fixtures shared across the test packages."""


class MemoryPort:
    """Terminal memory model with a fixed latency, to put under a Cache."""

    def __init__(self, latency: int = 100) -> None:
        self.latency = int(latency)
        self.accesses = 0

    def access(self, addr: int, time: int, is_store: bool = False) -> int:
        self.accesses += 1
        return time + self.latency
