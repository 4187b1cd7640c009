"""``Cache.bind`` against an independent textbook cache model.

The model is the write-back, write-allocate LRU cache of a textbook:
one ``OrderedDict`` per set mapping a resident line to its dirty bit,
least recent first.  Both see the same streams of ``(line, is_store)``,
spaced far enough apart that no fill is still in flight, so every miss
is one fill request and every dirty victim one writeback.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache, CacheConfig

SETS = 4
LINE = 64


class TextbookCache:
    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [OrderedDict() for _ in range(sets)]
        self.ways = ways

    def access(self, line: int, is_store: bool):
        """Returns ``(hit, victim, writeback)``; the last two may be None."""
        s = self.sets[line % len(self.sets)]
        if line in s:
            s.move_to_end(line)
            s[line] = s[line] or is_store
            return True, None, None
        victim = writeback = None
        if len(s) == self.ways:
            victim, was_dirty = s.popitem(last=False)
            if was_dirty:
                writeback = victim
        s[line] = is_store
        return False, victim, writeback


def _stream(ways):
    """Accesses over ``ways + 3`` lines per set (conflicts in every set);
    a ``None`` line repeats the previous access's line (an MRU hit)."""
    line = st.one_of(st.none(), st.integers(0, SETS * (ways + 3) - 1))
    return st.lists(st.tuples(line, st.booleans()), min_size=1, max_size=300)


@pytest.mark.parametrize("ways", [1, 2, 8])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bound_cache_matches_the_textbook_model(ways, data):
    ops = data.draw(_stream(ways))
    cache = Cache(CacheConfig(sets=SETS, ways=ways, mshrs=1))
    model = TextbookCache(SETS, ways)
    requests = []

    def below(addr, time, is_store):
        requests.append((addr, is_store))
        return time + 100

    access, close = cache.bind(below)
    prev, touched = 0, set()
    n_misses = n_writebacks = 0
    try:
        for i, (line, is_store) in enumerate(ops):
            line = prev if line is None else line
            prev = line
            s = line % SETS
            touched.add(s)
            before = list(cache._tags[s] or [])
            del requests[:]
            access(line * LINE, 1000 * i, is_store)
            hit, victim, writeback = model.access(line, is_store)
            n_misses += not hit
            n_writebacks += writeback is not None
            fills = [a for a, store in requests if not store]
            assert fills == ([] if hit else [line * LINE])
            assert [a for a, store in requests if store] == (
                [] if writeback is None else [writeback * LINE])
            gone = set(before) - set(cache._tags[s])
            assert gone == ({victim} if victim is not None else set())
    finally:
        close()
    assert [row is not None for row in cache._tags] == [
        s in touched for s in range(SETS)]
    assert [row or [] for row in cache._tags] == [list(s) for s in model.sets]
    assert cache._dirty == {line for s in model.sets
                            for line, dirty in s.items() if dirty}
    assert cache.stats.misses == n_misses
    assert cache.stats.writebacks == n_writebacks
