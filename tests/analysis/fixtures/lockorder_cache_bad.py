"""Fixture: takes the connection-cache lock while holding a channel lock.

CHANNEL (rank 60) outranks CONN_CACHE (rank 55): niodev's ``write``
pins its connection *before* taking the entry's write (channel) lock,
so a write that dials or evicts under the channel lock — the pattern
below — is the inversion the hierarchy forbids.  It would also deadlock
against an evictor waiting for the pin this thread holds.
"""

from repro.xdev.locknames import CHANNEL, CONN_CACHE, new_condition, new_lock


class _CacheEntry:
    def __init__(self, uid) -> None:
        self.write_lock = new_lock(CHANNEL, uid)


class Transport:
    def __init__(self) -> None:
        self._cache_lock = new_condition(CONN_CACHE)
        self._entries = {}

    def dial_under_channel(self, dest) -> None:
        entry = self._entries[dest]
        with entry.write_lock:
            with self._cache_lock:
                pass

    def evict_under_channel(self, dest) -> None:
        lock = self._entries[dest].write_lock
        lock.acquire()
        try:
            self._cache_lock.acquire()
            self._cache_lock.release()
        finally:
            lock.release()

    def _touch_cache(self) -> None:
        with self._cache_lock:
            pass

    def transitive_under_channel(self, dest) -> None:
        entry = self._entries[dest]
        with entry.write_lock:
            self._touch_cache()
