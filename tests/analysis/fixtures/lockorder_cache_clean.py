"""Fixture: the legal cache/channel ordering — pin first, lock second.

Mirrors niodev's write path: the connection is pinned under the
cache lock (rank 55) and *released* before the entry's write (channel)
lock (rank 60) is taken, so the two are held sequentially in
ascending-rank order, never inverted.
"""

from repro.xdev.locknames import CHANNEL, CONN_CACHE, new_condition, new_lock


class _CacheEntry:
    def __init__(self, uid) -> None:
        self.write_lock = new_lock(CHANNEL, uid)


class Transport:
    def __init__(self) -> None:
        self._cache_lock = new_condition(CONN_CACHE)
        self._entries = {}

    def pin(self, dest) -> _CacheEntry:
        with self._cache_lock:
            return self._entries.setdefault(dest, _CacheEntry(dest))

    def pinned_write(self, dest) -> None:
        entry = self.pin(dest)
        with entry.write_lock:
            pass

    def cache_then_channel_nested(self, dest) -> None:
        # Even *nested* the ascending order is legal; niodev just
        # chooses not to nest them.
        with self._cache_lock:
            entry = self._entries[dest]
            with entry.write_lock:
                pass
