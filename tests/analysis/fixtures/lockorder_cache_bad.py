"""Fixture: takes the connection-cache lock while holding a channel lock.

CHANNEL (rank 60) outranks CONN_CACHE (rank 55): niodev's ``write``
pins its connection *before* taking the channel (write) lock, so a
write that dials or evicts under the channel lock — the pattern below —
is the inversion the hierarchy forbids.  It would also deadlock against an
evictor waiting for the pin this thread holds.
"""

import threading


class Transport:
    def __init__(self) -> None:
        self._cache_lock = threading.Condition()
        self._locks = {}

    def channel_lock(self, dest):
        return self._locks.setdefault(dest, threading.Lock())

    def dial_under_channel(self, dest) -> None:
        with self.channel_lock(dest):
            with self._cache_lock:
                pass

    def evict_under_channel(self, dest) -> None:
        lock = self.channel_lock(dest)
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
        with self.channel_lock(dest):
            self._touch_cache()
