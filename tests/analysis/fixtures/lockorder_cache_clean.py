"""Fixture: the legal cache/channel ordering — pin first, lock second.

Mirrors niodev's write path: the connection is pinned under the
cache lock (rank 55) and *released* before the channel lock (rank 60)
is taken, so the two are held sequentially in ascending-rank order,
never inverted.
"""

import threading


class Transport:
    def __init__(self) -> None:
        self._cache_lock = threading.Condition()
        self._locks = {}

    def channel_lock(self, dest):
        return self._locks.setdefault(dest, threading.Lock())

    def pin(self, dest) -> None:
        with self._cache_lock:
            pass

    def pinned_write(self, dest) -> None:
        self.pin(dest)
        with self.channel_lock(dest):
            pass

    def cache_then_channel_nested(self, dest) -> None:
        # Even *nested* the ascending order is legal; niodev just
        # chooses not to nest them.
        with self._cache_lock:
            with self.channel_lock(dest):
                pass
