"""Buffer pooling and copy accounting.

The companion paper [3] ("An Approach to Buffer Management in Java HPC
Messaging") motivates reusing direct byte buffers: allocating them is
expensive and the garbage collector does not reclaim native memory
promptly.  In Python, allocation is cheaper, but pooling still removes
per-message ``bytearray`` churn on the critical path and is the natural
home for the device-level temporary buffers the eager protocol assumes
("the receiver has got an unlimited device level memory", Section
IV-A.1).

Two pools live here:

* :class:`BufferPool` — whole :class:`~repro.buffer.Buffer` objects,
  used by the MPI layer for packed messages;
* :class:`RawPool` — plain ``bytearray`` scratch storage, used by the
  devices for receive scratch and unexpected-message storage.

Both are size-classed by powers of two (a request is served by storage
at most 2x larger than asked for), both are thread-safe (any user
thread may acquire; the delivering thread releases on message
completion), and both track *outstanding* acquisitions so device
shutdown and ``MPI.Finalize`` can warn about leaked buffers.

:class:`CopyStats` is the measurement companion: every payload byte
that moves through the datapath is attributed either to ``bytes_moved``
(placed directly in its final destination — the posted receive buffer,
the kernel socket buffer, an in-process peer by reference) or to
``bytes_copied``
(staged through temporary storage first).  A zero-copy path is one
whose transfers appear only under ``bytes_moved``; see
``docs/performance.md`` for the full accounting convention.
"""

from __future__ import annotations

import threading
import warnings

from repro.buffer.buffer import Buffer


class CopyStats:
    """Datapath copy/move counters for one device (thread-safe).

    ``bytes_copied``/``copies``
        Payload bytes duplicated into *staging* storage: flattening a
        segment list, snapshotting a buffered-mode send, storing an
        unexpected eager message, landing TCP bytes in device scratch.
    ``bytes_moved``/``moves``
        Payload bytes placed directly where they were going anyway:
        gathered into the posted receive's own storage, handed to
        ``sendmsg``, or handed by reference to an in-process peer.
    ``pool_hits``/``pool_misses``
        Pool acquisitions served from a free list vs. freshly
        allocated.
    """

    __slots__ = ("_lock", "bytes_copied", "copies", "bytes_moved", "moves",
                 "pool_hits", "pool_misses")

    def __init__(self, lock: threading.Lock | None = None) -> None:
        #: A metrics registry passes its shared leaf lock, so an owner
        #: may update the counters inside a critical section of its own.
        self._lock = lock if lock is not None else threading.Lock()
        self.bytes_copied = 0
        self.copies = 0
        self.bytes_moved = 0
        self.moves = 0
        self.pool_hits = 0
        self.pool_misses = 0

    def copied(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_copied += nbytes
            self.copies += 1

    def moved(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_moved += nbytes
            self.moves += 1

    def pool_hit(self) -> None:
        with self._lock:
            self.pool_hits += 1

    def pool_miss(self) -> None:
        with self._lock:
            self.pool_misses += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "bytes_copied": self.bytes_copied,
                "copies": self.copies,
                "bytes_moved": self.bytes_moved,
                "moves": self.moves,
                "pool_hits": self.pool_hits,
                "pool_misses": self.pool_misses,
            }

    def reset(self) -> None:
        with self._lock:
            self.bytes_copied = self.copies = 0
            self.bytes_moved = self.moves = 0
            self.pool_hits = self.pool_misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CopyStats({self.snapshot()})"


def size_class(capacity: int, floor: int = 16) -> int:
    """The power-of-two size class that serves *capacity* bytes: the
    smallest ``floor * 2**k`` (k >= 0) that is at least *capacity*."""
    if capacity <= floor:
        return floor
    return floor << ((capacity - 1) // floor).bit_length()


class BufferPool:
    """Size-classed free list of :class:`Buffer` objects.

    Buffers are bucketed by power-of-two capacity so a request is served
    by a buffer at most 2x larger than needed.  ``max_buffers_per_bucket``
    bounds retained memory; excess releases simply drop the buffer.
    """

    def __init__(
        self,
        max_buffers_per_bucket: int = 32,
        stats: CopyStats | None = None,
    ) -> None:
        if max_buffers_per_bucket < 0:
            raise ValueError("max_buffers_per_bucket must be >= 0")
        self._max_per_bucket = max_buffers_per_bucket
        self._buckets: dict[int, list[Buffer]] = {}
        self._lock = threading.Lock()
        self._acquired = 0
        self._reused = 0
        self._outstanding = 0
        self.copy_stats = stats

    @staticmethod
    def _bucket_for(capacity: int) -> int:
        return size_class(capacity)

    def acquire(self, capacity: int = 256) -> Buffer:
        """Return a clear, writable buffer with at least *capacity* bytes."""
        bucket = self._bucket_for(capacity)
        with self._lock:
            self._acquired += 1
            self._outstanding += 1
            free = self._buckets.get(bucket)
            if free:
                self._reused += 1
                buf = free.pop()
                buf.clear()
                if self.copy_stats is not None:
                    self.copy_stats.pool_hit()
                return buf
        if self.copy_stats is not None:
            self.copy_stats.pool_miss()
        return Buffer(capacity=bucket, _pool=self)

    def release(self, buf: Buffer) -> None:
        """Return *buf* to the pool (drops it if the bucket is full)."""
        buf.clear()
        # Filed under its whole store's class, however small the last
        # message it landed was.
        bucket = self._bucket_for(buf._store.capacity)
        with self._lock:
            self._outstanding -= 1
            free = self._buckets.setdefault(bucket, [])
            if len(free) < self._max_per_bucket:
                free.append(buf)

    @property
    def outstanding(self) -> int:
        """Buffers acquired but not yet released."""
        with self._lock:
            return self._outstanding

    def check_leaks(self, where: str = "shutdown") -> int:
        """Warn if acquired buffers were never released; return the count.

        Called by ``MPI.Finalize`` and device shutdown — at those
        points every pooled buffer should have completed its round
        trip back to the free list.
        """
        with self._lock:
            leaked = self._outstanding
        if leaked > 0:
            warnings.warn(
                f"BufferPool leak at {where}: {leaked} buffer(s) acquired "
                f"but never released (stats: {self.stats})",
                ResourceWarning,
                stacklevel=2,
            )
        return leaked

    @property
    def stats(self) -> dict[str, int]:
        """Counters: total acquires, how many were served from the pool."""
        with self._lock:
            pooled = sum(len(v) for v in self._buckets.values())
            return {
                "acquired": self._acquired,
                "reused": self._reused,
                "pooled": pooled,
                "outstanding": self._outstanding,
            }


class RawPool:
    """Size-classed free list of ``bytearray`` scratch buffers.

    The devices' receive path stages here: niodev ``recv_into``'s eager
    payloads straight into pooled scratch, and the engine stores
    unexpected eager messages in pooled scratch instead of fresh
    ``bytes``.  Buckets are powers of two; ``max_per_bucket`` bounds
    retained memory per class and ``max_pooled_size`` keeps giant
    one-off buffers (rendezvous fallbacks) from being retained at all.
    """

    def __init__(
        self,
        max_per_bucket: int = 16,
        max_pooled_size: int = 4 << 20,
        stats: CopyStats | None = None,
    ) -> None:
        self._max_per_bucket = max_per_bucket
        self._max_pooled_size = max_pooled_size
        self._buckets: dict[int, list[bytearray]] = {}
        self._lock = threading.Lock()
        self._acquired = 0
        self._reused = 0
        self._outstanding = 0
        self.copy_stats = stats

    def acquire(self, nbytes: int) -> bytearray:
        """A ``bytearray`` of at least *nbytes* (size-classed)."""
        bucket = size_class(max(nbytes, 1))
        with self._lock:
            self._acquired += 1
            self._outstanding += 1
            free = self._buckets.get(bucket)
            if free:
                self._reused += 1
                if self.copy_stats is not None:
                    self.copy_stats.pool_hit()
                return free.pop()
        if self.copy_stats is not None:
            self.copy_stats.pool_miss()
        return bytearray(bucket)

    def release(self, storage: bytearray) -> None:
        """Return *storage* to its size class (drops when full/too big)."""
        with self._lock:
            self._outstanding -= 1
            if len(storage) > self._max_pooled_size:
                return
            free = self._buckets.setdefault(len(storage), [])
            if len(free) < self._max_per_bucket:
                free.append(storage)

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    def check_leaks(self, where: str = "shutdown") -> int:
        """Warn if scratch buffers were acquired and never released."""
        with self._lock:
            leaked = self._outstanding
        if leaked > 0:
            warnings.warn(
                f"RawPool leak at {where}: {leaked} scratch buffer(s) "
                f"acquired but never released (stats: {self.stats})",
                ResourceWarning,
                stacklevel=2,
            )
        return leaked

    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            pooled = sum(len(v) for v in self._buckets.values())
            return {
                "acquired": self._acquired,
                "reused": self._reused,
                "pooled": pooled,
                "outstanding": self._outstanding,
            }


#: Process-wide default pool used by devices unless given their own.
DEFAULT_POOL = BufferPool()
