"""Fixed-slot SPSC frame rings in shared memory, with adaptive polling.

One :class:`SpscRing` carries frames in one direction between exactly
one producer process and one consumer process.  The layout lives
entirely inside a caller-provided byte window (a slice of a shared
segment), so the same class drives both sides: the producer maps the
window and writes, the consumer maps it and reads.

Layout::

    offset   0: head  (u64, little endian)  — consumer's cursor
    offset  64: tail  (u64, little endian)  — producer's cursor
    offset 128: nslots × slot_bytes slots

    slot: | frame_len u32 | kind u8 | pad ×3 | frame bytes ... |

Cursors are monotonic counts (slot index = count % nslots), each
written by exactly one side and read by the other — the classic SPSC
argument: a stale read of the *other* side's cursor is conservative
(producer under-estimates free slots, consumer under-estimates filled
ones), never unsafe.  The 64-byte separation keeps the two cursors on
different cache lines.  Data is fully written before the tail is
published; on x86's total-store-order (and under CPython's own
byte-level ``memcpy`` granularity) that is the required store ordering.

There is no futex syscall in portable Python, so the doorbell is
:class:`Backoff` — bounded spinning that decays into escalating sleeps
(micro- to sub-millisecond), reset on progress.  Busy streams poll hot;
idle rings cost one short sleep per round.
"""

from __future__ import annotations

import struct
import time
from typing import Callable, Optional, Sequence

_U64 = struct.Struct("<Q")
_SLOT_HDR = struct.Struct("<IBxxx")  # frame length, kind

#: Byte offsets of the two cursors, cache-line separated.
_HEAD_OFF = 0
_TAIL_OFF = 64
#: First slot starts here.
RING_HEADER = 128
#: Per-slot bookkeeping in front of the frame bytes.
SLOT_HEADER = _SLOT_HDR.size

#: Slot kinds: a complete wire frame inline; a frame whose payload
#: spilled to an arena segment (slot carries header + pickled handle);
#: a transport-internal release notice returning a spill segment.
KIND_FRAME = 0
KIND_SPILL = 1
KIND_RELEASE = 2


class RingStalledError(Exception):
    """A push could not complete: the consumer stopped draining."""


class Backoff:
    """Adaptive spin-then-sleep waiter (the futex-style doorbell).

    ``wait()`` burns a handful of GIL-friendly spins first (a busy
    peer usually answers within microseconds), then yields, then
    sleeps for exponentially growing slices capped at *max_sleep*.
    ``reset()`` after any progress snaps back to spinning.
    """

    __slots__ = ("spins", "max_sleep", "_round", "_sleep")

    def __init__(self, spins: int = 32, max_sleep: float = 200e-6) -> None:
        self.spins = spins
        self.max_sleep = max_sleep
        self._round = 0
        self._sleep = 1e-6

    def reset(self) -> None:
        self._round = 0
        self._sleep = 1e-6

    # reprolint: allow[no-block-in-poller] -- bounded doorbell, not a wait: spins, yields, then sleeps capped at max_sleep; reset() on any progress, and callers never hold a peer's resource across it
    def wait(self) -> None:
        self._round += 1
        if self._round <= self.spins:
            return
        if self._round <= self.spins * 2:
            time.sleep(0)  # yield the GIL/CPU without arming a timer
            return
        time.sleep(self._sleep)
        self._sleep = min(self._sleep * 2, self.max_sleep)


def ring_bytes(nslots: int, slot_bytes: int) -> int:
    """Total window size one ring occupies."""
    return RING_HEADER + nslots * (SLOT_HEADER + slot_bytes)


class SpscRing:
    """One direction of a rank pair's frame channel."""

    __slots__ = ("_view", "nslots", "slot_bytes", "_stride", "_pending", "_pending_view")

    def __init__(self, view: memoryview, nslots: int, slot_bytes: int) -> None:
        if nslots < 2:
            raise ValueError("a ring needs at least 2 slots")
        need = ring_bytes(nslots, slot_bytes)
        if len(view) < need:
            raise ValueError(f"ring window of {len(view)} bytes, need {need}")
        self._view = view
        self.nslots = nslots
        #: Frame capacity of one slot (the inline/spill switch point).
        self.slot_bytes = slot_bytes
        self._stride = SLOT_HEADER + slot_bytes
        self._pending: Optional[int] = None  # count of a polled, unconsumed slot
        self._pending_view: Optional[memoryview] = None

    # ------------------------------------------------------------------
    # cursors

    @property
    def head(self) -> int:
        return _U64.unpack_from(self._view, _HEAD_OFF)[0]

    @property
    def tail(self) -> int:
        return _U64.unpack_from(self._view, _TAIL_OFF)[0]

    def _set_head(self, value: int) -> None:
        _U64.pack_into(self._view, _HEAD_OFF, value)

    def _set_tail(self, value: int) -> None:
        _U64.pack_into(self._view, _TAIL_OFF, value)

    def __len__(self) -> int:
        """Frames enqueued but not yet consumed (approximate from afar)."""
        return max(0, self.tail - self.head)

    # ------------------------------------------------------------------
    # producer side

    def try_push(self, kind: int, chunks: Sequence[bytes | memoryview]) -> bool:
        """Write one frame if a slot is free; False when the ring is full."""
        total = sum(len(c) for c in chunks)
        if total > self.slot_bytes:
            raise ValueError(
                f"frame of {total} bytes exceeds slot capacity {self.slot_bytes}"
            )
        tail = self.tail
        if tail - self.head >= self.nslots:
            return False
        base = RING_HEADER + (tail % self.nslots) * self._stride
        _SLOT_HDR.pack_into(self._view, base, total, kind)
        offset = base + SLOT_HEADER
        for chunk in chunks:
            cv = memoryview(chunk).cast("B") if not isinstance(chunk, bytes) else chunk
            self._view[offset : offset + len(cv)] = cv
            offset += len(cv)
        # Publish only after the slot is fully written.
        self._set_tail(tail + 1)
        return True

    def push(
        self,
        kind: int,
        chunks: Sequence[bytes | memoryview],
        timeout: Optional[float] = 60.0,
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Blocking push with adaptive backoff.

        Raises :class:`RingStalledError` when the consumer has not
        freed a slot within *timeout* seconds, or as soon as
        *should_abort* reports the job is being torn down — a dead
        peer must fail the operation, not wedge the sender forever.
        """
        if self.try_push(kind, chunks):
            return
        backoff = Backoff()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if should_abort is not None and should_abort():
                raise RingStalledError("transport closing while ring full")
            backoff.wait()
            if self.try_push(kind, chunks):
                return
            if deadline is not None and time.monotonic() > deadline:
                raise RingStalledError(
                    f"ring full for {timeout}s ({self.nslots} slots); "
                    "consumer stopped draining"
                )

    # ------------------------------------------------------------------
    # consumer side

    def poll(self) -> Optional[tuple[int, memoryview]]:
        """The next frame as ``(kind, view)``, or None when empty.

        The view aliases the slot in shared memory and stays valid
        until :meth:`consume`, which releases it and frees the slot
        for the producer — so a consumer may parse (or hand the
        engine) the frame bytes in place, then consume, but must not
        retain the view past that point.  Poll is idempotent until
        then.
        """
        head = self.head
        if self.tail - head <= 0:
            return None
        base = RING_HEADER + (head % self.nslots) * self._stride
        length, kind = _SLOT_HDR.unpack_from(self._view, base)
        start = base + SLOT_HEADER
        self._pending = head
        self._pending_view = self._view[start : start + length]
        return kind, self._pending_view

    def consume(self) -> None:
        """Release the slot returned by the last :meth:`poll`."""
        if self._pending is None:
            raise RuntimeError("consume() without a pending poll()")
        if self._pending_view is not None:
            try:
                self._pending_view.release()
            except BufferError:  # pragma: no cover - caller kept a sub-view
                pass
            self._pending_view = None
        self._set_head(self._pending + 1)
        self._pending = None

