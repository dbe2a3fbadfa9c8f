"""Seeded interleaving scheduler: a transport decorator for smdev jobs.

smdev delivers every frame on the writing thread, in program order,
which means a test run exercises exactly one interleaving — whichever
one the OS scheduler happened to produce.  :class:`ScheduledTransport`
wraps each rank's transport: ``write`` parks the frame in the
destination's :class:`ScheduledInbox` for its route, and one delivery
thread per ``(rank, endpoint)`` picks the next frame to deliver with a
PRNG seeded by the test, permuting delivery across independent
streams while preserving MPI's per-stream FIFO guarantee (frames from
one source with one ``(context, tag)`` key are never reordered against
each other).  The delivery threads exist only in scheduled jobs.

Every choice is recorded in the shared :class:`SeededSchedule`; a
failing test prints its seed, and re-running with that seed replays
the same sequence of scheduler choices.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from typing import Any, Optional

from repro.testing.chaos import kept_frame
from repro.xdev.exceptions import XDevException
from repro.xdev.frames import FrameHeader, FrameType
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import Transport
from repro.xdev.smdev import SMFabric


class SeededSchedule:
    """The PRNG and choice log shared by every inbox of one job."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: (rank, chosen index, number of candidates, endpoint) per
        #: decision — one entry for every frame delivery of the job,
        #: across every rank's every endpoint inbox.
        self.choices: list[tuple[int, int, int, int]] = []

    def pick(self, rank: int, n: int, endpoint: int = 0) -> int:
        """Choose one of *n* deliverable frames for one of *rank*'s
        endpoint inboxes."""
        with self._lock:
            idx = self._rng.randrange(n) if n > 1 else 0
            self.choices.append((rank, idx, n, endpoint))
            return idx

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeededSchedule(seed={self.seed}, choices={len(self.choices)})"


class ScheduledInbox:
    """One ``(rank, endpoint)`` queue of frames awaiting delivery.

    Buffers ``(src_pid, segments, deliver)`` frames and, on every
    ``get()``, returns one chosen by the :class:`SeededSchedule` among
    the *eligible heads*: for matching-ordered frames (EAGER/RTS) only
    the earliest frame of each ``(src, context, tag)`` stream is a
    candidate; id-addressed frames (RTR/RNDZ_DATA) and BYE are always
    candidates.  Control items (the shutdown sentinel) are delivered
    only once the buffer is empty, so no frame is lost at teardown.
    """

    def __init__(
        self,
        schedule: SeededSchedule,
        rank: int,
        gather_window_s: float = 0.001,
        endpoint: int = 0,
    ) -> None:
        self._schedule = schedule
        self._rank = rank
        self._endpoint = endpoint
        #: After the first frame arrives, wait this long for rivals so
        #: the scheduler has an actual choice to make under contention.
        self._gather_window_s = gather_window_s
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._frames: list[tuple[Any, Any]] = []  # (item, stream key | None)
        self._controls: list[Any] = []

    @staticmethod
    def _stream_key(item: Any) -> Optional[tuple]:
        src_pid, segments, _deliver = item
        header = FrameHeader.decode(segments[0])
        if header.type in (FrameType.EAGER, FrameType.RTS):
            return (src_pid.uid, header.context, header.tag)
        return None

    def put(self, item: Any) -> None:
        with self._cond:
            if isinstance(item, tuple) and len(item) == 3:
                self._frames.append((item, self._stream_key(item)))
            else:
                self._controls.append(item)
            self._cond.notify_all()

    def get(self) -> Any:
        with self._cond:
            self._cond.wait_for(lambda: self._frames or self._controls)
            if not self._frames:
                return self._controls.pop(0)
            if self._gather_window_s > 0 and len(self._frames) < 2:
                deadline = time.monotonic() + self._gather_window_s
                while len(self._frames) < 2:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        break
            eligible: list[int] = []
            seen_streams: set[tuple] = set()
            for i, (_item, key) in enumerate(self._frames):
                if key is None:
                    eligible.append(i)
                elif key not in seen_streams:
                    seen_streams.add(key)
                    eligible.append(i)
            choice = self._schedule.pick(
                self._rank, len(eligible), self._endpoint
            )
            item, _key = self._frames.pop(eligible[choice])
            return item


class ScheduledTransport(Transport):
    """Transport decorator delivering frames in a seeded order.

    ``write`` parks the frame on the destination's ``route %
    endpoints`` inbox of the shared grid and returns; the frame
    outlives ``write``, so it is kept as :func:`kept_frame` (fenced
    rendezvous data by reference, everything else copied).  This
    rank's delivery threads — one per endpoint inbox — hand each frame
    they pop to its sender's inner ``write``, which delivers it and
    fires its fence.
    """

    _STOP = object()

    def __init__(
        self,
        inner: Transport,
        fabric: SMFabric,
        rank: int,
        inboxes: list[list[ScheduledInbox]],
    ) -> None:
        self.inner = inner
        self._fabric = fabric
        self._pid = fabric.pids[rank]
        self._inboxes = inboxes
        self._own = inboxes[rank]
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._deliver_loop,
                args=(inbox,),
                name=f"scheduled-delivery-{rank}.{ep}",
                daemon=True,
            )
            for ep, inbox in enumerate(self._own)
        ]
        for thread in self._threads:
            thread.start()

    def start(self, engine) -> None:
        self.inner.start(engine)

    def write(
        self, dest: ProcessID, segments, route: int = 0, on_delivered=None
    ) -> None:
        if self._closed:
            raise XDevException("scheduled transport closed")
        segments = kept_frame(segments, on_delivered)
        deliver = functools.partial(
            self.inner.write, dest, segments, route, on_delivered
        )
        inboxes = self._inboxes[self._fabric.rank_of(dest)]
        inboxes[route % len(inboxes)].put((self._pid, segments, deliver))

    @staticmethod
    def _deliver_loop(inbox: ScheduledInbox) -> None:
        while True:
            item = inbox.get()
            if item is ScheduledTransport._STOP:
                return
            try:
                item[2]()
            except XDevException:
                # The sender finished while its frame was queued: the
                # frame is dropped, like one written to a finished rank.
                pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for inbox in self._own:
            inbox.put(ScheduledTransport._STOP)
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join(timeout=5)
        self.inner.close()
