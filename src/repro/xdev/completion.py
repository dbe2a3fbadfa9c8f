"""Completed-request queues backing ``peek()``.

:class:`CompletedQueue` is the seed's single shared queue, still used
by the non-engine devices (mxdev, ibisdev).  :class:`CompletionShards`
is its endpoint-sharded successor for the protocol engine: each
endpoint gets its own lock + deque, so threads bound to different
endpoints never contend when their requests complete, while ``peek()``
still returns the globally most-recent completion via per-entry global
sequence numbers.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Optional

from repro.mpjdev.request import Request


class CompletedQueue:
    """Thread-safe LIFO of completed requests.

    ``peek()`` blocks until a request completes and returns the most
    recently completed one — the semantics the paper borrows from the
    Myrinet eXpress library (Section III-A).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._completed: deque[Request] = deque()

    def track(self, request: Request) -> Request:
        """Have *request* enqueue itself here on completion."""
        request.add_completion_listener(self._push)
        return request

    def _push(self, request: Request) -> None:
        with self._cond:
            self._completed.append(request)
            self._cond.notify_all()

    def peek(self, timeout: Optional[float] = None) -> Request:
        with self._cond:
            if not self._cond.wait_for(lambda: bool(self._completed), timeout=timeout):
                raise TimeoutError("peek() timed out")
            return self._completed.pop()

    def __len__(self) -> int:
        with self._cond:
            return len(self._completed)


class CompletionShards:
    """Endpoint-sharded completed-request store.

    ``push`` touches only the completing request's endpoint shard — one
    uncontended lock — plus, *only when someone is blocked in peek*, a
    shared notification condition.  Entries carry a global sequence
    number so ``pop_latest`` can preserve the paper's LIFO "most
    recently completed" contract across shards.  The engine pushes only
    completions someone can ask for (see :attr:`watched`), so the store
    holds parked ``Waitany`` completions, not a history.

    The peek/push handshake is lost-wakeup safe without holding any
    shard lock while waiting: a waiter registers itself, samples the
    push tick, scans the shards, and sleeps only while the tick is
    unchanged.  A push appends first and checks for waiters second, so
    either the waiter's scan sees the entry or the push sees the
    waiter and bumps the tick.
    """

    def __init__(self, n: int) -> None:
        self.n = max(1, int(n))
        self._locks = [threading.Lock() for _ in range(self.n)]
        self._queues: list[deque[tuple[int, Request]]] = [
            deque() for _ in range(self.n)
        ]
        #: Total completions ever pushed per shard (obs).
        self._counts = [0] * self.n
        self._seq = itertools.count(1)
        self._cond = threading.Condition()
        self._pushes = 0
        self._waiters = 0

    @property
    def watched(self) -> bool:
        """True while a thread is blocked in :meth:`pop_latest`."""
        return self._waiters > 0

    def push(self, request: Request, endpoint: int = 0) -> None:
        i = endpoint % self.n
        with self._locks[i]:
            self._queues[i].append((next(self._seq), request))
            self._counts[i] += 1
        if self._waiters:
            with self._cond:
                self._pushes += 1
                self._cond.notify_all()

    def _try_pop_latest(self) -> Optional[Request]:
        # Find the shard whose newest entry is globally newest, then
        # pop from it.  A concurrent peeker may drain the candidate
        # between scan and pop — rescan until a pop succeeds or every
        # shard is empty.
        while True:
            best_i = -1
            best_seq = -1
            for i in range(self.n):
                with self._locks[i]:
                    q = self._queues[i]
                    if q and q[-1][0] > best_seq:
                        best_seq = q[-1][0]
                        best_i = i
            if best_i < 0:
                return None
            with self._locks[best_i]:
                q = self._queues[best_i]
                if q:
                    return q.pop()[1]

    def pop_latest(self, timeout: Optional[float] = None) -> Request:
        """Block until a completion is available; return the newest."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._waiters += 1
        try:
            while True:
                with self._cond:
                    tick = self._pushes
                request = self._try_pop_latest()
                if request is not None:
                    return request
                with self._cond:
                    while self._pushes == tick:
                        if deadline is None:
                            self._cond.wait()
                        else:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0 or not self._cond.wait(remaining):
                                raise TimeoutError("peek() timed out")
        finally:
            with self._cond:
                self._waiters -= 1

    def __len__(self) -> int:
        total = 0
        for i in range(self.n):
            with self._locks[i]:
                total += len(self._queues[i])
        return total

    def depths(self) -> list[int]:
        """Per-shard backlog (obs)."""
        return [len(q) for q in self._queues]

    def totals(self) -> list[int]:
        """Per-shard lifetime completion counts (obs)."""
        return list(self._counts)
