"""The completed-request store backing ``peek()``, for every device.

The paper's ``peek()`` (borrowed from Myrinet eXpress, Section III-A)
blocks until a request completes and returns the most recently
completed one.  :class:`CompletionShards` gives each endpoint its own
lock + deque, so threads bound to different endpoints never contend
when their requests complete, while ``peek()`` still returns the
globally most-recent completion via per-entry global sequence numbers.
A device hands every completion to :meth:`CompletionShards.offer`,
which keeps only the ones a ``peek()`` can ask for.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Optional

from repro.mpjdev.request import Request
from repro.xdev.locknames import COMPLETED, new_lock


class CompletionShards:
    """Endpoint-sharded completed-request store.

    ``push`` touches only the completing request's endpoint shard — one
    uncontended lock — plus, *only when someone is blocked in peek*, a
    shared notification condition.  Entries carry a global sequence
    number so ``pop_latest`` can preserve the paper's LIFO "most
    recently completed" contract across shards.  Devices record through
    :meth:`offer`, so the store holds parked ``Waitany`` completions,
    not a history.

    The peek/push handshake is lost-wakeup safe without holding any
    shard lock while waiting: a waiter registers itself, samples the
    push tick, scans the shards, and sleeps only while the tick is
    unchanged.  A push appends first and checks for waiters second, so
    either the waiter's scan sees the entry or the push sees the
    waiter and bumps the tick.
    """

    def __init__(self, n: int) -> None:
        self.n = max(1, int(n))
        self._locks = [new_lock(COMPLETED, i) for i in range(self.n)]
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

    def offer(self, request: Request) -> None:
        """Record *request*'s completion iff a ``peek()`` can ask for it.

        The paper's peek() serves Waitany: keep a completion only when
        a Waitany holds the request or a thread is blocked in
        :meth:`pop_latest`, never for nobody.  ``WaitAnyQueue``
        publishes its refs before it re-tests, so a completion that
        reads no ref here is one that re-test sees.
        """
        if request.waitany_ref is not None or self._waiters:
            self.push(request, request.endpoint)

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
