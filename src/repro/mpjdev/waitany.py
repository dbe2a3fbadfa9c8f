"""Multi-threaded ``Waitany()`` built on the device-level ``peek()``.

Paper Section IV-E.1: a polling Waitany "is not efficient in a
multi-threaded setting because this can cause CPU starvation for any
computation that might be running in parallel".  Instead:

* Each call wraps its request array in a :class:`WaitAny` object and
  stores a back-reference on every request (``waitany_ref``).
* WaitAny objects queue up in a :class:`WaitAnyQueue`; the object at
  the *front* of the queue is responsible for calling the blocking
  ``peek()``; all others sleep on their own condition variable.
* When ``peek()`` returns a completed request, three scenarios apply
  (quoting the paper):

  1. the request belongs to the *calling* WaitAny — return it, and
     wake the next WaitAny in the queue, which takes over peeking;
  2. the request belongs to *another* queued WaitAny — remove that
     WaitAny from the queue and wake it;
  3. the request's ``waitany_ref`` is None — no Waitany() was called
     for it; ignore it and keep peeking.

One addition over the paper's prose: after publishing ``waitany_ref``
on its requests, a WaitAny re-tests them.  Every device records a
completion for ``peek()`` only if, when it completes, the request
carries a ``waitany_ref`` or a thread is blocked in ``peek()``; a
request that completed *before* the reference was published was
therefore never recorded (or was discarded under scenario 3 by a
concurrent peeker), and without the re-test the caller would sleep
forever.  The completing thread flips the request to done before it
reads the reference, so either it sees the reference and records the
completion, or the re-test sees it done.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional, Sequence

from repro.mpjdev.request import Request, Status


class WaitAny:
    """One in-flight Waitany() call."""

    __slots__ = ("requests", "cond", "result", "front")

    def __init__(self, requests: Sequence[Request]) -> None:
        self.requests = list(requests)
        self.cond = threading.Condition()
        #: (index, Status) once one of our requests completed.
        self.result: Optional[tuple[int, Status]] = None
        #: True when this object is responsible for calling peek().
        self.front = False

    def index_of(self, request: Request) -> int:
        for i, r in enumerate(self.requests):
            if r is request:
                return i
        return -1

    def wake_with(self, request: Request) -> None:
        """Deliver *request* as this WaitAny's result (scenario 2)."""
        idx = self.index_of(request)
        status = request.test()
        assert idx >= 0 and status is not None
        with self.cond:
            self.result = (idx, status)
            self.cond.notify_all()

    def promote(self) -> None:
        """Make this WaitAny the peek-calling front (scenario 1 handoff)."""
        with self.cond:
            self.front = True
            self.cond.notify_all()


class WaitAnyQueue:
    """The per-device queue of WaitAny objects (the paper's WaitanyQue)."""

    def __init__(self, device) -> None:
        self._device = device
        self._lock = threading.Lock()
        self._queue: deque[WaitAny] = deque()
        try:
            metrics = getattr(device, "metrics", None)
        except Exception:  # noqa: BLE001 - device not initialized
            metrics = None
        self._c_calls = metrics.counter("waitany.calls") if metrics else None
        self._c_immediate = (
            metrics.counter("waitany.immediate") if metrics else None
        )

    # ------------------------------------------------------------------

    def waitany(
        self, requests: Sequence[Request], timeout: Optional[float] = None
    ) -> tuple[int, Status]:
        """Block until one of *requests* completes; return (index, status)."""
        requests = list(requests)
        if not requests:
            raise ValueError("waitany of an empty request list")

        wa = WaitAny(requests)
        if self._c_calls is not None:
            self._c_calls.inc()

        # Publish back-references BEFORE testing, so a completion that
        # lands in the peek queue from now on is attributed to us.
        with self._lock:
            for r in requests:
                r.waitany_ref = wa

        # "We call Test() method for each element of Request objects
        # array to check if any of them has completed."
        for i, r in enumerate(requests):
            status = r.test()
            if status is not None:
                self._clear_refs(wa)
                if self._c_immediate is not None:
                    self._c_immediate.inc()
                return i, status

        with self._lock:
            self._queue.append(wa)
            wa.front = self._queue[0] is wa

        try:
            return self._run(wa, timeout)
        finally:
            self._clear_refs(wa)

    # ------------------------------------------------------------------

    def _clear_refs(self, wa: WaitAny) -> None:
        with self._lock:
            for r in wa.requests:
                if r.waitany_ref is wa:
                    r.waitany_ref = None

    def _run(self, wa: WaitAny, timeout: Optional[float]) -> tuple[int, Status]:
        while True:
            if wa.front:
                result = self._peek_loop(wa, timeout)
                if result is not None:
                    return result
            else:
                with wa.cond:
                    wa.cond.wait_for(
                        lambda: wa.result is not None or wa.front, timeout=timeout
                    )
                    if wa.result is not None:
                        self._remove(wa)
                        return wa.result
                    if not wa.front:
                        self._remove(wa)
                        self._promote_front()
                        raise TimeoutError("waitany timed out")

    def _peek_loop(self, wa: WaitAny, timeout: Optional[float]) -> Optional[tuple[int, Status]]:
        """Run peek() as the front WaitAny until our own result arrives."""
        while True:
            try:
                completed = self._device.peek() if timeout is None else self._device.peek(timeout=timeout)
            except TimeoutError:
                self._remove(wa)
                self._promote_front()
                raise
            with self._lock:
                ref = completed.waitany_ref
            if ref is None:
                # Scenario 3: "no Waitany() method has been called for
                # the returned Request object ... we ignore it."
                continue
            if ref is wa:
                # Scenario 1: ours.  Wake the next WaitAny, which now
                # owns the peek() duty.
                idx = wa.index_of(completed)
                status = completed.test()
                assert idx >= 0 and status is not None
                self._remove(wa)
                self._promote_front()
                return idx, status
            # Scenario 2: belongs to another queued WaitAny — remove it
            # from the queue and wake it.
            self._remove(ref)
            ref.wake_with(completed)

    def _remove(self, wa: WaitAny) -> None:
        with self._lock:
            try:
                self._queue.remove(wa)
            except ValueError:
                pass

    def _promote_front(self) -> None:
        with self._lock:
            front = self._queue[0] if self._queue else None
        if front is not None:
            front.promote()

    # ------------------------------------------------------------------
    # diagnostics

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)


#: Serialises the lazy creation of a device's queue.
_QUEUE_CREATE_LOCK = threading.Lock()


def waitany(
    device, requests: Sequence[Request], timeout: Optional[float] = None
) -> tuple[int, Status]:
    """Module-level convenience: waitany via the device's shared queue.

    The queue is created lazily and cached on the device instance
    (the paper's "static WaitanyQue object", scoped per device).
    Exactly once: two queues would mean two front peekers, and one
    could consume the completion the other's caller is waiting for.
    """
    queue = getattr(device, "_waitany_queue", None)
    if queue is None:
        with _QUEUE_CREATE_LOCK:
            queue = getattr(device, "_waitany_queue", None)
            if queue is None:
                queue = WaitAnyQueue(device)
                device._waitany_queue = queue
    return queue.waitany(requests, timeout=timeout)
