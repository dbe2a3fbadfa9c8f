"""Request and Status — completion objects shared by every layer.

A :class:`Request` is created pending and flipped to complete exactly
once by the device (from whichever thread delivers the frame) while user
threads block in :meth:`Request.wait` or poll :meth:`Request.test`.
Completion must therefore be thread-safe and must also feed two side
channels the paper relies on:

* the device's *completed-request queue*, which backs the blocking
  ``peek()`` method (Section IV-E.1), and
* the per-request ``waitany`` reference used by the multi-threaded
  ``Waitany()`` implementation ("each Request object stores a
  reference to WaitAny object ... otherwise the reference is null").

Every message builds a Request, so it carries no condition variable: a
plain lock guards the flip, and a thread that actually blocks in
:meth:`Request.wait` parks on a lock of its own, allocated then —
what ``threading.Condition.wait`` does internally anyway.  A request
born complete (an eager send) has no lock at all.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Status:
    """Result of a completed point-to-point operation.

    ``source`` is a :class:`~repro.xdev.ProcessID` at the xdev level
    and is translated to an integer rank by mpjdev/MPI.  ``size`` is
    the payload size in bytes; element counts are derived by the MPI
    layer from the datatype.  ``buffer`` carries the received
    :class:`~repro.buffer.Buffer` up to the layer that unpacks it.
    """

    source: Any = None
    tag: int = 0
    size: int = 0
    buffer: Any = None
    cancelled: bool = False
    #: Populated by the MPI layer after unpacking: element count.
    count: int = field(default=0)


class RequestFailedError(Exception):
    """The operation behind a request failed instead of completing.

    Raised from :meth:`Request.wait`/:meth:`Request.test` after the
    device calls :meth:`Request.fail` — e.g. a truncated payload that
    cannot be unpacked into the posted buffer.  The original error is
    chained as ``__cause__``.
    """


class Request:
    """A pending or completed communication operation.

    The completion protocol: the device calls :meth:`complete` exactly
    once.  On the completing thread, *after* the request is marked
    done, the *hook* given at construction runs, then every listener
    registered with :meth:`add_completion_listener`, and blocked
    waiters are woken last.  A request that can never complete
    (payload corrupt, peer gone) is flipped with :meth:`fail` instead,
    which wakes waiters with :class:`RequestFailedError` rather than
    leaving them blocked forever.

    ``done`` and ``test`` read the done flag without locking: it is
    written after the status and the failure cause, so a reader that
    sees it set sees them too.
    """

    SEND = "send"
    RECV = "recv"

    __slots__ = (
        "kind",
        "buffer",
        "_lock",
        "_waiters",
        "_status",
        "_done",
        "_exc",
        "_hook",
        "_listeners",
        "waitany_ref",
        "context",
        "tag",
        "peer",
        "seqno",
        "t_post",
        "trace_id",
        "endpoint",
    )

    # Class-wide creation counter.  itertools.count is effectively
    # atomic under the GIL, so allocating a seqno takes no lock — with
    # per-thread endpoints this constructor is the one piece of state
    # every user thread would otherwise still serialize on.
    _seq = itertools.count(1)

    def __init__(
        self,
        kind: str,
        buffer: Any = None,
        hook: Optional[Callable[["Request"], None]] = None,
        context: int = 0,
        tag: int = 0,
        peer: Any = None,
        endpoint: int = 0,
        trace_id: int = 0,
        t_post: float = 0.0,
        status: Optional[Status] = None,
    ) -> None:
        self.kind = kind
        self.buffer = buffer
        if status is None:
            self._lock: Optional[threading.Lock] = threading.Lock()
            self._done = False
        else:
            # Born complete: nobody else can hold the request yet, so
            # it needs no lock now and never takes one later (every
            # locked path reads ``_done`` first).
            self._lock = None
            self._done = True
        self._status = status
        #: One parked lock per thread blocked in :meth:`wait`; None
        #: while nobody blocks, which is the common case.
        self._waiters: Optional[list] = None
        self._exc: Optional[BaseException] = None
        #: The owner's completion hook (the engine's peek() offer), set
        #: here so the hot path never takes the listener lock.
        self._hook = hook
        self._listeners: Optional[list[Callable[["Request"], None]]] = None
        #: WaitAny object this request participates in, else None
        #: (paper Section IV-E.1).
        self.waitany_ref: Any = None
        # Matching metadata, filled by the protocol engine for
        # diagnostics and ordered matching.
        self.context = context
        self.tag = tag
        self.peer = peer
        # Observability (repro.obs): post timestamp for the engine's
        # latency histograms, and the engine-unique id its trace
        # events pair under.
        self.t_post = t_post
        self.trace_id = trace_id
        #: Endpoint of the posting thread (protocol engine); decides
        #: which completion shard this request lands on.
        self.endpoint = endpoint
        self.seqno = next(Request._seq)

    # ------------------------------------------------------------------
    # completion (device side)

    def _settle(
        self, status: Optional[Status], exc: Optional[BaseException]
    ) -> bool:
        """Flip to done exactly once; False if already done."""
        if self._done:
            return False
        with self._lock:
            if self._done:
                return False
            self._status = status
            self._exc = exc
            self._done = True
            listeners, self._listeners = self._listeners, None
            waiters, self._waiters = self._waiters, None
        try:
            if self._hook is not None:
                self._hook(self)
            if listeners:
                for listener in listeners:
                    listener(self)
        finally:
            if waiters:
                for waiter in waiters:
                    waiter.release()
        return True

    def complete(self, status: Status) -> None:
        """Mark this request complete with *status* (called once)."""
        if not self._settle(status, None):
            raise RuntimeError("request completed twice")

    def try_complete(self, status: Status) -> bool:
        """Complete if still pending; False when already done.

        The delivery-fence path uses this: a fence must fire exactly
        once, but an idempotent completion keeps a misbehaving
        (fault-injecting) transport from crashing the input handler.
        """
        return self._settle(status, None)

    def fail(self, exc: BaseException) -> None:
        """Mark this request failed with *exc* (called at most once).

        Waiters wake with :class:`RequestFailedError`; the hook and
        completion listeners still run (so peek queues and Waitany
        callers learn about the failure instead of sleeping forever).
        """
        if not self._settle(None, exc):
            raise RuntimeError("request completed twice")

    @property
    def failed(self) -> bool:
        return self._exc is not None

    @property
    def error(self) -> Optional[BaseException]:
        """The failure cause, or None if pending/completed."""
        return self._exc

    def _raise_failure(self) -> None:
        raise RequestFailedError(
            f"{self.kind} request (tag={self.tag}, peer={self.peer}) "
            f"failed: {self._exc}"
        ) from self._exc

    def add_completion_listener(self, fn: Callable[["Request"], None]) -> None:
        """Run *fn(self)* when the request completes.

        If the request is already complete, *fn* runs immediately on
        the calling thread — registration can therefore never miss a
        completion.
        """
        if self._done:
            fn(self)
            return
        with self._lock:
            if not self._done:
                if self._listeners is None:
                    self._listeners = [fn]
                else:
                    self._listeners.append(fn)
                return
        fn(self)

    # ------------------------------------------------------------------
    # completion (user side)

    @property
    def done(self) -> bool:
        return self._done

    def test(self) -> Optional[Status]:
        """Non-blocking completion check: Status if done, else None.

        Raises :class:`RequestFailedError` for a failed request — a
        poll loop must not spin forever on an operation that can never
        complete.
        """
        if not self._done:
            return None
        if self._exc is not None:
            self._raise_failure()
        return self._status

    def wait(self, timeout: Optional[float] = None) -> Status:
        """Block until complete and return the Status.

        Raises :class:`TimeoutError` if *timeout* (seconds) elapses —
        a safety valve the Java original lacks, invaluable in tests —
        and leaves no waiter behind.
        """
        if not self._done:
            self._block(timeout)
        if self._exc is not None:
            self._raise_failure()
        return self._status  # type: ignore[return-value]

    def _block(self, timeout: Optional[float]) -> None:
        with self._lock:
            if self._done:
                return
            waiter = threading.Lock()
            waiter.acquire()
            if self._waiters is None:
                self._waiters = [waiter]
            else:
                self._waiters.append(waiter)
        if timeout is None:
            waiter.acquire()
            return
        if waiter.acquire(timeout=max(0.0, timeout)):
            return
        with self._lock:
            if self._done:
                return  # completed as the wait gave up: not a timeout
            self._waiters.remove(waiter)
        raise TimeoutError(
            f"{self.kind} request (tag={self.tag}, peer={self.peer}) "
            f"did not complete within {timeout}s"
        )

    # mpijava spelling
    Wait = wait
    Test = test

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return f"Request({self.kind}, tag={self.tag}, peer={self.peer}, {state})"


class CompletedRequest(Request):
    """A request born complete, for no-op operations like zero-count
    sends at the MPI level.  (The engine's eager sends are born complete
    the same way: "return a non-pending send request object", paper
    Fig. 3.)
    """

    def __init__(self, kind: str = Request.SEND, status: Optional[Status] = None) -> None:
        super().__init__(kind, status=status if status is not None else Status())
