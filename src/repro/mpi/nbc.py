"""Non-blocking collectives (an MPI-3-flavoured extension).

The paper predates MPI-3, but its thread-safety contribution is
exactly what makes this extension natural: because the library is
MPI_THREAD_MULTIPLE, collectives can progress on a helper thread while
the caller computes — the communication/computation overlap the
ANY_SOURCE experiment (Section V-A) motivates.

Design: each communicator gets (lazily) one **NBC worker thread** and
one dedicated duplicated communicator.  Issuing ``ibarrier(comm)`` etc.
only enqueues the operation — never blocks — and the worker executes
queued operations strictly in issue order, which is how MPI specifies
non-blocking collectives must be matched.  The dedicated dup keeps NBC
traffic from ever matching the caller's own collectives; the dup
itself is created *on the worker thread* (first operation), so even
that collective step cannot block an issuing thread.

Semantics and caveats:

* ``i...()`` returns an :class:`NBCRequest`; ``wait()``/``test()``
  complete it; exceptions inside the collective surface from there.
* Operations on one communicator run sequentially (in issue order).
  Overlap is between communication and *computation*, and between NBC
  ops on different communicators.
* Buffers belong to the operation until ``wait()`` returns.
* A worker exits once the operations queued before its communicator
  is freed, or its rank's environment finalizes, have run.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Optional


class NBCRequest:
    """Handle for an in-flight non-blocking collective."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self._result = result
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout=timeout):
            raise TimeoutError("non-blocking collective did not complete")
        if self._error is not None:
            raise self._error
        return self._result

    def test(self) -> bool:
        """True once complete (re-raises a failure immediately)."""
        if not self._event.is_set():
            return False
        if self._error is not None:
            raise self._error
        return True

    Wait = wait
    Test = test


class NBCWorker:
    """Per-communicator executor of non-blocking collectives."""

    def __init__(self, comm) -> None:
        self._comm = comm
        self._queue: "queue.Queue" = queue.Queue()
        self._dup = None
        self._thread = threading.Thread(
            target=self._run, name="nbc-worker", daemon=True
        )
        self._thread.start()

    def submit(self, fn: Callable[[Any], Any]) -> NBCRequest:
        request = NBCRequest()
        self._queue.put((fn, request))
        return request

    def close(self) -> None:
        """Exit after the operations already queued."""
        self._queue.put(None)

    def _run(self) -> None:
        while (item := self._queue.get()) is not None:
            fn, request = item
            try:
                if self._dup is None:
                    # First operation: build the dedicated communicator.
                    # This is collective — every rank's worker performs
                    # it as ITS first operation, so they rendezvous here
                    # without blocking any issuing thread.
                    self._dup = self._comm.dup()
                request._finish(result=fn(self._dup))
            except BaseException as exc:  # noqa: BLE001 - surfaced in wait()
                request._finish(error=exc)


def _worker_for(comm) -> NBCWorker:
    worker = getattr(comm, "_nbc_worker", None)
    if worker is None:
        worker = NBCWorker(comm)
        comm._nbc_worker = worker
        if comm._env is not None:
            comm._env._nbc_workers.append(worker)
    return worker


# ----------------------------------------------------------------------
# the non-blocking collective verbs


def ibarrier(comm) -> NBCRequest:
    """Non-blocking barrier: complete when every rank has entered."""
    return _worker_for(comm).submit(lambda c: c.Barrier())


def ibcast(comm, buf, offset, count, datatype, root) -> NBCRequest:
    """Non-blocking broadcast; *buf* must stay untouched until wait()."""
    return _worker_for(comm).submit(
        lambda c: c.Bcast(buf, offset, count, datatype, root)
    )


def iallreduce(comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op) -> NBCRequest:
    """Non-blocking allreduce; buffers owned by the op until wait()."""
    return _worker_for(comm).submit(
        lambda c: c.Allreduce(sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op)
    )


def iallgather(comm, sendbuf, sendoffset, sendcount, sendtype,
               recvbuf, recvoffset, recvcount, recvtype) -> NBCRequest:
    """Non-blocking allgather."""
    return _worker_for(comm).submit(
        lambda c: c.Allgather(sendbuf, sendoffset, sendcount, sendtype,
                              recvbuf, recvoffset, recvcount, recvtype)
    )


def igather_objects(comm, obj, root: int = 0) -> NBCRequest:
    """Non-blocking object gather; wait() returns the list at root."""
    return _worker_for(comm).submit(lambda c: c.gather(obj, root=root))
