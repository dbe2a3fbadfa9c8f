"""MPI-level requests: completion plus receive-side unpacking.

An :class:`MPIRequest` wraps the mpjdev request and a *finisher* — the
step that runs on the waiting thread when the operation completes.
For receives the finisher unpacks the arrived buffer into the user
array with the posted datatype and computes the element count; for
sends it releases the packed buffer back to its pool.

``Waitany`` delegates to the peek()-based machinery in
:mod:`repro.mpjdev.waitany` — no polling (paper Section IV-E.1).
``Waitall``/``Waitsome``/``Testall``/... are built from these
primitives in the usual MPI shapes.
"""

from __future__ import annotations

import threading
from typing import Callable, NoReturn, Optional, Sequence

from repro.buffer import ReceiveMismatchError
from repro.mpi.exceptions import CountMismatchError, DatatypeError, MPIException
from repro.mpi.status import MPIStatus
from repro.mpjdev.comm import RankRequest
from repro.mpjdev.request import RequestFailedError
from repro.mpjdev.request import Status as DevStatus
from repro.mpjdev.waitany import waitany as dev_waitany

#: MPI error for each :class:`ReceiveMismatchError` kind.
_MISMATCH_ERRORS = {"count": CountMismatchError, "type": DatatypeError}


def raise_failure(
    exc: RequestFailedError, cleanup: Optional[Callable[[], None]] = None
) -> NoReturn:
    """Raise what an MPI caller sees for a failed device request.

    *cleanup* runs first: it returns the pooled message the failed
    operation owned.  A message the posted receive window rejected
    raises the same :class:`CountMismatchError` or
    :class:`DatatypeError` as the packed path's unpack, whatever the
    message size; every other failure re-raises *exc*.
    """
    if cleanup is not None:
        cleanup()
    cause = exc.__cause__
    if isinstance(cause, ReceiveMismatchError):
        raise _MISMATCH_ERRORS[cause.kind](str(cause)) from cause
    raise exc


class MPIRequest:
    """A pending MPI operation.

    *cleanup* runs exactly once if the device-level request **fails**
    (``RequestFailedError``): on that path the finisher — which
    normally returns the packed message to its pool — never executes,
    so without it every failed request leaked its pooled buffer.
    """

    def __init__(
        self,
        inner: RankRequest,
        finisher: Callable[[DevStatus], MPIStatus],
        device=None,
        cleanup: Optional[Callable[[], None]] = None,
    ) -> None:
        self.inner = inner
        self._finisher = finisher
        self._device = device
        self._cleanup = cleanup
        self._lock = threading.Lock()
        self._result: Optional[MPIStatus] = None

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.inner.done

    def _finish(self, dev_status: DevStatus) -> MPIStatus:
        """Run the finisher exactly once (unpacking is not idempotent)."""
        with self._lock:
            if self._result is None:
                self._result = self._finisher(dev_status)
            return self._result

    def _on_failure(self) -> None:
        """Release resources the finisher would have owned.

        Runs at most once, and never after a successful finish (a
        request cannot both complete and fail).  Timeouts do NOT come
        through here — a timed-out request is still pending and its
        buffer still in flight.
        """
        with self._lock:
            if self._result is not None or self._cleanup is None:
                return
            cleanup, self._cleanup = self._cleanup, None
        cleanup()

    def wait(self, timeout: Optional[float] = None) -> MPIStatus:
        """Block until complete; returns the MPI status."""
        try:
            dev_status = self.inner.wait(timeout=timeout)
        except RequestFailedError as exc:
            raise_failure(exc, self._on_failure)
        return self._finish(dev_status)

    def test(self) -> Optional[MPIStatus]:
        """Non-blocking completion check."""
        try:
            dev_status = self.inner.test()
        except RequestFailedError as exc:
            raise_failure(exc, self._on_failure)
        return self._finish(dev_status) if dev_status is not None else None

    # mpijava spellings
    Wait = wait
    Test = test

    def is_null(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MPIRequest({self.inner!r})"


class CompletedMPIRequest(MPIRequest):
    """A request born complete (zero-count operations, self-copies)."""

    def __init__(self, status: Optional[MPIStatus] = None) -> None:
        self._status = status if status is not None else MPIStatus(DevStatus())
        self._lock = threading.Lock()
        self._result = self._status
        self._cleanup = None
        self.inner = None  # type: ignore[assignment]
        self._device = None

    @property
    def done(self) -> bool:
        return True

    def wait(self, timeout: Optional[float] = None) -> MPIStatus:
        return self._status

    def test(self) -> Optional[MPIStatus]:
        return self._status

    Wait = wait
    Test = test


# ----------------------------------------------------------------------
# request-array operations


def waitall(requests: Sequence[MPIRequest], timeout: Optional[float] = None) -> list[MPIStatus]:
    """Wait for every request; statuses in request order."""
    return [r.wait(timeout=timeout) for r in requests]


def waitany(
    requests: Sequence[MPIRequest], timeout: Optional[float] = None
) -> tuple[int, MPIStatus]:
    """Wait until any request completes; returns (index, status).

    Uses the device-level peek() machinery, never a poll loop.
    """
    if not requests:
        raise MPIException("Waitany over an empty request array")
    # Already-complete requests (including CompletedMPIRequest) win
    # immediately — mirrors the paper's initial Test() sweep.
    for i, r in enumerate(requests):
        status = r.test()
        if status is not None:
            status.index = i
            return i, status
    device = next(
        (r._device for r in requests if r._device is not None), None
    )
    if device is None:
        raise MPIException("Waitany needs at least one device-backed request")
    dev_requests = [r.inner.inner for r in requests]
    idx, _dev_status = dev_waitany(device, dev_requests, timeout=timeout)
    status = requests[idx].wait()
    status.index = idx
    return idx, status


def waitsome(
    requests: Sequence[MPIRequest], timeout: Optional[float] = None
) -> list[tuple[int, MPIStatus]]:
    """Wait until at least one completes; return all completed (index, status)."""
    idx, status = waitany(requests, timeout=timeout)
    out = [(idx, status)]
    for i, r in enumerate(requests):
        if i == idx:
            continue
        s = r.test()
        if s is not None:
            s.index = i
            out.append((i, s))
    return out


def testall(requests: Sequence[MPIRequest]) -> Optional[list[MPIStatus]]:
    """Statuses if every request is complete, else None."""
    statuses = []
    for r in requests:
        s = r.test()
        if s is None:
            return None
        statuses.append(s)
    return statuses


def testany(requests: Sequence[MPIRequest]) -> Optional[tuple[int, MPIStatus]]:
    """(index, status) of some completed request, else None."""
    for i, r in enumerate(requests):
        s = r.test()
        if s is not None:
            s.index = i
            return i, s
    return None


def testsome(requests: Sequence[MPIRequest]) -> list[tuple[int, MPIStatus]]:
    """All currently completed (index, status) pairs (possibly empty)."""
    out = []
    for i, r in enumerate(requests):
        s = r.test()
        if s is not None:
            s.index = i
            out.append((i, s))
    return out


# mpijava spellings
Waitall = waitall
Waitany = waitany
Waitsome = waitsome
Testall = testall
Testany = testany
Testsome = testsome
