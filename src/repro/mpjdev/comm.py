"""MPJDevComm — the rank-aware wrapper over an xdev Device.

The paper's reason for splitting xdev out of mpjdev: "mpjdev deals
with ranks for MPI processes.  This results in management of
communicators and groups at mpjdev layer" (Section III-A).  This class
is that layer's communication object: it owns the rank ↔ ProcessID
table and translates every call down to ProcessIDs and every Status
back up to ranks.  Contexts still ride through untouched — they are
allocated by the MPI layer per communicator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.buffer import Buffer
from repro.mpjdev.request import Request, Status
from repro.xdev.constants import ANY_SOURCE
from repro.xdev.exceptions import XDevException
from repro.xdev.processid import ProcessID

if TYPE_CHECKING:  # avoid a circular import: xdev.device uses mpjdev.request
    from repro.xdev.device import Device


class RankRequest:
    """Delegating request that translates Status sources to ranks.

    Translation happens on the *reading* thread (in ``wait``/``test``),
    not on the completing thread, so there is no window in which a
    waiter can observe an untranslated ProcessID source.
    """

    __slots__ = ("inner", "_comm")

    def __init__(self, inner: Request, comm: "MPJDevComm") -> None:
        self.inner = inner
        self._comm = comm

    @property
    def kind(self) -> str:
        return self.inner.kind

    @property
    def buffer(self) -> Buffer:
        return self.inner.buffer

    @property
    def done(self) -> bool:
        return self.inner.done

    def test(self) -> Optional[Status]:
        status = self.inner.test()
        return self._comm.translate(status) if status is not None else None

    def wait(self, timeout: Optional[float] = None) -> Status:
        return self._comm.translate(self.inner.wait(timeout=timeout))

    def add_completion_listener(self, fn) -> None:
        self.inner.add_completion_listener(lambda _req: fn(self))

    # mpijava spelling
    Wait = wait
    Test = test

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RankRequest({self.inner!r})"


class MPJDevComm:
    """Rank-addressed point-to-point communication over a Device."""

    #: rank value meaning "I address this table but am not in it"
    #: (used for the remote-group table of an intercommunicator).
    NOT_A_MEMBER = -1

    def __init__(self, device: Device, pids: Sequence[ProcessID], rank: int) -> None:
        if rank != MPJDevComm.NOT_A_MEMBER and not (0 <= rank < len(pids)):
            raise ValueError(f"rank {rank} out of range for {len(pids)} processes")
        self.device = device
        self._pids = list(pids)
        self._rank = rank
        self._uid_to_rank = {pid.uid: r for r, pid in enumerate(self._pids)}

    # ------------------------------------------------------------------
    # identity

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._pids)

    def pid_of(self, rank: int) -> ProcessID:
        try:
            return self._pids[rank]
        except IndexError:
            raise XDevException(f"no process with rank {rank}") from None

    def rank_of(self, pid: ProcessID) -> int:
        try:
            return self._uid_to_rank[pid.uid]
        except KeyError:
            raise XDevException(f"{pid} not in this job") from None

    def sub_comm(self, ranks: Sequence[int], my_new_rank: int) -> "MPJDevComm":
        """A new rank table over the same device (communicator creation)."""
        return MPJDevComm(self.device, [self._pids[r] for r in ranks], my_new_rank)

    # ------------------------------------------------------------------
    # status translation

    def translate(self, status: Status) -> Status:
        """Rewrite the xdev-level source ProcessID into a rank (idempotent)."""
        if isinstance(status.source, ProcessID):
            status.source = self._uid_to_rank.get(status.source.uid, ANY_SOURCE)
        return status

    # ------------------------------------------------------------------
    # point-to-point, rank-addressed

    def post_send(
        self, buf: Buffer, dest: int, tag: int, context: int, mode: str = "standard"
    ) -> Request:
        """Start a send; returns the device's own request.

        A send's Status names no peer to translate, so a caller that
        only waits for it (a blocking send) needs no RankRequest.
        """
        pid = self.pid_of(dest)
        if mode == "standard":
            return self.device.isend(buf, pid, tag, context)
        if mode == "sync":
            return self.device.issend(buf, pid, tag, context)
        engine = getattr(self.device, "engine", None)
        if engine is not None:
            return engine.isend(buf, pid, tag, context, mode=mode)
        return self.device.isend(buf, pid, tag, context)

    def isend(self, buf: Buffer, dest: int, tag: int, context: int, mode: str = "standard") -> RankRequest:
        return RankRequest(self.post_send(buf, dest, tag, context, mode), self)

    def send(self, buf: Buffer, dest: int, tag: int, context: int) -> None:
        self.post_send(buf, dest, tag, context).wait()

    def issend(self, buf: Buffer, dest: int, tag: int, context: int) -> RankRequest:
        return RankRequest(self.device.issend(buf, self.pid_of(dest), tag, context), self)

    def ssend(self, buf: Buffer, dest: int, tag: int, context: int) -> None:
        self.issend(buf, dest, tag, context).wait()

    def post_recv(self, buf: Buffer, src: int, tag: int, context: int) -> Request:
        """Post a receive; returns the device's own request, whose
        Status source is a ProcessID until passed through
        :meth:`translate`."""
        pid: ProcessID | int = ANY_SOURCE if src == ANY_SOURCE else self.pid_of(src)
        return self.device.irecv(buf, pid, tag, context)

    def irecv(self, buf: Buffer, src: int, tag: int, context: int) -> RankRequest:
        return RankRequest(self.post_recv(buf, src, tag, context), self)

    def recv(self, buf: Buffer, src: int, tag: int, context: int) -> Status:
        return self.translate(self.post_recv(buf, src, tag, context).wait())

    def iprobe(self, src: int, tag: int, context: int) -> Optional[Status]:
        pid: ProcessID | int = ANY_SOURCE if src == ANY_SOURCE else self.pid_of(src)
        status = self.device.iprobe(pid, tag, context)
        return self.translate(status) if status is not None else None

    def probe(self, src: int, tag: int, context: int) -> Status:
        pid: ProcessID | int = ANY_SOURCE if src == ANY_SOURCE else self.pid_of(src)
        return self.translate(self.device.probe(pid, tag, context))

    def peek(self) -> Request:
        return self.device.peek()
