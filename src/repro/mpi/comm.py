"""The MPI base level: rank-addressed point-to-point communication.

Follows the guides' mpi4py conventions for the Python-facing API:

* **Uppercase** methods (``Send``, ``Recv``, ``Isend`` ...) move numpy
  array data described by ``(buf, offset, count, datatype)`` — the
  mpijava 1.2 signatures the paper implements.  Datatype may be
  omitted and is then inferred from the array dtype.
* **Lowercase** methods (``send``, ``recv``, ``isend`` ...) move
  arbitrary pickled Python objects, mpi4py style.

A message is packed into an mpjbuf :class:`~repro.buffer.Buffer`
(primitive data → static section; objects → dynamic section) and
handed to mpjdev; receives unpack arrived buffers into the user array
on the waiting thread.  Buffers come from the environment's pool and
return to it when requests finish.  Contiguous arrays of any size skip
both copies: an array window *is* the Buffer (see :meth:`Comm._window`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.buffer import Buffer
from repro.buffer.pool import BufferPool, DEFAULT_POOL
from repro.buffer.window import ArrayRecvWindow, ArraySendWindow
from repro.mpi.attributes import AttributeMixin
from repro.mpi.datatype import Datatype, OBJECT, datatype_for
from repro.mpi.exceptions import (
    CommunicatorError,
    InvalidRankError,
    InvalidTagError,
    MPIException,
)
from repro.mpi.group import Group
from repro.mpi.request import MPIRequest, raise_failure
from repro.mpi.status import MPIStatus
from repro.mpjdev.comm import MPJDevComm, RankRequest
from repro.mpjdev.request import Request as DevRequest
from repro.mpjdev.request import RequestFailedError
from repro.mpjdev.request import Status as DevStatus
from repro.xdev.constants import ANY_SOURCE, ANY_TAG

#: Extra bytes reserved beyond the packed payload (section headers).
_SLACK = 64

#: Reserved internal tag space for collectives (on the collective
#: context, so it can never collide with user point-to-point traffic).
TAG_BCAST = 1
TAG_REDUCE = 2
TAG_GATHER = 3
TAG_SCATTER = 4
TAG_ALLGATHER = 5
TAG_ALLTOALL = 6
TAG_BARRIER = 7
TAG_SCAN = 8
TAG_COMMCTL = 9
TAG_TOPO = 10
TAG_INTERCOMM = 11


class Comm(AttributeMixin):
    """Base communicator: identity, groups and point-to-point."""

    def __init__(
        self,
        devcomm: MPJDevComm,
        group: Group,
        contexts: tuple[int, int],
        pool: BufferPool | None = None,
        env: Any = None,
    ) -> None:
        self._devcomm = devcomm
        self._group = group
        self._context_pt2pt, self._context_coll = contexts
        self._pool = pool if pool is not None else DEFAULT_POOL
        self._env = env
        self._freed = False
        #: Ranks addressable through ``devcomm`` (for an
        #: intercommunicator, the remote group): the bound every rank
        #: argument is checked against.
        self._size = devcomm.size
        #: The device's protocol engine (None on devices without one),
        #: looked up once: the window gate asks for it on every send
        #: and receive.
        self._engine = getattr(devcomm.device, "engine", None)

    # ------------------------------------------------------------------
    # identity

    def rank(self) -> int:
        """This process's rank in the communicator."""
        return self._devcomm.rank

    def size(self) -> int:
        """Number of processes in the communicator."""
        return self._devcomm.size

    def group(self) -> Group:
        """The communicator's process group."""
        return self._group

    Rank = rank
    Size = size
    Group = group
    Get_rank = rank
    Get_size = size
    Get_group = group

    @property
    def contexts(self) -> tuple[int, int]:
        """(point-to-point, collective) context ids."""
        return (self._context_pt2pt, self._context_coll)

    def free(self) -> None:
        """Invalidate the communicator (MPI_Comm_free); its
        non-blocking collective worker, if any, exits once idle."""
        self._freed = True
        worker = getattr(self, "_nbc_worker", None)
        if worker is not None:
            worker.close()

    def _check_live(self) -> None:
        if self._freed:
            raise CommunicatorError("communicator has been freed")

    # ------------------------------------------------------------------
    # validation

    def _check_rank(self, rank: int, *, wildcard: bool = False) -> None:
        if wildcard and rank == ANY_SOURCE:
            return
        if not (0 <= rank < self._size):
            raise InvalidRankError(
                f"rank {rank} outside communicator of size {self._size}"
            )

    @staticmethod
    def _check_tag(tag: int, *, wildcard: bool = False) -> None:
        if wildcard and tag == ANY_TAG:
            return
        if tag < 0:
            raise InvalidTagError(f"tag must be non-negative, got {tag}")

    # ------------------------------------------------------------------
    # packing helpers

    def _pack(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype]) -> tuple[Buffer, Datatype]:
        if datatype is None:
            if not isinstance(buf, np.ndarray):
                raise MPIException(
                    "datatype may be omitted only for numpy arrays"
                )
            datatype = datatype_for(buf)
        message = self._pool.acquire(datatype.packed_size(count) + _SLACK)
        try:
            datatype.pack(message, buf, offset, count)
        except BaseException:
            # A pack that rejects the user buffer (shape/dtype lie)
            # must not leak the pooled message.
            message.free()
            raise
        return message, datatype

    def _recv_finisher(
        self,
        message: Buffer,
        buf: Any,
        offset: int,
        count: int,
        datatype: Datatype,
    ):
        def finish(dev_status: DevStatus) -> MPIStatus:
            received = datatype.unpack(message, buf, offset, count)
            message.free()
            return MPIStatus(dev_status, count=received)

        return finish

    def _send_finisher(self, message: Buffer):
        def finish(dev_status: DevStatus) -> MPIStatus:
            message.free()
            return MPIStatus(dev_status)

        return finish

    def _request(self, inner: RankRequest, finisher, cleanup=None) -> MPIRequest:
        return MPIRequest(
            inner, finisher, device=self._devcomm.device, cleanup=cleanup
        )

    @staticmethod
    def _reap(request: DevRequest, message: Optional[Buffer] = None) -> DevStatus:
        """Wait on a blocking call's device request.

        A failure raises what :class:`MPIRequest` would raise, after
        returning the pooled *message*; nothing else is built.
        """
        try:
            return request.wait()
        except RequestFailedError as exc:
            raise_failure(exc, None if message is None else message.free)

    # ------------------------------------------------------------------
    # zero-copy array windows (every contiguous message)

    def _window(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        *,
        writable: bool,
    ):
        """The one gate for the zero-copy datapath, pt2pt and collectives.

        Returns an :class:`ArraySendWindow` (or, if *writable*, an
        :class:`ArrayRecvWindow`) aliasing the user's array, or None to
        use the packed path.  Every C-contiguous, dtype-exact array on
        a protocol-engine device takes a window, whatever its size: an
        8-byte message skips the pool and the pack/unpack copies just
        as a 16 MiB one does, while the eager threshold still picks
        eager or rendezvous below.  Sender and receiver may still
        disagree (non-contiguous array, dtype mismatch) — a window on
        one side interoperates with a packed buffer on the other, so
        nothing breaks, one side just copies.
        """
        if count <= 0 or self._engine is None or not isinstance(buf, np.ndarray):
            return None
        if datatype is None:
            datatype = datatype_for(buf)
        section = datatype.window
        if section is None:
            return None
        base_np = datatype.base_dtype
        base_count = count * datatype.block_count
        flags = buf.flags
        if not flags.c_contiguous or (writable and not flags.writeable):
            return None
        dtype = buf.dtype
        if dtype != base_np and not (
            dtype.kind in "iu"
            and base_np.kind in "iu"
            and dtype.itemsize == base_np.itemsize
        ):
            return None
        if offset < 0 or offset + base_count > buf.size:
            return None  # let the packed path raise the precise error
        itemsize = dtype.itemsize
        try:
            view = memoryview(buf).cast("B")[
                offset * itemsize : (offset + base_count) * itemsize
            ]
        except (TypeError, ValueError, BufferError):
            return None
        if writable:
            return ArrayRecvWindow(view, section, base_count, datatype.block_count)
        return ArraySendWindow(view, section, base_count)

    # ------------------------------------------------------------------
    # uppercase point-to-point (array data, mpijava signatures)

    def _post_send(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        tag: int,
        context: int,
        mode: str,
    ) -> tuple[DevRequest, Optional[Buffer]]:
        """Validate and start a send: the device request, and the
        pooled message it owns (None when a window sends the array)."""
        if self._freed or not 0 <= dest < self._size or tag < 0:
            self._check_live()
            self._check_rank(dest)
            self._check_tag(tag)
        if mode != "buffered":
            window = self._window(buf, offset, count, datatype, writable=False)
            if window is not None:
                return self._devcomm.post_send(window, dest, tag, context, mode), None
        message, datatype = self._pack(buf, offset, count, datatype)
        try:
            return self._devcomm.post_send(message, dest, tag, context, mode), message
        except BaseException:
            message.free()
            raise

    def Isend(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        tag: int,
        *,
        mode: str = "standard",
    ) -> MPIRequest:
        """Non-blocking standard-mode send.

        Contiguous arrays are sent from the user's memory (see
        :meth:`_window`), except in buffered mode, which must snapshot
        the data at call time.
        """
        request, message = self._post_send(
            buf, offset, count, datatype, dest, tag, self._context_pt2pt, mode
        )
        inner = RankRequest(request, self._devcomm)
        if message is None:
            return self._request(inner, MPIStatus)
        return self._request(
            inner, self._send_finisher(message), cleanup=message.free
        )

    def Send(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        tag: int,
    ) -> None:
        """Blocking standard-mode send.

        Waits on the device request itself: no :class:`MPIRequest`,
        finisher or status is built for a result nobody reads.
        """
        request, message = self._post_send(
            buf, offset, count, datatype, dest, tag, self._context_pt2pt, "standard"
        )
        self._reap(request, message)
        if message is not None:
            message.free()

    def Issend(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        tag: int,
    ) -> MPIRequest:
        """Non-blocking synchronous-mode send."""
        return self.Isend(buf, offset, count, datatype, dest, tag, mode="sync")

    def Ssend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> None:
        """Blocking synchronous-mode send."""
        self.Issend(buf, offset, count, datatype, dest, tag).wait()

    def Irsend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> MPIRequest:
        """Non-blocking ready-mode send (receive must be pre-posted)."""
        return self.Isend(buf, offset, count, datatype, dest, tag, mode="ready")

    def Rsend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> None:
        self.Irsend(buf, offset, count, datatype, dest, tag).wait()

    def Ibsend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> MPIRequest:
        """Non-blocking buffered-mode send (data snapshotted on call)."""
        return self.Isend(buf, offset, count, datatype, dest, tag, mode="buffered")

    def Bsend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> None:
        self.Ibsend(buf, offset, count, datatype, dest, tag).wait()

    def _post_recv(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        source: int,
        tag: int,
        context: int,
    ) -> tuple[DevRequest, Buffer, Datatype]:
        """Validate and post a receive: the device request, what it
        lands in (an :class:`ArrayRecvWindow` or a pooled message) and
        the resolved datatype."""
        if self._freed or not 0 <= source < self._size or tag < 0:
            self._check_live()
            self._check_rank(source, wildcard=True)
            self._check_tag(tag, wildcard=True)
        if datatype is None:
            if not isinstance(buf, np.ndarray):
                raise MPIException("datatype may be omitted only for numpy arrays")
            datatype = datatype_for(buf)
        window = self._window(buf, offset, count, datatype, writable=True)
        if window is not None:
            return self._devcomm.post_recv(window, source, tag, context), window, datatype
        message = self._pool.acquire(datatype.packed_size(count) + _SLACK)
        try:
            request = self._devcomm.post_recv(message, source, tag, context)
        except BaseException:
            message.free()
            raise
        return request, message, datatype

    def Irecv(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        source: int,
        tag: int,
    ) -> MPIRequest:
        """Non-blocking receive; *source* may be ``ANY_SOURCE``.

        Contiguous arrays are received in place (see :meth:`_window`):
        every device lands the payload straight in the user's memory.
        """
        request, landing, datatype = self._post_recv(
            buf, offset, count, datatype, source, tag, self._context_pt2pt
        )
        inner = RankRequest(request, self._devcomm)
        if isinstance(landing, ArrayRecvWindow):
            block = datatype.block_count
            return self._request(
                inner,
                lambda dev_status: MPIStatus(
                    dev_status, count=landing.landed_count // block
                ),
            )
        return self._request(
            inner,
            self._recv_finisher(landing, buf, offset, count, datatype),
            cleanup=landing.free,
        )

    def Recv(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        source: int,
        tag: int,
    ) -> MPIStatus:
        """Blocking receive; reaps the device request like :meth:`Send`."""
        request, landing, datatype = self._post_recv(
            buf, offset, count, datatype, source, tag, self._context_pt2pt
        )
        if isinstance(landing, ArrayRecvWindow):
            status = self._reap(request)
            received = landing.landed_count // datatype.block_count
        else:
            status = self._reap(request, landing)
            try:
                received = datatype.unpack(landing, buf, offset, count)
            finally:
                landing.free()
        return MPIStatus(self._devcomm.translate(status), count=received)

    def Sendrecv(
        self,
        sendbuf: Any,
        sendoffset: int,
        sendcount: int,
        sendtype: Optional[Datatype],
        dest: int,
        sendtag: int,
        recvbuf: Any,
        recvoffset: int,
        recvcount: int,
        recvtype: Optional[Datatype],
        source: int,
        recvtag: int,
    ) -> MPIStatus:
        """Combined send and receive (deadlock-free by construction)."""
        rreq = self.Irecv(recvbuf, recvoffset, recvcount, recvtype, source, recvtag)
        sreq = self.Isend(sendbuf, sendoffset, sendcount, sendtype, dest, sendtag)
        status = rreq.wait()
        sreq.wait()
        return status

    def Sendrecv_replace(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        sendtag: int,
        source: int,
        recvtag: int,
    ) -> MPIStatus:
        """Sendrecv using one buffer (send data snapshotted first)."""
        if datatype is None:
            datatype = datatype_for(buf)
        # Buffered-mode send snapshots the data at call time, so the
        # subsequent in-place receive cannot corrupt it.
        sreq = self.Isend(buf, offset, count, datatype, dest, sendtag, mode="buffered")
        status = self.Recv(buf, offset, count, datatype, source, recvtag)
        sreq.wait()
        return status

    # ------------------------------------------------------------------
    # persistent requests (MPI-1 Send_init family)

    def Send_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int):
        """Persistent standard-mode send (start with ``.start()``)."""
        from repro.mpi.persistent import Prequest

        self._check_rank(dest)
        self._check_tag(tag)
        return Prequest(self, "send", (buf, offset, count, datatype, dest, tag))

    def Ssend_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int):
        """Persistent synchronous-mode send."""
        from repro.mpi.persistent import Prequest

        self._check_rank(dest)
        self._check_tag(tag)
        return Prequest(self, "send", (buf, offset, count, datatype, dest, tag), mode="sync")

    def Rsend_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int):
        """Persistent ready-mode send."""
        from repro.mpi.persistent import Prequest

        self._check_rank(dest)
        self._check_tag(tag)
        return Prequest(self, "send", (buf, offset, count, datatype, dest, tag), mode="ready")

    def Bsend_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int):
        """Persistent buffered-mode send (data snapshotted per start)."""
        from repro.mpi.persistent import Prequest

        self._check_rank(dest)
        self._check_tag(tag)
        return Prequest(self, "send", (buf, offset, count, datatype, dest, tag), mode="buffered")

    def Recv_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], source: int, tag: int):
        """Persistent receive."""
        from repro.mpi.persistent import Prequest

        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        return Prequest(self, "recv", (buf, offset, count, datatype, source, tag))

    # ------------------------------------------------------------------
    # probing

    def Iprobe(self, source: int, tag: int) -> Optional[MPIStatus]:
        """Non-blocking probe on the point-to-point context."""
        self._check_live()
        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        dev_status = self._devcomm.iprobe(source, tag, self._context_pt2pt)
        return MPIStatus(dev_status) if dev_status is not None else None

    def Probe(self, source: int, tag: int) -> MPIStatus:
        """Blocking probe."""
        self._check_live()
        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        return MPIStatus(self._devcomm.probe(source, tag, self._context_pt2pt))

    # ------------------------------------------------------------------
    # lowercase point-to-point (pickled Python objects, mpi4py style)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> MPIRequest:
        """Non-blocking pickled-object send."""
        return self.Isend([obj], 0, 1, OBJECT, dest, tag)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking pickled-object send."""
        self.isend(obj, dest, tag).wait()

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking synchronous pickled-object send."""
        self.Issend([obj], 0, 1, OBJECT, dest, tag).wait()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "ObjectRecvRequest":
        """Non-blocking object receive; ``wait()`` returns the object."""
        self._check_live()
        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        box: list[Any] = [None]
        message = self._pool.acquire(_SLACK)
        try:
            inner = self._devcomm.irecv(message, source, tag, self._context_pt2pt)
        except BaseException:
            message.free()
            raise
        finisher = self._recv_finisher(message, box, 0, 1, OBJECT)
        return ObjectRecvRequest(
            inner,
            finisher,
            box,
            device=self._devcomm.device,
            cleanup=message.free,
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Optional[list] = None) -> Any:
        """Blocking object receive; returns the object.

        If *status* is a list, the :class:`MPIStatus` is appended to it
        (Python has no out-parameters).
        """
        request = self.irecv(source, tag)
        obj = request.wait()
        if status is not None:
            status.append(request.status)
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(rank={self.rank()}, size={self.size()})"


class ObjectRecvRequest(MPIRequest):
    """Request for a lowercase receive: ``wait()`` yields the object."""

    def __init__(
        self, inner: RankRequest, finisher, box: list, device=None, cleanup=None
    ) -> None:
        super().__init__(inner, finisher, device=device, cleanup=cleanup)
        self._box = box
        self.status: Optional[MPIStatus] = None

    def wait(self, timeout: Optional[float] = None) -> Any:
        self.status = super().wait(timeout=timeout)
        return self._box[0]

    def test(self) -> Optional[Any]:
        status = super().test()
        if status is None:
            return None
        self.status = status
        return self._box[0]

    Wait = wait
    Test = test
