"""smdev — the shared-memory device for threads-as-ranks jobs.

The paper motivates MPJ Express with SMP clusters: "Using a thread-safe
communication library to program such clusters is an alternative to
traditional approaches like hybrid MPI and OpenMP code, or using shared
memory devices in the MPI libraries" (Section I).  smdev is exactly
that shared-memory device: ranks are threads in one process, and the
transport is an in-process frame queue per rank.  (The real MPJ
Express grew an ``smpdev`` along these lines in later releases.)

Crucially, smdev runs the *same* protocol engine — eager/rendezvous,
four-key matching, input-handler threads — as niodev, so every
protocol invariant is exercised deterministically without sockets.

Per-thread endpoints: each rank owns ``REPRO_ENDPOINTS`` inboxes, one
per endpoint, each drained by its own input-handler thread.  A frame's
inbox is chosen by its **content route** (see
:mod:`repro.xdev.endpoints`), the same hash that picks its matching
shard — so two handler threads never race on one traffic stream, and
frames of one ``(context, tag, src)`` stream can never overtake each
other.  With ``REPRO_ENDPOINTS=1`` this is byte-for-byte the seed's
single-inbox, single-handler device.
"""

from __future__ import annotations

import queue
import threading

from repro.buffer.buffer import copy_segments
from repro.xdev.base import ProtocolDevice
from repro.xdev.device import DeviceConfig, register_device
from repro.xdev.endpoints import endpoint_count
from repro.xdev.exceptions import ConnectionSetupError, XDevException
from repro.xdev.frames import HEADER_SIZE, FrameHeader, FrameType
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import ProtocolEngine, Transport


class SMFabric:
    """The shared wiring for one in-process job of *nprocs* ranks.

    Create one fabric, hand it to every rank's ``DeviceConfig`` — the
    launcher (:mod:`repro.runtime.launcher`) does this automatically.
    """

    def __init__(self, nprocs: int, endpoints: int | None = None) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        #: Endpoint inboxes per rank (the REPRO_ENDPOINTS knob).
        self.endpoints = endpoint_count(endpoints)
        self.pids = [ProcessID(address=("sm", rank)) for rank in range(nprocs)]
        self._uid_to_rank = {pid.uid: rank for rank, pid in enumerate(self.pids)}
        # ``endpoints`` unbounded inbound frame queues per rank — MPSC
        # inboxes carrying ``(src_pid, segment list, delivery fence)``
        # items.  Segments are enqueued *by reference* — the zero-copy
        # handoff — and the fence releases the sender's hold on that
        # memory once the receiving input handler is done with the
        # frame.  ``inboxes[rank][route % endpoints]`` is the only
        # queue a frame with that content route ever lands on.
        self.inboxes: list[list[queue.Queue]] = [
            [queue.Queue() for _ in range(self.endpoints)] for _ in range(nprocs)
        ]

    def rank_of(self, pid: ProcessID) -> int:
        try:
            return self._uid_to_rank[pid.uid]
        except KeyError:
            raise XDevException(f"{pid} is not part of this fabric") from None


class SMTransport(Transport):
    """Queue-backed transport: write = enqueue, input handler = dequeue.

    Writes enqueue the caller's segment list by reference — no join,
    no flattening — so this transport *retains* the segments until the
    receiving rank's input handler has consumed the frame, at which
    point the delivery fence fires and the sender may reuse the
    memory.

    ``write`` enqueues on the destination's ``route % endpoints``
    inbox with one ``queue.put`` — atomic and FIFO per inbox, so the
    write contract holds with no lock of the transport's own, and
    sends on different routes to one peer never serialize.
    """

    retains_segments = True

    _SHUTDOWN = object()

    def __init__(self, fabric: SMFabric, rank: int) -> None:
        self._fabric = fabric
        self._rank = rank
        self._my_pid = fabric.pids[rank]
        self._engine: ProtocolEngine | None = None
        self._threads: list[threading.Thread] = []
        self._closed = False
        #: Contained per-frame errors (diagnostics).
        self.errors: list[Exception] = []

    def start(self, engine: ProtocolEngine) -> None:
        self._engine = engine
        # One input-handler thread per endpoint inbox: the paper's "one
        # input handler per rank", multiplied by the endpoint count.
        for ep, inbox in enumerate(self._fabric.inboxes[self._rank]):
            thread = threading.Thread(
                target=self._input_handler,
                args=(inbox,),
                name=f"smdev-input-handler-{self._rank}.{ep}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def write(self, dest: ProcessID, segments, route: int = 0, on_delivered=None) -> None:
        if self._closed:
            raise XDevException("transport closed")
        # Enqueue by reference: every payload byte "moves" into the
        # peer's inbox without being touched.
        engine = self._engine
        if engine is not None:
            payload_len = sum(len(s) for s in segments) - HEADER_SIZE
            if payload_len > 0:
                engine.copy_stats.moved(payload_len)
        inboxes = self._fabric.inboxes[self._fabric.rank_of(dest)]
        inboxes[route % len(inboxes)].put((self._my_pid, segments, on_delivered))

    def _input_handler(self, inbox: queue.Queue) -> None:
        """The progress engine: pop frames, hand them to the protocol."""
        while True:
            item = inbox.get()  # reprolint: allow[no-block-in-poller] -- blocking on this handler's OWN inbox is its idle wait; it can never stall another rank's progress (the deadlock rule bans blocking on peers' resources)
            if item is SMTransport._SHUTDOWN:
                return
            src_pid, segments, fence = item
            try:
                self._handle_segments(src_pid, segments)
            except Exception as exc:  # noqa: BLE001
                # A corrupt frame costs that frame, not the progress
                # engine; errors are kept for diagnostics.
                self.errors.append(exc)
            finally:
                # The frame's memory is no longer referenced by this
                # rank: let the sender reuse (or recycle) it.
                if fence is not None:
                    fence()

    def _handle_segments(self, src_pid: ProcessID, segments) -> None:
        assert self._engine is not None
        engine = self._engine
        header = FrameHeader.decode(segments[0])
        payload = segments[1:]
        # Actual bytes present, which a fault-injecting wrapper may
        # have truncated below header.payload_len — such frames must
        # take the validating fallback path and fail the request.
        total = sum(len(s) for s in payload)
        if header.type == FrameType.RNDZ_DATA and total == header.payload_len:
            landing = engine.rendezvous_landing(header.recv_id, total)
            if landing is not None:
                # In-place rendezvous receive: gather the sender's live
                # segments straight into the posted buffer's memory.
                engine.copy_stats.moved(copy_segments(landing, payload))
                engine.handle_frame(src_pid, header, in_place=True)
                return
        engine.handle_frame(src_pid, header, payload)

    def introspect(self) -> dict:
        """Inbox backlog: frames enqueued but not yet handled."""
        depths = [q.qsize() for q in self._fabric.inboxes[self._rank]]
        return {
            "inbox_depth": sum(depths),
            "inbox_depths": depths,
            "frame_errors": len(self.errors),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for inbox in self._fabric.inboxes[self._rank]:
            inbox.put(SMTransport._SHUTDOWN)
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join(timeout=5)


@register_device("smdev")
class SMDevice(ProtocolDevice):
    """Shared-memory device: the protocol engine over :class:`SMTransport`."""

    def _setup(self, args: DeviceConfig):
        fabric: SMFabric | None = args.fabric
        if fabric is None:
            if args.nprocs == 1:
                fabric = SMFabric(1)
            else:
                raise ConnectionSetupError(
                    "smdev needs a shared SMFabric in DeviceConfig.fabric"
                )
        if not (0 <= args.rank < fabric.nprocs):
            raise ConnectionSetupError(
                f"rank {args.rank} out of range for fabric of {fabric.nprocs}"
            )
        # The engine's matching shards must line up with the fabric's
        # inbox count so route demux and matching demux agree.
        options = dict(args.options or {})
        options.setdefault("endpoints", fabric.endpoints)
        args.options = options
        my_pid = fabric.pids[args.rank]
        transport = SMTransport(fabric, args.rank)
        return my_pid, list(fabric.pids), transport
