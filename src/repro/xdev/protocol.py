"""The eager/rendezvous protocol engine (paper Figs 3–8).

This module implements, once, the communication protocols that the
paper implements inside niodev, so that every pure-Python transport
(TCP sockets in :mod:`repro.xdev.niodev`, in-process pipes in
:mod:`repro.xdev.smdev`) runs *identical* protocol code — the paper
offers its pseudocode "as a blueprint for developing other thread-safe
devices", and this engine is that blueprint made executable.

Locking discipline (paper Section IV-A, endpoint-sharded).  The engine
owns five lock classes, each made by :func:`~repro.xdev.locknames.new_lock`:

* ``recv-shard`` and ``recv-wildcard`` — the paper's single
  ``receive-communication-sets`` lock, split across the
  :class:`~repro.xdev.matching.ShardedMatcher`'s per-shard locks (one
  per endpoint; wildcard receives take the global all-shard path).
  ``REPRO_ENDPOINTS=1`` reproduces the paper's single lock.
* ``send-sets`` — guards the pending-send set (Figs 6, 8).
* ``rendezvous-ids`` — guards the recv-id table and active-RTS set
  (id-addressed state, not part of any matching shard).
* ``completed`` — the completion shards.

Plus its metrics registry's leaf ``bookkeeping`` lock, which guards
the counters, the Lamport clock and flow sequence and the histograms.
Each side of an eager message takes it once: the send to stamp and
record itself, complete, before the write; the delivery to record the
move, the receive and its completion before settling the request.  A
frame's receipt merges the sender's clock in a hold of its own.

**Write serialisation is the transport's**, as in the paper, where the
per-destination write lock lives inside niodev ("every thread that
tries to write a message first acquires the associated lock"):
:meth:`Transport.write` is thread-safe and ordered by contract, and
each transport serialises with what its medium needs — nothing for
smdev, which delivers on the writing thread, a write lock on the
pinned connection for niodev's byte stream, the outbound-ring lock for
procdev.  The engine holds none of its own locks across a ``write``,
so a transport blocking on a full medium can never wedge another
thread's protocol step — and a transport whose ``write`` runs the
receiver's :meth:`ProtocolEngine.deliver_segments` inline (smdev,
niodev's rank-to-self path) can never re-enter a lock its caller holds.  No
lock for reading: frames demultiplex by content route onto the
matching shards, whichever thread delivers them.

The send-sets lock and the write of a rendezvous send are taken *one
after the other*, never nested ("to avoid blocking other user threads
sending messages to different destinations", Fig. 6 commentary).
Request completion always happens outside engine locks, since
completion listeners (peek queue, WaitAny wake-ups) take their own
locks.

Send modes: the MPI specification's four modes map onto the two
protocols exactly as in the paper — *standard* picks eager below the
threshold and rendezvous above; *synchronous* always uses rendezvous
(completion implies the receive matched); *ready* always uses eager
(the user asserts the receive is posted); *buffered* snapshots the
data and uses eager.
"""

from __future__ import annotations

import abc
import itertools
import threading
import time
from typing import Any, Callable, Optional

from repro.buffer import Buffer
from repro.buffer.buffer import (
    WIRE_HEADER_SIZE,
    ReceiveMismatchError,
    copy_segments,
)
from repro.buffer.pool import BufferPool, DEFAULT_POOL, RawPool
from repro.mpjdev.request import Request, Status
from repro.obs.metrics import MetricsRegistry, make_registry
from repro.obs.tracing import dump_metrics, writer_for
from repro.xdev.completion import CompletionShards
from repro.xdev.endpoints import (
    EndpointBinding,
    endpoint_count,
    route_of,
    route_of_id,
)
from repro.xdev.exceptions import (
    DeviceFinishedError,
    DuplicateControlFrameError,
    XDevException,
)
from repro.xdev.frames import FrameHeader, FrameType, encode_frame
from repro.xdev.locknames import RENDEZVOUS_IDS, SEND_SETS, new_lock
from repro.xdev.matching import ArrivedMessage, PostedRecv, ShardedMatcher
from repro.xdev.processid import ProcessID

#: Default eager→rendezvous switch point; "typically less than 128
#: Kbytes when using TCP/IP" (Section IV-A.1).  The figures' throughput
#: dip at 128 KB comes from this constant.
DEFAULT_EAGER_THRESHOLD = 128 * 1024

#: The engine's protocol event counters, surfaced as ``engine.stats``
#: and the ``engine`` metrics section.  ``completions`` counts requests
#: settled, failed ones included; an eager send completes as it is
#: handed to the transport (Fig. 3's non-pending request).
_STATS = (
    "eager_sends",
    "rendezvous_sends",
    "unexpected_messages",
    "rendezvous_writer_threads",
    "completions",
    "duplicate_control_frames",
    "failed_deliveries",
)

MODE_STANDARD = "standard"
MODE_SYNC = "sync"
MODE_READY = "ready"
MODE_BUFFERED = "buffered"
_VALID_MODES = frozenset({MODE_STANDARD, MODE_SYNC, MODE_READY, MODE_BUFFERED})


class Transport(abc.ABC):
    """What the protocol engine needs from a byte transport.

    ``write(dest, segments, route=0, on_delivered=None)`` is the whole
    write contract: thread-safe, FIFO per calling thread per
    ``(dest, route)``, frames never interleaved, and the fence it is
    handed fires exactly once (never if ``write`` raises).  The engine
    calls it from any thread with no lock held; each transport
    serialises with what its medium needs.

    *route* is the frame's content route (see
    :mod:`repro.xdev.endpoints`).  A transport that queues frames per
    endpoint delivers on ``route % endpoints``; the others ignore it,
    since one stream per peer, or delivery before ``write`` returns,
    already orders everything.

    Segment lifetime (the zero-copy contract): ``write`` consumes the
    caller's segments before it returns — TCP ``sendmsg`` copies them
    into the kernel, smdev delivers them on the calling thread.  A
    decorator that keeps a frame past ``write`` (held back, queued for
    a later delivery) must copy it, unless the write carries a fence:
    a fenced frame (rendezvous data) stays referenced until the fence
    fires, which is what keeps it zero-copy.
    """

    @abc.abstractmethod
    def start(self, engine: "ProtocolEngine") -> None:
        """Begin delivering inbound frames to ``engine.handle_frame``."""

    @abc.abstractmethod
    def write(
        self,
        dest: ProcessID,
        segments: list[bytes | memoryview],
        route: int = 0,
        on_delivered: Optional[Callable[[], None]] = None,
    ) -> None:
        """Write one frame to *dest* (see the class docstring)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Stop delivering inbound frames and release transport resources."""

    def introspect(self) -> dict[str, Any]:
        """Transport-specific live state (frame errors, selector
        state); folded into ``device.introspect()``.  Best-effort and
        lock-free — numbers may be momentarily stale."""
        return {}


class _PendingSend:
    """A rendezvous send parked in the pending-send-request-set.

    Carries the committed buffer's *segment list* — live views of the
    user's message memory, not a flattened copy.  The MPI contract
    (don't touch the buffer until the request completes) is what makes
    holding views here safe; completion fires only once the transport
    no longer references them.
    """

    __slots__ = ("request", "segments", "size", "dest")

    def __init__(
        self,
        request: Request,
        segments: list[bytes | memoryview],
        size: int,
        dest: ProcessID,
    ) -> None:
        self.request = request
        self.segments = segments
        self.size = size
        self.dest = dest


class MatchedMessage:
    """A message claimed by ``improbe``/``mprobe``, awaiting ``mrecv``.

    The claim removed it from matching, so it belongs exclusively to
    the holder; :attr:`status` reports source/tag/size for sizing the
    receive buffer.
    """

    __slots__ = ("status", "_msg")

    def __init__(self, msg: ArrivedMessage, status: Status) -> None:
        self.status = status
        self._msg = msg

    def consume(self) -> ArrivedMessage:
        msg = self._msg
        if msg is None:
            raise XDevException("MatchedMessage already received")
        self._msg = None
        return msg


class ProtocolEngine:
    """Eager + rendezvous protocol state machine over a Transport."""

    def __init__(
        self,
        my_pid: ProcessID,
        transport: Transport,
        eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
        pool: BufferPool | None = None,
        fork_rendezvous_writer: bool = True,
        metrics: MetricsRegistry | None = None,
        trace_label: str = "dev",
        endpoints: int | None = None,
    ) -> None:
        self.my_pid = my_pid
        self.transport = transport
        self.eager_threshold = eager_threshold
        self.pool = pool if pool is not None else DEFAULT_POOL
        #: Cross-layer metrics registry (repro.obs).  Owns the device's
        #: CopyStats — the single source of truth for copy accounting.
        self.metrics = (
            metrics
            if metrics is not None
            else make_registry(f"{trace_label}-rank{my_pid.uid}")
        )
        self.trace_label = trace_label
        #: Per-device copy/move accounting (see docs/performance.md).
        self.copy_stats = self.metrics.copy_stats
        #: The registry's leaf lock: guards the counters, the clock and
        #: the flow sequence below, the histograms and the CopyStats.
        self._book_lock = self.metrics.lock
        #: Device-level scratch storage: receive scratch and
        #: unexpected-message storage.
        self.raw_pool = RawPool(stats=self.copy_stats)
        #: Paper Fig. 8 forks a "rendez-write-thread" per RTR so the
        #: input handler never blocks on a large write.  It applies to
        #: RTRs a progress thread hands to :meth:`handle_frame` (niodev,
        #: procdev); one delivered by :meth:`deliver_segments` is always
        #: answered on its delivering thread.  Disabling this (ablation)
        #: performs the write on niodev's input handler, the
        #: configuration the paper warns can deadlock.
        self.fork_rendezvous_writer = fork_rendezvous_writer

        #: Endpoint count (option > REPRO_ENDPOINTS env > default) and
        #: the sticky round-robin thread → endpoint binding.
        self.endpoints = endpoint_count(endpoints)
        self._binding = EndpointBinding(self.endpoints)

        # receive-communication-sets, sharded per endpoint (the seed's
        # single lock + MessageQueues is the nshards=1 special case).
        self._matcher = ShardedMatcher(self.endpoints)
        #: recv_id -> (Request, src, tag, context, send_id, flow_src,
        #: flow_seq), for rendezvous data addressed by id; with the
        #: active-RTS set, id-addressed state outside any matching
        #: shard, under its own rendezvous-ids lock.  The flow fields
        #: come from the RTS and stamp the eventual recv.complete.
        self._rndz_lock = new_lock(RENDEZVOUS_IDS)
        self._rendezvous_recvs: dict[
            int, tuple[Request, ProcessID, int, int, int, int, int]
        ] = {}
        #: (src uid, send_id) of every RTS seen but not yet satisfied
        #: by its RNDZ_DATA — duplicates are rejected against this set.
        self._active_rts: set[tuple[int, int]] = set()

        # send-communication-sets lock
        self._send_lock = new_lock(SEND_SETS)
        self._pending_sends: dict[int, _PendingSend] = {}

        # completed-request shards backing peek(), one per endpoint,
        # offered every completion by the requests' hook
        self._completions = CompletionShards(self.endpoints)
        self._on_complete = self._completions.offer

        self._ids = itertools.count(1)
        self._finished = False

        #: Under ``_book_lock``: the Lamport clock and the last flow id
        #: issued (see :mod:`repro.xdev.frames`; always on, so also the
        #: number of flows started), and the protocol event counters —
        #: frames are delivered on any number of threads, and a bare
        #: ``+= 1`` would lose updates between its read and its write.
        self._clock = self._flows = 0
        self._stats = dict.fromkeys(_STATS, 0)

        # Observability: pre-bound instruments, recorded with ``add``
        # inside the engine's holds of ``_book_lock`` (shared no-ops on
        # the same path when metrics are disabled).
        m = self.metrics
        self._h_eager_bytes = m.histogram("send.eager_bytes")
        self._h_rndz_bytes = m.histogram("send.rendezvous_bytes")
        self._h_recv_bytes = m.histogram("recv.bytes")
        self._h_send_latency = m.histogram("send.latency_us")
        self._h_recv_latency = m.histogram("recv.latency_us")
        #: Wait for a transport's write lock, observed by the locking
        #: transports through :meth:`observe_lock_wait`; stays at
        #: count 0 on transports that need no lock (smdev).
        self._h_lock_wait = m.histogram("channel_lock.wait_us")
        m.attach("engine", lambda: self._book_section(True))
        m.attach("matching", self._matcher.counters)
        m.attach("queues", self.introspect_queues)
        m.attach("endpoints", self.introspect_endpoints)
        m.attach("raw_pool", lambda: dict(self.raw_pool.stats))
        # The causal clock rides in every metrics snapshot (and so in
        # every bench cell's embedded metrics block): the final value
        # counts the frames this engine sent or received, and diffing
        # it across ranks bounds how causally chatty the job was.
        m.attach("causal", lambda: self._book_section(False))
        #: JSONL trace writer, created when REPRO_TRACE names a
        #: directory — every rank of every launcher/daemon job traces
        #: automatically; finish() flushes the file.
        self.tracer = writer_for(my_pid.uid, label=trace_label)

    # ------------------------------------------------------------------
    # plumbing

    @property
    def stats(self) -> dict[str, int]:
        """Snapshot of the protocol event counters."""
        with self._book_lock:
            return dict(self._stats)

    def _book_section(self, counters: bool) -> dict[str, int]:
        """The ``engine`` (*counters*) or ``causal`` metrics section."""
        with self._book_lock:
            if counters:
                return {**self._stats, "flows": self._flows}
            return {"clock": self._clock, "flows": self._flows}

    def _tick(self, remote: int = -1) -> int:
        """Advance the Lamport clock for a frame sent, or fold in the
        *remote* clock of a frame received; the new value."""
        with self._book_lock:
            self._clock = max(self._clock, remote) + 1
            return self._clock

    def _new_request(self, kind, buf, context=0, tag=0, peer=None, trace_id=0):
        """A pending request of this thread's endpoint, posted now."""
        return Request(
            kind, buf, self._on_complete, context, tag, peer,
            self._binding.current(), trace_id, time.monotonic(),
        )

    def _finish(self, request, status, exc=None, moved=0) -> bool:
        """Settle a published request (False if it already was), first
        recording its completion, its latency and — for a receive — its
        bytes (*moved* of them moved into place here) in one hold of the
        bookkeeping lock.  A failure (*exc*) is a failed delivery."""
        latency_us = (time.monotonic() - request.t_post) * 1e6
        with self._book_lock:
            stats = self._stats
            stats["completions"] += 1
            if request.kind == Request.SEND:
                self._h_send_latency.add(latency_us)
            else:
                self._h_recv_latency.add(latency_us)
                if status is not None:
                    self._h_recv_bytes.add(status.size)
            if moved:
                cs = self.copy_stats
                cs.bytes_moved += moved
                cs.moves += 1
            if exc is not None:
                stats["failed_deliveries"] += 1
        if exc is not None:
            request.fail(exc)
            return True
        return request.try_complete(status)

    def observe_lock_wait(self, t0: float) -> None:
        """Record a write-lock wait that began at ``time.monotonic()``
        *t0* — the one place ``channel_lock.wait_us`` is observed.
        Transports whose medium needs a lock around ``write`` (niodev's
        pinned connection, procdev's outbound ring) call it right
        after their acquire."""
        self._h_lock_wait.observe((time.monotonic() - t0) * 1e6)

    def _check_live(self) -> None:
        if self._finished:
            raise DeviceFinishedError("device has been finished")

    # ------------------------------------------------------------------
    # sends

    def isend(
        self,
        buf: Buffer,
        dest: ProcessID,
        tag: int,
        context: int,
        mode: str = MODE_STANDARD,
    ) -> Request:
        """Non-blocking send in any of the four MPI modes."""
        t_post = time.monotonic()
        if self._finished:
            self._check_live()
        if mode not in _VALID_MODES:
            raise XDevException(f"unknown send mode {mode!r}")
        buf.commit()
        segments = buf.segments()
        # The wire image is the wire header plus both sections.
        wire_len = sum(map(len, segments))
        size = wire_len - WIRE_HEADER_SIZE
        # Content route: every frame of this (context, tag, src) stream
        # lands on the same matching shard, so the non-overtaking rule
        # holds structurally.
        route = route_of(context, tag)

        if mode == MODE_SYNC:
            use_eager = False
        elif mode in (MODE_READY, MODE_BUFFERED):
            use_eager = True
        else:
            use_eager = wire_len <= self.eager_threshold

        tracer = self.tracer
        if use_eager:
            # Fig. 3: lock dest channel / send the data / unlock (the
            # transport's write does all three) / return a non-pending
            # send request object.  Every transport consumes the live
            # segments before write returns (sendmsg, or delivery on
            # this thread), so nothing is staged.  One bookkeeping hold
            # takes the causal context (a flow id per user-level send, a
            # clock tick per frame) and records the send, complete.
            ep = self._binding.current()
            trace_id = next(self._ids) if tracer is not None else 0
            with self._book_lock:
                lc = self._clock = self._clock + 1
                flow_seq = self._flows = self._flows + 1
                stats = self._stats
                stats["eager_sends"] += 1
                stats["completions"] += 1
                self._h_eager_bytes.add(size)
                self._h_send_latency.add((time.monotonic() - t_post) * 1e6)
            if tracer is not None:
                tracer.emit(
                    "send.post", id=trace_id, peer=dest.uid,
                    tag=tag, ctx=context, size=size, proto="eager", ep=ep,
                    lc=lc, fq=flow_seq,
                )
            self.transport.write(
                dest,
                encode_frame(
                    FrameType.EAGER,
                    context,
                    tag,
                    payload=segments,
                    clock=lc,
                    flow_src=self.my_pid.uid,
                    flow_seq=flow_seq,
                ),
                route,
            )
            # Born complete, so settled without a lock: nobody else has
            # seen it.  Offered to a peek() that may be blocked.
            request = Request(
                Request.SEND, buf, None, context, tag, dest, ep, trace_id,
                t_post, Status(source=self.my_pid, tag=tag, size=size),
            )
            self._on_complete(request)
            if tracer is not None:
                tracer.emit("send.complete", id=trace_id, size=size)
            return request

        # Fig. 6: lock send-communication-sets / add send request /
        # unlock / lock dest channel / send ready-to-send / unlock /
        # return pending send request.  Note the two locks are taken
        # sequentially, never nested.
        send_id = next(self._ids)
        request = self._new_request(Request.SEND, buf, context, tag, dest, send_id)
        with self._book_lock:
            lc = self._clock = self._clock + 1
            flow_seq = self._flows = self._flows + 1
            self._stats["rendezvous_sends"] += 1
            self._h_rndz_bytes.add(size)
        if tracer is not None:
            tracer.emit(
                "send.post", id=send_id, peer=dest.uid,
                tag=tag, ctx=context, size=size, proto="rndz",
                ep=request.endpoint, lc=lc, fq=flow_seq,
            )
        with self._send_lock:
            # The park is the documented zero-copy window: MPI forbids
            # touching the send buffer until the request completes, and
            # completion fires only after the transport's delivery
            # fence (see the _PendingSend docstring).
            self._pending_sends[send_id] = _PendingSend(  # reprolint: allow[segment-escape] -- MPI send-buffer contract keeps the parked views valid until the delivery fence completes the request
                request, segments, size, dest
            )
        # The RTS advertises the message payload size in the (otherwise
        # unused) recv_id header field so probes can report an accurate
        # count before the data transfer happens.  It shares the data
        # stream's route: RTS frames must not overtake eager frames of
        # the same stream.  ``rts.out`` is stamped first: an inline
        # transport answers the RTS before write returns, and the
        # reply must not be stamped before its request.
        if tracer is not None:
            tracer.emit("rts.out", id=send_id, peer=dest.uid, fq=flow_seq)
        try:
            self.transport.write(
                dest,
                encode_frame(
                    FrameType.RTS,
                    context,
                    tag,
                    send_id=send_id,
                    recv_id=size,
                    clock=lc,
                    flow_src=self.my_pid.uid,
                    flow_seq=flow_seq,
                ),
                route,
            )
        except BaseException:
            # The RTS never left: un-park the send or it sits in the
            # pending set forever (and keeps the segment views alive).
            with self._send_lock:
                self._pending_sends.pop(send_id, None)
            raise
        return request

    def send(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.isend(buf, dest, tag, context).wait()

    def issend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        return self.isend(buf, dest, tag, context, mode=MODE_SYNC)

    def ssend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.issend(buf, dest, tag, context).wait()

    # ------------------------------------------------------------------
    # receives

    def irecv(
        self, buf: Buffer, src: ProcessID | int, tag: int, context: int
    ) -> Request:
        """Non-blocking receive; *src* may be ``ANY_SOURCE``."""
        if self._finished:
            self._check_live()
        src_uid = src.uid if isinstance(src, ProcessID) else int(src)
        tracer = self.tracer
        request = self._new_request(
            Request.RECV, buf, context, tag, src,
            next(self._ids) if tracer is not None else 0,
        )
        if tracer is not None:
            tracer.emit(
                "recv.post", id=request.trace_id, peer=src_uid, tag=tag,
                ctx=context, ep=request.endpoint,
            )

        # Figs 4 and 7: match-or-add under the receive's shard lock
        # (or the all-shard wildcard path).
        msg = self._matcher.post_recv(PostedRecv(request, context, tag, src_uid))
        if msg is None:
            return request
        if msg.is_rts:
            # Fig. 7: receive sets unlocked, THEN register the
            # rendezvous id and answer with ready-to-recv — the user
            # thread answers the RTS.
            recv_id = self._register_rendezvous_recv(request, msg)
            self._answer_rts(msg, recv_id, request.trace_id)
        else:
            # Fig. 4: copy data from input-buffer into user-buffer.
            self._deliver(request, buf, msg)
        return request

    def _register_rendezvous_recv(
        self, request: Request, rts: ArrivedMessage
    ) -> int:
        """Allocate a recv id and park *request* for the data frame."""
        recv_id = next(self._ids)
        with self._rndz_lock:
            self._rendezvous_recvs[recv_id] = (
                request,
                rts.src_pid,
                rts.tag,
                rts.context,
                rts.send_id,
                rts.flow_src,
                rts.flow_seq,
            )
        return recv_id

    def _answer_rts(
        self, rts: ArrivedMessage, recv_id: int, trace_id: Optional[int]
    ) -> None:
        """Send ready-to-recv for a matched RTS (Fig. 7 / Fig. 8)."""
        # RTR frames are id-addressed: route by the send id so the
        # answer always takes the same path regardless of which thread
        # sends it.  The RTR echoes the RTS's flow id back, so the
        # sender's RNDZ_DATA can carry it without parking flow state
        # in the pending-send set.  Stamped before the write, like
        # ``rts.out``: an inline transport runs the reply chain first.
        lc = self._tick()
        if self.tracer is not None:
            self.tracer.emit(
                "rtr.out", id=trace_id, peer=rts.src_uid,
                lc=lc, fs=rts.flow_src, fq=rts.flow_seq,
            )
        self.transport.write(
            rts.src_pid,
            encode_frame(
                FrameType.RTR,
                rts.context,
                rts.tag,
                send_id=rts.send_id,
                recv_id=recv_id,
                clock=lc,
                flow_src=rts.flow_src,
                flow_seq=rts.flow_seq,
            ),
            route_of_id(rts.send_id),
        )

    def recv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Status:
        return self.irecv(buf, src, tag, context).wait()

    def _deliver(self, request: Request, buf: Buffer, msg: ArrivedMessage) -> None:
        """Unpack an arrived eager message into the posted buffer.

        ``msg.payload`` may be a single bytes-like or a segment list;
        either way the bytes land directly in the posted buffer's own
        storage (accounted as ``bytes_moved``).  Pooled storage backing
        an unexpected message is returned to the scratch pool once the
        payload has been consumed.  A payload that cannot be unpacked
        fails the request (see :meth:`_fail_delivery`).
        """
        try:
            payload = msg.payload
            buf.load_wire_segments(payload if isinstance(payload, list) else [payload])
        except Exception as exc:
            self._fail_delivery(request, exc)
            return
        finally:
            if msg.storage is not None:
                self._release_message_storage(msg)
        # The landing checked the image: its payload is the message size.
        size = msg.size
        self._finish(
            request,
            Status(source=msg.src_pid, tag=msg.tag, size=size, buffer=buf),
            moved=size,
        )
        if self.tracer is not None:
            self.tracer.emit(
                "recv.complete", id=request.trace_id,
                peer=msg.src_uid, size=size, proto="eager",
                fs=msg.flow_src, fq=msg.flow_seq, lc=self._clock,
            )

    def _fail_delivery(self, request: Request, exc: Exception) -> None:
        """Fail a receive whose payload the posted buffer could not take.

        Waiters wake with the error instead of blocking forever.  A
        :class:`ReceiveMismatchError` is the receiver's own mistake
        about a well-formed, fully consumed message, so it stops here
        and the channel carries on.  Anything else is truncated or
        corrupt wire data and is re-raised, so the transport records
        the frame-level fault.
        """
        if self.tracer is not None:
            self.tracer.emit("recv.fail", id=request.trace_id)
        if isinstance(exc, ReceiveMismatchError):
            # The request keeps the error for its waiter; its traceback
            # would keep this delivery's frames, and with them views of
            # transport memory (procdev's shared rings), alive too.
            self._finish(request, None, exc.with_traceback(None))
            return
        self._finish(request, None, exc)
        raise exc

    def _release_message_storage(self, msg: ArrivedMessage) -> None:
        """Return an unexpected message's pooled scratch, if it has any."""
        storage = msg.storage
        if storage is not None:
            msg.storage = None
            msg.payload = None
            self.raw_pool.release(storage)

    # ------------------------------------------------------------------
    # probing

    def iprobe(
        self, src: ProcessID | int, tag: int, context: int
    ) -> Optional[Status]:
        self._check_live()
        src_uid = src.uid if isinstance(src, ProcessID) else int(src)
        msg = self._matcher.find_message(context, tag, src_uid)
        if msg is None:
            return None
        return Status(source=msg.src_pid, tag=msg.tag, size=msg.size)

    def probe(self, src: ProcessID | int, tag: int, context: int) -> Status:
        self._check_live()
        src_uid = src.uid if isinstance(src, ProcessID) else int(src)
        msg = self._matcher.wait_message(context, tag, src_uid)
        return Status(source=msg.src_pid, tag=msg.tag, size=msg.size)

    # ------------------------------------------------------------------
    # matched probing — the atomic probe-then-recv

    def improbe(
        self, src: ProcessID | int, tag: int, context: int
    ) -> Optional["MatchedMessage"]:
        """Probe-and-claim: like ``iprobe``, but the observed message
        is atomically removed from matching, so no concurrent receive
        on another thread can consume it first.  Receive the claimed
        message with :meth:`mrecv`.
        """
        self._check_live()
        src_uid = src.uid if isinstance(src, ProcessID) else int(src)
        msg = self._matcher.claim_message(context, tag, src_uid)
        if msg is None:
            return None
        return MatchedMessage(
            msg, Status(source=msg.src_pid, tag=msg.tag, size=msg.size)
        )

    def mprobe(
        self, src: ProcessID | int, tag: int, context: int
    ) -> "MatchedMessage":
        """Blocking :meth:`improbe`."""
        self._check_live()
        src_uid = src.uid if isinstance(src, ProcessID) else int(src)
        while True:
            match = self.improbe(src, tag, context)
            if match is not None:
                return match
            # Wait for a new unexpected arrival, then race to claim it.
            self._matcher.wait_message(context, tag, src_uid)

    def mrecv(self, match: "MatchedMessage", buf: Buffer) -> Request:
        """Receive a message claimed by :meth:`improbe`/:meth:`mprobe`."""
        self._check_live()
        msg = match.consume()
        tracer = self.tracer
        request = self._new_request(
            Request.RECV, buf, msg.context, msg.tag, msg.src_pid,
            next(self._ids) if tracer is not None else 0,
        )
        if tracer is not None:
            tracer.emit(
                "recv.post", id=request.trace_id, peer=msg.src_uid,
                tag=msg.tag, ctx=msg.context, ep=request.endpoint, matched=True,
            )
        if msg.is_rts:
            recv_id = self._register_rendezvous_recv(request, msg)
            self._answer_rts(msg, recv_id, request.trace_id)
        else:
            self._deliver(request, buf, msg)
        return request

    # ------------------------------------------------------------------
    # progress: peek()

    def peek(self, timeout: Optional[float] = None) -> Request:
        """Block until a request completes; return the most recent one.

        "The peek() method returns the most recently completed Request
        object" (Section III-A) — hence the pop from the right.  A
        completion is visible to peek() iff, when it happened, its
        request belonged to a ``Waitany`` or a thread was blocked in
        peek(); no other completion is recorded, so nothing piles up
        for a peek that never comes.
        """
        return self._completions.pop_latest(timeout=timeout)

    # ------------------------------------------------------------------
    # inbound frames — called by the transport's delivering thread

    def deliver_segments(
        self, src_pid: ProcessID, segments: list[bytes | memoryview]
    ) -> None:
        """Process one frame handed over as the sender's segment list.

        The delivery routine of the in-process paths (smdev, niodev's
        rank-to-self frames), run on the writing thread: a complete
        rendezvous payload is gathered straight into the posted
        buffer's memory, an RTR's data is written on this same thread
        (there is no input handler to keep free, so no writer thread is
        forked), anything else goes to :meth:`handle_frame`.  The
        segments are consumed before this returns.
        """
        header = FrameHeader.decode(segments[0])
        ftype = header.type
        if ftype == FrameType.RTR:
            lc = self._tick(header.clock)
            self._handle_rtr(src_pid, header, lc=lc, fork=False)
            return
        payload = segments[1:]
        # Actual bytes present, which a fault-injecting wrapper may
        # have truncated below header.payload_len — such frames must
        # take the validating fallback path and fail the request.
        total = sum(map(len, payload))
        if ftype == FrameType.RNDZ_DATA and total == header.payload_len:
            landing = self.rendezvous_landing(header.recv_id, total)
            if landing is not None:
                self.copy_stats.moved(copy_segments(landing, payload))
                self.handle_frame(src_pid, header, in_place=True)
                return
        self.handle_frame(src_pid, header, payload)

    def handle_frame(
        self,
        src_pid: ProcessID,
        header: FrameHeader,
        payload: memoryview | bytes | list | None = None,
        *,
        in_place: bool = False,
        owned: Optional[bytearray] = None,
    ) -> None:
        """Process one inbound frame (paper Figs 5 and 8).

        Runs on whichever thread delivers the frame: niodev's and
        procdev's progress threads, or the writing thread on smdev.
        Must never block indefinitely: the only potentially long
        operation — the rendezvous data write — is forked to a separate
        thread (an RTR delivered by :meth:`deliver_segments` skips this
        method and writes inline).  An inline reply (an RTR answering
        an RTS, then the data answering the RTR) recurses at most those
        two levels.

        *payload* may be a single bytes-like or a segment list; the
        engine consumes it before returning unless it takes ownership
        (see *owned*).  ``in_place=True`` means the transport already
        landed a rendezvous payload in the posted buffer's storage via
        :meth:`rendezvous_landing` — the frame carries no bytes of its
        own.  *owned*, if given, is pooled scratch from ``raw_pool``
        backing the payload; ownership transfers to the engine, which
        either keeps it alive as unexpected-message storage or
        releases it (including on error paths).
        """
        # Causal receipt: fold the sender's Lamport clock in before any
        # handler runs, so every event this frame causes is stamped
        # after every event that preceded its send.
        lc = self._tick(header.clock)
        ftype = header.type
        try:
            if ftype == FrameType.EAGER:
                owned = self._handle_eager(src_pid, header, payload, owned, lc=lc)
            elif ftype == FrameType.RTS:
                self._handle_rts(src_pid, header, lc=lc)
            elif ftype == FrameType.RTR:
                self._handle_rtr(src_pid, header, lc=lc)
            elif ftype == FrameType.RNDZ_DATA:
                self._handle_rndz_data(
                    src_pid, header, payload, in_place=in_place, lc=lc
                )
            elif ftype == FrameType.BYE:
                pass  # orderly peer shutdown; nothing to match
            else:  # pragma: no cover - decode guards against this
                raise XDevException(f"unknown frame type {ftype}")
        finally:
            if owned is not None:
                self.raw_pool.release(owned)

    def _handle_eager(
        self,
        src_pid: ProcessID,
        header: FrameHeader,
        payload: memoryview | bytes | list,
        owned: Optional[bytearray] = None,
        lc: int = 0,
    ) -> Optional[bytearray]:
        # Fig. 5: lock receive sets; if matched, receive into the user
        # buffer; else store into an input buffer and record the
        # unexpected message.  Returns *owned* back to the caller
        # unless the message keeps it as storage.
        segments = payload if isinstance(payload, list) else [payload]
        # Payload size excluding the buffer wire header, so probe
        # counts match what recv reports.
        size = max(0, sum(map(len, segments)) - WIRE_HEADER_SIZE)
        if self.tracer is not None:
            self.tracer.emit(
                "eager.in", peer=src_pid.uid, tag=header.tag,
                ctx=header.context, size=size,
                lc=lc, fs=header.flow_src, fq=header.flow_seq,
            )
        msg = ArrivedMessage(
            context=header.context,
            tag=header.tag,
            src_uid=src_pid.uid,
            size=size,
            payload=segments,
            storage=owned,
            src_pid=src_pid,
            flow_src=header.flow_src,
            flow_seq=header.flow_seq,
        )
        matched = self._matcher.arrive(msg, self._store_unexpected)
        if matched is None:
            return None  # stored: the message owns any scratch now
        # Delivered outside the shard lock, straight from the
        # transport's segments — no intermediate copy.
        msg.storage = None
        self._deliver(matched.request, matched.request.buffer, msg)
        return owned

    def _store_unexpected(self, msg: ArrivedMessage) -> None:
        """Count an unexpected message and make its payload stable.

        Runs under the shard lock, just before the message is indexed:
        once another thread can see it, its payload must not change.
        """
        with self._book_lock:
            self._stats["unexpected_messages"] += 1
        if msg.is_rts or msg.storage is not None:
            # An RTS has no payload; transport scratch (``owned``) is
            # adopted as the message's storage — no second copy.
            return
        # The frame's memory belongs to the sender or the transport (it
        # is reclaimed once the handler returns): stage the unexpected
        # payload into stable pooled scratch.  This is the eager
        # protocol's "device level memory" (Section IV-A.1), and the
        # one copy an unmatched eager message costs.
        total = sum(map(len, msg.payload))
        stored = self.raw_pool.acquire(total)
        try:
            copy_segments([memoryview(stored)[:total]], msg.payload)
        except BaseException:
            # Gather failed under the shard lock: return the scratch
            # before the arrive() unwinds.
            self.raw_pool.release(stored)
            raise
        self.copy_stats.copied(total)
        msg.payload = [memoryview(stored)[:total]]
        msg.storage = stored

    def _handle_rts(
        self, src_pid: ProcessID, header: FrameHeader, lc: int = 0
    ) -> None:
        # Fig. 8, ready-to-send branch.  A duplicated RTS would claim
        # (and forever wedge) a second posted receive; reject it before
        # it can match anything.  The check-then-add is one step under
        # the rendezvous-ids lock, whichever threads deliver the copies.
        rts_key = (src_pid.uid, header.send_id)
        with self._rndz_lock:
            if rts_key in self._active_rts:
                with self._book_lock:
                    self._stats["duplicate_control_frames"] += 1
                raise DuplicateControlFrameError(
                    f"duplicate RTS send_id={header.send_id} from {src_pid}"
                )
            self._active_rts.add(rts_key)
        msg = ArrivedMessage(
            context=header.context,
            tag=header.tag,
            src_uid=src_pid.uid,
            # RTS frames advertise the payload size in recv_id.
            size=header.recv_id,
            send_id=header.send_id,
            src_pid=src_pid,
            is_rts=True,
            flow_src=header.flow_src,
            flow_seq=header.flow_seq,
        )

        matched = self._matcher.arrive(msg, self._store_unexpected)
        recv_id = 0
        if matched is not None:
            recv_id = self._register_rendezvous_recv(matched.request, msg)
        if self.tracer is not None:
            self.tracer.emit(
                "rts.in",
                id=matched.request.trace_id if matched is not None else None,
                peer=src_pid.uid, tag=header.tag, size=header.recv_id,
                lc=lc, fs=header.flow_src, fq=header.flow_seq,
            )
        if matched is not None:
            # "unlock receive-communication-sets / lock src channel /
            # send ready-to-recv message to sender / unlock".
            self._answer_rts(msg, recv_id, matched.request.trace_id)

    def _handle_rtr(
        self, src_pid: ProcessID, header: FrameHeader, lc: int = 0,
        fork: bool = True,
    ) -> None:
        # Fig. 8, ready-to-receive branch: fork a rendez-write-thread
        # when a progress thread delivered the RTR (*fork*).
        with self._send_lock:
            pending = self._pending_sends.pop(header.send_id, None)
        if pending is None:
            # Either corruption or a duplicated RTR — the first RTR
            # already consumed the pending send, so answering again
            # would complete the request twice.  Reject loudly.
            with self._book_lock:
                self._stats["duplicate_control_frames"] += 1
            raise DuplicateControlFrameError(
                f"RTR for unknown send id {header.send_id} from {src_pid}"
                " (duplicate or corrupt ready-to-recv)"
            )

        status = Status(source=self.my_pid, tag=header.tag, size=pending.size)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "rtr.in", id=header.send_id, peer=src_pid.uid,
                lc=lc, fs=header.flow_src, fq=header.flow_seq,
            )

        def on_delivered() -> None:
            # The transport no longer references the user's buffer
            # memory; the MPI contract now lets the sender reuse it.
            request = pending.request
            if (
                not request.done
                and self._finish(request, status)
                and tracer is not None
            ):
                tracer.emit(
                    "send.complete", id=header.send_id, size=pending.size
                )

        def rendez_write() -> None:
            # lock dest channel / send the data / unlock, then complete
            # once the live segment views have been consumed.  The data
            # frame inherits the flow id the RTR echoed back, so all
            # four frames of one rendezvous share one flow.
            data_lc = self._tick()
            if tracer is not None:
                tracer.emit(
                    "rndz.out", id=header.send_id, size=pending.size,
                    lc=data_lc, fq=header.flow_seq,
                )
            # RNDZ_DATA is id-addressed: route by recv id, matching
            # the landing lookup on the receiving side.
            self.transport.write(
                pending.dest,
                encode_frame(
                    FrameType.RNDZ_DATA,
                    header.context,
                    header.tag,
                    recv_id=header.recv_id,
                    payload=pending.segments,
                    clock=data_lc,
                    flow_src=header.flow_src,
                    flow_seq=header.flow_seq,
                ),
                route_of_id(header.recv_id),
                on_delivered,
            )

        if fork and self.fork_rendezvous_writer:
            with self._book_lock:
                self._stats["rendezvous_writer_threads"] += 1
            threading.Thread(
                target=rendez_write, name="rendez-write-thread", daemon=True
            ).start()
        else:
            rendez_write()

    def rendezvous_landing(
        self, recv_id: int, nbytes: int
    ) -> Optional[list[memoryview]]:
        """The posted buffer's own memory, exposed for an in-place landing.

        Transports call this when a RNDZ_DATA frame of *nbytes* is
        about to arrive for *recv_id*: the returned scatter list of
        writable views (``Buffer.begin_landing``) is the posted receive
        buffer's memory — a pooled buffer's store, or header scratch
        then the user's own array for a window receive — so the wire
        bytes' first destination is their last.  The transport fills
        the views in order.  Returns None when the id is unknown or the
        size does not fit the posted buffer; the transport then falls
        back to handing the payload to :meth:`handle_frame`, which
        reports the fault through the normal paths.
        """
        with self._rndz_lock:
            entry = self._rendezvous_recvs.get(recv_id)
        if entry is None:
            return None
        try:
            return entry[0].buffer.begin_landing(nbytes)
        except Exception:
            return None

    def _handle_rndz_data(
        self,
        src_pid: ProcessID,
        header: FrameHeader,
        payload: memoryview | bytes | list | None,
        in_place: bool = False,
        lc: int = 0,
    ) -> None:
        with self._rndz_lock:
            entry = self._rendezvous_recvs.pop(header.recv_id, None)
            if entry is not None:
                self._active_rts.discard((src_pid.uid, entry[4]))
        if entry is None:
            raise DuplicateControlFrameError(
                f"rendezvous data for unknown recv id {header.recv_id}"
                " (duplicate or corrupt)"
            )
        request, peer, tag, context, _send_id, flow_src, flow_seq = entry
        if self.tracer is not None:
            self.tracer.emit(
                "rndz.in", id=request.trace_id,
                peer=src_pid.uid, size=header.payload_len,
                lc=lc, fs=flow_src, fq=flow_seq,
            )
        buf = request.buffer
        try:
            if in_place:
                # The transport landed the wire image in the posted
                # buffer's storage already (and counted the move);
                # adopt it without copying.
                buf.finish_landing(header.payload_len)
            else:
                buf.load_wire_segments(
                    payload if isinstance(payload, list) else [payload]
                )
        except Exception as exc:
            self._fail_delivery(request, exc)
            return
        size = buf.size
        self._finish(
            request,
            Status(source=peer, tag=tag, size=size, buffer=buf),
            moved=0 if in_place else size,
        )
        if self.tracer is not None:
            self.tracer.emit(
                "recv.complete", id=request.trace_id,
                peer=src_pid.uid, size=size, proto="rndz",
                fs=flow_src, fq=flow_seq, lc=self._clock,
            )

    # ------------------------------------------------------------------
    # shutdown

    def finish(self) -> None:
        already_finished = self._finished
        self._finished = True
        self.transport.close()
        # Unexpected messages die with the device; return their pooled
        # scratch before auditing the pool for real leaks.
        unexpected = list(self._matcher.iter_unexpected())
        for msg in unexpected:
            self._release_message_storage(msg)
        self.raw_pool.check_leaks("device finish")
        if not already_finished:
            # Flush observability output: the rank's JSONL trace and,
            # alongside it, the final metrics snapshot (this is the
            # dump MPI.Finalize relies on — device.finish() is on its
            # path for every runtime).
            if self.tracer is not None:
                self.tracer.close()
                if self.metrics.enabled:
                    dump_metrics(
                        self.metrics.snapshot(),
                        self.my_pid.uid,
                        label=self.trace_label,
                    )

    # ------------------------------------------------------------------
    # diagnostics

    def pending_recv_count(self) -> int:
        return self._matcher.pending_recv_count()

    def unexpected_count(self) -> int:
        return self._matcher.unexpected_count()

    def pending_send_count(self) -> int:
        """Rendezvous sends awaiting their ready-to-recv."""
        with self._send_lock:
            return len(self._pending_sends)

    def rendezvous_recv_count(self) -> int:
        """Rendezvous receives awaiting their data frame."""
        with self._rndz_lock:
            return len(self._rendezvous_recvs)

    def introspect_queues(self) -> dict[str, int]:
        """Live queue depths (the paper's communication sets)."""
        with self._rndz_lock:
            rndz_recvs = len(self._rendezvous_recvs)
        with self._send_lock:
            pending_sends = len(self._pending_sends)
        return {
            "posted_recvs": self._matcher.pending_recv_count(),
            "unexpected_messages": self._matcher.unexpected_count(),
            "pending_rendezvous_sends": pending_sends,
            "pending_rendezvous_recvs": rndz_recvs,
            "completed_backlog": len(self._completions),
        }

    def introspect_endpoints(self) -> dict[str, Any]:
        """Per-endpoint live state: shard depths, completion backlogs.

        Folded into ``device.introspect()`` and the metrics snapshot so
        ``repro.obs`` tooling can break the device down by endpoint.
        """
        return {
            "count": self.endpoints,
            "bound_threads": self._binding.bound_threads(),
            "matching_shards": self._matcher.depths(),
            "wildcard_recvs": self._matcher.wildcard_depth(),
            "completed_backlog": self._completions.depths(),
            "completions": self._completions.totals(),
            "probe_stats": self._matcher.probe_stats,
        }

    def bind_endpoint(self, endpoint: int) -> int:
        """Pin the calling thread to *endpoint* (benches, tests)."""
        return self._binding.bind(endpoint)
