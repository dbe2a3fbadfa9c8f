"""Communication tracing — a debugging aid for message-passing codes.

Wraps a Device so every operation (send/recv post, completion, probe)
is recorded as a timestamped event; traces can be dumped as JSON or
summarized.  Useful for the classic MPI debugging questions: *who sent
what to whom, in what order, and which receive never matched?*

Usage::

    from repro.trace import TracingDevice

    def main(env):
        env.device = TracingDevice(env.device)   # or wrap before building
        ...

    # or, with the launcher:
    devices, pids = make_job("smdev", 2)
    traced = TracingDevice(devices[0])

Events carry: monotonic timestamp, operation, peer uid, tag, context,
size in bytes, and the request's completion time once known.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Optional

from repro.buffer import Buffer
from repro.mpjdev.request import Request, Status
from repro.xdev.device import Device, DeviceConfig
from repro.xdev.processid import ProcessID


@dataclass
class TraceEvent:
    """One recorded communication event."""

    seq: int
    op: str
    time: float
    peer: Optional[int] = None
    tag: Optional[int] = None
    context: Optional[int] = None
    size: Optional[int] = None
    completed_at: Optional[float] = None
    #: Probe/peek outcome: True when a matching message (or completed
    #: request) was found, False when not, None for other operations.
    matched: Optional[bool] = None

    #: Operations that complete later (non-blocking) or whose event
    #: stays open while the caller is blocked inside them.
    _COMPLETABLE = frozenset(
        {"isend", "irecv", "issend", "send", "ssend", "recv"}
    )

    @property
    def pending(self) -> bool:
        return self.completed_at is None and self.op in TraceEvent._COMPLETABLE


class TracingDevice(Device):
    """A Device decorator recording every operation."""

    def __init__(self, inner: Device, sink: Any = None) -> None:
        self.inner = inner
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._t0 = time.monotonic()
        #: Optional JSONL export (:class:`repro.obs.tracing.TraceWriter`).
        #: Auto-created from ``REPRO_TRACE`` when the inner device's
        #: rank is known (now, or at :meth:`init`).
        self._sink = sink if sink is not None else self._make_sink()

    def _make_sink(self) -> Any:
        from repro.obs.tracing import writer_for

        try:
            rank = self.inner.id().uid
        except Exception:  # noqa: BLE001 - not initialized yet
            return None
        return writer_for(rank, label="mpi")

    def clock(self) -> float:
        """Seconds since this tracer started (the events' time base)."""
        return time.monotonic() - self._t0

    # ------------------------------------------------------------------
    # recording

    def _record(
        self,
        op: str,
        peer: ProcessID | int | None = None,
        tag: Optional[int] = None,
        context: Optional[int] = None,
        size: Optional[int] = None,
    ) -> TraceEvent:
        with self._lock:
            self._seq += 1
            event = TraceEvent(
                seq=self._seq,
                op=op,
                time=time.monotonic() - self._t0,
                peer=peer.uid if isinstance(peer, ProcessID) else peer,
                tag=tag,
                context=context,
                size=size,
            )
            self._events.append(event)
        sink = self._sink
        if sink is not None:
            name = f"mpi.{op}.post" if op in TraceEvent._COMPLETABLE else f"mpi.{op}"
            sink.emit(
                name,
                id=event.seq,
                peer=event.peer,
                tag=tag,
                ctx=context,
                size=size,
            )
        return event

    def _sink_complete(self, event: TraceEvent) -> None:
        sink = self._sink
        if sink is not None:
            sink.emit(f"mpi.{event.op}.complete", id=event.seq, size=event.size)

    def _track_completion(self, request: Request, event: TraceEvent) -> Request:
        def on_done(_req: Request) -> None:
            event.completed_at = time.monotonic() - self._t0
            if event.size is None:
                # Receives learn their size only at match time; capture
                # it so summary()'s bytes_received is not undercounted.
                try:
                    status = _req.test()
                except Exception:  # noqa: BLE001 - failed request
                    status = None
                if status is not None:
                    event.size = status.size
            self._sink_complete(event)

        request.add_completion_listener(on_done)
        return request

    # ------------------------------------------------------------------
    # trace access

    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def pending_events(self) -> list[TraceEvent]:
        """Operations started but never completed — the deadlock list."""
        return [e for e in self.events() if e.pending]

    def summary(self) -> dict[str, Any]:
        events = self.events()
        by_op: dict[str, int] = {}
        bytes_sent = 0
        bytes_received = 0
        probe_hits = 0
        probe_misses = 0
        for e in events:
            by_op[e.op] = by_op.get(e.op, 0) + 1
            if e.size and e.op in ("isend", "send", "issend", "ssend"):
                bytes_sent += e.size
            elif e.size and e.op in ("irecv", "recv"):
                bytes_received += e.size
            if e.op in ("iprobe", "probe", "peek"):
                if e.matched:
                    probe_hits += 1
                elif e.matched is False:
                    probe_misses += 1
        out: dict[str, Any] = {
            "events": len(events),
            "by_op": by_op,
            "bytes_sent": bytes_sent,
            "bytes_received": bytes_received,
            "probe_hits": probe_hits,
            "probe_misses": probe_misses,
            "pending": len([e for e in events if e.pending]),
        }
        stats = self.copy_stats
        if stats is not None:
            out["copy_stats"] = stats.snapshot()
        return out

    def dump_json(self) -> str:
        return json.dumps([asdict(e) for e in self.events()], indent=2)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # ------------------------------------------------------------------
    # Device API — delegate + record

    device_name = "traced"

    def init(self, args: DeviceConfig) -> list[ProcessID]:
        self._record("init")
        pids = self.inner.init(args)
        if self._sink is None:
            self._sink = self._make_sink()
        return pids

    def id(self) -> ProcessID:
        return self.inner.id()

    def finish(self) -> None:
        self._record("finish")
        self.inner.finish()
        sink = self._sink
        if sink is not None:
            sink.close()

    def get_send_overhead(self) -> int:
        return self.inner.get_send_overhead()

    def get_recv_overhead(self) -> int:
        return self.inner.get_recv_overhead()

    def isend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        event = self._record("isend", dest, tag, context, buf.size)
        return self._track_completion(self.inner.isend(buf, dest, tag, context), event)

    def send(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        event = self._record("send", dest, tag, context, buf.size)
        self.inner.send(buf, dest, tag, context)
        event.completed_at = time.monotonic() - self._t0

    def issend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        event = self._record("issend", dest, tag, context, buf.size)
        return self._track_completion(self.inner.issend(buf, dest, tag, context), event)

    def ssend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        event = self._record("ssend", dest, tag, context, buf.size)
        self.inner.ssend(buf, dest, tag, context)
        event.completed_at = time.monotonic() - self._t0

    def irecv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Request:
        event = self._record("irecv", src, tag, context)
        return self._track_completion(self.inner.irecv(buf, src, tag, context), event)

    def recv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Status:
        event = self._record("recv", src, tag, context)
        status = self.inner.recv(buf, src, tag, context)
        event.completed_at = time.monotonic() - self._t0
        event.size = status.size
        self._sink_complete(event)
        return status

    def iprobe(self, src: ProcessID | int, tag: int, context: int) -> Status | None:
        event = self._record("iprobe", src, tag, context)
        status = self.inner.iprobe(src, tag, context)
        event.matched = status is not None
        if status is not None:
            event.size = status.size
        return status

    def probe(self, src: ProcessID | int, tag: int, context: int) -> Status:
        event = self._record("probe", src, tag, context)
        status = self.inner.probe(src, tag, context)
        event.completed_at = time.monotonic() - self._t0
        event.matched = True
        event.size = status.size
        return status

    def peek(self, timeout: float | None = None) -> Request:
        """Delegate and record; the inner device's peek contract holds
        (see :meth:`Device.peek`): only a completion whose request
        belonged to a ``Waitany``, or that happened while a thread was
        blocked in peek(), is returned."""
        event = self._record("peek")
        try:
            request = self.inner.peek(timeout=timeout)
        except Exception:
            event.completed_at = time.monotonic() - self._t0
            event.matched = False
            raise
        event.completed_at = time.monotonic() - self._t0
        event.matched = True
        return request

    #: Expose the inner engine for white-box users.
    @property
    def engine(self):
        return self.inner.engine  # type: ignore[attr-defined]

    @property
    def copy_stats(self):
        """The inner device's CopyStats, or None for non-engine devices."""
        try:
            return self.engine.copy_stats
        except Exception:
            return None

    @property
    def metrics(self):
        """The inner device's MetricsRegistry, or None if it has none."""
        try:
            return self.engine.metrics
        except Exception:
            return None

    def introspect(self) -> dict[str, Any]:
        """The inner device's live state, plus this tracer's counts."""
        out = dict(self.inner.introspect())
        with self._lock:
            out["tracer_events"] = len(self._events)
        out["tracer_pending"] = len(self.pending_events())
        return out

    # ------------------------------------------------------------------
    # stall triage

    def detect_stalled(self, min_age_s: float = 1.0) -> list[TraceEvent]:
        """Pending operations older than *min_age_s* — likely deadlocks.

        The classic triage question after a hang: which receives were
        posted long ago and never matched?  Returns the stale events,
        oldest first.
        """
        now = self.clock()
        stale = [e for e in self.pending_events() if now - e.time >= min_age_s]
        return sorted(stale, key=lambda e: e.time)
