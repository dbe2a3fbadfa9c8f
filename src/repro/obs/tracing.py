"""Structured per-rank trace export: bounded ring buffer → JSONL.

Setting ``REPRO_TRACE=<dir>`` turns on tracing for every rank: the
protocol engine creates a :class:`TraceWriter` at init (so the
launcher, the process daemons and raw device jobs all inherit it from
the environment) and flushes it at device finish.  One file per
writer, named ``<label>-rank<uid>-p<ospid>-<n>.jsonl``, so many jobs
in one process (the bench!) never collide.

File schema (one JSON object per line):

* line 1 — ``{"meta": {"rank", "pid", "label", "wall_t0", "mono_t0",
  "version"}}``.  ``wall_t0`` (``time.time()``) is the clock-alignment
  anchor the merge CLI uses to place ranks on one timeline;
  ``mono_t0`` anchors the events' monotonic offsets.
* event lines — ``{"t": <seconds since mono_t0>, "tid": <thread id>,
  "ev": <name>, ...}`` plus optional ``id``/``peer``/``tag``/``ctx``/
  ``size``/``proto``.  Protocol-stage event names pair ``<base>.post``
  with ``<base>.complete`` (same ``id``) into spans; the rendezvous
  stages ``rts.out``/``rts.in``/``rtr.out``/``rtr.in``/``rndz.out``/
  ``rndz.in`` are instants sharing the send/recv span's id.  Since
  schema version 2, protocol events also carry the causal context the
  frame headers transport (:mod:`repro.xdev.frames`): ``lc`` — the
  Lamport clock at the event — and ``fs``/``fq`` — the message's flow
  id (origin engine uid, per-engine send sequence).  ``fq`` appears on
  ``send.post`` and on the receive side's arrival/complete events; the
  merge CLI pairs send and recv spans on ``(fs, fq)``.
* last line — ``{"fin": {"events", "dropped", "threads"}}``; ``dropped``
  counts events evicted by the bounded ring buffer
  (``REPRO_TRACE_BUFFER``, default 65536 events per writer).

:class:`TracingDevice`, the MPI-level tracer behind
``run_spmd(trace=True)``, records into a writer of its own (label
``mpi``; in memory only when ``REPRO_TRACE`` is unset): ``mpi.<op>.post``
/ ``mpi.<op>.complete`` pairs and ``mpi.iprobe``/``probe``/``peek``
instants carrying ``matched``.  Its pending operations outlive the
ring, so a hung receive is reported after its post was evicted.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Optional

from repro.buffer import Buffer
from repro.mpjdev.request import Request, Status
from repro.xdev.device import Device, DeviceConfig
from repro.xdev.processid import ProcessID

TRACE_ENV = "REPRO_TRACE"
TRACE_BUFFER_ENV = "REPRO_TRACE_BUFFER"

DEFAULT_BUFFER_EVENTS = 65536

SCHEMA_VERSION = 2

#: Per-process sequence so several writers for the same (label, rank)
#: — the bench stands jobs up back to back — get distinct file names.
_FILE_SEQ = itertools.count(1)


def trace_dir() -> Optional[Path]:
    """The trace output directory, or None when tracing is off."""
    value = os.environ.get(TRACE_ENV, "").strip()
    return Path(value) if value else None


class TraceWriter:
    """Thread-safe bounded event ring, flushed to one JSONL file.

    With ``directory=None`` the ring lives in memory only and
    :meth:`close` writes nothing.  The ring stays readable after
    :meth:`close` (:meth:`records`), later emissions are ignored.
    """

    def __init__(
        self,
        directory: Path | str | None,
        rank: Optional[int],
        label: str = "dev",
        buffer_events: Optional[int] = None,
    ) -> None:
        if buffer_events is None:
            try:
                buffer_events = int(
                    os.environ.get(TRACE_BUFFER_ENV, DEFAULT_BUFFER_EVENTS)
                )
            except ValueError:
                buffer_events = DEFAULT_BUFFER_EVENTS
        self.directory = Path(directory) if directory is not None else None
        #: May be filled in until :meth:`close` — a tracer wrapping a
        #: device learns its rank at ``init``.
        self.rank = rank
        self.label = label
        self._file_seq = next(_FILE_SEQ)
        self.wall_t0 = time.time()
        self.mono_t0 = time.monotonic()
        self._lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=max(buffer_events, 1))
        self._dropped = 0
        self._ids = itertools.count(1)
        self._thread_names: dict[int, str] = {}
        self._closed = False

    @property
    def path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / (
            f"{self.label}-rank{self.rank}-p{os.getpid()}-{self._file_seq}.jsonl"
        )

    def clock(self) -> float:
        """Seconds since this writer started (the events' ``t`` base)."""
        return time.monotonic() - self.mono_t0

    def next_id(self) -> int:
        """A fresh event id, unique within this writer."""
        return next(self._ids)

    def emit(self, ev: str, **fields: Any) -> dict[str, Any]:
        """Record one event; drops the oldest when the ring is full.

        Returns the record (also when it was ignored after close)."""
        tid = threading.get_ident()
        record = {"t": round(self.clock(), 9), "tid": tid, "ev": ev}
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        with self._lock:
            if self._closed:
                return record
            if tid not in self._thread_names:
                self._thread_names[tid] = threading.current_thread().name
            if len(self._ring) == self._ring.maxlen:
                self._dropped += 1
            self._ring.append(record)
        return record

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def records(self) -> list[dict[str, Any]]:
        """The retained events, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Forget the retained events and the drop count."""
        with self._lock:
            self._ring.clear()
            self._dropped = 0

    def close(self) -> Optional[Path]:
        """Flush the ring to :attr:`path`; idempotent."""
        with self._lock:
            if self._closed:
                return None
            self._closed = True
            events = list(self._ring)
            dropped = self._dropped
            threads = {str(k): v for k, v in self._thread_names.items()}
        path = self.path
        if path is None:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "meta": {
                "rank": self.rank,
                "pid": os.getpid(),
                "label": self.label,
                "wall_t0": self.wall_t0,
                "mono_t0": self.mono_t0,
                "version": SCHEMA_VERSION,
            }
        }
        fin = {"fin": {"events": len(events), "dropped": dropped, "threads": threads}}
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for record in events:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps(fin) + "\n")
        return path


def writer_for(rank: int, label: str = "dev") -> Optional[TraceWriter]:
    """A TraceWriter if ``REPRO_TRACE`` names a directory, else None."""
    directory = trace_dir()
    if directory is None:
        return None
    return TraceWriter(directory, rank, label=label)


def write_json(name: str, obj: Any) -> Optional[Path]:
    """Write *obj* as JSON to ``<REPRO_TRACE>/<name>``; None when off."""
    directory = trace_dir()
    if directory is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(json.dumps(obj, indent=1, default=repr) + "\n", encoding="utf-8")
    return path


def dump_metrics(snapshot: dict[str, Any], rank: int, label: str = "dev") -> Optional[Path]:
    """Write a metrics snapshot JSON next to the rank's trace files."""
    name = f"metrics-{label}-rank{rank}-p{os.getpid()}-{next(_FILE_SEQ)}.json"
    return write_json(name, snapshot)


class TracingDevice(Device):
    """A Device decorator recording every operation into a TraceWriter."""

    device_name = "traced"

    def __init__(self, inner: Device) -> None:
        self.inner = inner
        try:
            rank: Optional[int] = inner.id().uid
        except Exception:  # noqa: BLE001 - not initialized yet
            rank = None
        self.writer = TraceWriter(trace_dir(), rank, label="mpi")
        #: Posted operations not yet completed, by event id.  Entries
        #: go in before the inner call and out on completion; each is a
        #: single GIL-atomic dict operation, so no lock is needed.
        self._pending: dict[int, dict[str, Any]] = {}

    def clock(self) -> float:
        """Seconds since this tracer started (the events' time base)."""
        return self.writer.clock()

    # ------------------------------------------------------------------
    # recording

    def _call(self, op: str, fn, buf: Buffer, peer, tag: int, context: int,
              size: Optional[int] = None) -> Any:
        """Post *op*, run ``fn(buf, peer, tag, context)``, and complete
        the post when it returns — or, for a Request, when that does."""
        post = self._emit(f"{op}.post", peer, tag, context, size=size)
        op_id = post["id"]
        self._pending[op_id] = post
        result = fn(buf, peer, tag, context)
        if isinstance(result, Request):
            result.add_completion_listener(
                lambda req: self._complete(op, op_id, size, req)
            )
        else:
            self._complete(op, op_id, size, result)
        return result

    def _complete(self, op: str, op_id: int, size: Optional[int], outcome) -> None:
        if size is None and outcome is not None:
            # Receives learn their size only at match time; capture
            # it so summary()'s bytes_received is not undercounted.
            try:
                status = outcome.test() if isinstance(outcome, Request) else outcome
            except Exception:  # noqa: BLE001 - failed request
                status = None
            size = status.size if status is not None else None
        self._pending.pop(op_id, None)
        self.writer.emit(f"mpi.{op}.complete", id=op_id, size=size)

    def _emit(self, ev: str, peer=None, tag: Optional[int] = None,
              context: Optional[int] = None, **fields: Any) -> dict[str, Any]:
        """Record ``mpi.<ev>`` under a fresh id; returns the record."""
        return self.writer.emit(
            f"mpi.{ev}", id=self.writer.next_id(), peer=getattr(peer, "uid", peer),
            tag=tag, ctx=context, **fields,
        )

    # ------------------------------------------------------------------
    # trace access

    def events(self) -> list[dict[str, Any]]:
        """The retained records, oldest first (bounded by the ring)."""
        return self.writer.records()

    def pending_events(self) -> list[dict[str, Any]]:
        """Posts of operations started but never completed — the
        deadlock list, oldest first; survives the ring's evictions."""
        return sorted(self._pending.copy().values(), key=lambda r: r["t"])

    def summary(self) -> dict[str, Any]:
        """Counts over the retained records; ``dropped`` says how many
        older records the ring has evicted from that window."""
        events = self.events()
        by_op: dict[str, int] = {}
        out: dict[str, Any] = dict.fromkeys(
            ("bytes_sent", "bytes_received", "probe_hits", "probe_misses"), 0
        )
        for r in events:
            op, _, phase = r["ev"][len("mpi."):].partition(".")
            if phase == "complete":
                if op.endswith("recv"):
                    out["bytes_received"] += r.get("size", 0)
                continue
            by_op[op] = by_op.get(op, 0) + 1
            if op.endswith("send"):
                out["bytes_sent"] += r.get("size", 0)
            elif "matched" in r:
                out["probe_hits" if r["matched"] else "probe_misses"] += 1
        out.update(events=len(events), dropped=self.writer.dropped, by_op=by_op,
                   pending=len(self._pending))
        stats = self.copy_stats
        if stats is not None:
            out["copy_stats"] = stats.snapshot()
        return out

    def dump_json(self) -> str:
        return json.dumps(self.events(), indent=2)

    def clear(self) -> None:
        """Forget the retained records; still-pending operations stay
        listed by :meth:`pending_events`."""
        self.writer.clear()

    # ------------------------------------------------------------------
    # Device API — delegate + record

    def init(self, args: DeviceConfig) -> list[ProcessID]:
        self._emit("init")
        pids = self.inner.init(args)
        if self.writer.rank is None:
            self.writer.rank = self.inner.id().uid
        return pids

    def id(self) -> ProcessID:
        return self.inner.id()

    def finish(self) -> None:
        self._emit("finish")
        self.inner.finish()
        self.writer.close()

    def get_send_overhead(self) -> int:
        return self.inner.get_send_overhead()

    def get_recv_overhead(self) -> int:
        return self.inner.get_recv_overhead()

    def isend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        return self._call("isend", self.inner.isend, buf, dest, tag, context, buf.size)

    def send(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self._call("send", self.inner.send, buf, dest, tag, context, buf.size)

    def issend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        return self._call("issend", self.inner.issend, buf, dest, tag, context, buf.size)

    def ssend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self._call("ssend", self.inner.ssend, buf, dest, tag, context, buf.size)

    def irecv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Request:
        return self._call("irecv", self.inner.irecv, buf, src, tag, context)

    def recv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Status:
        return self._call("recv", self.inner.recv, buf, src, tag, context)

    def iprobe(self, src: ProcessID | int, tag: int, context: int) -> Status | None:
        status = self.inner.iprobe(src, tag, context)
        self._emit("iprobe", src, tag, context, matched=status is not None,
                   size=getattr(status, "size", None))
        return status

    def probe(self, src: ProcessID | int, tag: int, context: int) -> Status:
        status = self.inner.probe(src, tag, context)
        self._emit("probe", src, tag, context, matched=True, size=status.size)
        return status

    def peek(self, timeout: float | None = None) -> Request:
        """Delegate and record; the inner device's peek contract holds
        (see :meth:`Device.peek`): only a completion whose request
        belonged to a ``Waitany``, or that happened while a thread was
        blocked in peek(), is returned."""
        try:
            request = self.inner.peek(timeout=timeout)
        except Exception:
            self._emit("peek", matched=False)
            raise
        self._emit("peek", matched=True)
        return request

    #: Expose the inner engine for white-box users.
    @property
    def engine(self):
        return self.inner.engine  # type: ignore[attr-defined]

    @property
    def copy_stats(self):
        """The inner device's CopyStats, or None for non-engine devices."""
        return getattr(self.metrics, "copy_stats", None)

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
        out["tracer_events"] = len(self.writer)
        out["tracer_pending"] = len(self._pending)
        return out

    # ------------------------------------------------------------------
    # stall triage

    def detect_stalled(self, min_age_s: float = 1.0) -> list[dict[str, Any]]:
        """Pending operations older than *min_age_s* — likely deadlocks.

        The classic triage question after a hang: which receives were
        posted long ago and never matched?  Returns their post records,
        oldest first.
        """
        now = self.clock()
        return [r for r in self.pending_events() if now - r["t"] >= min_age_s]
