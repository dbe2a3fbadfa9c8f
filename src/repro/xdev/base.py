"""Common scaffolding for devices built on the protocol engine.

niodev and smdev differ only in their :class:`~repro.xdev.protocol.Transport`;
everything above the transport — protocols, matching, locking, peek —
is the shared :class:`~repro.xdev.protocol.ProtocolEngine`.  This base
class delegates the whole Device API to the engine.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.buffer import Buffer
from repro.mpjdev.request import Request, Status
from repro.xdev.device import Device, DeviceConfig
from repro.xdev.exceptions import DeviceFinishedError
from repro.xdev.frames import HEADER_SIZE
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import DEFAULT_EAGER_THRESHOLD, ProtocolEngine, Transport


class ProtocolDevice(Device):
    """A Device whose behaviour is the protocol engine over a transport."""

    def __init__(self) -> None:
        self._engine: Optional[ProtocolEngine] = None
        self._my_pid: Optional[ProcessID] = None
        self._all_pids: list[ProcessID] = []

    # ------------------------------------------------------------------
    # subclass hooks

    @abc.abstractmethod
    def _setup(self, args: DeviceConfig) -> tuple[ProcessID, list[ProcessID], Transport]:
        """Create this process's identity, the job's pid table, and the
        transport.  Called once from :meth:`init`."""

    # ------------------------------------------------------------------
    # Device API

    def init(self, args: DeviceConfig) -> list[ProcessID]:
        my_pid, all_pids, transport = self._setup(args)
        self._my_pid = my_pid
        self._all_pids = list(all_pids)
        options = dict(args.options or {})
        self._engine = ProtocolEngine(
            my_pid,
            transport,
            eager_threshold=int(
                options.get("eager_threshold", DEFAULT_EAGER_THRESHOLD)
            ),
            fork_rendezvous_writer=bool(
                options.get("fork_rendezvous_writer", True)
            ),
            metrics=options.get("metrics"),
            trace_label=self.device_name,
            endpoints=options.get("endpoints"),
        )
        transport.start(self._engine)
        # Every message's two calls go straight to the engine.  These
        # instance attributes shadow the delegating methods below; a
        # TracingDevice still wraps the device, not the engine.
        self.isend = self._engine.isend
        self.irecv = self._engine.irecv
        return list(self._all_pids)

    @property
    def engine(self) -> ProtocolEngine:
        if self._engine is None:
            raise DeviceFinishedError("device not initialized")
        return self._engine

    @property
    def copy_stats(self):
        """The engine's datapath copy/move accounting (CopyStats)."""
        return self.engine.copy_stats

    @property
    def metrics(self):
        """The engine's MetricsRegistry (repro.obs)."""
        return self.engine.metrics

    def introspect(self) -> dict:
        """Live queue depths across engine, transport and WaitAny."""
        out: dict = {"device": self.device_name}
        engine = self._engine
        if engine is None:
            return out
        out["rank"] = engine.my_pid.uid
        out.update(engine.introspect_queues())
        out["endpoints"] = engine.introspect_endpoints()
        out["transport"] = engine.transport.introspect()
        waitany_queue = getattr(self, "_waitany_queue", None)
        out["waitany_queue"] = len(waitany_queue) if waitany_queue is not None else 0
        return out

    def id(self) -> ProcessID:
        if self._my_pid is None:
            raise DeviceFinishedError("device not initialized")
        return self._my_pid

    def all_ids(self) -> list[ProcessID]:
        """ProcessIDs of every process in the job, ordered by rank."""
        return list(self._all_pids)

    def finish(self) -> None:
        if self._engine is not None:
            self._engine.finish()

    def get_send_overhead(self) -> int:
        return HEADER_SIZE

    def get_recv_overhead(self) -> int:
        return HEADER_SIZE

    # point-to-point --------------------------------------------------

    def isend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        return self.engine.isend(buf, dest, tag, context)

    def send(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.engine.send(buf, dest, tag, context)

    def issend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        return self.engine.issend(buf, dest, tag, context)

    def ssend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.engine.ssend(buf, dest, tag, context)

    def irecv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Request:
        return self.engine.irecv(buf, src, tag, context)

    def recv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Status:
        return self.engine.recv(buf, src, tag, context)

    def iprobe(self, src: ProcessID | int, tag: int, context: int) -> Status | None:
        return self.engine.iprobe(src, tag, context)

    def probe(self, src: ProcessID | int, tag: int, context: int) -> Status:
        return self.engine.probe(src, tag, context)

    def improbe(self, src: ProcessID | int, tag: int, context: int):
        """Atomic probe-and-claim; receive the result with mrecv()."""
        return self.engine.improbe(src, tag, context)

    def mprobe(self, src: ProcessID | int, tag: int, context: int):
        """Blocking improbe()."""
        return self.engine.mprobe(src, tag, context)

    def mrecv(self, match, buf: Buffer) -> Request:
        """Receive a message claimed by improbe()/mprobe()."""
        return self.engine.mrecv(match, buf)

    def peek(self, timeout: float | None = None) -> Request:
        return self.engine.peek(timeout=timeout)
