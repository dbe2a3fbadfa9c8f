"""smdev — the shared-memory device for threads-as-ranks jobs.

The paper motivates MPJ Express with SMP clusters: "Using a thread-safe
communication library to program such clusters is an alternative to
traditional approaches like hybrid MPI and OpenMP code, or using shared
memory devices in the MPI libraries" (Section I).  smdev is exactly
that shared-memory device: ranks are threads in one process.  (The real
MPJ Express grew an ``smpdev`` along these lines in later releases.)

Crucially, smdev runs the *same* protocol engine — eager/rendezvous,
four-key matching — as niodev, so every protocol invariant is
exercised without sockets.

There is no wire, so there is no reader: the paper gives each process
an input-handler thread because a socket needs one.  ``write`` runs
the destination rank's delivery routine on the writing thread, as
MX's ``mx_isend`` matches on the sender's thread — the frame is
decoded, matched or landed in place, and its fence fired before
``write`` returns.  An eager message crosses no thread boundary, and
the transport runs no threads of its own.  Frames demultiplex by
content route onto
the destination's matching shards (see :mod:`repro.xdev.endpoints`),
whichever thread delivers them.
"""

from __future__ import annotations

import time

from repro.xdev.base import ProtocolDevice
from repro.xdev.device import DeviceConfig, register_device
from repro.xdev.endpoints import endpoint_count
from repro.xdev.exceptions import ConnectionSetupError, XDevException
from repro.xdev.frames import HEADER_SIZE
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
        #: Matching shards per rank (the REPRO_ENDPOINTS knob).
        self.endpoints = endpoint_count(endpoints)
        self.pids = [ProcessID(address=("sm", rank)) for rank in range(nprocs)]
        self._uid_to_rank = {pid.uid: rank for rank, pid in enumerate(self.pids)}
        #: Each rank's started transport — the delivery routine a write
        #: to that rank runs.
        self.transports: list[SMTransport | None] = [None] * nprocs

    def rank_of(self, pid: ProcessID) -> int:
        try:
            return self._uid_to_rank[pid.uid]
        except KeyError:
            raise XDevException(f"{pid} is not part of this fabric") from None


class SMTransport(Transport):
    """Direct-delivery transport: ``write`` delivers on the caller's thread.

    ``write`` hands the caller's segments to the destination rank's
    :meth:`_deliver` and fires the fence when that returns, so it
    consumes the segments before returning, as ``sendmsg`` does.  It
    needs no lock of its own: frames written by one thread arrive in
    program order because each is fully delivered before the next.
    """

    def __init__(self, fabric: SMFabric, rank: int) -> None:
        self._fabric = fabric
        self._rank = rank
        self._my_pid = fabric.pids[rank]
        self._engine: ProtocolEngine | None = None
        self._closed = False
        #: One entry per delivery into this rank still running; ``close``
        #: waits for it to empty, so a finished engine sees no frame
        #: after its teardown.  ``list.append``/``pop`` are atomic, so a
        #: frame counts itself without a lock: a delivery appends, then
        #: reads ``_closed``; ``close`` sets ``_closed``, then reads the
        #: list — whichever comes second sees the other.
        self._inflight: list[None] = []
        #: Contained per-frame errors of frames delivered to this rank
        #: (diagnostics).
        self.errors: list[Exception] = []

    def start(self, engine: ProtocolEngine) -> None:
        self._engine = engine
        self._fabric.transports[self._rank] = self

    def write(self, dest: ProcessID, segments, route: int = 0, on_delivered=None) -> None:
        if self._closed:
            raise XDevException("transport closed")
        fabric = self._fabric
        peer = fabric.transports[fabric.rank_of(dest)]
        if peer is None:
            raise XDevException(f"{dest} has not started")
        # The payload goes by reference straight to its destination.
        engine = self._engine
        if engine is not None:
            payload_len = sum(map(len, segments)) - HEADER_SIZE
            if payload_len > 0:
                engine.copy_stats.moved(payload_len)
        peer._deliver(self._my_pid, segments)
        if on_delivered is not None:
            on_delivered()

    def _deliver(self, src_pid: ProcessID, segments) -> None:
        """This rank's delivery routine, run on the writer's thread.

        A frame for a finished rank is dropped; a corrupt frame costs
        that frame, recorded in this rank's :attr:`errors`.
        """
        inflight = self._inflight
        inflight.append(None)
        try:
            if not self._closed:
                self._engine.deliver_segments(src_pid, segments)
        except Exception as exc:  # noqa: BLE001
            self.errors.append(exc)
        finally:
            inflight.pop()

    def introspect(self) -> dict:
        return {"frame_errors": len(self.errors)}

    def close(self) -> None:
        self._closed = True
        deadline = time.monotonic() + 5
        while self._inflight and time.monotonic() < deadline:
            time.sleep(0.001)


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
                    f"{self.device_name} needs a shared SMFabric in "
                    "DeviceConfig.fabric"
                )
        if not (0 <= args.rank < fabric.nprocs):
            raise ConnectionSetupError(
                f"rank {args.rank} out of range for fabric of {fabric.nprocs}"
            )
        # Every rank of the fabric shards its matching the same way.
        options = dict(args.options or {})
        options.setdefault("endpoints", fabric.endpoints)
        args.options = options
        my_pid = fabric.pids[args.rank]
        transport = SMTransport(fabric, args.rank)
        return my_pid, list(fabric.pids), transport
