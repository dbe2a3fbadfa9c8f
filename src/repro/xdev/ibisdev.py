"""ibisdev — a thread-per-message baseline device (models MPJ/Ibis).

The paper positions MPJ Express against MPJ/Ibis on two structural
points (Sections II, V-A and VI):

* MPJ/Ibis "starts a new thread for each send or receive operation",
  so posting 650 simultaneous receives "fails with cannot create
  native threads exception", and
* its devices have no selector-style progress engine; higher levels
  "only use blocking versions" of the device methods, so pending
  receives are serviced by per-operation threads that poll — stealing
  CPU from any computation running in parallel (the effect behind the
  11% ANY_SOURCE matrix-multiplication result).

This device reproduces both behaviours honestly:

* every ``isend``/``irecv`` consumes a slot in a bounded thread budget
  (default 640 — the paper observed failure at 650) and raises
  :class:`~repro.xdev.exceptions.ResourceExhaustedError` beyond it;
* receive threads *poll* a per-rank mailbox with a linear matching
  scan — no four-key index, no progress engine — at a configurable
  interval, so their CPU cost is real and measurable.

It is a correct device (all tests pass on it); it is only *structured*
the way the paper says the baseline is structured.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.buffer import Buffer
from repro.mpjdev.request import Request, Status
from repro.obs.metrics import Counter
from repro.xdev.completion import CompletionShards
from repro.xdev.constants import ANY_SOURCE, ANY_TAG
from repro.xdev.device import Device, DeviceConfig, register_device
from repro.xdev.exceptions import (
    ConnectionSetupError,
    DeviceFinishedError,
    ResourceExhaustedError,
)
from repro.xdev.processid import ProcessID

#: Default cap on concurrently live operation threads per process,
#: chosen just below the paper's observed 650-receive failure point.
DEFAULT_MAX_THREADS = 640

#: Default mailbox polling interval for receive threads (seconds).
DEFAULT_POLL_INTERVAL = 0.001


@dataclass
class _MailboxMessage:
    src_rank: int
    tag: int
    context: int
    data: bytes
    sync_event: Optional[threading.Event] = None


@dataclass
class _Mailbox:
    lock: threading.Lock = field(default_factory=threading.Lock)
    messages: list[_MailboxMessage] = field(default_factory=list)


class IbisFabric:
    """Shared wiring for an in-process ibisdev job."""

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.pids = [ProcessID(uid=r, address=("ibis", r)) for r in range(nprocs)]
        self.mailboxes = [_Mailbox() for _ in range(nprocs)]
        # The JVM-wide native thread budget, shared by all ranks in the
        # process, like the paper's single-JVM-per-node test.
        self.thread_budget_lock = threading.Lock()
        self.live_threads = 0


@register_device("ibisdev")
class IbisDevice(Device):
    """Thread-per-operation baseline device.

    ``DeviceConfig.options``:

    * ``max_threads`` — the native-thread cap (default 640);
    * ``poll_interval`` — receive-thread polling period in seconds.
    """

    def __init__(self) -> None:
        self._fabric: IbisFabric | None = None
        self._rank = -1
        #: One shard: ibisdev has no endpoints.  The requests' hook
        #: offers each completion, kept only if a peek() can ask for it.
        self._completions = CompletionShards(1)
        self._finished = False
        self._max_threads = DEFAULT_MAX_THREADS
        self._poll_interval = DEFAULT_POLL_INTERVAL
        # Bumped from many operation threads at once: locked counters.
        self._threads_spawned = Counter("threads_spawned")
        self._poll_iterations = Counter("poll_iterations")

    @property
    def stats(self) -> dict[str, int]:
        """Snapshot of the thread and polling counters."""
        return {
            "threads_spawned": self._threads_spawned.value,
            "poll_iterations": self._poll_iterations.value,
        }

    def introspect(self) -> dict:
        """Identity plus the peek store's depth, under the engine's key."""
        return {
            "device": self.device_name,
            "completed_backlog": len(self._completions),
        }

    # ------------------------------------------------------------------
    # lifecycle

    def init(self, args: DeviceConfig) -> list[ProcessID]:
        fabric: IbisFabric | None = args.fabric
        if fabric is None:
            if args.nprocs == 1:
                fabric = IbisFabric(1)
            else:
                raise ConnectionSetupError(
                    "ibisdev needs a shared IbisFabric in DeviceConfig.fabric"
                )
        if not (0 <= args.rank < fabric.nprocs):
            raise ConnectionSetupError(
                f"rank {args.rank} out of range for fabric of {fabric.nprocs}"
            )
        options = dict(args.options or {})
        self._max_threads = int(options.get("max_threads", DEFAULT_MAX_THREADS))
        self._poll_interval = float(
            options.get("poll_interval", DEFAULT_POLL_INTERVAL)
        )
        self._fabric = fabric
        self._rank = args.rank
        return list(fabric.pids)

    def id(self) -> ProcessID:
        self._check_live()
        assert self._fabric is not None
        return self._fabric.pids[self._rank]

    def finish(self) -> None:
        self._finished = True

    def _check_live(self) -> None:
        if self._finished:
            raise DeviceFinishedError("ibisdev has been finished")
        if self._fabric is None:
            raise DeviceFinishedError("ibisdev not initialized")

    # ------------------------------------------------------------------
    # the thread budget

    def _spawn(self, target, name: str) -> None:
        """Start an operation thread, charging the fabric-wide budget."""
        assert self._fabric is not None
        fabric = self._fabric
        with fabric.thread_budget_lock:
            if fabric.live_threads >= self._max_threads:
                raise ResourceExhaustedError(
                    f"cannot create native threads: {fabric.live_threads} "
                    f"operation threads already live (cap {self._max_threads})"
                )
            fabric.live_threads += 1
        self._threads_spawned.inc()

        def run() -> None:
            try:
                target()
            finally:
                with fabric.thread_budget_lock:
                    fabric.live_threads -= 1

        threading.Thread(target=run, name=name, daemon=True).start()

    def _new_request(
        self, kind: str, buf: Buffer, peer, tag: int, context: int
    ) -> Request:
        request = Request(kind, buffer=buf, hook=self._completions.offer)
        request.tag, request.peer, request.context = tag, peer, context
        return request

    # ------------------------------------------------------------------
    # sends

    def _deliver(
        self,
        buf: Buffer,
        dest: ProcessID,
        tag: int,
        context: int,
        sync_event: Optional[threading.Event],
    ) -> None:
        assert self._fabric is not None
        buf.commit()
        msg = _MailboxMessage(
            src_rank=self._rank,
            tag=tag,
            context=context,
            data=buf.to_wire(),
            sync_event=sync_event,
        )
        mailbox = self._fabric.mailboxes[dest.uid]
        with mailbox.lock:
            mailbox.messages.append(msg)

    def isend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        self._check_live()
        request = self._new_request(Request.SEND, buf, dest, tag, context)

        def run() -> None:
            self._deliver(buf, dest, tag, context, None)
            request.complete(Status(source=self.id(), tag=tag, size=buf.size))

        # "MPJ/Ibis starts a new thread for each send or receive".
        self._spawn(run, name=f"ibis-send-{self._rank}")
        return request

    def send(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.isend(buf, dest, tag, context).wait()

    def issend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        self._check_live()
        request = self._new_request(Request.SEND, buf, dest, tag, context)
        matched = threading.Event()

        def run() -> None:
            self._deliver(buf, dest, tag, context, matched)
            matched.wait()
            request.complete(Status(source=self.id(), tag=tag, size=buf.size))

        self._spawn(run, name=f"ibis-ssend-{self._rank}")
        return request

    def ssend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.issend(buf, dest, tag, context).wait()

    # ------------------------------------------------------------------
    # receives

    def _scan(
        self, src_rank: int, tag: int, context: int, claim: bool
    ) -> Optional[_MailboxMessage]:
        """Linear scan of the mailbox — the no-index baseline.  With
        *claim*, the first match is removed under the scan's lock."""
        assert self._fabric is not None
        mailbox = self._fabric.mailboxes[self._rank]
        with mailbox.lock:
            for i, msg in enumerate(mailbox.messages):
                if msg.context != context:
                    continue
                if tag != ANY_TAG and msg.tag != tag:
                    continue
                if src_rank != ANY_SOURCE and msg.src_rank != src_rank:
                    continue
                if claim:
                    del mailbox.messages[i]
                return msg
        return None

    def irecv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Request:
        self._check_live()
        src_rank = src.uid if isinstance(src, ProcessID) else int(src)
        request = self._new_request(Request.RECV, buf, src, tag, context)

        def run() -> None:
            # Poll the mailbox until a matching message shows up.  This
            # is the CPU-stealing behaviour the experiments measure.
            while not self._finished:
                msg = self._scan(src_rank, tag, context, claim=True)
                if msg is not None:
                    buf.load_wire(msg.data)
                    if msg.sync_event is not None:
                        msg.sync_event.set()
                    assert self._fabric is not None
                    request.complete(
                        Status(
                            source=self._fabric.pids[msg.src_rank],
                            tag=msg.tag,
                            size=buf.size,
                            buffer=buf,
                        )
                    )
                    return
                self._poll_iterations.inc()
                time.sleep(self._poll_interval)

        self._spawn(run, name=f"ibis-recv-{self._rank}")
        return request

    def recv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Status:
        return self.irecv(buf, src, tag, context).wait()

    # ------------------------------------------------------------------
    # probing

    def iprobe(self, src: ProcessID | int, tag: int, context: int) -> Status | None:
        self._check_live()
        src_rank = src.uid if isinstance(src, ProcessID) else int(src)
        msg = self._scan(src_rank, tag, context, claim=False)
        if msg is None:
            return None
        assert self._fabric is not None
        return Status(
            source=self._fabric.pids[msg.src_rank],
            tag=msg.tag,
            size=max(0, len(msg.data) - 16),
        )

    def probe(self, src: ProcessID | int, tag: int, context: int) -> Status:
        while True:
            status = self.iprobe(src, tag, context)
            if status is not None:
                return status
            time.sleep(self._poll_interval)

    # ------------------------------------------------------------------
    # progress

    def peek(self, timeout: float | None = None) -> Request:
        self._check_live()
        return self._completions.pop_latest(timeout=timeout)
