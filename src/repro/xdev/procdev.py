"""procdev — process-rank shared-memory device.

smdev runs ranks as threads, so its aggregate bandwidth is capped by
the GIL: 4–8 flooding threads flatline at single-thread throughput.
procdev is the same protocol
engine with ranks as OS *processes*: every rank owns an interpreter
(and therefore a core), and frames travel through
``multiprocessing.shared_memory`` instead of in-process queues —
exactly the pluggable-device move the paper's xdev architecture exists
for (swap the transport, keep the MPJ API).

Datapath:

* **Eager frames** that fit a ring slot are written inline into the
  destination's fixed-slot SPSC ring (:mod:`repro.shm.ring`) — one
  gather into shared memory on the sender, consumed in place by the
  receiver's poller.  The ring slot is the wire, so that gather is
  accounted as *moved*, like a kernel socket buffer.
* **Large and rendezvous payloads** spill: the sender gathers the
  segment list into a pooled :class:`~repro.shm.arena.SegmentArena`
  segment (its single move onto the wire) and ships only the
  ``(name, offset, length)`` handle through the ring.  The receiver
  maps the same physical pages and — for RNDZ_DATA — lands them
  straight into the posted buffer via
  ``engine.rendezvous_landing``/``begin_landing``: the PR 2 landing
  contract, now across address spaces, with ``bytes_copied == 0``.
  A RELEASE notice rides the reverse ring to return the spill segment
  to the sender's pool.
* **Doorbell** is adaptive polling (:class:`~repro.shm.ring.Backoff`):
  spin while hot, decay to microsleeps when idle.  No futex syscalls
  are reachable from portable Python; sub-millisecond wakeup with ~0%
  idle CPU is the practical equivalent.

Like every transport, ``write`` consumes its segments: every write
lands in shared memory before returning, so ``write`` fires the
delivery fence itself, and it ignores the content route: one SPSC ring
per directed rank pair regardless of endpoint count (the matching
shards still parallelize above it).

Two wiring modes share all of the above:

* **In-process** (:class:`ProcFabric`): ranks are threads of one
  process but exchange frames through real shared-memory rings — the
  mode `run_spmd` and tier-1 use, exercising the byte-identical
  datapath without fork.
* **Cross-process**: ``options["shm_bootstrap"]`` carries a
  :class:`~repro.shm.bootstrap.ShmBootstrap` descriptor and each rank
  process attaches.  ``mpjrun --local`` builds this wiring
  (:mod:`repro.runtime.localspawn`).  At finish every rank serializes
  its copy-stats/metrics snapshot into the bootstrap's stats
  directory, so the parent — and rank 0's ``introspect()`` — report
  job-wide numbers instead of rank-0-only ones.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from repro.buffer.buffer import copy_segments
from repro.shm.arena import SegmentArena
from repro.shm.bootstrap import ShmBootstrap, new_job_id
from repro.shm.ring import (
    KIND_FRAME,
    KIND_RELEASE,
    KIND_SPILL,
    Backoff,
    RingStalledError,
)
from repro.shm.segment import ShmSegment
from repro.xdev.base import ProtocolDevice
from repro.xdev.device import DeviceConfig, register_device
from repro.xdev.exceptions import ConnectionSetupError, XDevException
from repro.xdev.frames import HEADER_SIZE, FrameHeader, FrameType
from repro.xdev.locknames import PROC_OUT, new_lock
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import ProtocolEngine, Transport

#: Bound on close()'s wait for peers to release in-flight spill
#: segments (a dead peer never answers).
CLOSE_DRAIN_TIMEOUT = 5.0


class ProcFabric:
    """In-process wiring: one rings segment shared by thread-ranks.

    The fabric owns the bootstrap segment; each rank's transport takes
    a reference and the last one to close releases the mapping (and
    unlinks, since this process created it).  Thread-ranks over real
    shm rings run the exact cross-process datapath — only fork is
    missing — which is what lets tier-1 and ``run_spmd`` cover procdev
    without spawning processes per test.
    """

    def __init__(
        self,
        nprocs: int,
        *,
        nslots: int = 32,
        slot_bytes: int = 16384,
        job_id: str | None = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.job_id = job_id or new_job_id()
        self.pids = [
            ProcessID(address=("proc", self.job_id, rank)) for rank in range(nprocs)
        ]
        self.bootstrap = ShmBootstrap.create(
            self.job_id,
            nprocs,
            nslots=nslots,
            slot_bytes=slot_bytes,
            uids=[pid.uid for pid in self.pids],
        )
        self._lock = threading.Lock()
        self._refs = 0
        self._closed = False

    def acquire(self) -> ShmBootstrap:
        with self._lock:
            if self._closed:
                raise ConnectionSetupError("ProcFabric already closed")
            self._refs += 1
            return self.bootstrap

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            if self._refs > 0 or self._closed:
                return
            self._closed = True
        self.bootstrap.close()


class ProcTransport(Transport):
    """Shared-memory ring transport between process (or thread) ranks.

    Consuming: ``write`` copies/gathers into shared memory and
    returns; one progress thread per rank polls the N inbound rings.
    Writes issued *by* that progress thread (the engine's RTR control
    frames, the transport's own RELEASE notices) are never allowed to
    block — a full ring defers them to a pending queue flushed on every
    poll iteration — and the outbound-ring lock is the *only* lock on
    the write path, held for one non-blocking ``try_push`` at a time,
    never across the wait for a full ring.  Together those two rules
    make the two-poller cycle (A full toward B, B full toward A, both
    pollers stuck pushing or queued behind a spinning application
    thread's lock) unreachable: pollers always return to draining, and
    every blocked application write is therefore eventually freed.
    """

    def __init__(
        self,
        bootstrap: ShmBootstrap,
        rank: int,
        pids: list[ProcessID],
        *,
        on_close=None,
        ring_timeout: float = 60.0,
    ) -> None:
        self._bootstrap = bootstrap
        self._rank = rank
        self._pids = pids
        self._my_pid = pids[rank]
        self._uid_to_rank = {pid.uid: rank for rank, pid in enumerate(pids)}
        self._on_close = on_close
        self._ring_timeout = ring_timeout
        nprocs = bootstrap.nprocs
        # Outbound: ring (me -> dest) per destination, lock-guarded
        # because both application threads and this rank's poller (RTR,
        # RELEASE) produce onto them — the lock restores the single-
        # producer invariant the SPSC layout needs.
        self._out = [bootstrap.ring(rank, dest) for dest in range(nprocs)]
        self._out_locks = [new_lock(PROC_OUT, d) for d in range(nprocs)]
        # Inbound: ring (src -> me) per source, drained only by the
        # poller thread.
        self._in = [bootstrap.ring(src, rank) for src in range(nprocs)]
        self._arena = SegmentArena(prefix=bootstrap.arena_prefix())
        self._attached: dict[str, ShmSegment] = {}
        # (dest_rank, kind, bytes) writes a poller must not block on.
        self._deferred: deque[tuple[int, int, bytes]] = deque()
        self._engine: ProtocolEngine | None = None
        self._poller: threading.Thread | None = None
        self._closed = False
        self.errors: list[Exception] = []
        self.counters = {
            "frames_inline": 0,
            "frames_spilled": 0,
            "releases_sent": 0,
            "releases_received": 0,
            "deferred_pushes": 0,
            "landings_in_place": 0,
            "landings_fallback": 0,
        }

    # ------------------------------------------------------------------
    # Transport API

    def start(self, engine: ProtocolEngine) -> None:
        self._engine = engine
        self._poller = threading.Thread(
            target=self._progress_loop,
            name=f"procdev-poller-{self._rank}",
            daemon=True,
        )
        self._poller.start()

    def write(self, dest: ProcessID, segments, route: int = 0, on_delivered=None) -> None:
        if self._closed:
            raise XDevException("transport closed")
        drank = self._uid_to_rank.get(dest.uid)
        if drank is None:
            raise XDevException(f"{dest} is not part of this procdev job")
        header = segments[0]
        payload = segments[1:]
        payload_len = sum(len(s) for s in payload)
        ftype = header[0]
        # Rendezvous data always spills so the receiver can map the
        # pages and land them in place; anything too big for a slot
        # spills out of necessity.
        if (ftype == FrameType.RNDZ_DATA and payload_len > 0) or (
            HEADER_SIZE + payload_len > self._out[drank].slot_bytes
        ):
            self._write_spill(drank, header, payload, payload_len)
        else:
            self._push(drank, KIND_FRAME, segments)
            self.counters["frames_inline"] += 1
            if payload_len > 0 and self._engine is not None:
                # The slot is the wire: one gather into shared memory.
                self._engine.copy_stats.moved(payload_len)
        # Consuming transport: the segments are in shared memory now.
        if on_delivered is not None:
            on_delivered()

    def _write_spill(self, drank: int, header, payload, payload_len: int) -> None:
        seg = self._arena.acquire(payload_len)
        try:
            dst = seg.view(0, payload_len, track=False)
            offset = 0
            for chunk in payload:
                view = memoryview(chunk).cast("B") if not isinstance(chunk, bytes) else chunk
                dst[offset : offset + len(view)] = view
                offset += len(view)
            dst.release()
            if self._engine is not None:
                # The spill segment is the wire: the receiver maps these
                # same pages, so this gather is the payload's only move.
                self._engine.copy_stats.moved(payload_len)
            blob = _encode_handle(seg.name, 0, payload_len)
            self._push(drank, KIND_SPILL, [header, blob])
        except Exception:
            # The handle never reached the peer (bad chunk or full
            # ring); take the segment back ourselves or it leaks until
            # close.
            self._arena.release(seg.name)
            raise
        self.counters["frames_spilled"] += 1

    def _push(self, drank: int, kind: int, chunks) -> None:
        """Route a push by calling thread: pollers defer, others block."""
        lock = self._out_locks[drank]
        if threading.current_thread() is self._poller:
            # Frames already parked for this dest go first (FIFO per
            # calling thread), so only an empty backlog may push now.
            if not any(d == drank for d, _, _ in self._deferred):
                with lock:
                    if self._out[drank].try_push(kind, chunks):
                        return
            # Full ring + poller thread: park the frame (tiny control
            # traffic only — RTR and RELEASE) and keep draining.
            self._deferred.append((drank, kind, _join(chunks)))
            self.counters["deferred_pushes"] += 1
            return
        deadline = time.monotonic() + self._ring_timeout
        backoff = Backoff()
        while True:
            # The lock covers one try_push, never the wait for space:
            # a thread spinning on a full ring must not hold anything
            # the poller's own (deferring) pushes would queue behind.
            t0 = time.monotonic()
            lock.acquire()
            try:
                self._engine.observe_lock_wait(t0)
                if self._out[drank].try_push(kind, chunks):
                    return
            finally:
                lock.release()
            if self._closed:
                raise RingStalledError("transport closing while ring full")
            if time.monotonic() > deadline:
                raise RingStalledError(
                    f"ring to rank {drank} full for {self._ring_timeout}s; "
                    "peer stopped draining (dead or wedged)"
                )
            backoff.wait()

    # ------------------------------------------------------------------
    # progress engine (the poller thread)

    def _progress_loop(self) -> None:
        backoff = Backoff()
        while not self._closed:
            progress = self._flush_deferred()
            for src_rank, ring in enumerate(self._in):
                item = ring.poll()
                if item is None:
                    continue
                progress = True
                kind, view = item
                try:
                    self._dispatch(src_rank, kind, view)
                except Exception as exc:  # noqa: BLE001
                    # A bad frame costs that frame, not the poller.
                    self.errors.append(exc)
                finally:
                    ring.consume()
            if progress:
                backoff.reset()
            else:
                backoff.wait()

    def _flush_deferred(self) -> bool:
        flushed = False
        full: set[int] = set()  # dests that refused a frame this pass
        for _ in range(len(self._deferred)):
            drank, kind, blob = self._deferred.popleft()
            if drank not in full:
                with self._out_locks[drank]:
                    pushed = self._out[drank].try_push(kind, [blob])
                if pushed:
                    flushed = True
                    continue
                # Later frames to this dest must stay behind this one.
                full.add(drank)
            self._deferred.append((drank, kind, blob))
        return flushed

    def _dispatch(self, src_rank: int, kind: int, view: memoryview) -> None:
        engine = self._engine
        assert engine is not None
        src_pid = self._pids[src_rank]
        if kind == KIND_RELEASE:
            name = bytes(view).decode("ascii")
            self._arena.release(name)
            self.counters["releases_received"] += 1
            return
        header = FrameHeader.decode(view)
        if kind == KIND_FRAME:
            # The engine consumes the payload before returning (it
            # copies anything it must keep), so handing it the live
            # slot view and then consuming the slot is safe.
            engine.handle_frame(src_pid, header, [view[HEADER_SIZE:]])
            return
        if kind != KIND_SPILL:  # pragma: no cover - future slot kinds
            raise XDevException(f"unknown slot kind {kind}")
        name, offset, length = _decode_handle(view[HEADER_SIZE:])
        seg = self._attached.get(name)
        if seg is None:
            seg = ShmSegment.attach_block(name)
            self._attached[name] = seg
        data = seg.view(offset, length, track=False)
        try:
            if header.type == FrameType.RNDZ_DATA and length == header.payload_len:
                landing = engine.rendezvous_landing(header.recv_id, length)
                if landing is not None:
                    # Cross-process zero-copy landing: the mapped spill
                    # pages scatter straight into the posted buffer's
                    # own memory.
                    engine.copy_stats.moved(copy_segments(landing, [data]))
                    engine.handle_frame(src_pid, header, in_place=True)
                    self.counters["landings_in_place"] += 1
                else:
                    engine.handle_frame(src_pid, header, [data])
                    self.counters["landings_fallback"] += 1
            else:
                # Oversized eager (or a truncated frame a fault wrapper
                # cooked up): the validating path judges it.
                engine.handle_frame(src_pid, header, [data])
        finally:
            data.release()
            # Hand the spill segment back to its owner's pool.
            self._push(src_rank, KIND_RELEASE, [name.encode("ascii")])
            self.counters["releases_sent"] += 1

    # ------------------------------------------------------------------
    # lifecycle / diagnostics

    def close(self) -> None:
        if self._closed:
            return
        poller = self._poller
        if poller is not threading.current_thread():
            # A spill segment's handle may still sit unread in a peer's
            # ring: unlinking the segment before the peer maps it loses
            # the message (its attach fails, the receive never
            # completes).  The poller is still running, so RELEASE
            # notices keep coming home; wait for them, bounded.
            deadline = time.monotonic() + CLOSE_DRAIN_TIMEOUT
            backoff = Backoff()
            while self._arena.inflight_names() and time.monotonic() < deadline:
                backoff.wait()
        self._closed = True
        if poller is not None and poller is not threading.current_thread():
            poller.join(timeout=5)
        for seg in self._attached.values():
            seg.close()
        self._attached.clear()
        self._arena.close()
        if self._on_close is not None:
            self._on_close()
        else:
            self._bootstrap.close()

    def introspect(self) -> dict:
        out = {
            "deferred": len(self._deferred),
            "frame_errors": len(self.errors),
            "arena": self._arena.introspect(),
            "attached_segments": len(self._attached),
            **self.counters,
        }
        if not self._closed:
            # Ring cursors live in the shared mapping, which close()
            # releases — depths are only readable while open.
            depths = [len(ring) for ring in self._in]
            out["inbox_depth"] = sum(depths)
            out["inbox_depths"] = depths
            out["outbox_depths"] = [len(ring) for ring in self._out]
        return out


def _join(chunks) -> bytes:
    return b"".join(bytes(c) for c in chunks)


def _encode_handle(name: str, offset: int, length: int) -> bytes:
    return f"{name}:{offset}:{length}".encode("ascii")


def _decode_handle(view: memoryview) -> tuple[str, int, int]:
    name, offset, length = bytes(view).decode("ascii").rsplit(":", 2)
    return name, int(offset), int(length)


@register_device("procdev")
class ProcDevice(ProtocolDevice):
    """Process-rank device: the protocol engine over :class:`ProcTransport`."""

    def _setup(self, args: DeviceConfig):
        options = dict(args.options or {})
        descriptor = options.get("shm_bootstrap")
        self._stats_dir: str | None = None
        self._job_id: str | None = None
        self._nprocs = args.nprocs
        self._rank = args.rank
        self._job_stats: dict | None = None

        if descriptor is not None:
            # Cross-process mode: attach the parent's rings segment.
            bootstrap = ShmBootstrap.attach(descriptor)
            if args.nprocs not in (1, bootstrap.nprocs) or not (
                0 <= args.rank < bootstrap.nprocs
            ):
                bootstrap.close()
                raise ConnectionSetupError(
                    f"rank {args.rank}/{args.nprocs} does not fit bootstrap "
                    f"of {bootstrap.nprocs} ranks"
                )
            pids = [
                ProcessID(uid=uid, address=("proc", bootstrap.job_id, rank))
                for rank, uid in enumerate(bootstrap.uids)
            ]
            self._stats_dir = bootstrap.stats_dir
            self._job_id = bootstrap.job_id
            self._nprocs = bootstrap.nprocs
            transport = ProcTransport(bootstrap, args.rank, pids)
            args.options = options
            return pids[args.rank], pids, transport

        fabric: ProcFabric | None = args.fabric
        if fabric is None:
            if args.nprocs == 1:
                fabric = ProcFabric(1)
            else:
                raise ConnectionSetupError(
                    "procdev needs a shared ProcFabric in DeviceConfig.fabric "
                    "or an options['shm_bootstrap'] descriptor"
                )
        if not isinstance(fabric, ProcFabric):
            raise ConnectionSetupError(
                f"procdev cannot use a {type(fabric).__name__} fabric"
            )
        if not (0 <= args.rank < fabric.nprocs):
            raise ConnectionSetupError(
                f"rank {args.rank} out of range for fabric of {fabric.nprocs}"
            )
        bootstrap = fabric.acquire()
        self._job_id = fabric.job_id
        args.options = options
        transport = ProcTransport(
            bootstrap, args.rank, fabric.pids, on_close=fabric.release
        )
        return fabric.pids[args.rank], list(fabric.pids), transport

    # ------------------------------------------------------------------
    # cross-process stats aggregation (the bootstrap stats channel)

    def finish(self) -> None:
        engine = self._engine
        super().finish()
        if engine is None or self._stats_dir is None:
            return
        snapshot = {
            "rank": self._rank,
            "uid": engine.my_pid.uid,
            "copy_stats": engine.copy_stats.snapshot(),
            "transport": engine.transport.introspect(),
        }
        try:
            path = os.path.join(self._stats_dir, f"rank{self._rank}.json")
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh)
            os.replace(path + ".tmp", path)  # readers never see partial JSON
        except OSError:
            return
        if self._rank == 0:
            self._job_stats = collect_job_stats(
                self._stats_dir, self._nprocs, timeout=2.0
            )

    def introspect(self) -> dict:
        out = super().introspect()
        if self._job_id is not None:
            out["job_id"] = self._job_id
        if self._job_stats is not None:
            out["job"] = self._job_stats
        return out


def collect_job_stats(stats_dir: str, nprocs: int, timeout: float = 2.0) -> dict:
    """Merge per-rank snapshot files from a job's stats directory.

    Waits up to *timeout* for laggard ranks (finalize is loosely
    synchronized, not barriered); whatever is missing after that is
    reported in ``missing_ranks`` rather than silently dropped.  The
    spawning parent calls this after reaping children — when every
    file is guaranteed present — so its numbers are authoritative.
    """
    deadline = time.monotonic() + timeout
    ranks: dict[int, dict] = {}
    while True:
        for rank in range(nprocs):
            if rank in ranks:
                continue
            path = os.path.join(stats_dir, f"rank{rank}.json")
            try:
                with open(path, encoding="utf-8") as fh:
                    ranks[rank] = json.load(fh)
            except (OSError, ValueError):
                continue
        if len(ranks) == nprocs or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    totals: dict[str, int] = {}
    for snap in ranks.values():
        for key, value in snap.get("copy_stats", {}).items():
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + value
    return {
        "nprocs": nprocs,
        "ranks": [ranks[r] for r in sorted(ranks)],
        "missing_ranks": sorted(set(range(nprocs)) - set(ranks)),
        "copy_stats": totals,
    }
