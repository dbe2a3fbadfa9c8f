"""niodev — the selector-based TCP device (paper Section IV-A), scaled.

Faithful to the paper's structure:

* **Two channels per peer pair**: "each process connects to every other
  process with two NIO channels ... we use blocking mode for writing
  messages and non-blocking mode for reading messages".  Concretely,
  for every ordered pair (A → B) there is one TCP connection created
  by A and used *only* for A's writes; B registers its end with its
  selector and uses it *only* for reads.
* **Per-destination write locks**: "there is a separate lock (per
  destination) associated with each write channel" — here the lock
  lives on the cached connection and is held by
  :meth:`NIOTransport.write` for the whole frame, so socket bytes of
  two frames never interleave.
* **One input-handler thread** (the progress engine) running a
  ``selectors`` loop: "No lock is required for reading messages
  because only one thread receives messages."
* **Non-blocking reads with resumable state**: if a full message has
  not arrived, the partial read state stays attached to the
  connection's selector key data, and reading resumes when the
  selector reports more bytes (Fig. 8's SelectionKey attachment).

Where this implementation departs from the paper is *scale*.  The
paper's eager all-to-all setup is O(n²) sockets job-wide — fatal at
hundreds of ranks on one host — so connections here are **lazy**:

* the bootstrap ships *addresses only*; no socket exists until the
  first send to a peer;
* live write sockets sit in a :class:`ConnectionCache` — an LRU with a
  configurable FD budget (``REPRO_FD_BUDGET``, default derived from
  ``RLIMIT_NOFILE``).  Accept-side read channels register against the
  same budget;
* over budget, the least-recently-used unpinned write socket is
  **gracefully evicted**: a BYE frame, then FIN (``SHUT_WR``), then a
  wait for the peer's EOF.  TCP delivers everything queued ahead of
  the FIN and the peer processes frames in stream order, so the EOF
  proves every frame on the old connection was consumed *before* a
  redial can create a new one — eviction cannot reorder messages;
* the next send to an evicted peer transparently re-dials;
* rank-to-self frames are delivered on the writing thread, as smdev
  delivers every frame (no loopback TCP: two FDs and a syscall
  round-trip saved per rank).

The selector loop is batched: the full ready list is drained per
wakeup, accepts are coalesced, and each channel's reads are capped per
wakeup (:data:`READ_CAP`) so one flooding peer cannot starve the rest
— the level-triggered epoll backend re-reports leftover bytes.

Eager/rendezvous protocols come from the shared
:class:`~repro.xdev.protocol.ProtocolEngine`.  ``write`` pins its
connection (dialing or evicting under the cache lock alone), *then*
takes the connection's write lock, and unpins after releasing it — so
nothing dials, evicts, or touches the cache lock while a write lock is
held (``new_condition(CONN_CACHE)`` ranks below each write lock's
``new_lock(CHANNEL, uid)`` — see :mod:`repro.xdev.locknames`).
"""

from __future__ import annotations

import itertools
import os
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import Counter
from repro.xdev.base import ProtocolDevice
from repro.xdev.device import DeviceConfig, register_device
from repro.xdev.exceptions import ConnectError, ConnectionSetupError, XDevException
from repro.xdev.frames import HEADER_SIZE, FrameHeader, FrameType, encode_frame
from repro.xdev.locknames import CHANNEL, CONN_CACHE, new_condition, new_lock
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import ProtocolEngine, Transport

_HANDSHAKE = struct.Struct("<i")  # sender's rank

#: How long a lazy dial keeps retrying while the peer starts up.
CONNECT_TIMEOUT = 30.0

#: Environment knob for the connection-cache FD budget.
FD_BUDGET_ENV = "REPRO_FD_BUDGET"

#: Per-channel byte cap per selector wakeup: a flooding peer yields the
#: input handler after this many bytes; level-triggered readiness
#: re-reports the leftovers on the next wakeup.
READ_CAP = 256 * 1024

#: Bound on the eviction drain: how long to wait for the peer's EOF
#: after BYE + FIN before closing anyway.
EVICT_DRAIN_TIMEOUT = 5.0


def fd_budget(explicit: int | None = None) -> int:
    """The connection-cache FD budget.

    Explicit option > ``REPRO_FD_BUDGET`` env > a quarter of the soft
    ``RLIMIT_NOFILE`` (leaving room for listen sockets, wakeup fds,
    files, and sibling transports in thread-rank jobs).
    """
    if explicit is not None:
        return max(2, int(explicit))
    env = os.environ.get(FD_BUDGET_ENV, "").strip()
    if env:
        return max(2, int(env))
    try:
        import resource

        soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft == resource.RLIM_INFINITY:
            soft = 1 << 16
    except (ImportError, OSError, ValueError):  # pragma: no cover
        soft = 1024
    return max(16, soft // 4)


def _make_selector() -> selectors.BaseSelector:
    """Prefer epoll explicitly (batched level-triggered readiness)."""
    if hasattr(selectors, "EpollSelector"):
        return selectors.EpollSelector()
    return selectors.DefaultSelector()  # pragma: no cover - non-Linux


def allocate_local_endpoints(nprocs: int, host: str = "127.0.0.1"):
    """Pre-bind *nprocs* listening sockets on ephemeral ports.

    Returns ``(addresses, sockets)``; hand socket *i* to rank *i*'s
    DeviceConfig as ``options={"listen_socket": sock}`` and the full
    address list as ``peers``.  Used by the in-process launcher so
    ranks never race on port choice.
    """
    socks = []
    addrs = []
    for _ in range(nprocs):
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind((host, 0))
        s.listen(min(nprocs + 2, 1024))
        socks.append(s)
        addrs.append(s.getsockname())
    return addrs, socks


class _CacheEntry:
    """One write connection in the cache.

    ``pins`` counts writers inside :meth:`NIOTransport.write`; only
    unpinned LIVE entries are eviction candidates.  ``write_lock`` (the
    ``channel`` lock class) serialises those writers' ``sendmsg``
    loops.  ``dead`` is set (lock-free, GIL-atomic) by a failed write
    so the next pin discards and re-dials instead of reusing a broken
    socket.
    """

    DIALING = "dialing"
    LIVE = "live"
    EVICTING = "evicting"

    __slots__ = ("uid", "sock", "state", "pins", "tick", "dead", "write_lock")

    def __init__(self, uid: int) -> None:
        self.uid = uid
        self.sock: socket.socket | None = None
        self.state = _CacheEntry.DIALING
        self.pins = 0
        self.tick = 0
        self.dead = False
        self.write_lock = new_lock(CHANNEL, uid)


class ConnectionCache:
    """LRU of live write sockets under an FD budget.

    One condition — the ``conn-cache`` lock class — guards the entry
    table, the LRU ticks, the read-channel count and the dial/evict
    state machine.  All blocking work (dialing, the eviction drain)
    happens *outside* it: a miss reserves a DIALING placeholder, over
    budget marks LRU victims EVICTING, and concurrent pins of an
    in-flux uid wait on the condition until the state settles.

    Eviction requires ``pins == 0``; an evictor never waits on a
    pinned victim (it would be waiting on itself when the victim's pin
    belongs to the evicting thread), so a fully-pinned cache
    temporarily overshoots the budget instead of deadlocking.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._cache_lock = new_condition(CONN_CACHE)
        self._entries: dict[int, _CacheEntry] = {}
        self._reads = 0
        self._ticks = itertools.count(1)
        self._ever_connected: set[int] = set()
        #: Peak simultaneous open channels (write + read), maintained
        #: under the cache lock — the scale-out bench's headline number.
        self.peak = 0
        #: One counter per dial/evict event.  They are real Counters
        #: even under ``REPRO_METRICS=0`` (the cache's own accounting
        #: must stay exact); :meth:`bind_metrics` adopts them into the
        #: registry as ``net.<name>_total``.
        self._stats = {
            name: Counter(f"net.{name}_total")
            for name in ("connects", "redials", "evictions", "evict_drain_timeouts",
                         "evict_overshoots")
        }

    @property
    def stats(self) -> dict[str, int]:
        """Snapshot of the dial/evict counters."""
        return {name: c.value for name, c in self._stats.items()}

    def bind_metrics(self, registry) -> None:
        registry.gauge("net.connections_open", fn=self.open_connections)
        registry.gauge("net.connections_peak", fn=lambda: self.peak)
        registry.gauge("net.fd_budget", fn=lambda: self.budget)
        for counter in self._stats.values():
            registry.adopt(counter)

    # ------------------------------------------------------------------
    # accounting

    def open_connections(self) -> int:
        """Write entries (incl. in-flight dials) + read channels."""
        with self._cache_lock:
            return len(self._entries) + self._reads

    def register_read(self) -> None:
        """An accepted read channel counts against the same budget."""
        with self._cache_lock:
            self._reads += 1
            self._note_peak_locked()

    def unregister_read(self) -> None:
        with self._cache_lock:
            self._reads = max(0, self._reads - 1)

    def _note_peak_locked(self) -> None:
        open_now = len(self._entries) + self._reads
        if open_now > self.peak:
            self.peak = open_now

    # ------------------------------------------------------------------
    # pin / unpin — bracket every NIOTransport.write

    def pin(self, uid: int, dial) -> _CacheEntry:
        """Return a pinned LIVE entry for *uid*, dialing on a miss.

        *dial* is a zero-argument callable returning a connected
        socket; it runs outside the cache lock.  Evictions needed to
        make room are performed by this thread, also outside the lock,
        *before* the dial — the drain-then-dial order is what keeps
        messages from overtaking across a redial.
        """
        while True:
            with self._cache_lock:
                entry = self._entries.get(uid)
                if entry is not None and entry.state == _CacheEntry.LIVE:
                    if entry.dead:
                        # A failed write marked it; retire the corpse
                        # and fall through to a fresh dial.
                        self._retire_locked(entry)
                    else:
                        entry.pins += 1
                        entry.tick = next(self._ticks)
                        return entry
                elif entry is not None:
                    # Another thread is dialing or evicting this uid:
                    # wait for the state to settle, then retry.
                    self._cache_lock.wait(timeout=1.0)
                    continue
                # Miss: reserve the slot, pick LRU victims to make room.
                entry = _CacheEntry(uid)
                entry.pins = 1
                entry.tick = next(self._ticks)
                self._entries[uid] = entry
                victims = self._select_victims_locked()
            for victim in victims:
                self._drain_and_close(victim)
            try:
                sock = dial()
            except BaseException:
                with self._cache_lock:
                    self._entries.pop(uid, None)
                    self._cache_lock.notify_all()
                raise
            with self._cache_lock:
                entry.sock = sock
                entry.state = _CacheEntry.LIVE
                self._stats["connects"].inc()
                if uid in self._ever_connected:
                    self._stats["redials"].inc()
                self._ever_connected.add(uid)
                self._note_peak_locked()
                self._cache_lock.notify_all()
            return entry

    def unpin(self, entry: _CacheEntry) -> None:
        with self._cache_lock:
            entry.pins -= 1
            if entry.pins == 0 and entry.dead:
                self._retire_locked(entry)
            if entry.pins == 0:
                self._cache_lock.notify_all()

    def _retire_locked(self, entry: _CacheEntry) -> None:
        """Drop a broken entry (no drain: the socket already failed)."""
        if self._entries.get(entry.uid) is entry:
            del self._entries[entry.uid]
        sock = entry.sock
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self._cache_lock.notify_all()

    # ------------------------------------------------------------------
    # eviction

    def _select_victims_locked(self) -> list[_CacheEntry]:
        victims: list[_CacheEntry] = []
        excess = len(self._entries) + self._reads - self.budget
        if excess <= 0:
            return victims
        candidates = sorted(
            (
                e
                for e in self._entries.values()
                if e.state == _CacheEntry.LIVE and e.pins == 0 and not e.dead
            ),
            key=lambda e: e.tick,
        )
        for entry in candidates[:excess]:
            entry.state = _CacheEntry.EVICTING
            victims.append(entry)
        if len(victims) < excess:
            # Everything is pinned or in flux: overshoot rather than
            # wait on a pin this thread may itself be holding.
            self._stats["evict_overshoots"].inc()
        return victims

    def _drain_and_close(self, entry: _CacheEntry) -> None:
        """Graceful eviction: BYE, FIN, then wait for the peer's EOF.

        The victim is EVICTING with ``pins == 0``, so no writer can
        touch its socket and new pins wait for its removal.  TCP
        delivers everything queued ahead of the FIN and the receiver
        processes frames in stream order, so its close (on seeing the
        BYE) — our EOF — proves every in-flight write was fully
        consumed.  Only after that EOF is the entry removed, which is
        what licenses a redial: a new connection to the same peer
        cannot exist while undelivered frames remain on the old one.

        If the peer takes longer than :data:`EVICT_DRAIN_TIMEOUT`
        (e.g. two input handlers evicting each other's channels at
        once), the drain gives up, counts it, and closes anyway —
        bounded, never a deadlock.
        """
        sock = entry.sock
        assert sock is not None
        try:
            sock.sendall(b"".join(encode_frame(FrameType.BYE)))  # reprolint: allow[no-block-in-poller] -- one 53-byte control frame; the kernel send buffer absorbs it (and the whole drain is bounded by EVICT_DRAIN_TIMEOUT below)
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(EVICT_DRAIN_TIMEOUT)
            while sock.recv(4096):  # reprolint: allow[no-block-in-poller] -- EOF drain bounded by the settimeout(EVICT_DRAIN_TIMEOUT) above; on timeout the eviction proceeds without the ordering proof (counted)
                pass
        except (TimeoutError, socket.timeout):
            self._stats["evict_drain_timeouts"].inc()
        except OSError:
            pass  # peer already reset the channel; nothing left to drain
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        with self._cache_lock:
            self._entries.pop(entry.uid, None)
            self._stats["evictions"].inc()
            self._cache_lock.notify_all()

    # ------------------------------------------------------------------
    # shutdown / diagnostics

    def close_all(self) -> None:
        with self._cache_lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._cache_lock.notify_all()
        for entry in entries:
            if entry.sock is not None:
                try:
                    entry.sock.close()
                except OSError:  # pragma: no cover
                    pass

    def introspect(self) -> dict:
        with self._cache_lock:
            return {
                "budget": self.budget,
                "open": len(self._entries) + self._reads,
                "write_entries": len(self._entries),
                "read_channels": self._reads,
                "peak": self.peak,
            } | self.stats


@dataclass
class _ReadState:
    """Per-connection resumable read state (the SelectionKey attachment).

    Bytes are ``recv_into``'d directly at their destination: a small
    reusable scratch for handshakes and headers, the posted receive
    buffer's own memory for rendezvous payloads (the in-place landing,
    a scatter list filled view by view), or pooled device scratch for
    eager payloads — never an accumulate-then-copy ``bytearray``.
    """

    sock: socket.socket
    src_pid: ProcessID | None = None
    # Phase: "handshake" -> "header" -> "payload"
    phase: str = "handshake"
    needed: int = _HANDSHAKE.size
    filled: int = 0
    #: Reused for every handshake/header read on this connection.
    scratch: bytearray = field(default_factory=lambda: bytearray(HEADER_SIZE))
    #: Destination of the current unit's bytes (len == needed).
    view: memoryview | None = None
    #: Landing views still to fill after ``view``, in order.
    rest: list[memoryview] = field(default_factory=list)
    #: Pooled scratch backing ``view`` (ownership passes to the engine).
    owned: bytearray | None = None
    #: True when ``view`` is the posted buffer's own storage.
    in_place: bool = False
    header: FrameHeader | None = None

    def __post_init__(self) -> None:
        self.view = memoryview(self.scratch)[: self.needed]


class NIOTransport(Transport):
    """TCP transport: lazy cached write sockets + one batched read loop."""

    def __init__(
        self,
        rank: int,
        pids: list[ProcessID],
        listen_sock: socket.socket,
        socket_buffer_size: int | None = None,
        fd_budget_opt: int | None = None,
    ) -> None:
        self._rank = rank
        self._pids = list(pids)
        self._nprocs = len(pids)
        self._my_pid = pids[rank]
        self._my_uid = pids[rank].uid
        #: uid -> ProcessID; grows when a handshake arrives from a rank
        #: the bootstrap did not announce.
        self._pids_by_uid = {p.uid: p for p in pids}
        self._peers_lock = threading.Lock()
        self._listen = listen_sock
        self._socket_buffer_size = socket_buffer_size
        self._engine: ProtocolEngine | None = None
        self._selector = _make_selector()
        self._thread: threading.Thread | None = None
        self._cache = ConnectionCache(fd_budget(fd_budget_opt))
        self._handshakes = 0
        self._closed = False
        #: Contained per-connection and per-frame errors (bad
        #: handshakes, corrupt frames) — surfaced for diagnostics.
        self.errors: list[Exception] = []
        # Selector wakeup channel: one eventfd where the platform has
        # it, a socketpair (two FDs) otherwise.
        if hasattr(os, "eventfd"):
            self._wakeup_fd: int | None = os.eventfd(0, os.EFD_NONBLOCK)
            self._wakeup_r = None
            self._wakeup_w = None
        else:  # pragma: no cover - non-Linux
            self._wakeup_fd = None
            self._wakeup_r, self._wakeup_w = socket.socketpair()
            self._wakeup_r.setblocking(False)
        self._c_connect_errors = None
        self._h_connect_latency = None

    # ------------------------------------------------------------------
    # setup

    def start(self, engine: ProtocolEngine) -> None:
        self._engine = engine
        m = engine.metrics
        self._cache.bind_metrics(m)
        self._c_connect_errors = m.counter("net.connect_errors_total")
        self._h_connect_latency = m.histogram("net.connect_latency_us")
        self._listen.setblocking(False)
        self._selector.register(self._listen, selectors.EVENT_READ, "accept")
        wakeup_obj = self._wakeup_fd if self._wakeup_r is None else self._wakeup_r
        self._selector.register(wakeup_obj, selectors.EVENT_READ, "wakeup")
        self._thread = threading.Thread(
            target=self._input_handler,
            name=f"niodev-input-handler-{self._rank}",
            daemon=True,
        )
        self._thread.start()
        # No connection setup: the bootstrap shipped addresses only.
        # Sockets appear on first send (write -> cache miss -> dial)
        # and on first inbound accept.

    def _tune(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._socket_buffer_size:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, self._socket_buffer_size
            )
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, self._socket_buffer_size
            )

    def _wake(self) -> None:
        try:
            if self._wakeup_fd is not None:
                os.eventfd_write(self._wakeup_fd, 1)
            else:  # pragma: no cover - non-Linux
                self._wakeup_w.send(b"x")
        except OSError:  # pragma: no cover
            pass

    def _drain_wakeup(self) -> None:
        try:
            if self._wakeup_fd is not None:
                os.eventfd_read(self._wakeup_fd)
            else:  # pragma: no cover - non-Linux
                self._wakeup_r.recv(4096)
        except (BlockingIOError, OSError):  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # dialing (lazy, from write's pin)

    def _dial(self, dest: ProcessID) -> socket.socket:
        """Dial *dest* with a bounded retry window (it may still be
        binding its listen socket — the lazy-connect replacement for
        the old ``_connect_all`` startup rendezvous)."""
        address = dest.address
        if address is None:
            with self._peers_lock:
                pid = self._pids_by_uid.get(dest.uid)
            address = pid.address if pid is not None else None
        if address is None:
            self._count_connect_error()
            raise ConnectError(
                self._rank, dest.uid, None, 0, 0.0,
                XDevException("no known address (peer never announced one)"),
            )
        host, port = address
        t0 = time.monotonic()
        deadline = t0 + CONNECT_TIMEOUT
        attempts = 0
        while True:
            attempts += 1
            try:
                sock = socket.create_connection((host, port), timeout=5)
                break
            except OSError as exc:  # peer not listening yet, or gone
                if time.monotonic() >= deadline:
                    self._count_connect_error()
                    raise ConnectError(
                        self._rank,
                        dest.uid,
                        (host, port),
                        attempts,
                        time.monotonic() - t0,
                        exc,
                    ) from exc
                time.sleep(0.02)  # reprolint: allow[no-block-in-poller] -- dial retry backoff, bounded by CONNECT_TIMEOUT; reachable from the input handler only via an RTR answer that misses the cache
        self._tune(sock)
        sock.setblocking(True)  # the blocking write channel
        sock.sendall(_HANDSHAKE.pack(self._rank))  # reprolint: allow[no-block-in-poller] -- 4-byte handshake on a freshly-connected socket; the empty send buffer absorbs it
        if self._h_connect_latency is not None:
            self._h_connect_latency.observe((time.monotonic() - t0) * 1e6)
        return sock

    def _count_connect_error(self) -> None:
        if self._c_connect_errors is not None:
            self._c_connect_errors.inc()

    # ------------------------------------------------------------------
    # writing

    def write(self, dest: ProcessID, segments, route: int = 0, on_delivered=None) -> None:
        # *route* is ignored: one TCP bytestream per peer orders every
        # frame to that peer.  Endpoint demux for stream transports
        # happens on the *receive* side — the input handler hands each
        # decoded frame to the engine, whose ShardedMatcher picks the
        # (context, tag) shard by content.
        if self._closed:
            raise XDevException("transport closed")
        if dest.uid == self._my_uid:
            self._deliver_self(segments)
        else:
            self._write_socket(dest, segments)
        # Consuming transport: the bytes are in the kernel (or already
        # delivered to this rank), so the caller's memory is free again.
        if on_delivered is not None:
            on_delivered()

    def _write_socket(self, dest: ProcessID, segments) -> None:
        """Pin → lock → ``sendmsg`` loop → unlock → unpin.

        The pin (dial, evict — all under the cache lock alone) comes
        before the write lock and the unpin after its release: taking
        ``conn-cache`` under ``channel`` would invert the hierarchy and
        stall unrelated senders behind a slow connect.
        """
        engine = self._engine
        entry = self._cache.pin(dest.uid, lambda: self._dial(dest))
        try:
            sock = entry.sock
            # Empty segments are dropped: sendmsg reports them as 0 bytes
            # sent, which the loop below could never advance past.
            views = [memoryview(s).cast("B") for s in segments if len(s)]
            # The user's payload goes straight from its own memory into
            # the kernel socket buffer — its final destination on this
            # host.
            payload_len = sum(len(v) for v in views) - HEADER_SIZE
            if payload_len > 0:
                engine.copy_stats.moved(payload_len)
            t0 = time.monotonic()
            entry.write_lock.acquire()
            # Gather-write without joining (the mpjbuf zero-copy
            # argument): sendmsg may accept only part; advance through
            # the segment list with the lock held, so another thread's
            # frame cannot land between two parts of this one.
            try:
                engine.observe_lock_wait(t0)
                while views:
                    try:
                        sent = sock.sendmsg(views)  # reprolint: allow[no-block-in-poller] -- input-handler writes are small control frames (RTR/ack) the socket buffer absorbs; the large rendezvous DATA write is forked onto rendez-write-thread (fork_rendezvous_writer, paper Fig. 8)
                    except InterruptedError:  # pragma: no cover - EINTR
                        continue
                    while sent > 0 and views:
                        if sent >= len(views[0]):
                            sent -= len(views[0])
                            views.pop(0)
                        else:
                            views[0] = views[0][sent:]
                            sent = 0
            except OSError as exc:
                # Mark (lock-free) rather than discard: removing the
                # entry needs the cache lock, which must not be taken
                # under the write lock.  unpin retires the corpse; the
                # next send transparently re-dials.
                entry.dead = True
                raise XDevException(
                    f"write channel to {dest} failed: {exc}"
                ) from exc
            finally:
                entry.write_lock.release()
        finally:
            self._cache.unpin(entry)

    def _deliver_self(self, segments) -> None:
        """The rank-to-self short-circuit: no socket, no copy.

        The frame is delivered on the writing thread, as smdev delivers
        every frame, so the caller's segments are consumed before
        ``write`` returns; a corrupt frame is contained like a channel
        fault.
        """
        engine = self._engine
        payload_len = sum(len(s) for s in segments) - HEADER_SIZE
        if payload_len > 0:
            engine.copy_stats.moved(payload_len)
        try:
            engine.deliver_segments(self._my_pid, segments)
        except Exception as exc:  # noqa: BLE001
            self.errors.append(exc)

    # ------------------------------------------------------------------
    # reading — the input handler / progress engine

    def _input_handler(self) -> None:
        while not self._closed:
            try:
                events = self._selector.select(timeout=1.0)
            except OSError:  # selector closed under us
                return
            # Batched readiness: drain the whole ready list per wakeup,
            # in readiness order, each channel capped at READ_CAP bytes.
            for key, _mask in events:
                if key.data == "accept":
                    self._accept_batch()
                elif key.data == "wakeup":
                    self._drain_wakeup()
                else:
                    try:
                        self._read_ready(key)
                    except Exception as exc:  # noqa: BLE001
                        # A misbehaving peer (bad handshake, corrupt
                        # frame) costs its own channel, never the
                        # progress engine.
                        self.errors.append(exc)
                        self._drop(key.data)

    def _accept_batch(self) -> None:
        """Coalesced accepts: drain the whole backlog per readiness
        event (one ``accept`` readiness at 512 ranks can hide dozens of
        queued connections)."""
        while True:
            try:
                conn, _addr = self._listen.accept()  # reprolint: allow[no-block-in-poller] -- _listen is non-blocking (setblocking(False) in start); backlog exhaustion raises BlockingIOError instead of blocking
            except (BlockingIOError, OSError):
                return
            self._tune(conn)
            conn.setblocking(False)  # the non-blocking read channel
            state = _ReadState(sock=conn)
            self._selector.register(conn, selectors.EVENT_READ, state)
            self._cache.register_read()

    def _read_ready(self, key: selectors.SelectorKey) -> None:
        state: _ReadState = key.data
        sock = state.sock
        budget = READ_CAP
        while True:
            try:
                n = sock.recv_into(state.view[state.filled : state.needed])  # reprolint: allow[no-block-in-poller] -- read channels are non-blocking; exhaustion raises BlockingIOError and returns to the selector
            except BlockingIOError:
                return  # no more bytes now; selector will call us again
            except (ConnectionResetError, OSError):
                self._drop(state)
                return
            if n == 0:
                self._drop(state)
                return
            state.filled += n
            budget -= n
            if state.filled < state.needed or state.rest:
                if state.filled == state.needed:
                    self._aim(state, state.rest)  # next landing view
                # Partial unit: state stays attached to the key and
                # reading resumes on the next readiness event (paper
                # Fig. 8's selection-key attachment).
                if budget <= 0:
                    return
                continue
            if not self._advance(state):
                return  # channel closed (orderly BYE)
            if budget <= 0:
                # Per-wakeup fairness cap: a flooding peer yields;
                # level-triggered epoll re-reports the leftovers.
                return

    def _begin_unit(self, state: _ReadState, phase: str, needed: int) -> None:
        state.phase = phase
        self._aim(state, [memoryview(state.scratch)[:needed]])
        state.owned = None
        state.in_place = False

    @staticmethod
    def _aim(state: _ReadState, views: list[memoryview]) -> None:
        """Read into ``views[0]`` next; the others follow in order."""
        state.view = views[0]
        state.rest = views[1:]
        state.needed = len(state.view)
        state.filled = 0

    def _lookup_peer(self, uid: int) -> ProcessID:
        with self._peers_lock:
            pid = self._pids_by_uid.get(uid)
            if pid is None:
                # A rank the bootstrap never told us about: identity
                # is the uid; a reply dials the address its sender's
                # ProcessID carries.
                pid = ProcessID(uid=uid, address=None)
                self._pids_by_uid[uid] = pid
        return pid

    def _advance(self, state: _ReadState) -> bool:
        """One complete unit (handshake/header/payload) has arrived.

        Returns False when the channel was retired (orderly BYE) and
        reading must stop.
        """
        assert self._engine is not None
        engine = self._engine
        if state.phase == "handshake":
            (peer_rank,) = _HANDSHAKE.unpack_from(state.scratch)
            if peer_rank < 0:
                raise XDevException(f"handshake from invalid rank {peer_rank}")
            state.src_pid = self._lookup_peer(peer_rank)
            self._begin_unit(state, "header", HEADER_SIZE)
            self._handshakes += 1
        elif state.phase == "header":
            header = FrameHeader.decode(state.scratch)
            if header.type == FrameType.BYE:
                # The peer is evicting (or finishing) this channel.
                # Every frame it sent beforehand has already been
                # processed — stream order — so closing now EOFs the
                # peer's drain wait and licenses its redial.
                self._drop(state)
                return False
            plen = header.payload_len
            if plen == 0:
                state.header = None
                self._begin_unit(state, "header", HEADER_SIZE)
                engine.handle_frame(state.src_pid, header, b"")
                return True
            state.header = header
            state.phase = "payload"
            landing = (
                engine.rendezvous_landing(header.recv_id, plen)
                if header.type == FrameType.RNDZ_DATA
                else None
            )
            if landing is not None:
                # In-place rendezvous receive: the wire bytes land in
                # the posted buffer's own memory, their one and only
                # destination in this process.
                self._aim(state, landing)
                state.owned = None
                state.in_place = True
            else:
                # Eager payloads (and rendezvous fallbacks) land in
                # size-classed pooled scratch; ownership passes to the
                # engine at dispatch.
                state.owned = engine.raw_pool.acquire(plen)
                self._aim(state, [memoryview(state.owned)[:plen]])
                state.in_place = False
        else:  # payload complete
            self._dispatch(state)
        return True

    def _dispatch(self, state: _ReadState) -> None:
        assert self._engine is not None and state.header is not None
        engine = self._engine
        header = state.header
        view, owned, in_place = state.view, state.owned, state.in_place
        state.header = None
        self._begin_unit(state, "header", HEADER_SIZE)
        if in_place:
            engine.copy_stats.moved(header.payload_len)
            engine.handle_frame(state.src_pid, header, in_place=True)
        else:
            # Landing in device scratch is the eager path's one staging
            # copy; the engine adopts (or releases) the scratch.
            engine.copy_stats.copied(header.payload_len)
            engine.handle_frame(state.src_pid, header, view, owned=owned)

    def _drop(self, state: _ReadState) -> None:
        try:
            self._selector.unregister(state.sock)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        else:
            self._cache.unregister_read()
        state.sock.close()
        if state.owned is not None and self._engine is not None:
            # A connection cut mid-payload must not leak its scratch.
            self._engine.raw_pool.release(state.owned)
            state.owned = None

    def introspect(self) -> dict:
        """Selector backlog and cache state.

        Best-effort from outside the input-handler thread: the
        selector map is read without a lock, so a channel registering
        concurrently may be missed for one call.
        """
        read_channels = 0
        partial_reads = 0
        try:
            states = list(self._selector.get_map().values())
        except (RuntimeError, OSError):  # map mutated / selector closed
            states = []
        for key in states:
            if not isinstance(key.data, _ReadState):
                continue
            read_channels += 1
            if key.data.filled > 0:
                partial_reads += 1
        with self._peers_lock:
            peers_known = len(self._pids_by_uid)
        return {
            "selector_read_channels": read_channels,
            "selector_partial_reads": partial_reads,
            "write_channels": len(self._cache._entries),
            "frame_errors": len(self.errors),
            "handshakes_accepted": self._handshakes,
            "peers_known": peers_known,
            "connection_cache": self._cache.introspect(),
        }

    # ------------------------------------------------------------------
    # shutdown

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._wake()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)
        self._cache.close_all()
        try:
            self._selector.close()
        except OSError:  # pragma: no cover
            pass
        self._listen.close()
        if self._wakeup_fd is not None:
            try:
                os.close(self._wakeup_fd)
            except OSError:  # pragma: no cover
                pass
        else:  # pragma: no cover - non-Linux
            self._wakeup_r.close()
            self._wakeup_w.close()


@register_device("niodev")
class NIODevice(ProtocolDevice):
    """The TCP/selector device: ProtocolEngine over NIOTransport.

    ``DeviceConfig`` fields used:

    * ``rank``, ``nprocs`` — this process's place in the job;
    * ``peers`` — list of ``(host, port)`` listen addresses by rank
      (addresses only: no connection exists until first traffic);
    * ``options["listen_socket"]`` — an already-bound listening socket
      (optional; otherwise the device binds ``peers[rank]`` itself);
    * ``options["socket_buffer_size"]`` — SO_SNDBUF/SO_RCVBUF, the
      paper's 512 KB Gigabit-Ethernet tuning knob;
    * ``options["eager_threshold"]`` — protocol switch point;
    * ``options["fd_budget"]`` — connection-cache FD budget (else
      ``REPRO_FD_BUDGET``, else RLIMIT_NOFILE / 4).
    """

    def _setup(self, args: DeviceConfig):
        if not args.peers or len(args.peers) != args.nprocs:
            raise ConnectionSetupError(
                "niodev needs DeviceConfig.peers with one (host, port) per rank"
            )
        options = dict(args.options or {})
        pids = [
            ProcessID(uid=r, address=tuple(addr)) for r, addr in enumerate(args.peers)
        ]
        listen = options.get("listen_socket")
        if listen is None:
            host, port = args.peers[args.rank]
            listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listen.bind((host, port))
            except OSError as exc:
                raise ConnectionSetupError(
                    f"rank {args.rank} could not bind {host}:{port}: {exc}"
                ) from exc
            listen.listen(min(args.nprocs + 2, 1024))
        transport = NIOTransport(
            args.rank,
            pids,
            listen,
            socket_buffer_size=options.get("socket_buffer_size"),
            fd_budget_opt=options.get("fd_budget"),
        )
        return pids[args.rank], pids, transport
