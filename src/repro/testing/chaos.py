"""ChaosTransport — seeded, deterministic frame-level fault injection.

The protocol engine's error paths (duplicate control frames, truncated
payloads, delayed and reordered delivery) are exercised by real
networks only by luck.  :class:`ChaosTransport` exercises them on
purpose: installed as an engine's transport (over smdev's or niodev's
own), it perturbs every outbound frame according to a seeded plan.

Determinism is the point.  Every fault decision is drawn from a PRNG
keyed on ``(seed, frame content, occurrence number)`` — *not* on call
order — so the same seed produces the same per-frame decisions no
matter how threads interleave, and a failing run can be replayed with
``REPRO_CHAOS_SEED=<seed>``.

Fault safety rules (so chaos breaks implementations, not semantics):

* only RTS/RTR control frames are duplicated — the engine must reject
  the duplicates loudly (:class:`~repro.xdev.exceptions.DuplicateControlFrameError`);
* frames are reordered only across *different* ``(context, tag)``
  matching keys, preserving MPI's per-stream non-overtaking rule;
* payload truncation is off by default (it loses the message by
  design) and is enabled only by tests that assert the error path.

Usage, on an initialised engine-based device::

    from repro.testing import ChaosConfig, ChaosTransport

    engine = dev.engine
    engine.transport = ChaosTransport(
        engine.transport, ChaosConfig(seed=7, duplicate_prob=0.2)
    )

:func:`repro.testing.fixtures.make_chaos_job` does this for every rank
of an smdev job.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.xdev.exceptions import XDevException
from repro.xdev.frames import FrameHeader, FrameType
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import Transport

#: Environment variable consulted for the replay seed.
SEED_ENV_VAR = "REPRO_CHAOS_SEED"


def seed_from_env(default: Optional[int] = None) -> int:
    """The chaos seed: ``$REPRO_CHAOS_SEED``, *default*, or a fresh one."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"{SEED_ENV_VAR} must be an integer seed, got {raw!r}"
            ) from None
    if default is not None:
        return default
    return random.SystemRandom().randrange(2**32)


@dataclass(frozen=True)
class ChaosConfig:
    """Fault plan for one :class:`ChaosTransport`.

    Probabilities are per-frame; each decision is drawn independently
    from the frame-keyed PRNG, so two frames with identical content
    get independent decisions via their occurrence counter.
    """

    seed: int = 0
    #: Hold the calling thread for ``delay_s`` before the write.
    delay_prob: float = 0.0
    delay_s: float = 0.002
    #: Hold a frame back and release it after the next safe write to
    #: the same destination (or after ``hold_flush_s`` at the latest).
    reorder_prob: float = 0.0
    hold_flush_s: float = 0.02
    #: Send RTS/RTR control frames twice.
    duplicate_prob: float = 0.0
    #: Cut the payload of EAGER/RNDZ_DATA frames in half (loses the
    #: message; exercises the failed-delivery path).
    truncate_prob: float = 0.0

    @classmethod
    def torture(cls, seed: int) -> "ChaosConfig":
        """The default torture mix: delays, reordering, duplicates."""
        return cls(
            seed=seed, delay_prob=0.15, reorder_prob=0.2, duplicate_prob=0.2
        )


@dataclass(frozen=True)
class ChaosEvent:
    """One injected fault, recorded for schedule comparison/replay."""

    action: str  # "delay" | "hold" | "swap" | "flush" | "duplicate" | "truncate"
    frame: str  # FrameType name
    context: int
    tag: int
    send_id: int
    recv_id: int
    occurrence: int

    def key(self) -> tuple:
        return (
            self.action,
            self.frame,
            self.context,
            self.tag,
            self.send_id,
            self.recv_id,
            self.occurrence,
        )


class _HeldFrame:
    __slots__ = (
        "dest", "segments", "match_key", "generation", "on_delivered", "route"
    )

    def __init__(
        self, dest, segments, match_key, generation, on_delivered=None, route=0
    ):
        self.dest = dest
        self.segments = segments
        self.match_key = match_key
        self.generation = generation
        # The engine's delivery fence rides along with a held frame:
        # the sender's memory stays referenced until the hold ends.
        self.on_delivered = on_delivered
        # Content route (endpoint inbox) the frame releases on — a
        # frame keeps its route through hold/swap/duplicate, so chaos
        # perturbs timing, never demux.
        self.route = route

    def frame(self) -> tuple:
        """The ``inner.write`` arguments that deliver this frame."""
        return (self.dest, self.segments, self.route, self.on_delivered)


#: Frame types whose delivery order is matching-relevant: they enter
#: the four-key matching queues, so per-(context, tag) FIFO from one
#: source is an MPI guarantee chaos must not break.
_MATCH_ORDERED = frozenset({FrameType.EAGER, FrameType.RTS})

#: Control frames safe to duplicate (the engine must reject the copy).
_DUPLICABLE = frozenset({FrameType.RTS, FrameType.RTR})

#: Frames carrying a payload that can be truncated.
_TRUNCATABLE = frozenset({FrameType.EAGER, FrameType.RNDZ_DATA})


def kept_frame(segments, on_delivered) -> list:
    """The segments a decorator may keep past ``write``.

    ``write`` consumes its segments before it returns, so a frame kept
    for later delivery is copied — unless the write carries a fence,
    which keeps the caller's memory valid until it fires (rendezvous
    data stays zero-copy).
    """
    if on_delivered is not None:
        return segments
    return [s if isinstance(s, bytes) else bytes(s) for s in segments]


class ChaosTransport(Transport):
    """Transport decorator injecting the :class:`ChaosConfig` plan.

    A held-back frame outlives ``write``, so it is kept as
    :func:`kept_frame`; duplicates are written before ``write``
    returns and need no copy — unless they queue behind a release.

    Releasing a held frame takes it out of ``_held`` under the lock
    but writes it after the lock is dropped, so until that write ends
    its ``(dest, match key)`` stream is *releasing*: new frames of the
    stream queue behind it in ``_releasing`` and the releasing thread
    writes them, in order, before the stream is clear again.
    """

    def __init__(self, inner: Transport, config: ChaosConfig) -> None:
        self.inner = inner
        self.config = config
        self._engine = None
        self._lock = threading.Lock()
        #: Per-frame-identity occurrence counters (PRNG key component).
        self._occurrences: dict[tuple, int] = {}
        #: dest uid -> held frame awaiting a reorder partner.
        self._held: dict[int, _HeldFrame] = {}
        #: (dest uid, match key) of a release in flight -> the frames
        #: queued behind it, as ``inner.write`` argument tuples.
        self._releasing: dict[tuple, list[tuple]] = {}
        self._generation = 0
        self._events: list[ChaosEvent] = []
        self._closed = False

    # ------------------------------------------------------------------
    # recording / introspection

    def events(self) -> list[ChaosEvent]:
        with self._lock:
            return list(self._events)

    def schedule(self) -> list[tuple]:
        """The injected-fault schedule as comparable tuples."""
        return [e.key() for e in self.events()]

    def _record(self, action: str, header: FrameHeader, occ: int) -> ChaosEvent:
        event = ChaosEvent(
            action=action,
            frame=header.type.name,
            context=header.context,
            tag=header.tag,
            send_id=header.send_id,
            recv_id=header.recv_id,
            occurrence=occ,
        )
        with self._lock:
            self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # deterministic per-frame decisions

    def _frame_rng(self, header: FrameHeader, occ: int) -> random.Random:
        # Seeding with a string routes through SHA-512 inside Random,
        # which is stable across processes and interpreter versions —
        # unlike hash() of a tuple, which PYTHONHASHSEED could perturb
        # if a str ever entered the key.
        #
        # The causal header fields (clock, flow_src, flow_seq — see
        # repro.xdev.frames) are deliberately EXCLUDED from this key
        # and from _next_occurrence's identity: the Lamport clock value
        # depends on thread interleaving, so keying on it would give
        # the same logical frame different fault decisions run to run
        # and break REPRO_CHAOS_SEED replay.  Flow ids ride through
        # chaos untouched; fault decisions never depend on them.
        key = (
            f"{self.config.seed}:{int(header.type)}:{header.context}:"
            f"{header.tag}:{header.send_id}:{header.recv_id}:"
            f"{header.payload_len}:{occ}"
        )
        return random.Random(key)

    def _next_occurrence(self, header: FrameHeader) -> int:
        ident = (
            int(header.type),
            header.context,
            header.tag,
            header.send_id,
            header.recv_id,
            header.payload_len,
        )
        with self._lock:
            occ = self._occurrences.get(ident, 0) + 1
            self._occurrences[ident] = occ
            return occ

    # ------------------------------------------------------------------
    # Transport API

    def start(self, engine) -> None:
        self._engine = engine
        self.inner.start(engine)

    def _begin_release(self, held: _HeldFrame) -> Optional[tuple]:
        """Mark *held*'s stream releasing (caller holds ``_lock``).

        Frames without a match key may overtake anything, so nothing
        queues behind them and they get no stream.
        """
        if held.match_key is None:
            return None
        stream = (held.dest.uid, held.match_key)
        self._releasing[stream] = []
        return stream

    def _release(self, stream: Optional[tuple], frames: list) -> None:
        """Write *frames*, then whatever queued behind them on *stream*.

        Like every inner write here it runs without chaos's lock:
        smdev delivers inline, so a lock held across the write would
        be taken again by the receiver's replies and, between two
        ranks' transports, deadlock ABBA.  The queue keeps the order
        instead, and ``inner.write`` owns each fence from then on.
        """
        while True:
            for frame in frames:
                self.inner.write(*frame)
            if stream is None:
                return
            with self._lock:
                frames = self._releasing[stream]
                if not frames:
                    del self._releasing[stream]
                    return
                self._releasing[stream] = []

    def write(
        self, dest: ProcessID, segments, route: int = 0, on_delivered=None
    ) -> None:
        if self._closed:
            raise XDevException("chaos transport closed")
        header = FrameHeader.decode(segments[0])
        occ = self._next_occurrence(header)
        rng = self._frame_rng(header, occ)
        cfg = self.config
        # Decision draw order is part of the deterministic contract:
        # duplicate, truncate, delay, hold — always in this order.
        duplicate = (
            header.type in _DUPLICABLE and rng.random() < cfg.duplicate_prob
        )
        truncate = (
            header.type in _TRUNCATABLE
            and header.payload_len > 0
            and rng.random() < cfg.truncate_prob
        )
        delay = rng.random() < cfg.delay_prob
        hold = rng.random() < cfg.reorder_prob

        if truncate:
            self._record("truncate", header, occ)
            payload = b"".join(bytes(s) for s in segments[1:])
            # Keep the header's advertised length: the receiver sees a
            # frame that claims more bytes than it carries, exactly
            # like a connection cut mid-message.
            segments = [segments[0], payload[: len(payload) // 2]]
        if delay:
            self._record("delay", header, occ)
            time.sleep(cfg.delay_s)  # reprolint: allow[no-block-in-poller] -- the injected latency IS the chaos: a bounded, configured delay that torture runs use to widen race windows on purpose

        match_key = (
            (header.context, header.tag)
            if header.type in _MATCH_ORDERED
            else None
        )

        released: Optional[_HeldFrame] = None
        stream: Optional[tuple] = None
        swap = False
        held_entry: Optional[_HeldFrame] = None
        queue = None
        with self._lock:
            if match_key is not None:
                queue = self._releasing.get((dest.uid, match_key))
            held = None if queue is not None else self._held.pop(dest.uid, None)
            if queue is not None:
                # An earlier frame of this stream is being released:
                # queue behind it; the releasing thread writes us.
                kept = kept_frame(segments, on_delivered)
                queue.append((dest, kept, route, on_delivered))
                if duplicate:
                    queue.append((dest, kept, route, None))
            elif held is not None:
                released = held
                stream = self._begin_release(held)
                # Swapping is only safe across different matching keys;
                # identical keys must keep their original order.
                swap = (
                    held.match_key is None
                    or match_key is None
                    or held.match_key != match_key
                )
            elif hold and not self._closed:
                self._generation += 1
                held_entry = _HeldFrame(
                    dest, kept_frame(segments, on_delivered), match_key,
                    self._generation, on_delivered, route,
                )
                self._held[dest.uid] = held_entry

        if queue is not None:
            if duplicate:
                self._record("duplicate", header, occ)
            return

        if held_entry is not None:
            self._record("hold", header, occ)
            timer = threading.Timer(
                cfg.hold_flush_s, self._flush_held, args=(dest, held_entry)
            )
            timer.daemon = True
            timer.start()
            # The duplicate decision still applies to a held RTS:
            # send the copy now, the original later.  (Duplicable
            # control frames never carry a delivery fence.)
            if duplicate:
                self._record("duplicate", header, occ)
                self.inner.write(dest, segments, route)
            return

        own = (dest, segments, route, on_delivered)
        if released is not None and swap:
            self._record("swap", header, occ)
            self._release(stream, [own, released.frame()])
        elif released is not None:
            self._release(stream, [released.frame(), own])
        else:
            self.inner.write(*own)
        if duplicate:
            self._record("duplicate", header, occ)
            self.inner.write(dest, segments, route)

    def _flush_held(self, dest: ProcessID, entry: _HeldFrame) -> None:
        """Timer valve: a held frame with no reorder partner must still
        be delivered, or the job deadlocks on an injected fault."""
        with self._lock:
            current = self._held.get(dest.uid)
            if current is None or current.generation != entry.generation:
                return  # already released by a later write
            del self._held[dest.uid]
            stream = self._begin_release(entry)
        self._release(stream, [entry.frame()])

    def flush(self) -> None:
        """Deliver every held frame now (tests call this at barriers)."""
        with self._lock:
            held = list(self._held.values())
            self._held.clear()
            streams = [self._begin_release(entry) for entry in held]
        for stream, entry in zip(streams, held):
            self._release(stream, [entry.frame()])

    def close(self) -> None:
        self._closed = True
        self.flush()
        self.inner.close()
