"""The ``Transport.write`` contract, checked on every transport.

``write(dest, segments, route=0, on_delivered=None)`` must be
thread-safe, FIFO per calling thread per ``(dest, route)``, never
interleave two frames' bytes, consume its segments before returning,
and fire the fence it is handed exactly once — and never when it
raises.  The engine relies on exactly this
and holds no lock of its own around a write, so the contract is tested
below the engine: frames are written straight to rank 0's transport
and observed at rank 1's ``handle_frame``.
"""

from __future__ import annotations

import hashlib
import socket
import threading
from collections import Counter

import pytest

from repro.testing import ChaosConfig, wait_until
from repro.testing.chaos import ChaosTransport
from repro.xdev.exceptions import XDevException
from repro.xdev.frames import FrameType, encode_frame

from tests.conftest import make_job

THREADS = 4
#: frames per thread on the main route / on the second route
FRAMES = (500, 100)
#: payload sizes cycled by sequence number; the largest exceeds a
#: procdev ring slot (spill path) and, on the short-writes niodev run,
#: the whole kernel send buffer several times over.
SIZES = (0, 1, 64, 1000, 5000, 20000)

#: name -> (inner device, wrap in a zero-fault chaos?, short writes?)
CONFIGS = {
    "smdev": ("smdev", False, False),
    "niodev": ("niodev", False, False),
    "niodev-short-writes": ("niodev", False, True),
    "procdev": ("procdev", False, False),
    "chaos-smdev": ("smdev", True, False),
    "chaos-niodev": ("niodev", True, False),
}


class ShortWrites:
    """Socket proxy whose ``sendmsg`` takes at most *cap* bytes a call.

    A blocking socket returns a short count only when a signal or a
    send timeout cuts the call, so the continuation loop in
    ``NIOTransport.write`` is otherwise never exercised; this makes
    every frame above *cap* go out in several calls, with the other
    writer threads runnable between them.
    """

    def __init__(self, sock: socket.socket, cap: int) -> None:
        self._sock, self._cap = sock, cap

    def sendmsg(self, views) -> int:
        room, head = self._cap, []
        for view in views:
            head.append(view[:room])
            room -= len(head[-1])
            if room == 0:
                break
        return self._sock.sendmsg(head)

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


def payload_for(thread: int, route: int, seq: int) -> bytes:
    size = SIZES[seq % len(SIZES)]
    digest = hashlib.blake2b(f"{thread}:{route}:{seq}".encode()).digest()
    return (digest * (size // len(digest) + 1))[:size]


class Rig:
    """Rank 0's transport under test, rank 1's arrivals recorded."""

    def __init__(self, name: str) -> None:
        inner, chaos, short_writes = CONFIGS[name]
        self.devices, self.pids = make_job(inner, 2)
        self.transport = self.devices[0].engine.transport
        if chaos:
            # All fault probabilities default to zero: the decorator
            # must then be a transparent pass-through of the contract.
            self.transport = ChaosTransport(self.transport, ChaosConfig(seed=1))
        self.arrivals: list[tuple[int, int, int, bytes]] = []
        self.fences: Counter = Counter()
        self._lock = threading.Lock()
        self._receiver = self.devices[1].engine
        self._receiver.handle_frame = self._record
        if short_writes:
            # Dial with a priming frame, then doctor the live write
            # socket: a tiny SO_SNDBUF so writers block mid-frame under
            # contention (not the device option — that shrinks the
            # receive window too, and delayed ACKs then cost 40 ms a
            # frame), and short sendmsg counts on top.
            self.write(-1, 0, 0)
            wait_until(lambda: self.arrivals, message="priming frame")
            self.arrivals.clear()
            self.fences.clear()
            entry = self.transport._cache._entries[self.pids[1].uid]
            entry.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 2048)
            entry.sock = ShortWrites(entry.sock, cap=1500)

    def _record(self, src_pid, header, payload=None, *, in_place=False, owned=None):
        segments = payload if isinstance(payload, list) else [payload]
        data = b"".join(bytes(s) for s in segments)
        if owned is not None:
            self._receiver.raw_pool.release(owned)
        with self._lock:
            self.arrivals.append((header.tag, header.context, header.send_id, data))

    def write(self, thread: int, route: int, seq: int) -> None:
        body = payload_for(thread, route, seq)
        half = len(body) // 2
        frame = encode_frame(
            FrameType.EAGER, context=route, tag=thread, send_id=seq,
            payload=[body[:half], memoryview(body)[half:]],
        )
        key = (thread, route, seq)

        def fence() -> None:
            with self._lock:
                self.fences[key] += 1

        self.transport.write(self.pids[1], frame, route, fence)

    def close(self) -> None:
        for d in self.devices:
            d.finish()


@pytest.fixture(params=list(CONFIGS))
def rig(request):
    r = Rig(request.param)
    yield r
    r.close()


def test_write_is_threadsafe_ordered_and_fenced_exactly_once(rig):
    errors: list[BaseException] = []

    def flood(thread: int) -> None:
        try:
            ratio = FRAMES[0] // FRAMES[1]
            for seq in range(FRAMES[0]):
                rig.write(thread, 0, seq)
                if seq % ratio == 0:
                    rig.write(thread, 1, seq // ratio)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [threading.Thread(target=flood, args=(t,)) for t in range(THREADS)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    assert not any(w.is_alive() for w in workers), "a writer never returned"
    assert errors == []

    total = THREADS * sum(FRAMES)
    wait_until(lambda: len(rig.arrivals) == total, timeout=60, message="all frames")
    wait_until(
        lambda: sum(rig.fences.values()) == total, timeout=10, message="all fences"
    )

    # Program order per calling thread per (dest, route), and every
    # frame byte-exact — an interleaved write would shear a header or
    # a payload and show up here (or wedge the stream before here).
    streams: dict[tuple[int, int], list[int]] = {}
    for thread, route, seq, data in rig.arrivals:
        assert data == payload_for(thread, route, seq), (thread, route, seq)
        streams.setdefault((thread, route), []).append(seq)
    assert streams == {
        (t, r): list(range(FRAMES[r])) for t in range(THREADS) for r in (0, 1)
    }
    assert set(rig.fences.values()) == {1}
    assert getattr(rig.devices[1].engine.transport, "errors", []) == []

    # A write that raises never fires its fence.
    rig.transport.close()
    with pytest.raises(XDevException):
        rig.write(0, 0, FRAMES[0])
    assert (0, 0, FRAMES[0]) not in rig.fences


def test_smdev_delivers_and_fences_before_write_returns():
    rig = Rig("smdev")
    try:
        rig.write(0, 0, 0)
        # No wait: the frame was handled, and its fence fired, on this
        # thread, inside write.
        assert [a[2] for a in rig.arrivals] == [0]
        assert rig.fences == {(0, 0, 0): 1}
        assert not [
            t for t in threading.enumerate() if "smdev-input-handler" in t.name
        ]
    finally:
        rig.close()


def test_niodev_dead_socket_write_raises_unfenced_then_redials():
    rig = Rig("niodev")
    try:
        rig.write(0, 0, 0)
        dest_uid = rig.pids[1].uid
        # Kill the cached connection under the transport.
        rig.transport._cache._entries[dest_uid].sock.close()
        with pytest.raises(XDevException, match="write channel"):
            rig.write(0, 0, 1)
        assert (0, 0, 1) not in rig.fences
        # The corpse was retired on unpin; the next write re-dials.
        rig.write(0, 0, 2)
        wait_until(lambda: len(rig.arrivals) == 2, message="frame after redial")
        assert [a[2] for a in rig.arrivals] == [0, 2]
        assert rig.fences == {(0, 0, 0): 1, (0, 0, 2): 1}
    finally:
        rig.close()
