"""White-box unit tests of the ProtocolEngine over a scripted transport.

Unlike the device tests, these drive the engine's two halves manually:
user-side calls on one engine instance, and hand-delivered frames into
``handle_frame`` — so each protocol transition (Figs 3-8) is observable
in isolation, including the exact frames emitted.
"""

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.mpjdev.waitany import WaitAny
from repro.xdev.frames import FrameHeader, FrameType, HEADER_SIZE
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import ProtocolEngine, Transport


class ScriptedTransport(Transport):
    """Records outbound frames; delivery is driven by the test."""

    def __init__(self) -> None:
        self.frames: list[tuple[ProcessID, FrameHeader, bytes]] = []

    def start(self, engine) -> None:
        self.engine = engine

    def write(self, dest, segments, route=0, on_delivered=None) -> None:
        data = b"".join(bytes(s) for s in segments)
        header = FrameHeader.decode(data[:HEADER_SIZE])
        payload = data[HEADER_SIZE : HEADER_SIZE + header.payload_len]
        self.frames.append((dest, header, payload))
        if on_delivered is not None:
            on_delivered()  # consuming transport: the bytes were copied

    def close(self) -> None:
        pass

    def pop(self) -> tuple[ProcessID, FrameHeader, bytes]:
        return self.frames.pop(0)


@pytest.fixture
def rig():
    """Two engines wired by hand: (engine_a, engine_b, ta, tb, pids)."""
    pid_a, pid_b = ProcessID(uid=0), ProcessID(uid=1)
    ta, tb = ScriptedTransport(), ScriptedTransport()
    ea = ProtocolEngine(pid_a, ta, eager_threshold=100)
    eb = ProtocolEngine(pid_b, tb, eager_threshold=100)
    ta.start(ea)
    tb.start(eb)
    return ea, eb, ta, tb, (pid_a, pid_b)


def small_buffer():
    buf = Buffer()
    buf.write(np.array([7], dtype=np.int8))
    return buf


def big_buffer():
    buf = Buffer()
    buf.write(np.zeros(64, dtype=np.float64))  # 512 B wire > 100 threshold
    return buf


def deliver(engine, src_pid, frame):
    _dest, header, payload = frame
    engine.handle_frame(src_pid, header, payload)


class TestEagerProtocol:
    def test_emits_one_eager_frame(self, rig):
        ea, _eb, ta, _tb, (pa, pb) = rig
        req = ea.isend(small_buffer(), pb, 5, 0)
        assert req.done  # Fig. 3: non-pending
        assert len(ta.frames) == 1
        _dest, header, payload = ta.frames[0]
        assert header.type == FrameType.EAGER
        assert header.tag == 5
        assert header.payload_len == len(payload)

    def test_delivery_completes_posted_recv(self, rig):
        ea, eb, ta, _tb, (pa, pb) = rig
        rbuf = Buffer()
        rreq = eb.irecv(rbuf, pa, 5, 0)
        ea.isend(small_buffer(), pb, 5, 0)
        deliver(eb, pa, ta.pop())
        status = rreq.wait(timeout=1)
        assert status.tag == 5
        assert rbuf.read_section().tolist() == [7]

    def test_unexpected_then_recv(self, rig):
        ea, eb, ta, _tb, (pa, pb) = rig
        ea.isend(small_buffer(), pb, 6, 0)
        deliver(eb, pa, ta.pop())
        assert eb.unexpected_count() == 1
        rbuf = Buffer()
        status = eb.irecv(rbuf, pa, 6, 0).wait(timeout=1)
        assert status.size == rbuf.size
        assert eb.unexpected_count() == 0


class TestRendezvousProtocol:
    def test_full_handshake_frame_sequence(self, rig):
        ea, eb, ta, tb, (pa, pb) = rig
        sreq = ea.isend(big_buffer(), pb, 9, 0)
        assert not sreq.done
        # 1. sender emitted RTS.
        _d, rts, _p = ta.frames[0]
        assert rts.type == FrameType.RTS
        assert rts.recv_id > 0  # advertised size
        # 2. receiver posts a matching recv -> emits RTR.
        rbuf = Buffer()
        rreq = eb.irecv(rbuf, pa, 9, 0)
        deliver(eb, pa, ta.pop())
        _d, rtr, _p = tb.frames[0]
        assert rtr.type == FrameType.RTR
        assert rtr.send_id == rts.send_id
        # 3. sender gets RTR -> rendez-write-thread emits the data.
        deliver(ea, pb, tb.pop())
        sreq.wait(timeout=5)  # completes once the data frame is written
        _d, data, payload = ta.pop()
        assert data.type == FrameType.RNDZ_DATA
        assert data.recv_id == rtr.recv_id
        # 4. receiver consumes the data frame -> recv completes.
        deliver(eb, pa, (None, data, payload))
        status = rreq.wait(timeout=1)
        assert status.tag == 9

    def test_rts_first_recv_second(self, rig):
        """RTS arrives before the recv is posted (Fig. 7 path)."""
        ea, eb, ta, tb, (pa, pb) = rig
        sreq = ea.isend(big_buffer(), pb, 3, 0)
        deliver(eb, pa, ta.pop())  # RTS lands unexpected
        assert eb.unexpected_count() == 1
        rbuf = Buffer()
        rreq = eb.irecv(rbuf, pa, 3, 0)  # the USER thread answers RTR
        _d, rtr, _p = tb.pop()
        assert rtr.type == FrameType.RTR
        deliver(ea, pb, (None, rtr, b""))
        sreq.wait(timeout=5)
        _d, data, payload = ta.pop()
        deliver(eb, pa, (None, data, payload))
        assert rreq.wait(timeout=1).tag == 3

    def test_probe_sees_rts_size(self, rig):
        ea, eb, ta, _tb, (pa, pb) = rig
        buf = big_buffer()
        advertised = buf.size
        ea.isend(buf, pb, 4, 0)
        deliver(eb, pa, ta.pop())
        status = eb.iprobe(pa, 4, 0)
        assert status is not None
        assert status.size == advertised


class TestPeekQueue:
    """peek() sees a completion iff, when it happened, its request
    belonged to a Waitany or a thread was blocked in peek()."""

    def test_peek_lifo(self, rig):
        ea, eb, ta, _tb, (pa, pb) = rig
        reqs = [eb.irecv(Buffer(), pa, tag, 0) for tag in (1, 2)]
        parked = WaitAny(reqs)
        for r in reqs:
            r.waitany_ref = parked
        for tag in (1, 2):
            ea.isend(small_buffer(), pb, tag, 0)
            deliver(eb, pa, ta.pop())
        assert eb.peek(timeout=1).tag == 2
        assert eb.peek(timeout=1).tag == 1

    def test_unobserved_completions_are_not_recorded(self, rig):
        ea, _eb, _ta, _tb, (pa, pb) = rig
        ea.isend(small_buffer(), pb, 1, 0)
        ea.isend(small_buffer(), pb, 2, 0)
        assert ea.stats["completions"] == 2
        assert ea.introspect_queues()["completed_backlog"] == 0
        with pytest.raises(TimeoutError):
            ea.peek(timeout=0.01)
