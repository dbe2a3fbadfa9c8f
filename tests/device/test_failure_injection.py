"""Failure injection: malformed frames, protocol violations, teardown.

A production-quality device layer must fail loudly and locally on
protocol violations, and must survive peers disappearing.
"""

import socket
import struct
import time

import numpy as np
import pytest

from repro.buffer import Buffer, BufferFormatError
from repro.xdev.exceptions import DuplicateControlFrameError, XDevException
from repro.xdev.frames import HEADER_SIZE, FrameHeader, FrameType
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import ProtocolEngine, Transport

from tests.conftest import make_job


class _NullTransport(Transport):
    """Transport that records writes and never delivers anything."""

    def __init__(self) -> None:
        self.writes: list[tuple[ProcessID, bytes]] = []

    def start(self, engine) -> None:
        self.engine = engine

    def write(self, dest, segments, route=0, on_delivered=None) -> None:
        self.writes.append((dest, b"".join(bytes(s) for s in segments)))
        if on_delivered is not None:
            on_delivered()  # consuming transport: the bytes were copied

    def close(self) -> None:
        pass


@pytest.fixture
def engine():
    pid = ProcessID(uid=0)
    transport = _NullTransport()
    eng = ProtocolEngine(pid, transport)
    transport.start(eng)
    return eng


class TestProtocolViolations:
    def test_rtr_for_unknown_send_id(self, engine):
        header = FrameHeader(FrameType.RTR, 0, 0, send_id=999, recv_id=1, payload_len=0)
        with pytest.raises(XDevException, match="unknown send id"):
            engine.handle_frame(ProcessID(uid=1), header, b"")

    def test_rendezvous_data_for_unknown_recv_id(self, engine):
        header = FrameHeader(
            FrameType.RNDZ_DATA, 0, 0, send_id=0, recv_id=777, payload_len=0
        )
        with pytest.raises(XDevException, match="unknown recv id"):
            engine.handle_frame(ProcessID(uid=1), header, b"")

    def test_bye_frame_is_harmless(self, engine):
        header = FrameHeader(FrameType.BYE, 0, 0, 0, 0, 0)
        engine.handle_frame(ProcessID(uid=1), header, b"")  # no raise

    def test_corrupt_eager_payload_fails_on_delivery(self, engine):
        rbuf = Buffer()
        engine.irecv(rbuf, ProcessID(uid=1), 1, 0)
        header = FrameHeader(FrameType.EAGER, 0, 1, 0, 0, payload_len=5)
        with pytest.raises(BufferFormatError):
            engine.handle_frame(ProcessID(uid=1), header, b"xxxxx")


class TestDuplicateControlFrames:
    """Regression tests for the duplicate-RTS wedge.

    Before the engine tracked active rendezvous handshakes, a
    duplicated RTS would claim (and forever wedge) a second posted
    receive, and a duplicated RTR would complete the send request
    twice.  Both must now be rejected loudly without consuming
    protocol state.
    """

    SRC = ProcessID(uid=1)

    def _rts(self, send_id=10, tag=1, size=4096):
        # RTS frames advertise the payload size in recv_id.
        return FrameHeader(
            FrameType.RTS, 0, tag, send_id=send_id, recv_id=size, payload_len=0
        )

    def test_duplicate_rts_does_not_claim_second_recv(self, engine):
        first, second = Buffer(), Buffer()
        engine.irecv(first, self.SRC, 1, 0)
        engine.irecv(second, self.SRC, 1, 0)
        engine.handle_frame(self.SRC, self._rts(), b"")
        assert engine.pending_recv_count() == 1
        assert len(engine.transport.writes) == 1  # the RTR

        with pytest.raises(DuplicateControlFrameError, match="duplicate RTS"):
            engine.handle_frame(self.SRC, self._rts(), b"")
        # The second posted receive survives, no second RTR went out.
        assert engine.pending_recv_count() == 1
        assert len(engine.transport.writes) == 1
        assert engine.stats["duplicate_control_frames"] == 1

    def test_duplicate_unexpected_rts_rejected(self, engine):
        engine.handle_frame(self.SRC, self._rts(), b"")
        assert engine.unexpected_count() == 1
        with pytest.raises(DuplicateControlFrameError):
            engine.handle_frame(self.SRC, self._rts(), b"")
        assert engine.unexpected_count() == 1

    def test_duplicate_rtr_cannot_complete_send_twice(self, engine):
        big = Buffer(capacity=engine.eager_threshold * 2)
        big.write(np.zeros(engine.eager_threshold // 8 + 16, dtype=np.int64))
        sreq = engine.isend(big, self.SRC, 3, 0)
        _dest, rts_bytes = engine.transport.writes[0]
        send_id = FrameHeader.decode(rts_bytes[:HEADER_SIZE]).send_id

        rtr = FrameHeader(FrameType.RTR, 0, 3, send_id=send_id, recv_id=7, payload_len=0)
        engine.handle_frame(self.SRC, rtr, b"")
        # Completed by the first RTR, on the rendezvous write thread.
        sreq.wait(timeout=10)
        with pytest.raises(DuplicateControlFrameError, match="unknown send id"):
            engine.handle_frame(self.SRC, rtr, b"")
        assert engine.stats["duplicate_control_frames"] == 1

    def test_handshake_state_retires_after_rendezvous_data(self, engine):
        """Completed handshakes are forgotten — send ids may recycle."""
        rbuf = Buffer()
        engine.irecv(rbuf, self.SRC, 1, 0)
        engine.handle_frame(self.SRC, self._rts(send_id=77), b"")
        _dest, rtr_bytes = engine.transport.writes[0]
        recv_id = FrameHeader.decode(rtr_bytes[:HEADER_SIZE]).recv_id

        payload_buf = Buffer()
        payload_buf.write(np.array([1, 2, 3], dtype=np.int64))
        wire = payload_buf.to_wire()
        data = FrameHeader(
            FrameType.RNDZ_DATA, 0, 1, send_id=0, recv_id=recv_id,
            payload_len=len(wire),
        )
        engine.handle_frame(self.SRC, data, wire)
        assert not engine._active_rts
        # The same send id arriving fresh is a new handshake, not a dup.
        rbuf2 = Buffer()
        engine.irecv(rbuf2, self.SRC, 1, 0)
        engine.handle_frame(self.SRC, self._rts(send_id=77), b"")
        assert engine.stats["duplicate_control_frames"] == 0


class TestSocketFailures:
    def test_peer_disappearing_does_not_kill_input_handler(self):
        """An abrupt disconnect must drop the channel, not the thread."""
        devices, pids = make_job("niodev", 2)
        try:
            # Sneak an extra raw connection into rank 1's listener and
            # slam it shut mid-handshake.
            addr = pids[1].address
            sock = socket.create_connection(addr, timeout=5)
            sock.send(struct.pack("<i", 0))  # valid handshake
            sock.close()
            time.sleep(0.1)
            # Traffic still flows afterwards.
            buf = Buffer()
            buf.write(np.array([5], dtype=np.int64))
            devices[0].send(buf, pids[1], 1, 0)
            rbuf = Buffer()
            devices[1].recv(rbuf, pids[0], 1, 0)
            assert rbuf.read_section().tolist() == [5]
        finally:
            for d in devices:
                d.finish()

    def test_garbage_handshake_rejected(self):
        devices, pids = make_job("niodev", 1)
        try:
            addr = pids[0].address
            sock = socket.create_connection(addr, timeout=5)
            sock.send(struct.pack("<i", 424242))  # impossible rank
            time.sleep(0.1)
            # The device survives; self-traffic still works.
            buf = Buffer()
            buf.write(np.array([1], dtype=np.int8))
            devices[0].send(buf, pids[0], 1, 0)
            rbuf = Buffer()
            devices[0].recv(rbuf, pids[0], 1, 0)
            sock.close()
        finally:
            devices[0].finish()


class TestDoubleFinish:
    def test_finish_is_idempotent(self):
        for name in ("smdev", "mxdev", "ibisdev", "niodev"):
            devices, _pids = make_job(name, 1)
            devices[0].finish()
            devices[0].finish()  # second call must not raise


class TestEngineAfterClose:
    def test_send_after_transport_close_raises(self):
        devices, pids = make_job("smdev", 2)
        devices[0].finish()
        buf = Buffer()
        buf.write(np.array([1], dtype=np.int8))
        with pytest.raises(XDevException):
            devices[0].send(buf, pids[1], 1, 0)
        devices[1].finish()
