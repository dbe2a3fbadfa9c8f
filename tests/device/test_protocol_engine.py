"""White-box tests of the protocol engine (eager/rendezvous internals)."""

import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.xdev.exceptions import XDevException
from repro.testing import wait_until
from repro.xdev.protocol import (
    DEFAULT_EAGER_THRESHOLD,
    MODE_BUFFERED,
    MODE_READY,
    MODE_STANDARD,
    MODE_SYNC,
)

from tests.conftest import make_job


def send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


@pytest.fixture
def smjob():
    devices, pids = make_job("smdev", 2)
    yield devices, pids
    for d in devices:
        d.finish()


class TestProtocolSelection:
    def test_default_threshold_is_128k(self):
        assert DEFAULT_EAGER_THRESHOLD == 128 * 1024

    def test_small_message_uses_eager(self, smjob):
        devs, pids = smjob
        devs[0].send(send_buffer(np.zeros(8, dtype=np.int8)), pids[1], 1, 0)
        assert devs[0].engine.stats["eager_sends"] == 1
        assert devs[0].engine.stats["rendezvous_sends"] == 0

    def test_large_message_uses_rendezvous(self, smjob):
        devs, pids = smjob
        big = np.zeros(DEFAULT_EAGER_THRESHOLD, dtype=np.int8)  # > threshold on wire
        t = threading.Thread(
            target=lambda: devs[0].send(send_buffer(big), pids[1], 1, 0)
        )
        t.start()
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 1, 0)
        t.join(20)
        assert devs[0].engine.stats["rendezvous_sends"] == 1

    def test_eager_send_is_non_pending(self, smjob):
        """Fig. 3: 'return a non-pending send request object'."""
        devs, pids = smjob
        req = devs[0].isend(send_buffer(np.zeros(4, dtype=np.int8)), pids[1], 1, 0)
        assert req.done

    def test_rendezvous_send_is_pending(self, smjob):
        devs, pids = smjob
        big = np.zeros(256 * 1024, dtype=np.int8)
        req = devs[0].isend(send_buffer(big), pids[1], 1, 0)
        assert not req.done
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 1, 0)
        req.wait(timeout=20)

    def test_custom_threshold(self):
        devices, pids = make_job("smdev", 2, options={"eager_threshold": 64})
        try:
            data = np.zeros(128, dtype=np.int8)  # > 64B threshold
            t = threading.Thread(
                target=lambda: devices[0].send(send_buffer(data), pids[1], 1, 0)
            )
            t.start()
            rbuf = Buffer()
            devices[1].recv(rbuf, pids[0], 1, 0)
            t.join(10)
            assert devices[0].engine.stats["rendezvous_sends"] == 1
        finally:
            for d in devices:
                d.finish()


class TestSendModes:
    def test_ready_mode_always_eager(self, smjob):
        devs, pids = smjob
        big = np.zeros(256 * 1024, dtype=np.int8)
        rbuf = Buffer()
        rreq = devs[1].irecv(rbuf, pids[0], 1, 0)  # pre-posted, as ready requires
        req = devs[0].engine.isend(send_buffer(big), pids[1], 1, 0, mode=MODE_READY)
        rreq.wait(timeout=20)
        req.wait(timeout=20)
        assert devs[0].engine.stats["eager_sends"] == 1

    def test_buffered_mode_snapshots_data(self, smjob):
        devs, pids = smjob
        data = np.array([1, 2, 3], dtype=np.int64)
        buf = send_buffer(data)
        req = devs[0].engine.isend(buf, pids[1], 1, 0, mode=MODE_BUFFERED)
        data[:] = 0  # mutate after send: must not affect the message
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 1, 0)
        req.wait(timeout=10)
        assert rbuf.read_section().tolist() == [1, 2, 3]

    def test_sync_mode_is_rendezvous(self, smjob):
        devs, pids = smjob
        req = devs[0].engine.isend(
            send_buffer(np.array([1], dtype=np.int8)), pids[1], 1, 0, mode=MODE_SYNC
        )
        assert devs[0].engine.stats["rendezvous_sends"] == 1
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 1, 0)
        req.wait(timeout=10)

    def test_unknown_mode_rejected(self, smjob):
        devs, pids = smjob
        with pytest.raises(XDevException):
            devs[0].engine.isend(
                send_buffer(np.array([1], dtype=np.int8)), pids[1], 1, 0, mode="psychic"
            )

    def test_all_mode_constants_distinct(self):
        assert len({MODE_STANDARD, MODE_SYNC, MODE_READY, MODE_BUFFERED}) == 4


class TestUnexpectedMessages:
    def test_unexpected_counted_and_drained(self, smjob):
        devs, pids = smjob
        devs[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 9, 0)
        # Wait until the input handler has filed it.
        wait_until(
            lambda: devs[1].engine.unexpected_count() == 1,
            timeout=10,
            message="unexpected message filed",
        )
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 9, 0)
        assert devs[1].engine.unexpected_count() == 0

    def test_pending_recv_counted(self, smjob):
        devs, pids = smjob
        rbuf = Buffer()
        req = devs[1].irecv(rbuf, pids[0], 10, 0)
        assert devs[1].engine.pending_recv_count() == 1
        devs[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 10, 0)
        req.wait(timeout=10)
        assert devs[1].engine.pending_recv_count() == 0


class TestRendezvousWriterAblation:
    def test_unforked_writer_still_correct_one_direction(self):
        """With fork_rendezvous_writer=False, niodev's input handler
        writes the data itself: still byte-exact for one-directional
        large traffic (the deadlock only bites on simultaneous
        bidirectional sends), and no writer thread is forked.  niodev
        is the device where the option changes behaviour; smdev never
        forks a writer."""
        devices, pids = make_job(
            "niodev", 2, options={"fork_rendezvous_writer": False}
        )
        try:
            big = np.random.default_rng(7).integers(0, 256, 1 << 20, dtype=np.uint8)
            t = threading.Thread(
                target=lambda: devices[0].send(send_buffer(big), pids[1], 1, 0)
            )
            t.start()
            rbuf = Buffer(capacity=big.nbytes + 64)
            devices[1].recv(rbuf, pids[0], 1, 0)
            t.join(20)
            assert not t.is_alive()
            assert rbuf.read_section().tobytes() == big.tobytes()
            assert devices[0].engine.stats["rendezvous_writer_threads"] == 0
        finally:
            for d in devices:
                d.finish()

    def test_forked_writer_spawns_thread(self):
        # niodev's input handler delivers the RTR through handle_frame,
        # so the data write goes to exactly one forked writer (Fig. 8).
        # smdev answers an RTR on its delivering thread and forks none.
        devs, pids = make_job("niodev", 2)
        try:
            big = np.zeros(256 * 1024, dtype=np.int8)
            t = threading.Thread(
                target=lambda: devs[0].send(send_buffer(big), pids[1], 1, 0)
            )
            t.start()
            rbuf = Buffer()
            devs[1].recv(rbuf, pids[0], 1, 0)
            t.join(20)
            assert not t.is_alive()
            assert devs[0].engine.stats["rendezvous_writer_threads"] == 1
        finally:
            for d in devs:
                d.finish()


class TestRendezvousWriteOnDeliveringThread:
    """An RTR delivered through ``deliver_segments`` (smdev, mxdev,
    niodev's rank-to-self frames) is answered on the delivering thread:
    the data is written without forking a rendez-write-thread."""

    @pytest.mark.parametrize("order", ["posted_first", "rts_first"])
    @pytest.mark.parametrize(
        "device,nprocs", [("smdev", 2), ("mxdev", 2), ("niodev", 1)]
    )
    def test_no_writer_thread(self, device, nprocs, order):
        devs, pids = make_job(device, nprocs)
        sender, receiver = devs[0], devs[-1]
        try:
            payload = np.arange(1 << 20, dtype=np.uint8)
            rbuf = Buffer(capacity=payload.nbytes + 64)
            if order == "posted_first":
                rreq = receiver.irecv(rbuf, pids[0], 4, 0)
                sreq = sender.isend(send_buffer(payload), pids[-1], 4, 0)
            else:
                sreq = sender.isend(send_buffer(payload), pids[-1], 4, 0)
                assert receiver.engine.stats["unexpected_messages"] == 1
                rreq = receiver.irecv(rbuf, pids[0], 4, 0)
            rreq.wait(timeout=20)
            assert sreq.wait(timeout=20) is not None
            out = np.empty_like(payload)
            rbuf.read_section(out=out)
            np.testing.assert_array_equal(out, payload)
            assert sender.engine.stats["rendezvous_sends"] == 1
            assert sender.engine.stats["rendezvous_writer_threads"] == 0
        finally:
            for d in devs:
                d.finish()
