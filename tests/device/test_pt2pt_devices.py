"""Device-generic point-to-point tests, run on every xdev device.

These exercise the Fig. 2 API surface uniformly: whatever the
transport (sockets, shared memory, rings, thread-per-message), the
semantics must be identical.
"""

import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.testing import wait_until
from repro.xdev.constants import ANY_SOURCE, ANY_TAG


def send_buffer(data, obj=None):
    buf = Buffer(capacity=getattr(data, "nbytes", 64) + 64)
    buf.write(data)
    if obj is not None:
        buf.write_object(obj)
    return buf


def spawn(fn, *args):
    t = threading.Thread(target=fn, args=args, daemon=True)
    t.start()
    return t


class TestBlocking:
    def test_small_message_roundtrip(self, job2):
        devs, pids = job2
        data = np.arange(16, dtype=np.int32)
        t = spawn(lambda: devs[0].send(send_buffer(data), pids[1], 1, 0))
        rbuf = Buffer()
        status = devs[1].recv(rbuf, pids[0], 1, 0)
        t.join(10)
        np.testing.assert_array_equal(rbuf.read_section(), data)
        assert status.source.uid == pids[0].uid
        assert status.tag == 1

    def test_large_message_roundtrip(self, job2):
        """Crosses the 128 KB eager threshold: rendezvous path."""
        devs, pids = job2
        data = np.random.default_rng(1).random(64 * 1024)  # 512 KB
        t = spawn(lambda: devs[0].send(send_buffer(data), pids[1], 2, 0))
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 2, 0)
        t.join(30)
        np.testing.assert_array_equal(rbuf.read_section(), data)

    def test_object_payload(self, job2):
        devs, pids = job2
        payload = {"nested": [1, (2, 3)], "s": "x" * 100}
        t = spawn(
            lambda: devs[0].send(
                send_buffer(np.array([0], dtype=np.int8), obj=payload), pids[1], 3, 0
            )
        )
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 3, 0)
        t.join(10)
        rbuf.read_section()
        assert rbuf.read_object() == payload

    def test_self_send(self, job2):
        devs, pids = job2
        req = devs[0].isend(send_buffer(np.array([7], dtype=np.int64)), pids[0], 4, 0)
        rbuf = Buffer()
        devs[0].recv(rbuf, pids[0], 4, 0)
        req.wait(timeout=10)
        assert rbuf.read_section().tolist() == [7]


class TestNonBlocking:
    def test_irecv_before_send(self, job2):
        devs, pids = job2
        rbuf = Buffer()
        rreq = devs[1].irecv(rbuf, pids[0], 5, 0)
        assert not rreq.done
        devs[0].send(send_buffer(np.array([1.5])), pids[1], 5, 0)
        status = rreq.wait(timeout=10)
        assert status.tag == 5
        assert rbuf.read_section().tolist() == [1.5]

    def test_isend_completion(self, job2):
        devs, pids = job2
        sreq = devs[0].isend(send_buffer(np.array([1], dtype=np.int32)), pids[1], 6, 0)
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 6, 0)
        assert sreq.wait(timeout=10) is not None

    def test_many_outstanding_recvs_complete_in_any_order(self, job2):
        devs, pids = job2
        n = 8
        bufs = [Buffer() for _ in range(n)]
        reqs = [devs[1].irecv(bufs[i], pids[0], 100 + i, 0) for i in range(n)]

        def sender():
            for i in reversed(range(n)):
                devs[0].send(
                    send_buffer(np.array([i], dtype=np.int32)), pids[1], 100 + i, 0
                )

        t = spawn(sender)
        for i, req in enumerate(reqs):
            req.wait(timeout=20)
            assert bufs[i].read_section().tolist() == [i]
        t.join(10)


class TestMatching:
    def test_any_source(self, job2):
        devs, pids = job2
        t = spawn(lambda: devs[0].send(send_buffer(np.array([3])), pids[1], 7, 0))
        rbuf = Buffer()
        status = devs[1].recv(rbuf, ANY_SOURCE, 7, 0)
        t.join(10)
        assert status.source.uid == pids[0].uid

    def test_any_tag(self, job2):
        devs, pids = job2
        t = spawn(lambda: devs[0].send(send_buffer(np.array([3])), pids[1], 77, 0))
        rbuf = Buffer()
        status = devs[1].recv(rbuf, pids[0], ANY_TAG, 0)
        t.join(10)
        assert status.tag == 77

    def test_tag_selectivity(self, job2):
        devs, pids = job2
        devs[0].send(send_buffer(np.array([1], dtype=np.int32)), pids[1], 10, 0)
        devs[0].send(send_buffer(np.array([2], dtype=np.int32)), pids[1], 20, 0)
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 20, 0)
        assert rbuf.read_section().tolist() == [2]
        rbuf2 = Buffer()
        devs[1].recv(rbuf2, pids[0], 10, 0)
        assert rbuf2.read_section().tolist() == [1]

    def test_context_selectivity(self, job2):
        devs, pids = job2
        devs[0].send(send_buffer(np.array([1], dtype=np.int32)), pids[1], 5, 11)
        devs[0].send(send_buffer(np.array([2], dtype=np.int32)), pids[1], 5, 22)
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 5, 22)
        assert rbuf.read_section().tolist() == [2]
        rbuf2 = Buffer()
        devs[1].recv(rbuf2, pids[0], 5, 11)
        assert rbuf2.read_section().tolist() == [1]

    def test_fifo_order_same_envelope(self, job2):
        devs, pids = job2
        for i in range(10):
            devs[0].send(send_buffer(np.array([i], dtype=np.int32)), pids[1], 9, 0)
        got = []
        for _ in range(10):
            rbuf = Buffer()
            devs[1].recv(rbuf, pids[0], 9, 0)
            got.append(int(rbuf.read_section()[0]))
        assert got == list(range(10))


class TestSynchronousMode:
    def test_ssend_blocks_until_matched(self, job2):
        devs, pids = job2
        started = threading.Event()
        finished = threading.Event()

        def sender():
            started.set()
            devs[0].ssend(send_buffer(np.array([1], dtype=np.int8)), pids[1], 8, 0)
            finished.set()

        t = spawn(sender)
        started.wait(5)
        assert not finished.wait(0.2), "ssend completed before the receive"
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 8, 0)
        assert finished.wait(10)
        t.join(5)

    def test_issend_request_pending_until_match(self, job2):
        devs, pids = job2
        req = devs[0].issend(send_buffer(np.array([1], dtype=np.int8)), pids[1], 8, 0)
        assert req.test() is None
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 8, 0)
        assert req.wait(timeout=10) is not None


class TestProbe:
    def test_iprobe_none_when_empty(self, job2):
        devs, pids = job2
        assert devs[1].iprobe(pids[0], 55, 0) is None

    def test_iprobe_sees_pending(self, job2):
        devs, pids = job2
        devs[0].send(send_buffer(np.arange(4, dtype=np.float64)), pids[1], 55, 0)
        # Wait for arrival (probe is non-blocking).
        wait_until(
            lambda: devs[1].iprobe(pids[0], 55, 0) is not None,
            timeout=10,
            message="message arrival visible to iprobe",
        )
        status = devs[1].iprobe(pids[0], 55, 0)
        assert status.tag == 55
        assert status.size == 5 + 32  # section header + 4 doubles

    def test_probe_blocks_then_returns(self, job2):
        devs, pids = job2
        t = spawn(lambda: devs[0].send(send_buffer(np.array([1])), pids[1], 56, 0))
        status = devs[1].probe(ANY_SOURCE, ANY_TAG, 0)
        t.join(10)
        assert status.tag == 56
        # Probe did not consume: the recv still gets the message.
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 56, 0)


class TestFinish:
    def test_operations_after_finish_raise(self, job2):
        devs, pids = job2
        from repro.xdev.exceptions import XDevException

        devs[0].finish()
        with pytest.raises(XDevException):
            devs[0].isend(send_buffer(np.array([1])), pids[1], 1, 0)
