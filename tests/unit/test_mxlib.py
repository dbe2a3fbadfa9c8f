"""The Myrinet eXpress contract the paper's mxdev leans on.

mxdev needs no protocol code because MX "implements message matching
and the communication protocols internally" and is thread-safe
(Section IV-A.3).  mxdev is the protocol engine under the paper's
name, so these tests hold the engine, reached through ``mxdev``, to
that contract: endpoints, matching with wildcards, standard and
synchronous sends, gather-sends, test/wait/peek/probe completion and
thread-safe sending.
"""

import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.mpjdev.waitany import WaitAny
from repro.testing import wait_until
from repro.xdev import DeviceConfig, new_instance
from repro.xdev.constants import ANY_SOURCE, ANY_TAG
from repro.xdev.exceptions import ConnectionSetupError, XDevException
from repro.xdev.smdev import SMFabric

from tests.conftest import make_job


def message(*values, obj=None):
    buf = Buffer()
    buf.write(np.array(values, dtype=np.int64))
    if obj is not None:
        buf.write_object(obj)
    return buf


def values(buf):
    return buf.read_section().tolist()


@pytest.fixture
def mx():
    devices, pids = make_job("mxdev", 2)
    yield devices, pids
    for d in devices:
        d.finish()


class TestLifecycle:
    def test_use_before_init_raises(self):
        dev = new_instance("mxdev")
        with pytest.raises(XDevException):
            dev.id()
        with pytest.raises(XDevException):
            dev.irecv(Buffer(), ANY_SOURCE, 1, 0)

    def test_connect_unknown_endpoint(self):
        config = DeviceConfig(rank=5, nprocs=2, fabric=SMFabric(2))
        with pytest.raises(ConnectionSetupError):
            new_instance("mxdev").init(config)

    def test_connect_known(self, mx):
        devs, pids = mx
        assert [d.id() for d in devs] == pids
        assert devs[0].engine is not devs[1].engine


class TestSendRecv:
    def test_recv_first(self, mx):
        devs, pids = mx
        rbuf = Buffer()
        r = devs[1].irecv(rbuf, pids[0], 7, 0)
        devs[0].isend(message(42), pids[1], 7, 0)
        status = r.wait(timeout=5)
        assert values(rbuf) == [42]
        assert status.source == pids[0]
        assert status.tag == 7

    def test_send_first_unexpected_queue(self, mx):
        devs, pids = mx
        sent = message(1, 2, 3, 4, 5)
        devs[0].isend(sent, pids[1], 3, 0)
        assert devs[1].engine.introspect_queues()["unexpected_messages"] == 1
        rbuf = Buffer()
        status = devs[1].irecv(rbuf, pids[0], 3, 0).wait(timeout=5)
        assert status.size == sent.size
        assert values(rbuf) == [1, 2, 3, 4, 5]

    def test_segment_list_gathered(self, mx):
        """Both buffer sections go in one gather-send and arrive whole."""
        devs, pids = mx
        devs[0].isend(message(9, obj={"k": "v"}), pids[1], 1, 0)
        rbuf = Buffer()
        devs[1].irecv(rbuf, pids[0], 1, 0).wait(timeout=5)
        assert values(rbuf) == [9]
        assert rbuf.read_object() == {"k": "v"}

    def test_standard_send_completes_immediately(self, mx):
        devs, pids = mx
        s = devs[0].isend(message(1), pids[1], 1, 0)
        assert s.done  # no receive posted yet
        devs[1].recv(Buffer(), pids[0], 1, 0)

    def test_sync_send_completes_on_match(self, mx):
        devs, pids = mx
        s = devs[0].issend(message(1), pids[1], 1, 0)
        assert not s.done
        devs[1].irecv(Buffer(), pids[0], 1, 0).wait(timeout=5)
        assert s.wait(timeout=5) is not None


class TestMatching:
    def test_mask_wildcards(self, mx):
        devs, pids = mx
        devs[0].isend(message(1), pids[1], 0xABCD, 0)
        status = devs[1].irecv(Buffer(), ANY_SOURCE, ANY_TAG, 0).wait(timeout=5)
        assert status.tag == 0xABCD
        assert status.source == pids[0]

    def test_no_match_on_masked_mismatch(self, mx):
        devs, pids = mx
        devs[0].isend(message(1), pids[1], 0x1200, 0)
        r = devs[1].irecv(Buffer(), ANY_SOURCE, 0x3400, 0)
        assert r.test() is None
        r_ctx = devs[1].irecv(Buffer(), pids[0], 0x1200, 1)
        assert r_ctx.test() is None  # same tag, other context
        devs[1].recv(Buffer(), pids[0], 0x1200, 0)
        devs[0].send(message(2), pids[1], 0x3400, 0)
        devs[0].send(message(3), pids[1], 0x1200, 1)
        r.wait(timeout=5)
        r_ctx.wait(timeout=5)

    def test_fifo_per_match(self, mx):
        devs, pids = mx
        for i in range(3):
            devs[0].isend(message(i), pids[1], 9, 0)
        got = []
        for _ in range(3):
            rbuf = Buffer()
            devs[1].irecv(rbuf, pids[0], 9, 0).wait(timeout=5)
            got.append(values(rbuf))
        assert got == [[0], [1], [2]]


class TestCompletion:
    def test_test_is_nonblocking(self, mx):
        devs, pids = mx
        r = devs[1].irecv(Buffer(), pids[0], 1, 0)
        assert r.test() is None
        devs[0].send(message(1), pids[1], 1, 0)
        r.wait(timeout=5)

    def test_wait_timeout(self, mx):
        devs, pids = mx
        r = devs[1].irecv(Buffer(), pids[0], 1, 0)
        with pytest.raises(TimeoutError):
            r.wait(timeout=0.05)
        devs[0].send(message(1), pids[1], 1, 0)
        r.wait(timeout=5)

    def test_peek_returns_completed(self, mx):
        devs, pids = mx
        r = devs[1].irecv(Buffer(), pids[0], 5, 0)
        r.waitany_ref = WaitAny([r])  # parked, as Waitany parks it
        devs[0].send(message(1), pids[1], 5, 0)
        r.wait(timeout=5)
        assert devs[1].peek(timeout=5) is r

    def test_peek_blocks_until_completion(self, mx):
        devs, pids = mx
        r = devs[1].irecv(Buffer(), pids[0], 5, 0)
        out = {}

        def peeker():
            out["req"] = devs[1].peek(timeout=5)

        t = threading.Thread(target=peeker)
        t.start()
        wait_until(lambda: devs[1].engine._completions.watched, message="peeking")
        devs[0].send(message(1), pids[1], 5, 0)
        t.join(10)
        assert out["req"] is r

    def test_probe(self, mx):
        devs, pids = mx
        assert devs[1].iprobe(pids[0], 4, 0) is None
        sent = message(7, 8)
        devs[0].send(sent, pids[1], 4, 0)
        st = devs[1].iprobe(pids[0], 4, 0)
        assert st is not None and st.size == sent.size and st.tag == 4
        devs[1].recv(Buffer(), pids[0], 4, 0)

    def test_probe_timeout(self, mx):
        """A blocking probe does not return while nothing matches."""
        devs, pids = mx
        out = {}
        t = threading.Thread(
            target=lambda: out.setdefault("st", devs[1].probe(pids[0], 4, 0))
        )
        t.start()
        t.join(0.05)
        assert t.is_alive() and "st" not in out
        devs[0].send(message(1), pids[1], 4, 0)
        t.join(10)
        assert out["st"].tag == 4
        devs[1].recv(Buffer(), pids[0], 4, 0)


class TestThreadSafety:
    def test_concurrent_senders(self, mx):
        devs, pids = mx
        n = 50

        def sender(i):
            devs[0].isend(message(i), pids[1], 1, 0)

        threads = [threading.Thread(target=sender, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        got = set()
        for _ in range(n):
            rbuf = Buffer()
            devs[1].irecv(rbuf, pids[0], 1, 0).wait(timeout=5)
            got.update(values(rbuf))
        assert got == set(range(n))
