"""Tests for the device peek() and the WaitAny machinery (paper IV-E.1)."""

import gc
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro import mpi
from repro.buffer import Buffer
from repro.mpjdev.request import CompletedRequest
from repro.mpjdev.waitany import WaitAny, WaitAnyQueue, waitany
from repro.runtime.launcher import run_spmd
from repro.testing import wait_until


def send_buffer(value):
    buf = Buffer()
    buf.write(np.array([value], dtype=np.int64))
    return buf


def park(*requests):
    """Make *requests* belong to a Waitany, as ``WaitAnyQueue`` does
    before it tests them: their completions become visible to peek()."""
    parked = WaitAny(requests)
    for r in requests:
        r.waitany_ref = parked


class TestPeek:
    def test_peek_returns_completed_request(self, job2):
        devs, pids = job2
        rbuf = Buffer()
        rreq = devs[1].irecv(rbuf, pids[0], 1, 0)
        park(rreq)
        devs[0].send(send_buffer(1), pids[1], 1, 0)
        rreq.wait(timeout=10)
        assert devs[1].peek(timeout=5) is rreq

    def test_peek_blocks_until_completion(self, job2):
        devs, pids = job2
        rbuf = Buffer()
        rreq = devs[1].irecv(rbuf, pids[0], 2, 0)
        out = {}

        def peeker():
            out["req"] = devs[1].peek(timeout=10)

        t = threading.Thread(target=peeker, daemon=True)
        t.start()
        # Only a blocked peeker makes a completion visible to peek():
        # send once it is parked, or the completion is not recorded.
        completions = getattr(devs[1], "engine", devs[1])._completions
        wait_until(lambda: completions.watched, timeout=10, message="peeker parked")
        # Nothing has completed, so peek must still be blocking — it
        # could only have returned by burning its whole 10 s timeout.
        assert "req" not in out
        devs[0].send(send_buffer(2), pids[1], 2, 0)
        t.join(10)
        assert out["req"] is rreq

    def test_peek_timeout(self, job2):
        devs, _pids = job2
        with pytest.raises(TimeoutError):
            devs[1].peek(timeout=0.05)

    def test_peek_most_recent_first(self, job2):
        """'returns the most recently completed Request object'."""
        devs, pids = job2
        bufs = [Buffer(), Buffer()]
        r0 = devs[1].irecv(bufs[0], pids[0], 10, 0)
        r1 = devs[1].irecv(bufs[1], pids[0], 11, 0)
        park(r0, r1)
        devs[0].send(send_buffer(0), pids[1], 10, 0)
        r0.wait(timeout=10)
        devs[0].send(send_buffer(1), pids[1], 11, 0)
        r1.wait(timeout=10)
        assert devs[1].peek(timeout=5) is r1
        assert devs[1].peek(timeout=5) is r0


class TestWaitAny:
    def test_returns_index_of_completed(self, job2):
        devs, pids = job2
        bufs = [Buffer() for _ in range(4)]
        reqs = [devs[1].irecv(bufs[i], pids[0], 20 + i, 0) for i in range(4)]
        devs[0].send(send_buffer(5), pids[1], 22, 0)
        idx, status = waitany(devs[1], reqs, timeout=10)
        assert idx == 2
        assert status.tag == 22

    def test_already_completed_short_circuit(self, job2):
        devs, pids = job2
        rbuf = Buffer()
        req = devs[1].irecv(rbuf, pids[0], 30, 0)
        devs[0].send(send_buffer(1), pids[1], 30, 0)
        req.wait(timeout=10)
        idx, _ = waitany(devs[1], [req], timeout=5)
        assert idx == 0

    def test_concurrent_first_calls_share_one_queue(self, monkeypatch):
        """The device's first Waitany calls race to create its queue.
        A second queue would mean a second front peeker, which can
        consume the other's completion and leave it waiting forever."""
        made = []
        real_init = WaitAnyQueue.__init__

        def slow_init(queue, device):
            made.append(queue)
            time.sleep(0.02)  # widen any check-then-set window
            real_init(queue, device)

        monkeypatch.setattr(WaitAnyQueue, "__init__", slow_init)
        device = SimpleNamespace()
        start = threading.Barrier(4)

        def caller():
            start.wait()
            waitany(device, [CompletedRequest()], timeout=5)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert len(made) == 1
        assert device._waitany_queue is made[0]

    def test_empty_list_rejected(self, job2):
        devs, _ = job2
        with pytest.raises(ValueError):
            waitany(devs[1], [], timeout=1)

    def test_timeout(self, job2):
        devs, pids = job2
        rbuf = Buffer()
        req = devs[1].irecv(rbuf, pids[0], 31, 0)
        with pytest.raises(TimeoutError):
            waitany(devs[1], [req], timeout=0.1)
        # Cleanup: satisfy the receive so teardown is orderly.
        devs[0].send(send_buffer(0), pids[1], 31, 0)
        req.wait(timeout=10)

    def test_multiple_threads_waitany_concurrently(self, job2):
        """The paper's scenario: 'multiple threads might be calling
        Waitany() at the same time' — the queue hands the peek duty
        around and every caller gets its own completion."""
        devs, pids = job2
        nthreads = 4
        results = {}
        errors = []
        reqs = {}
        bufs = {}
        for i in range(nthreads):
            bufs[i] = Buffer()
            reqs[i] = devs[1].irecv(bufs[i], pids[0], 40 + i, 0)

        def waiter(i):
            try:
                idx, status = waitany(devs[1], [reqs[i]], timeout=20)
                results[i] = (idx, status.tag)
            except Exception as exc:  # noqa: BLE001
                errors.append((i, exc))

        threads = [threading.Thread(target=waiter, args=(i,)) for i in range(nthreads)]
        for t in threads:
            t.start()
        wait_until(
            lambda: getattr(devs[1], "_waitany_queue", None) is not None
            and len(devs[1]._waitany_queue) == nthreads,
            timeout=10,
            message="all waitany callers enqueued",
        )
        for i in range(nthreads):
            devs[0].send(send_buffer(i), pids[1], 40 + i, 0)
        for t in threads:
            t.join(20)
        assert not errors
        assert results == {i: (0, 40 + i) for i in range(nthreads)}

    def test_foreign_completions_ignored(self, job2):
        """Scenario 3: completions with no WaitAny reference are skipped."""
        devs, pids = job2
        # A completion that belongs to no Waitany call:
        noise_buf = Buffer()
        noise = devs[1].irecv(noise_buf, pids[0], 50, 0)
        devs[0].send(send_buffer(0), pids[1], 50, 0)
        noise.wait(timeout=10)
        # Now a real waitany on a different request:
        rbuf = Buffer()
        req = devs[1].irecv(rbuf, pids[0], 51, 0)
        out = {}

        def waiter():
            out["r"] = waitany(devs[1], [req], timeout=10)

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        # Once the caller is enqueued its first peek (which sees only
        # the foreign noise completion) is already under way; satisfy
        # the real request only then.
        wait_until(
            lambda: getattr(devs[1], "_waitany_queue", None) is not None
            and len(devs[1]._waitany_queue) == 1,
            timeout=10,
            message="waitany enqueued",
        )
        devs[0].send(send_buffer(1), pids[1], 51, 0)
        t.join(10)
        idx, status = out["r"]
        assert idx == 0 and status.tag == 51

    def test_scenario2_front_wakes_other_waitany(self, job2):
        """The front WaitAny's peek returns a completion belonging to a
        QUEUED WaitAny: the front must remove and wake it, then keep
        peeking for its own (paper scenario 2)."""
        devs, pids = job2
        buf_front = Buffer()
        buf_queued = Buffer()
        req_front = devs[1].irecv(buf_front, pids[0], 70, 0)
        req_queued = devs[1].irecv(buf_queued, pids[0], 71, 0)

        results = {}
        order = []

        def waiter(name, req):
            idx, status = waitany(devs[1], [req], timeout=20)
            results[name] = status.tag
            order.append(name)

        def queued(n):
            # The queue attaches lazily on the first waitany call.
            q = getattr(devs[1], "_waitany_queue", None)
            return q is not None and len(q) == n

        t_front = threading.Thread(target=waiter, args=("front", req_front))
        t_front.start()
        # "front" must be at the head of the queue before the second
        # caller arrives; the queue length makes that observable.
        wait_until(lambda: queued(1), timeout=10, message="front enqueued")
        t_queued = threading.Thread(target=waiter, args=("queued", req_queued))
        t_queued.start()
        wait_until(lambda: queued(2), timeout=10, message="queued enqueued")
        # Satisfy the QUEUED one first: the front thread's peek gets it.
        devs[0].send(send_buffer(1), pids[1], 71, 0)
        t_queued.join(20)
        assert results.get("queued") == 71
        assert not results.get("front")
        # Now satisfy the front one.
        devs[0].send(send_buffer(2), pids[1], 70, 0)
        t_front.join(20)
        assert results.get("front") == 70
        assert order == ["queued", "front"]

    def test_concurrent_waitany_timeouts_leave_clean_state(self, job2):
        devs, pids = job2
        bufs = [Buffer(), Buffer()]
        reqs = [devs[1].irecv(bufs[i], pids[0], 80 + i, 0) for i in range(2)]
        outcomes = []

        def waiter(req):
            try:
                waitany(devs[1], [req], timeout=0.15)
                outcomes.append("completed")
            except TimeoutError:
                outcomes.append("timeout")

        threads = [threading.Thread(target=waiter, args=(r,)) for r in reqs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert outcomes == ["timeout", "timeout"]
        queue = devs[1]._waitany_queue
        assert len(queue) == 0
        # The machinery still works afterwards.
        devs[0].send(send_buffer(5), pids[1], 80, 0)
        idx, status = waitany(devs[1], [reqs[0]], timeout=10)
        assert status.tag == 80
        devs[0].send(send_buffer(6), pids[1], 81, 0)
        reqs[1].wait(timeout=10)

    def test_queue_len_returns_to_zero(self, job2):
        devs, pids = job2
        rbuf = Buffer()
        req = devs[1].irecv(rbuf, pids[0], 60, 0)
        devs[0].send(send_buffer(0), pids[1], 60, 0)
        waitany(devs[1], [req], timeout=10)
        queue: WaitAnyQueue = devs[1]._waitany_queue
        assert len(queue) == 0

    def test_waitany_ref_cleared_after_return(self, job2):
        devs, pids = job2
        rbuf = Buffer()
        req = devs[1].irecv(rbuf, pids[0], 61, 0)
        devs[0].send(send_buffer(0), pids[1], 61, 0)
        waitany(devs[1], [req], timeout=10)
        assert req.waitany_ref is None


def pingpong(comm, n):
    """*n* 8 B MPI round trips between ranks 0 and 1."""
    data = np.zeros(8, dtype=np.uint8)
    for _ in range(n):
        if comm.rank() == 0:
            comm.Send(data, 0, 8, mpi.BYTE, 1, 1)
            comm.Recv(data, 0, 8, mpi.BYTE, 1, 2)
        else:
            comm.Recv(data, 0, 8, mpi.BYTE, 0, 1)
            comm.Send(data, 0, 8, mpi.BYTE, 0, 2)


class TestNoBacklog:
    def test_pingpongs_leave_no_backlog(self):
        """Completions nobody can peek for are not recorded: 5 000 MPI
        ping-pongs leave an empty peek store and no memory behind."""
        pingpongs = 5000
        growth = {}

        def main(env):
            comm = env.COMM_WORLD
            rank = comm.rank()
            pingpong(comm, 100)  # pools and caches warm
            comm.Barrier()
            if rank == 0:
                gc.collect()
                tracemalloc.start()
            comm.Barrier()
            pingpong(comm, pingpongs)
            comm.Barrier()
            if rank == 0:
                gc.collect()
                growth["bytes"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.stop()
            return env.device.introspect()["completed_backlog"]

        assert run_spmd(main, 2, device="smdev", timeout=120) == [0, 0]
        assert growth["bytes"] < 1 << 20

    # ibisdev's receive threads poll at 1 ms: fewer round trips.
    @pytest.mark.parametrize("device, round_trips", [("mxdev", 2000), ("ibisdev", 300)])
    def test_no_device_keeps_unwatched_completions(self, device, round_trips):
        """The same contract off smdev: the engine under mxdev's name,
        and ibisdev, the one device outside the engine."""

        def main(env):
            pingpong(env.COMM_WORLD, round_trips)
            env.COMM_WORLD.Barrier()
            return env.device.introspect().get("completed_backlog")

        assert run_spmd(main, 2, device=device, timeout=120) == [0, 0]
