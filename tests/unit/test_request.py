"""Unit tests for mpjdev Request/Status completion semantics."""

import sys
import threading

import numpy as np
import pytest

from repro import mpi
from repro.mpjdev.request import CompletedRequest, Request, Status
from repro.mpjdev.waitany import waitany
from repro.runtime.launcher import run_spmd
from repro.testing import wait_until
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import ProtocolEngine, Transport

#: Rounds of the Waitany publish/complete race (a fresh request each).
ITERATIONS = 10_000


class TestCompletion:
    def test_starts_pending(self):
        req = Request(Request.RECV)
        assert not req.done
        assert req.test() is None

    def test_complete_sets_status(self):
        req = Request(Request.SEND)
        req.complete(Status(tag=5, size=10))
        assert req.done
        assert req.test().tag == 5

    def test_double_complete_raises(self):
        req = Request(Request.SEND)
        req.complete(Status())
        with pytest.raises(RuntimeError):
            req.complete(Status())

    def test_wait_returns_status(self):
        req = Request(Request.RECV)
        req.complete(Status(size=3))
        assert req.wait().size == 3

    def test_wait_blocks_until_complete(self):
        req = Request(Request.RECV)
        out = {}

        def waiter():
            out["status"] = req.wait(timeout=5)

        t = threading.Thread(target=waiter)
        t.start()
        # wait() cannot have returned: the request is incomplete and
        # the only other exit is its 5 s timeout.
        assert "status" not in out
        req.complete(Status(tag=1))
        t.join(5)
        assert out["status"].tag == 1

    def test_wait_timeout(self):
        req = Request(Request.RECV)
        with pytest.raises(TimeoutError):
            req.wait(timeout=0.05)

    def test_mpijava_spellings(self):
        req = Request(Request.SEND)
        assert req.Test() is None
        req.complete(Status())
        assert req.Wait() is not None


class TestListeners:
    def test_listener_runs_on_completion(self):
        req = Request(Request.SEND)
        seen = []
        req.add_completion_listener(seen.append)
        assert not seen
        req.complete(Status())
        assert seen == [req]

    def test_listener_after_completion_runs_immediately(self):
        req = Request(Request.SEND)
        req.complete(Status())
        seen = []
        req.add_completion_listener(seen.append)
        assert seen == [req]

    def test_multiple_listeners_all_run(self):
        req = Request(Request.SEND)
        seen = []
        for _ in range(3):
            req.add_completion_listener(lambda r: seen.append(r))
        req.complete(Status())
        assert len(seen) == 3

    def test_listener_registration_race(self):
        """A listener added concurrently with completion never gets lost."""
        for _ in range(50):
            req = Request(Request.SEND)
            seen = []
            barrier = threading.Barrier(2)

            def add():
                barrier.wait()
                req.add_completion_listener(seen.append)

            def finish():
                barrier.wait()
                req.complete(Status())

            t1 = threading.Thread(target=add)
            t2 = threading.Thread(target=finish)
            t1.start(); t2.start()
            t1.join(); t2.join()
            assert seen == [req]


class TestSequencing:
    def test_seqnos_strictly_increasing(self):
        a, b, c = Request("send"), Request("recv"), Request("send")
        assert a.seqno < b.seqno < c.seqno

    def test_waitany_ref_default_none(self):
        # "Otherwise, the WaitAny object reference in Request object is
        # null" (paper IV-E.1).
        assert Request(Request.RECV).waitany_ref is None


class TestCompletedRequest:
    def test_born_done(self):
        req = CompletedRequest()
        assert req.done
        assert req.wait(timeout=0) is not None

    def test_carries_given_status(self):
        req = CompletedRequest(status=Status(tag=9))
        assert req.test().tag == 9


def spin(n):
    """Burn *n* interpreter loop turns (a sub-microsecond-grained delay)."""
    for _ in range(n):
        pass


class _NullTransport(Transport):
    """A transport nothing is ever written to: the tests below complete
    engine requests by hand."""

    def start(self, engine) -> None:
        pass

    def write(self, dest, segments, route=0, on_delivered=None) -> None:
        raise AssertionError("nothing is sent")

    def close(self) -> None:
        pass


@pytest.fixture
def fine_switching():
    """Preempt every microsecond so the interleavings below are many."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.usefixtures("fine_switching")
class TestThreadSafety:
    """A Request is a lock, a done flag and waiter locks allocated only
    by threads that block: no Condition, and no lost or double wake-up."""

    def test_every_blocked_waiter_wakes_exactly_once(self):
        nthreads = 8
        for _ in range(20):
            req = Request(Request.RECV)
            woken = []

            def waiter():
                woken.append(req.wait(timeout=10).tag)

            threads = [threading.Thread(target=waiter) for _ in range(nthreads)]
            for t in threads:
                t.start()
            wait_until(
                lambda: len(req._waiters or ()) == nthreads, message="all blocked"
            )
            req.complete(Status(tag=4))
            for t in threads:
                t.join(10)
            assert woken == [4] * nthreads
            assert req._waiters is None

    def test_timed_out_wait_leaves_no_waiter(self):
        req = Request(Request.RECV)
        out = {}
        patient = threading.Thread(target=lambda: out.setdefault("s", req.wait(timeout=10)))
        patient.start()
        wait_until(lambda: len(req._waiters or ()) == 1, message="patient blocked")
        with pytest.raises(TimeoutError):
            req.wait(timeout=0.01)
        assert len(req._waiters) == 1  # only the patient waiter is left
        req.complete(Status(tag=6))
        patient.join(10)
        assert out["s"].tag == 6
        assert req.wait(timeout=0).tag == 6

    def test_completion_racing_waitany_publish_is_never_lost(self):
        # The engine records a completion for peek() only if the
        # request has a waitany_ref or a peeker is blocked; Waitany
        # publishes its refs, then re-tests.  Both threads spin a
        # varying number of turns after the barrier, so over the run
        # the completion lands before, inside and after that sequence;
        # a lost one times out.
        engine = ProtocolEngine(ProcessID(uid=0), _NullTransport())
        start = threading.Barrier(2, timeout=10)
        box = {}

        def completer():
            for i in range(ITERATIONS):
                start.wait()
                spin(i % 97)
                box["req"].complete(Status(tag=1))

        t = threading.Thread(target=completer, daemon=True)
        t.start()
        try:
            for i in range(ITERATIONS):
                box["req"] = req = engine._new_request(Request.RECV, None)
                start.wait()
                spin(i % 3001)
                idx, status = waitany(engine, [req], timeout=5)
                assert (idx, status.tag) == (0, 1)
        finally:
            start.abort()
            t.join(30)

    @pytest.mark.parametrize(
        "step", ["before_publish", "before_test", "before_peek", "while_peeking"]
    )
    def test_completion_at_every_waitany_step_is_found(self, step):
        # The race above, one window at a time: the request completes
        # just before Waitany publishes its ref, between publishing and
        # re-testing, between re-testing and blocking in peek(), or
        # while it is blocked there.
        engine = ProtocolEngine(ProcessID(uid=0), _NullTransport())

        class Racy(Request):
            def test(self):
                if step == "before_test" and not self.done:
                    self.complete(Status(tag=2))
                return super().test()

        class PeekFirst:
            """The engine as WaitAnyQueue sees it, with a hook on peek()."""

            metrics = engine.metrics

            def peek(self, timeout=None):
                if step == "before_peek":
                    req.complete(Status(tag=2))
                return engine.peek(timeout=timeout)

        req = Racy(Request.RECV, hook=engine._on_complete)
        if step == "before_publish":
            req.complete(Status(tag=2))
        if step == "while_peeking":
            def finish():
                wait_until(lambda: engine._completions.watched, message="peeking")
                req.complete(Status(tag=2))

            threading.Thread(target=finish, daemon=True).start()
        idx, status = waitany(PeekFirst(), [req], timeout=2)
        assert (idx, status.tag) == (0, 2)

    def test_pingpong_builds_no_condition(self, monkeypatch):
        built = []

        class CountingCondition(threading.Condition):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        def main(env):
            comm = env.COMM_WORLD
            rank = comm.rank()
            data = np.zeros(8, dtype=np.uint8)
            comm.Barrier()
            if rank == 0:
                monkeypatch.setattr(threading, "Condition", CountingCondition)
            comm.Barrier()
            for _ in range(1000):
                if rank == 0:
                    comm.Send(data, 0, 8, mpi.BYTE, 1, 1)
                    comm.Recv(data, 0, 8, mpi.BYTE, 1, 2)
                else:
                    comm.Recv(data, 0, 8, mpi.BYTE, 0, 1)
                    comm.Send(data, 0, 8, mpi.BYTE, 0, 2)
            comm.Barrier()
            if rank == 0:
                monkeypatch.undo()
            return True

        assert all(run_spmd(main, 2, device="smdev", timeout=60))
        assert built == []

