"""Tests for the lock-order watchdog and the stuck-progress watchdog."""

import threading
import time

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.testing import (
    InstrumentedLock,
    LockGraph,
    ProgressWatchdog,
    wait_until,
)
from repro.xdev import locknames
from tests.conftest import make_job

ENGINE_CLASSES = {
    locknames.RECV_SHARD,
    locknames.RECV_WILDCARD,
    locknames.SEND_SETS,
    locknames.RENDEZVOUS_IDS,
    locknames.TICKER,
    locknames.COMPLETED,
    locknames.BOOKKEEPING,
}
#: Every classed lock each device's stack makes, by lock class.
CLASSES_BY_DEVICE = {
    "smdev": ENGINE_CLASSES,
    "niodev": ENGINE_CLASSES | {locknames.CHANNEL, locknames.CONN_CACHE},
    "procdev": ENGINE_CLASSES | {locknames.PROC_OUT},
}


class NamingGraph(LockGraph):
    """A LockGraph that remembers the name of every lock it makes."""

    def __init__(self) -> None:
        super().__init__()
        self.names: set[str] = set()

    def lock(self, name):
        self.names.add(name)
        return super().lock(name)


def send_buffer(value):
    buf = Buffer()
    buf.write(np.array([value], dtype=np.int64))
    return buf


class TestLockGraph:
    def test_opposite_order_acquisition_is_a_violation(self):
        graph = LockGraph()
        a = InstrumentedLock(graph, "A")
        b = InstrumentedLock(graph, "B")
        # Thread 1 establishes A -> B.
        with a:
            with b:
                pass
        assert not graph.violations
        # Thread 2 (same thread suffices — the graph is global)
        # attempts B -> A: closes the cycle.
        with b:
            with a:
                pass
        assert len(graph.violations) == 1
        v = graph.violations[0]
        assert v.acquiring == "A" and "B" in v.held
        assert v.cycle[0] == "A" and v.cycle[-1] == "A"

    def test_three_lock_cycle_detected(self):
        graph = LockGraph()
        locks = {n: InstrumentedLock(graph, n) for n in "ABC"}
        for first, second in [("A", "B"), ("B", "C")]:
            with locks[first]:
                with locks[second]:
                    pass
        with locks["C"]:
            with locks["A"]:
                pass
        assert graph.violations
        assert set(graph.violations[0].cycle) == {"A", "B", "C"}

    def test_sequential_acquisition_is_clean(self):
        """The engine's discipline — two locks one after the other,
        never nested — must produce no edges at all."""
        graph = LockGraph()
        a = InstrumentedLock(graph, "A")
        b = InstrumentedLock(graph, "B")
        for _ in range(3):
            with a:
                pass
            with b:
                pass
            with b:
                pass
            with a:
                pass
        assert not graph.edges()
        assert not graph.violations

    def test_backs_a_condition_variable(self):
        graph = LockGraph()
        lock = InstrumentedLock(graph, "cond-lock")
        cond = threading.Condition(lock)
        hits = []

        def waiter():
            with cond:
                cond.wait_for(lambda: hits, timeout=5)
                hits.append("woken")

        t = threading.Thread(target=waiter)
        t.start()
        wait_until(lambda: lock.locked() or t.is_alive(), timeout=5)
        with cond:
            hits.append("signal")
            cond.notify_all()
        t.join(5)
        assert hits == ["signal", "woken"]

    def test_instrumented_engine_traffic_is_violation_free(self):
        """Every classed lock a device's stack takes comes from the
        locknames factory, and eager plus rendezvous traffic takes them
        in hierarchy order.  One job per device, in turn: a recorder is
        process-wide, so the jobs must not overlap."""
        for device, expected in CLASSES_BY_DEVICE.items():
            graph = NamingGraph()
            # The whole job's life: niodev makes a write lock per
            # connection on its first send.
            with locknames.recording(graph):
                devices, pids = make_job(device, 2)
                try:
                    for i in range(10):
                        # Mix eager and rendezvous to touch every lock.
                        if i % 2:
                            sreq = devices[0].issend(send_buffer(i), pids[1], 1, 0)
                        else:
                            sreq = devices[0].isend(send_buffer(i), pids[1], 1, 0)
                        rbuf = Buffer()
                        devices[1].recv(rbuf, pids[0], 1, 0)
                        sreq.wait(timeout=10)
                finally:
                    for d in devices:
                        d.finish()
            classes = {name.rstrip("0123456789") for name in graph.names}
            assert classes == expected, device
            assert not graph.violations, (device, graph.violations)


class TestProgressWatchdog:
    def test_no_stall_on_idle_engines(self):
        devices, pids = make_job("smdev", 2)
        try:
            with ProgressWatchdog(
                [d.engine for d in devices], budget_s=0.2, poll_s=0.02
            ) as dog:
                time.sleep(0.5)
            assert dog.stalls == []
        finally:
            for d in devices:
                d.finish()

    def test_unmatched_recv_trips_the_watchdog(self):
        devices, pids = make_job("smdev", 2)
        try:
            rbuf = Buffer()
            req = devices[1].irecv(rbuf, pids[0], 999, 0)
            stalls = []
            dog = ProgressWatchdog(
                [d.engine for d in devices],
                budget_s=0.2,
                poll_s=0.02,
                on_stall=stalls.append,
            )
            with dog:
                wait_until(lambda: stalls, timeout=5, message="watchdog stall")
            report = stalls[0]
            by_rank = {e["rank"]: e for e in report["engines"]}
            assert by_rank[devices[1].id().uid]["pending_recvs"] == 1
            assert report["stuck_for_s"] >= 0.2
            # Unblock and confirm the engine was unharmed.
            devices[0].send(send_buffer(0), pids[1], 999, 0)
            req.wait(timeout=10)
        finally:
            for d in devices:
                d.finish()

    def test_report_integrates_trace_and_lock_graph(self):
        graph = LockGraph()
        with locknames.recording(graph):  # smdev makes every lock at init
            devices, pids = make_job("traced-smdev", 2)
        try:
            rbuf = Buffer()
            req = devices[1].irecv(rbuf, pids[0], 42, 0)
            dog = ProgressWatchdog(
                [d.engine for d in devices],
                budget_s=0.1,
                tracers=devices,
                graph=graph,
            )
            wait_until(
                lambda: devices[1].engine.pending_recv_count() == 1, timeout=5
            )
            report = dog.report()
            stalled = report["stalled_operations"]
            assert any(e["op"] == "irecv" and e["tag"] == 42 for e in stalled)
            assert report["locks"] is not None
            assert report["locks"]["violations"] == []
            devices[0].send(send_buffer(1), pids[1], 42, 0)
            req.wait(timeout=10)
        finally:
            for d in devices:
                d.finish()

    def test_progressing_traffic_never_trips(self):
        devices, pids = make_job("smdev", 2)
        try:
            stalls = []
            with ProgressWatchdog(
                [d.engine for d in devices],
                budget_s=0.5,
                poll_s=0.02,
                on_stall=stalls.append,
            ):
                for i in range(20):
                    devices[0].send(send_buffer(i), pids[1], 1, 0)
                    rbuf = Buffer()
                    devices[1].recv(rbuf, pids[0], 1, 0)
            assert stalls == []
        finally:
            for d in devices:
                d.finish()


class TestWaitUntil:
    def test_waits_for_condition(self):
        box = {}
        t = threading.Timer(0.05, lambda: box.setdefault("done", True))
        t.start()
        wait_until(lambda: box.get("done"), timeout=5)
        assert box["done"]

    def test_timeout_names_the_condition(self):
        with pytest.raises(TimeoutError, match="never-true"):
            wait_until(lambda: False, timeout=0.05, message="never-true")
