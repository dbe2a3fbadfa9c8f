"""Tests for the lock-order watchdog and the stuck-progress watchdog."""

import threading
import time

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.obs.tracing import TracingDevice
from repro.testing import (
    InstrumentedLock,
    LockGraph,
    ProgressWatchdog,
    instrument_engine,
    wait_until,
)
from repro.xdev.device import DeviceConfig, new_instance
from repro.xdev.smdev import SMFabric


def make_smdev_job(nprocs, instrument=None):
    fabric = SMFabric(nprocs)
    devices = []
    for rank in range(nprocs):
        dev = new_instance("smdev")
        dev.init(DeviceConfig(rank=rank, nprocs=nprocs, fabric=fabric))
        if instrument is not None:
            instrument_engine(dev.engine, instrument)
        devices.append(dev)
    return devices, fabric.pids


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
        graph = LockGraph()
        devices, pids = make_smdev_job(2, instrument=graph)
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
            assert not graph.violations, graph.violations
        finally:
            for d in devices:
                d.finish()


class TestProgressWatchdog:
    def test_no_stall_on_idle_engines(self):
        devices, pids = make_smdev_job(2)
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
        devices, pids = make_smdev_job(2)
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
        fabric = SMFabric(2)
        devices = []
        for rank in range(2):
            dev = new_instance("smdev")
            traced = TracingDevice(dev)
            traced.init(DeviceConfig(rank=rank, nprocs=2, fabric=fabric))
            instrument_engine(traced.engine, graph)
            devices.append(traced)
        pids = fabric.pids
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
        devices, pids = make_smdev_job(2)
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
