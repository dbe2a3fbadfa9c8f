"""Tests for the communication tracing decorator."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.obs.tracing import TracingDevice
from repro.testing import wait_until
from tests.conftest import make_job


@pytest.fixture
def traced_pair():
    devices, pids = make_job("smdev", 2)
    traced = [TracingDevice(d) for d in devices]
    yield traced, pids
    for d in devices:
        d.finish()


def records(tracer, ev):
    """The tracer's retained records named ``mpi.<ev>``."""
    return [e for e in tracer.events() if e["ev"] == f"mpi.{ev}"]


def completed(tracer, post):
    """True once *post* has its matching ``.complete`` record."""
    base = post["ev"].removesuffix(".post")
    return any(
        e["ev"] == f"{base}.complete" and e["id"] == post["id"]
        for e in tracer.events()
    )


def send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


def blocked_peeker(traced):
    """A thread blocked in ``traced.peek()``: completions from now on
    are visible to it (the peek contract).  Returns (thread, box)."""
    box = {}
    t = threading.Thread(
        target=lambda: box.setdefault("req", traced.peek(timeout=10)), daemon=True
    )
    t.start()
    wait_until(lambda: traced.engine._completions.watched, message="peeker blocked")
    return t, box


class TestRecording:
    def test_send_recv_recorded(self, traced_pair):
        traced, pids = traced_pair
        data = np.arange(4, dtype=np.int64)
        t = threading.Thread(
            target=lambda: traced[0].send(send_buffer(data), pids[1], 5, 0)
        )
        t.start()
        rbuf = Buffer()
        traced[1].recv(rbuf, pids[0], 5, 0)
        t.join(10)

        sends = records(traced[0], "send.post")
        assert len(sends) == 1
        assert sends[0]["tag"] == 5
        assert sends[0]["peer"] == pids[1].uid
        assert sends[0]["size"] == 37  # 5-byte header + 32 payload
        assert completed(traced[0], sends[0])

        recvs = records(traced[1], "recv.post")
        assert len(recvs) == 1
        assert completed(traced[1], recvs[0])

    def test_pending_irecv_listed(self, traced_pair):
        traced, pids = traced_pair
        rbuf = Buffer()
        req = traced[1].irecv(rbuf, pids[0], 9, 0)
        pending = traced[1].pending_events()
        assert len(pending) == 1
        assert pending[0]["ev"] == "mpi.irecv.post"
        # Satisfy it: pending list empties.
        traced[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 9, 0)
        req.wait(timeout=10)
        assert traced[1].pending_events() == []

    def test_summary(self, traced_pair):
        traced, pids = traced_pair
        for i in range(3):
            traced[0].send(send_buffer(np.array([i], dtype=np.int64)), pids[1], i, 0)
        summary = traced[0].summary()
        assert summary["by_op"]["send"] == 3
        assert summary["bytes_sent"] == 3 * 13
        for i in range(3):
            rbuf = Buffer()
            traced[1].recv(rbuf, pids[0], i, 0)

    def test_dump_json_is_valid(self, traced_pair):
        traced, pids = traced_pair
        traced[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 1, 0)
        rbuf = Buffer()
        traced[1].recv(rbuf, pids[0], 1, 0)
        events = json.loads(traced[0].dump_json())
        assert any(e["ev"] == "mpi.send.post" for e in events)

    def test_clear(self, traced_pair):
        traced, pids = traced_pair
        traced[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 1, 0)
        traced[0].clear()
        assert traced[0].events() == []
        rbuf = Buffer()
        traced[1].recv(rbuf, pids[0], 1, 0)

    def test_sequence_monotone(self, traced_pair):
        traced, pids = traced_pair
        for i in range(4):
            traced[0].iprobe(pids[1], i, 0)
        seqs = [e["id"] for e in traced[0].events()]
        assert seqs == sorted(seqs)

    def test_summary_counts_bytes_received(self, traced_pair):
        traced, pids = traced_pair
        data = np.arange(4, dtype=np.int64)
        t = threading.Thread(
            target=lambda: traced[0].send(send_buffer(data), pids[1], 5, 0)
        )
        t.start()
        # Blocking recv learns its size at completion...
        traced[1].recv(Buffer(), pids[0], 5, 0)
        t.join(10)
        # ...and so does irecv, via its completion listener.
        req = traced[1].irecv(Buffer(), pids[0], 6, 0)
        traced[0].send(send_buffer(data), pids[1], 6, 0)
        req.wait(timeout=10)
        summary = traced[1].summary()
        assert summary["bytes_received"] == 2 * 37  # 5B header + 32 payload
        assert traced[0].summary()["bytes_received"] == 0

    def test_iprobe_matched_outcome_recorded(self, traced_pair):
        traced, pids = traced_pair
        traced[1].iprobe(pids[0], 4, 0)  # nothing there yet
        traced[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 4, 0)
        import time

        status = None
        for _ in range(1000):
            status = traced[1].iprobe(pids[0], 4, 0)
            if status is not None:
                break
            time.sleep(0.002)
        assert status is not None
        probes = records(traced[1], "iprobe")
        assert probes[0]["matched"] is False
        assert probes[-1]["matched"] is True
        assert probes[-1]["size"] == status.size
        summary = traced[1].summary()
        assert summary["probe_hits"] == 1
        assert summary["probe_misses"] >= 1
        traced[1].recv(Buffer(), pids[0], 4, 0)

    def test_peek_recorded(self, traced_pair):
        traced, pids = traced_pair
        peeker, box = blocked_peeker(traced[1])
        traced[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 1, 0)
        traced[1].recv(Buffer(), pids[0], 1, 0)
        peeker.join(10)
        assert box["req"] is not None
        peeks = records(traced[1], "peek")
        assert len(peeks) == 1
        assert peeks[0]["matched"] is True


class TestStallDetection:
    def test_detect_stalled_method(self, traced_pair):
        traced, pids = traced_pair
        traced[1].irecv(Buffer(), pids[0], 9, 0)
        import time

        time.sleep(0.02)
        stale = traced[1].detect_stalled(min_age_s=0.01)
        assert [e["ev"] for e in stale] == ["mpi.irecv.post"]
        assert traced[1].detect_stalled(min_age_s=60.0) == []
        # Unstall so teardown is clean.
        traced[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 9, 0)

    def test_clock_advances(self, traced_pair):
        traced, _pids = traced_pair
        a = traced[0].clock()
        b = traced[0].clock()
        assert 0 <= a <= b


class TestMemoryBound:
    def test_ring_bounds_events_and_keeps_hung_recv(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_BUFFER", "64")
        devices, pids = make_job("smdev", 2)
        traced = TracingDevice(devices[1])
        try:
            traced.irecv(Buffer(), pids[0], 4242, 0)  # never satisfied
            for _ in range(1000):
                traced.iprobe(pids[0], 1, 0)
            assert len(traced.events()) == 64
            assert traced.summary()["dropped"] > 0
            # The post fell out of the ring; the pending map keeps it.
            assert [e["tag"] for e in traced.detect_stalled(0)] == [4242]
        finally:
            for d in devices:
                d.finish()


class TestConcurrentRecording:
    def test_pending_map_settles_under_thread_churn(self, traced_pair):
        """Posts and completions race on many threads (the completion
        listener runs on whichever thread completes the request); a
        lost insert or remove would leave a pending entry behind."""
        traced, pids = traced_pair
        nthreads, per_thread = 8, 25
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def worker(k):
                for i in range(per_thread):
                    tag = 1000 + k * per_thread + i
                    req = traced[1].irecv(Buffer(), pids[0], tag, 0)
                    traced[0].isend(
                        send_buffer(np.array([i], dtype=np.int8)), pids[1], tag, 0
                    ).wait(timeout=10)
                    req.wait(timeout=10)

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(previous)
        wait_until(lambda: not traced[0].pending_events(), message="sends settle")
        assert traced[1].pending_events() == []
        for tracer, op in ((traced[0], "isend"), (traced[1], "irecv")):
            posts = {e["id"] for e in records(tracer, f"{op}.post")}
            completes = {e["id"] for e in records(tracer, f"{op}.complete")}
            assert len(posts) == nthreads * per_thread
            assert posts == completes


class TestDelegation:
    def test_traced_device_fully_functional(self, traced_pair):
        """The decorator must be a drop-in Device."""
        traced, pids = traced_pair
        # ssend, probe, peek all pass through.
        t = threading.Thread(
            target=lambda: traced[0].ssend(
                send_buffer(np.array([2], dtype=np.int8)), pids[1], 3, 0
            )
        )
        t.start()
        status = traced[1].probe(pids[0], 3, 0)
        assert status.tag == 3
        peeker, box = blocked_peeker(traced[1])
        rbuf = Buffer()
        traced[1].recv(rbuf, pids[0], 3, 0)
        t.join(10)
        peeker.join(10)
        assert box["req"] is not None

    def test_overheads_delegated(self, traced_pair):
        traced, _pids = traced_pair
        assert traced[0].get_send_overhead() == traced[0].inner.get_send_overhead()

    def test_id_delegated(self, traced_pair):
        traced, pids = traced_pair
        assert traced[0].id().uid == pids[0].uid

    def test_introspect_delegated_with_tracer_counts(self, traced_pair):
        traced, pids = traced_pair
        traced[1].irecv(Buffer(), pids[0], 2, 0)
        snap = traced[1].introspect()
        assert snap["device"] == "smdev"  # the inner device's view
        assert snap["posted_recvs"] == 1
        assert snap["tracer_events"] >= 1
        assert snap["tracer_pending"] == 1
        traced[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 2, 0)

    def test_metrics_delegated(self, traced_pair):
        traced, _pids = traced_pair
        assert traced[0].metrics is traced[0].engine.metrics
