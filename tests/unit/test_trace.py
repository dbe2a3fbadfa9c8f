"""Tests for the communication tracing decorator."""

import json
import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.testing import wait_until
from repro.trace import TracingDevice
from tests.conftest import make_job


@pytest.fixture
def traced_pair():
    devices, pids = make_job("smdev", 2)
    traced = [TracingDevice(d) for d in devices]
    yield traced, pids
    for d in devices:
        d.finish()


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

        sends = [e for e in traced[0].events() if e.op == "send"]
        assert len(sends) == 1
        assert sends[0].tag == 5
        assert sends[0].peer == pids[1].uid
        assert sends[0].size == 37  # 5-byte header + 32 payload
        assert sends[0].completed_at is not None

        recvs = [e for e in traced[1].events() if e.op == "recv"]
        assert len(recvs) == 1
        assert recvs[0].completed_at is not None

    def test_pending_irecv_listed(self, traced_pair):
        traced, pids = traced_pair
        rbuf = Buffer()
        req = traced[1].irecv(rbuf, pids[0], 9, 0)
        pending = traced[1].pending_events()
        assert len(pending) == 1
        assert pending[0].op == "irecv"
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
        assert any(e["op"] == "send" for e in events)

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
        seqs = [e.seq for e in traced[0].events()]
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
        probes = [e for e in traced[1].events() if e.op == "iprobe"]
        assert probes[0].matched is False
        assert probes[-1].matched is True
        assert probes[-1].size == status.size
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
        peeks = [e for e in traced[1].events() if e.op == "peek"]
        assert len(peeks) == 1
        assert peeks[0].matched is True
        assert peeks[0].completed_at is not None


class TestStallDetection:
    def test_detect_stalled_method(self, traced_pair):
        traced, pids = traced_pair
        traced[1].irecv(Buffer(), pids[0], 9, 0)
        import time

        time.sleep(0.02)
        stale = traced[1].detect_stalled(min_age_s=0.01)
        assert [e.op for e in stale] == ["irecv"]
        assert traced[1].detect_stalled(min_age_s=60.0) == []
        # Unstall so teardown is clean.
        traced[0].send(send_buffer(np.array([1], dtype=np.int8)), pids[1], 9, 0)

    def test_clock_advances(self, traced_pair):
        traced, _pids = traced_pair
        a = traced[0].clock()
        b = traced[0].clock()
        assert 0 <= a <= b


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
