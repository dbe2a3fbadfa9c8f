"""Tests for live introspection and stall snapshots (repro.obs.introspect)."""

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.obs.introspect import (
    install_stall_handler,
    stall_snapshot,
    write_stall_file,
)
from repro.obs.tracing import TracingDevice
from tests.conftest import make_job


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def _send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


class TestDeviceIntrospect:
    def test_smdev_live_queue_depths(self):
        devices, pids = make_job("smdev", 2)
        try:
            # Post two receives on rank 1 from another thread and watch
            # the posted-recv depth rise — introspect() reads the live
            # queues, not a cached snapshot.
            reqs = []

            def poster():
                for tag in (1, 2):
                    reqs.append(devices[1].irecv(Buffer(), pids[0], tag, 0))

            t = threading.Thread(target=poster)
            t.start()
            t.join(10)
            assert _wait_until(
                lambda: devices[1].introspect()["posted_recvs"] == 2
            )
            snap = devices[1].introspect()
            assert snap["device"] == "smdev"
            assert snap["rank"] == pids[1].uid
            assert snap["unexpected_messages"] == 0
            # smdev delivers on the writer's thread: no inbox to report.
            assert snap["transport"] == {"frame_errors": 0}

            # Satisfy them; depths return to zero.
            for tag in (1, 2):
                devices[0].send(
                    _send_buffer(np.array([tag], dtype=np.int8)), pids[1], tag, 0
                )
            for r in reqs:
                r.wait(timeout=10)
            assert _wait_until(
                lambda: devices[1].introspect()["posted_recvs"] == 0
            )
        finally:
            for d in devices:
                d.finish()

    def test_unexpected_queue_visible(self):
        devices, pids = make_job("smdev", 2)
        try:
            devices[0].send(
                _send_buffer(np.array([1], dtype=np.int8)), pids[1], 5, 0
            )
            assert _wait_until(
                lambda: devices[1].introspect()["unexpected_messages"] == 1
            )
            devices[1].recv(Buffer(), pids[0], 5, 0)
        finally:
            for d in devices:
                d.finish()

    def test_niodev_transport_keys(self):
        devices, pids = make_job("niodev", 2)
        try:
            snap = devices[0].introspect()
            transport = snap["transport"]
            assert "selector_read_channels" in transport
            assert "write_channels" in transport
            assert "frame_errors" in transport
        finally:
            for d in devices:
                d.finish()

    def test_introspect_all_devices(self, job2):
        devices, _pids = job2
        snap = devices[0].introspect()
        assert "device" in snap
        # Every device reports its peek store under the same key;
        # engine-backed devices also expose live queue depths.
        assert snap["completed_backlog"] == 0
        if snap["device"] != "ibisdev":
            assert "posted_recvs" in snap


class TestStallSnapshot:
    def test_pending_ops_with_ages(self):
        devices, pids = make_job("smdev", 2)
        traced = [TracingDevice(d) for d in devices]
        try:
            traced[1].irecv(Buffer(), pids[0], 9, 0)  # never satisfied
            time.sleep(0.05)
            snap = stall_snapshot(devices=traced)
            assert len(snap["devices"]) == 2
            (op,) = snap["pending_operations"]
            assert op["op"] == "irecv"
            assert op["tag"] == 9
            assert op["rank"] == 1
            assert op["age_s"] >= 0.05
            # min_age_s filters young operations out.
            snap2 = stall_snapshot(devices=traced, min_age_s=60.0)
            assert snap2["pending_operations"] == []
        finally:
            for d in devices:
                d.finish()

    def test_write_stall_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        path = write_stall_file({"taken_at": 1.0, "pending_operations": []})
        assert path is not None
        assert json.loads(path.read_text())["taken_at"] == 1.0

    def test_write_stall_file_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert write_stall_file({}) is None


@pytest.mark.skipif(
    not hasattr(signal, "SIGUSR1"), reason="no SIGUSR1 on this platform"
)
class TestSignalHandler:
    def test_sigusr1_dumps_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        devices, pids = make_job("smdev", 2)
        traced = [TracingDevice(d) for d in devices]
        seen = []
        previous = install_stall_handler(devices=traced, on_snapshot=seen.append)
        try:
            traced[0].irecv(Buffer(), pids[1], 3, 0)
            os.kill(os.getpid(), signal.SIGUSR1)
            assert _wait_until(lambda: len(seen) == 1)
            assert any(
                op["tag"] == 3 for op in seen[0]["pending_operations"]
            )
            stall_files = list(tmp_path.glob("stall-*.json"))
            assert len(stall_files) == 1
        finally:
            signal.signal(signal.SIGUSR1, previous)
            for d in devices:
                d.finish()
