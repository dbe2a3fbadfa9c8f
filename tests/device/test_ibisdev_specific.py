"""ibisdev-specific behaviour: the thread-per-message baseline.

Reproduces the paper's qualitative claims about MPJ/Ibis structure:
thread explosion under many outstanding operations (Section VI) and
poll-based receives (the CPU-stealing behaviour behind Section V-A).
"""

import sys
import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.testing import wait_until
from repro.xdev.constants import ANY_SOURCE
from repro.xdev.exceptions import ResourceExhaustedError
from repro.xdev.ibisdev import DEFAULT_MAX_THREADS

from tests.conftest import make_job


def send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


class TestThreadBudget:
    def test_default_cap_below_650(self):
        """The paper observed failure at 650 simultaneous receives."""
        assert DEFAULT_MAX_THREADS <= 650

    def test_irecv_spawns_a_thread_each(self):
        devices, pids = make_job("ibisdev", 2)
        try:
            before = devices[1].stats["threads_spawned"]
            reqs = [
                devices[1].irecv(Buffer(), pids[0], 100 + i, 0) for i in range(5)
            ]
            assert devices[1].stats["threads_spawned"] == before + 5
            for i, r in enumerate(reqs):
                devices[0].send(
                    send_buffer(np.array([i], dtype=np.int64)), pids[1], 100 + i, 0
                )
            for r in reqs:
                r.wait(timeout=20)
        finally:
            for d in devices:
                d.finish()

    def test_cannot_create_native_threads(self):
        """Posting more simultaneous receives than the budget fails with
        the paper's 'cannot create native threads' error."""
        devices, pids = make_job("ibisdev", 2, options={"max_threads": 30})
        try:
            with pytest.raises(ResourceExhaustedError, match="cannot create native threads"):
                for i in range(100):
                    devices[1].irecv(Buffer(), pids[0], 1000 + i, 0)
        finally:
            for d in devices:
                d.finish()

    def test_budget_is_shared_across_ranks(self):
        """The cap models the JVM's native thread limit, shared by the
        whole process."""
        devices, pids = make_job("ibisdev", 2, options={"max_threads": 20})
        try:
            for i in range(10):
                devices[0].irecv(Buffer(), pids[1], i, 0)
            with pytest.raises(ResourceExhaustedError):
                for i in range(15):
                    devices[1].irecv(Buffer(), pids[0], 100 + i, 0)
        finally:
            for d in devices:
                d.finish()

    def test_spawn_count_exact_under_contention(self):
        """Operation threads are started from many user threads at once;
        the spawn counter loses no update."""
        devices, _pids = make_job("ibisdev", 1)
        dev = devices[0]
        per_thread, nthreads = 50, 8
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def spawner():
                for _ in range(per_thread):
                    dev._spawn(lambda: None, name="ibis-noop")

            threads = [threading.Thread(target=spawner) for _ in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
            assert dev.stats["threads_spawned"] == per_thread * nthreads
            wait_until(
                lambda: dev._fabric.live_threads == 0,
                timeout=10,
                message="operation threads retired",
            )
        finally:
            sys.setswitchinterval(old)
            dev.finish()

    def test_budget_released_after_completion(self):
        devices, pids = make_job("ibisdev", 2, options={"max_threads": 8})
        try:
            fabric = devices[0]._fabric
            for round_no in range(4):
                reqs = [devices[1].irecv(Buffer(), pids[0], round_no * 10 + i, 0) for i in range(3)]
                for i, r in enumerate(reqs):
                    devices[0].send(
                        send_buffer(np.array([i], dtype=np.int64)),
                        pids[1], round_no * 10 + i, 0,
                    )
                for r in reqs:
                    r.wait(timeout=20)
                wait_until(
                    lambda: fabric.live_threads == 0,
                    timeout=10,
                    message="receive threads retired",
                )
        finally:
            for d in devices:
                d.finish()


class TestPolling:
    def test_recv_threads_poll(self):
        devices, pids = make_job("ibisdev", 2, options={"poll_interval": 0.001})
        try:
            req = devices[1].irecv(Buffer(), pids[0], 1, 0)
            wait_until(
                lambda: devices[1].stats["poll_iterations"] > 10,
                timeout=10,
                message="receive thread polling",
            )
            devices[0].send(send_buffer(np.array([1], dtype=np.int64)), pids[1], 1, 0)
            req.wait(timeout=20)
        finally:
            for d in devices:
                d.finish()

    def test_any_source_recv_works(self):
        devices, pids = make_job("ibisdev", 3)
        try:
            req = devices[2].irecv(Buffer(), ANY_SOURCE, 5, 0)
            devices[1].send(send_buffer(np.array([9], dtype=np.int64)), pids[2], 5, 0)
            status = req.wait(timeout=20)
            assert status.source.uid == pids[1].uid
        finally:
            for d in devices:
                d.finish()
