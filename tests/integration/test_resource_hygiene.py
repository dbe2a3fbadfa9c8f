"""Resource hygiene: jobs must not leak threads or sockets."""

import socket
import threading
import time

import numpy as np
import pytest

from repro import mpi
from repro.runtime.launcher import run_spmd


def settle(baseline: int, slack: int = 3, timeout: float = 10.0) -> int:
    """Wait for the live thread count to drop back near *baseline*."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        now = threading.active_count()
        if now <= baseline + slack:
            return now
        time.sleep(0.05)
    return threading.active_count()


class TestThreadHygiene:
    @pytest.mark.parametrize("device", ["smdev", "mxdev", "niodev"])
    def test_run_spmd_releases_threads(self, device):
        def main(env):
            comm = env.COMM_WORLD
            total = np.zeros(1, dtype=np.int64)
            comm.Allreduce(
                np.array([1], dtype=np.int64), 0, total, 0, 1, mpi.LONG, mpi.SUM
            )
            return int(total[0])

        baseline = threading.active_count()
        for _ in range(3):
            assert run_spmd(main, 3, device=device) == [3, 3, 3]
        after = settle(baseline)
        # Input handlers and rank threads must be gone; allow slack for
        # daemonized rendezvous writers that are already finished.
        assert after <= baseline + 4, (
            f"thread leak: {baseline} before, {after} after"
        )

    def test_rendezvous_writers_terminate(self):
        # smdev writes the data on the thread that delivers the RTR and
        # forks no writer; niodev's input handler forks one per RTR.
        def main(env):
            comm = env.COMM_WORLD
            big = np.zeros(100_000)
            if comm.rank() == 0:
                comm.Send(big, 0, big.size, mpi.DOUBLE, 1, 1)
            else:
                buf = np.zeros(big.size)
                comm.Recv(buf, 0, big.size, mpi.DOUBLE, 0, 1)
            return env.device.engine.stats["rendezvous_writer_threads"]

        for device, forks in (("smdev", False), ("niodev", True)):
            baseline = threading.active_count()
            forked = sum(sum(run_spmd(main, 2, device=device)) for _ in range(3))
            assert (forked > 0) == forks, (device, forked)
            after = settle(baseline)
            writers = [
                t for t in threading.enumerate()
                if "rendez-write" in t.name and t.is_alive()
            ]
            assert not writers, f"leaked rendezvous writers on {device}: {writers}"
            assert after <= baseline + 4


class TestSocketHygiene:
    def test_niodev_releases_listen_ports(self):
        def main(env):
            return env.COMM_WORLD.rank()

        # Run a niodev job and capture its ports; afterwards the ports
        # must be bindable again.
        from repro.xdev.niodev import allocate_local_endpoints

        addrs, socks = allocate_local_endpoints(2)
        for s in socks:
            s.close()
        run_spmd(main, 2, device="niodev")
        time.sleep(0.2)
        # All listeners from the job are closed: binding a fresh batch
        # of sockets must succeed (we cannot know the exact ports the
        # job used, so assert the general ability to allocate).
        addrs2, socks2 = allocate_local_endpoints(4)
        assert len(addrs2) == 4
        for s in socks2:
            s.close()
