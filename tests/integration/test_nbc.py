"""Tests for non-blocking collectives (the MPI-3-flavoured extension)."""

import time

import numpy as np
import pytest

from repro import mpi
from repro.runtime.launcher import run_spmd


class TestIbarrier:
    def test_completes_when_all_enter(self):
        def main(env):
            comm = env.COMM_WORLD
            if comm.rank() == 0:
                req = mpi.ibarrier(comm)
                assert not req.test()  # others haven't entered
                comm.send("go", dest=1, tag=1)
                req.wait(timeout=30)
                return True
            assert comm.recv(source=0, tag=1) == "go"
            mpi.ibarrier(comm).wait(timeout=30)
            return True

        assert all(run_spmd(main, 2))


class TestIbcast:
    def test_overlaps_with_computation(self):
        def main(env):
            comm = env.COMM_WORLD
            buf = (
                np.arange(1000, dtype=np.float64)
                if comm.rank() == 0
                else np.zeros(1000)
            )
            req = mpi.ibcast(comm, buf, 0, 1000, mpi.DOUBLE, 0)
            # Computation while the broadcast progresses.
            x = np.random.default_rng(0).random((60, 60))
            for _ in range(3):
                x = x @ x / np.linalg.norm(x)
            req.wait(timeout=60)
            return buf[999]

        assert run_spmd(main, 3) == [999.0] * 3


class TestIallreduce:
    def test_result_correct(self):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank() + 1], dtype=np.int64)
            recv = np.zeros(1, dtype=np.int64)
            req = mpi.iallreduce(comm, send, 0, recv, 0, 1, mpi.LONG, mpi.SUM)
            req.wait(timeout=60)
            return int(recv[0])

        assert run_spmd(main, 4) == [10] * 4

    def test_two_overlapping_nbc_ops(self):
        """Two in-flight collectives at once (executed in issue order)."""

        def main(env):
            comm = env.COMM_WORLD
            s1 = np.array([comm.rank()], dtype=np.int64)
            s2 = np.array([comm.rank() * 10], dtype=np.int64)
            r1 = np.zeros(1, dtype=np.int64)
            r2 = np.zeros(1, dtype=np.int64)
            q1 = mpi.iallreduce(comm, s1, 0, r1, 0, 1, mpi.LONG, mpi.SUM)
            q2 = mpi.iallreduce(comm, s2, 0, r2, 0, 1, mpi.LONG, mpi.SUM)
            q2.wait(timeout=60)
            q1.wait(timeout=60)
            return (int(r1[0]), int(r2[0]))

        assert run_spmd(main, 3) == [(3, 30)] * 3

    def test_one_worker_one_dup_per_comm(self):
        def main(env):
            comm = env.COMM_WORLD
            for _ in range(4):
                send = np.array([1], dtype=np.int64)
                recv = np.zeros(1, dtype=np.int64)
                mpi.iallreduce(comm, send, 0, recv, 0, 1, mpi.LONG, mpi.SUM).wait(timeout=60)
            worker = comm._nbc_worker
            return worker._dup is not None and worker._dup is not comm

        assert run_spmd(main, 2) == [True, True]


class TestWorkerLifetime:
    def test_workers_exit_when_the_job_finalizes(self):
        def main(env):
            comm = env.COMM_WORLD
            mpi.ibarrier(comm).wait(timeout=30)
            return comm._nbc_worker._thread

        threads = run_spmd(main, 2)
        for thread in threads:
            thread.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    def test_worker_exits_when_its_communicator_is_freed(self):
        def main(env):
            comm = env.COMM_WORLD.dup()
            mpi.ibarrier(comm).wait(timeout=30)
            thread = comm._nbc_worker._thread
            comm.free()
            thread.join(timeout=10)
            return thread.is_alive()

        assert run_spmd(main, 2) == [False, False]


class TestIallgatherAndObjects:
    def test_iallgather(self):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank() * 2], dtype=np.int64)
            recv = np.zeros(comm.size(), dtype=np.int64)
            mpi.iallgather(comm, send, 0, 1, mpi.LONG, recv, 0, 1, mpi.LONG).wait(timeout=60)
            return recv.tolist()

        assert run_spmd(main, 3) == [[0, 2, 4]] * 3

    def test_igather_objects(self):
        def main(env):
            comm = env.COMM_WORLD
            req = mpi.igather_objects(comm, f"r{comm.rank()}", root=0)
            return req.wait(timeout=60)

        results = run_spmd(main, 3)
        assert results[0] == ["r0", "r1", "r2"]
        assert results[1] is None


class TestErrors:
    def test_exception_surfaces_in_wait(self):
        def main(env):
            comm = env.COMM_WORLD
            send = np.zeros(2)
            # Non-contiguous result buffer: rejected inside the helper
            # thread; the error must surface from wait().
            recv = np.zeros((4, 4))[::2, 0]
            req = mpi.iallreduce(comm, send, 0, recv, 0, 2, mpi.DOUBLE, mpi.SUM)
            with pytest.raises(mpi.MPIException):
                req.wait(timeout=30)
            return True

        # Only sensible on 1 rank (a failing collective elsewhere
        # would leave peers waiting).
        assert all(run_spmd(main, 1))
