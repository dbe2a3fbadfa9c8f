"""Integration tests for buffer-based collectives, over varying sizes."""

import numpy as np
import pytest

from repro import mpi
from repro.runtime.launcher import run_spmd

SIZES = [1, 2, 3, 5]


@pytest.fixture(params=SIZES)
def nprocs(request):
    return request.param


class TestBarrier:
    def test_barrier_synchronizes(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            for _ in range(3):
                comm.Barrier()
            return True

        assert all(run_spmd(main, nprocs))


class TestBcast:
    def test_from_every_root(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            out = []
            for root in range(comm.size()):
                buf = (
                    np.arange(8, dtype=np.float64) * (root + 1)
                    if comm.rank() == root
                    else np.zeros(8)
                )
                comm.Bcast(buf, 0, 8, mpi.DOUBLE, root)
                out.append(buf.copy())
            return out

        results = run_spmd(main, nprocs)
        for per_rank in results:
            for root, buf in enumerate(per_rank):
                np.testing.assert_array_equal(buf, np.arange(8) * (root + 1))

    def test_zero_count(self, nprocs):
        def main(env):
            env.COMM_WORLD.Bcast(np.zeros(0), 0, 0, mpi.DOUBLE, 0)
            return True

        assert all(run_spmd(main, nprocs))


class TestReduce:
    def test_sum_at_every_root(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = np.full(4, comm.rank() + 1, dtype=np.int64)
            out = []
            for root in range(comm.size()):
                recv = np.zeros(4, dtype=np.int64)
                comm.Reduce(send, 0, recv, 0, 4, mpi.LONG, mpi.SUM, root)
                out.append(recv.copy() if comm.rank() == root else None)
            return out

        results = run_spmd(main, nprocs)
        expected = sum(range(1, nprocs + 1))
        for rank, per_rank in enumerate(results):
            for root, val in enumerate(per_rank):
                if rank == root:
                    assert val.tolist() == [expected] * 4

    def test_max_and_min(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank(), -comm.rank()], dtype=np.int32)
            mx = np.zeros(2, dtype=np.int32)
            mn = np.zeros(2, dtype=np.int32)
            comm.Allreduce(send, 0, mx, 0, 2, mpi.INT, mpi.MAX)
            comm.Allreduce(send, 0, mn, 0, 2, mpi.INT, mpi.MIN)
            return (mx.tolist(), mn.tolist())

        for mx, mn in run_spmd(main, nprocs):
            assert mx == [nprocs - 1, 0]
            assert mn == [0, -(nprocs - 1)]

    def test_non_commutative_op_rank_order(self, nprocs):
        # String-like composition via a matrix trick: use subtraction,
        # which is order-sensitive: ((0 - 1) - 2) - ... for rank data.
        def main(env):
            comm = env.COMM_WORLD
            op = mpi.Op(lambda a, b: a - b, commute=False, name="SUB")
            send = np.array([float(comm.rank())])
            recv = np.zeros(1)
            comm.Reduce(send, 0, recv, 0, 1, mpi.DOUBLE, op, 0)
            return recv[0] if comm.rank() == 0 else None

        results = run_spmd(main, nprocs)
        expected = 0.0
        for r in range(1, nprocs):
            expected -= r
        assert results[0] == expected

    def test_maxloc_finds_owner(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            rank = comm.rank()
            # Flat (value, index) pair: count=2 DOUBLE elements.
            pair = np.array([float((rank * 7) % 5), rank], dtype=np.float64)
            out = np.zeros(2)
            comm.Allreduce(pair, 0, out, 0, 2, mpi.DOUBLE, mpi.MAXLOC)
            return (out[0], int(out[1]))

        results = run_spmd(main, nprocs)
        values = [(r * 7) % 5 for r in range(nprocs)]
        best = max(range(nprocs), key=lambda r: (values[r], -r))
        assert all(res == (values[best], best) for res in results)


class TestAllreduce:
    def test_everyone_gets_result(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank() + 1], dtype=np.int64)
            recv = np.zeros(1, dtype=np.int64)
            comm.Allreduce(send, 0, recv, 0, 1, mpi.LONG, mpi.PROD)
            return int(recv[0])

        expected = int(np.prod(range(1, nprocs + 1)))
        assert run_spmd(main, nprocs) == [expected] * nprocs


class TestGatherScatter:
    def test_gather(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank() * 2, comm.rank() * 2 + 1], dtype=np.int32)
            recv = np.zeros(2 * comm.size(), dtype=np.int32) if comm.rank() == 0 else np.zeros(0, dtype=np.int32)
            comm.Gather(send, 0, 2, mpi.INT, recv, 0, 2, mpi.INT, 0)
            return recv.tolist() if comm.rank() == 0 else None

        assert run_spmd(main, nprocs)[0] == list(range(2 * nprocs))

    def test_scatter(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = (
                np.arange(3 * comm.size(), dtype=np.float64)
                if comm.rank() == 0
                else np.zeros(0)
            )
            recv = np.zeros(3)
            comm.Scatter(send, 0, 3, mpi.DOUBLE, recv, 0, 3, mpi.DOUBLE, 0)
            return recv.tolist()

        results = run_spmd(main, nprocs)
        for rank, got in enumerate(results):
            assert got == [rank * 3, rank * 3 + 1, rank * 3 + 2]

    def test_gatherv(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            rank, size = comm.rank(), comm.size()
            mine = np.full(rank + 1, rank, dtype=np.int32)
            counts = [r + 1 for r in range(size)]
            displs = [sum(counts[:r]) for r in range(size)]
            total = sum(counts)
            recv = np.zeros(total, dtype=np.int32) if rank == 0 else np.zeros(0, dtype=np.int32)
            comm.Gatherv(mine, 0, rank + 1, mpi.INT, recv, 0, counts, displs, mpi.INT, 0)
            return recv.tolist() if rank == 0 else None

        expected = [r for r in range(nprocs) for _ in range(r + 1)]
        assert run_spmd(main, nprocs)[0] == expected

    def test_scatterv(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            rank, size = comm.rank(), comm.size()
            counts = [r + 1 for r in range(size)]
            displs = [sum(counts[:r]) for r in range(size)]
            send = (
                np.arange(sum(counts), dtype=np.float64) if rank == 0 else np.zeros(0)
            )
            recv = np.zeros(rank + 1)
            comm.Scatterv(send, 0, counts, displs, mpi.DOUBLE, recv, 0, rank + 1, mpi.DOUBLE, 0)
            return recv.tolist()

        results = run_spmd(main, nprocs)
        offset = 0
        for rank, got in enumerate(results):
            assert got == [float(offset + i) for i in range(rank + 1)]
            offset += rank + 1


class TestAllgather:
    def test_ring_allgather(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank() * 11], dtype=np.int64)
            recv = np.zeros(comm.size(), dtype=np.int64)
            comm.Allgather(send, 0, 1, mpi.LONG, recv, 0, 1, mpi.LONG)
            return recv.tolist()

        expected = [r * 11 for r in range(nprocs)]
        assert run_spmd(main, nprocs) == [expected] * nprocs

    def test_allgatherv(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            rank, size = comm.rank(), comm.size()
            counts = [r + 1 for r in range(size)]
            displs = [sum(counts[:r]) for r in range(size)]
            mine = np.full(rank + 1, rank, dtype=np.int32)
            recv = np.zeros(sum(counts), dtype=np.int32)
            comm.Allgatherv(mine, 0, rank + 1, mpi.INT, recv, 0, counts, displs, mpi.INT)
            return recv.tolist()

        expected = [r for r in range(nprocs) for _ in range(r + 1)]
        assert run_spmd(main, nprocs) == [expected] * nprocs


class TestAlltoall:
    def test_alltoall(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            rank, size = comm.rank(), comm.size()
            send = np.array([rank * 10 + j for j in range(size)], dtype=np.int32)
            recv = np.zeros(size, dtype=np.int32)
            comm.Alltoall(send, 0, 1, mpi.INT, recv, 0, 1, mpi.INT)
            return recv.tolist()

        results = run_spmd(main, nprocs)
        for rank, got in enumerate(results):
            assert got == [src * 10 + rank for src in range(nprocs)]

    def test_alltoallv(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            rank, size = comm.rank(), comm.size()
            # Rank r sends j+1 elements to rank j, all valued r.
            sendcounts = [j + 1 for j in range(size)]
            sdispls = [sum(sendcounts[:j]) for j in range(size)]
            send = np.full(sum(sendcounts), rank, dtype=np.int64)
            recvcounts = [rank + 1] * size
            rdispls = [i * (rank + 1) for i in range(size)]
            recv = np.zeros(sum(recvcounts), dtype=np.int64)
            comm.Alltoallv(send, 0, sendcounts, sdispls, mpi.LONG,
                           recv, 0, recvcounts, rdispls, mpi.LONG)
            return recv.tolist()

        results = run_spmd(main, nprocs)
        for rank, got in enumerate(results):
            expected = [src for src in range(nprocs) for _ in range(rank + 1)]
            assert got == expected

    def test_alltoallv_rdispls_out_of_rank_order(self, nprocs):
        """Blocks land where rdispls put them (here in reverse rank
        order), not in arrival or rank order."""

        def main(env):
            comm = env.COMM_WORLD
            rank, size = comm.rank(), comm.size()
            sendcounts = [j + 1 for j in range(size)]
            sdispls = [sum(sendcounts[:j]) for j in range(size)]
            send = np.array(
                [100 * rank + 10 * j + k for j in range(size) for k in range(j + 1)],
                dtype=np.int64,
            )
            recvcounts = [rank + 1] * size
            rdispls = [(size - 1 - i) * (rank + 1) for i in range(size)]
            recv = np.full(size * (rank + 1), -1, dtype=np.int64)
            comm.Alltoallv(send, 0, sendcounts, sdispls, mpi.LONG,
                           recv, 0, recvcounts, rdispls, mpi.LONG)
            return recv.tolist()

        results = run_spmd(main, nprocs)
        for rank, got in enumerate(results):
            expected = [
                100 * src + 10 * rank + k
                for src in reversed(range(nprocs))
                for k in range(rank + 1)
            ]
            assert got == expected


class TestMixedDatatypesInCollectives:
    def test_gather_vector_send_basic_recv(self, nprocs):
        """Sender packs a strided column; root receives contiguous —
        the gather/scatter pair across different type maps."""

        def main(env):
            comm = env.COMM_WORLD
            n = 4
            local = np.arange(n * n, dtype=np.float64) + 100 * comm.rank()
            column = mpi.DOUBLE.vector(n, 1, n)
            recv = (
                np.zeros(n * comm.size()) if comm.rank() == 0 else np.zeros(0)
            )
            comm.Gather(local, 0, 1, column, recv, 0, n, mpi.DOUBLE, 0)
            return recv.tolist() if comm.rank() == 0 else None

        got = run_spmd(main, nprocs)[0]
        expected = []
        for r in range(nprocs):
            expected.extend([100 * r + i * 4 for i in range(4)])
        assert got == expected

    def test_alltoall_vector_send_basic_recv(self, nprocs):
        """A strided sendtype is staged through pack; the receiver
        takes plain doubles."""

        def main(env):
            comm = env.COMM_WORLD
            size = comm.size()
            pair = mpi.DOUBLE.vector(2, 1, 3)  # elements k*4 + {0, 3}
            send = np.arange(4 * size, dtype=np.float64) + 100 * comm.rank()
            recv = np.zeros(2 * size)
            comm.Alltoall(send, 0, 1, pair, recv, 0, 2, mpi.DOUBLE)
            return recv.tolist()

        for rank, got in enumerate(run_spmd(main, nprocs)):
            assert got == [
                v for src in range(nprocs)
                for v in (100 * src + 4 * rank, 100 * src + 4 * rank + 3)
            ]

    def test_scatter_basic_send_vector_recv(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            n = 3
            column = mpi.DOUBLE.vector(n, 1, n)
            send = (
                np.arange(n * comm.size(), dtype=np.float64)
                if comm.rank() == 0
                else np.zeros(0)
            )
            local = np.zeros(n * n)
            comm.Scatter(send, 0, n, mpi.DOUBLE, local, 0, 1, column, 0)
            return local.reshape(n, n)[:, 0].tolist()

        results = run_spmd(main, nprocs)
        for rank, got in enumerate(results):
            assert got == [rank * 3.0, rank * 3.0 + 1, rank * 3.0 + 2]


def _two_a_plus_b_prefixes(nprocs):
    """Inclusive prefixes of 1, 2, ..., nprocs under a ∘ b = 2a + b."""
    out = [1]
    for r in range(1, nprocs):
        out.append(2 * out[-1] + r + 1)
    return out


class TestScanFamily:
    TWO_A_PLUS_B = mpi.Op(lambda a, b: 2 * a + b, commute=False, name="2a+b")

    def test_inclusive_scan(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank() + 1], dtype=np.int64)
            recv = np.zeros(1, dtype=np.int64)
            comm.Scan(send, 0, recv, 0, 1, mpi.LONG, mpi.SUM)
            return int(recv[0])

        results = run_spmd(main, nprocs)
        assert results == [sum(range(1, r + 2)) for r in range(nprocs)]

    def test_exclusive_scan(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank() + 1], dtype=np.int64)
            recv = np.full(1, -99, dtype=np.int64)
            comm.Exscan(send, 0, recv, 0, 1, mpi.LONG, mpi.SUM)
            return int(recv[0])

        results = run_spmd(main, nprocs)
        assert results[0] == -99  # rank 0's recvbuf untouched
        for r in range(1, nprocs):
            assert results[r] == sum(range(1, r + 1))

    def test_non_commutative_scan_folds_in_rank_order(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank() + 1], dtype=np.int64)
            recv = np.zeros(1, dtype=np.int64)
            comm.Scan(send, 0, recv, 0, 1, mpi.LONG, self.TWO_A_PLUS_B)
            return int(recv[0])

        assert run_spmd(main, nprocs) == _two_a_plus_b_prefixes(nprocs)

    def test_non_commutative_exscan_folds_in_rank_order(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            send = np.array([comm.rank() + 1], dtype=np.int64)
            recv = np.full(1, -99, dtype=np.int64)
            comm.Exscan(send, 0, recv, 0, 1, mpi.LONG, self.TWO_A_PLUS_B)
            return int(recv[0])

        assert run_spmd(main, nprocs) == [-99] + _two_a_plus_b_prefixes(nprocs)[:-1]


class TestReduceScatter:
    def test_reduce_scatter(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            rank, size = comm.rank(), comm.size()
            counts = [2] * size
            send = np.arange(2 * size, dtype=np.int64) + rank
            recv = np.zeros(2, dtype=np.int64)
            comm.Reduce_scatter(send, 0, recv, 0, counts, mpi.LONG, mpi.SUM)
            return recv.tolist()

        results = run_spmd(main, nprocs)
        base = sum(range(nprocs))  # sum over ranks of (x + rank)
        for rank, got in enumerate(results):
            i0, i1 = 2 * rank, 2 * rank + 1
            assert got == [i0 * nprocs + base, i1 * nprocs + base]
