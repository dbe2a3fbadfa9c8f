"""Collective schedules: checked without running them, then the live
executor checked against them.

A schedule yields one rank's steps per global round.  The pure checks
run every rank's schedule side by side: all ranks must yield the same
number of rounds, and in each round the sends and the receives must
pair up exactly by (peer, tag, bytes) — the property that lets the
executor post a round's receives, then its sends, then wait, and lets
netsim price a round by its slowest rank.  The live checks record what
the executor posts through ``Comm._post_send`` on the collective
context and compare it with what the schedule says.
"""

from collections import Counter
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from repro import mpi
from repro.mpi import tuning
from repro.mpi.algorithms import (
    DEFAULTS,
    FIXED,
    RECV,
    RECV_REDUCE,
    REGISTRY,
    SEGMENT_BYTES,
    SEND,
    Shape,
    resolve,
)
from repro.mpi.comm import Comm
from repro.runtime.launcher import run_spmd

ENTRIES = [(c, a) for c in REGISTRY for a in REGISTRY[c]]
FIXED_ENTRIES = [(c, name) for c, (name, _schedule) in FIXED.items()]
SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16]
NBYTES = [0, 1024, (1 << 20) + 24]


def alltoallv_shape(rank, p, blk):
    """Rank *rank*'s Alltoallv shape when rank q sends rank r a block of
    ``blk + (q + 2r) % 3`` doubles: uneven per peer, and what r receives
    from q differs from what r sends to q."""
    counts = tuple(blk + (q + 2 * rank) % 3 for q in range(p))
    scounts = tuple(blk + (rank + 2 * q) % 3 for q in range(p))
    return Shape(
        sum(counts), 8,
        counts=counts, displs=tuple(accumulate(counts[:-1], initial=0)),
        scounts=scounts, sdispls=tuple(accumulate(scounts[:-1], initial=0)),
    )


def vector_shape(collective, p, nbytes, op_commutes=True, rank=0):
    """Rank *rank*'s shape of a DOUBLE vector of *nbytes*: split in p
    blocks for the rooted gather family and alltoall, one block per
    rank for allgather, uneven per-rank blocks for the vector variants
    and uneven per-peer blocks for alltoallv."""
    n = nbytes // 8
    if collective in ("gather", "scatter", "alltoall"):
        return Shape(n // p, 8, commute=op_commutes)
    if collective == "alltoallv":
        return replace(alltoallv_shape(rank, p, n // (p * p)), commute=op_commutes)
    if collective in ("allgatherv", "reduce_scatter", "gatherv", "scatterv"):
        counts = tuple(n // p + (r < n % p) for r in range(p))
        displs = tuple(accumulate(counts[:-1], initial=0))
        return Shape(n, 8, commute=op_commutes, counts=counts, displs=displs)
    return Shape(n, 8, commute=op_commutes)


def schedule_of(collective, algorithm, p, shape):
    """The schedule that runs *algorithm* (after its fallbacks)."""
    if collective in FIXED:
        return FIXED[collective][1]
    return REGISTRY[collective][resolve(collective, algorithm, p, shape)]


def defaults(collective, nbytes):
    return DEFAULTS[collective]


def builtin(p):
    return lambda collective, nbytes: tuning.BUILTIN.choose(collective, nbytes, p) or DEFAULTS[collective]


def paired(ranks, itemsize):
    """Assert *ranks* (one list of rounds per rank) align and pair up."""
    assert len({len(rounds) for rounds in ranks}) == 1
    p = len(ranks)
    for k in range(len(ranks[0])):
        sends, recvs = Counter(), Counter()
        for r in range(p):
            for st in ranks[r][k]:
                nbytes = st.block[2] * itemsize
                if st.kind == SEND:
                    assert 0 <= st.peer < p and st.peer != r
                    sends[(r, st.peer, st.tag, nbytes)] += 1
                elif st.kind in (RECV, RECV_REDUCE):
                    recvs[(st.peer, r, st.tag, nbytes)] += 1
        assert sends == recvs, f"round {k}"


@pytest.mark.parametrize("collective,algorithm", ENTRIES + FIXED_ENTRIES)
def test_rounds_align_and_messages_pair(collective, algorithm):
    for p in SIZES:
        for nbytes in NBYTES:
            for commute in (True, False):
                shapes = [vector_shape(collective, p, nbytes, commute, r) for r in range(p)]
                schedule = schedule_of(collective, algorithm, p, shapes[0])
                for select in (defaults, builtin(p)):
                    for root in sorted({0, p - 1}):
                        ranks = [
                            list(schedule(r, p, root, shapes[r], select)) for r in range(p)
                        ]
                        try:
                            paired(ranks, shapes[0].itemsize)
                        except AssertionError as exc:
                            raise AssertionError(
                                f"{collective}/{algorithm} p={p} root={root} "
                                f"nbytes={nbytes} commute={commute}: {exc}"
                            ) from exc


# ----------------------------------------------------------------------
# live: the executor sends exactly what the schedule says

D = mpi.DOUBLE
BIG = SEGMENT_BYTES // 8 + 5  # two pipeline segments


def _call(comm, collective, root):
    """Run one *collective* call; return the Shape of its schedule on
    this rank (the full per-rank vectors where Intracomm leaves them to
    the root: a non-root rank reads its own entry, which equals what
    Intracomm gives it)."""
    p, r = comm.size(), comm.rank()
    if collective == "barrier":
        comm.Barrier()
        return Shape(0, 1)
    if collective in ("bcast", "reduce", "allreduce", "scan", "exscan"):
        send, recv = np.arange(BIG, dtype=float) + r, np.zeros(BIG)
        if collective == "bcast":
            comm.Bcast(send, 0, BIG, D, root)
        elif collective == "reduce":
            comm.Reduce(send, 0, recv, 0, BIG, D, mpi.SUM, root)
        elif collective == "allreduce":
            comm.Allreduce(send, 0, recv, 0, BIG, D, mpi.SUM)
        elif collective == "scan":
            comm.Scan(send, 0, recv, 0, BIG, D, mpi.SUM)
        else:
            comm.Exscan(send, 0, recv, 0, BIG, D, mpi.SUM)
        return Shape.of(BIG, D, mpi.SUM)
    blk = 2 * p + 1
    if collective == "gather":
        comm.Gather(np.ones(blk), 0, blk, D, np.zeros(blk * p), 0, blk, D, root)
    elif collective == "scatter":
        comm.Scatter(np.ones(blk * p), 0, blk, D, np.zeros(blk), 0, blk, D, root)
    elif collective == "allgather":
        comm.Allgather(np.ones(blk), 0, blk, D, np.zeros(blk * p), 0, blk, D)
    elif collective == "alltoall":
        comm.Alltoall(np.ones(blk * p), 0, blk, D, np.zeros(blk * p), 0, blk, D)
    if collective in ("gather", "scatter", "allgather", "alltoall"):
        return Shape.of(blk, D)
    if collective == "alltoallv":
        shape = alltoallv_shape(r, p, blk)
        comm.Alltoallv(
            np.ones(sum(shape.scounts)), 0, list(shape.scounts), list(shape.sdispls), D,
            np.zeros(shape.base), 0, list(shape.counts), list(shape.displs), D,
        )
        return shape
    counts = tuple(blk + q % 3 for q in range(p))
    displs = tuple(accumulate(counts[:-1], initial=0))
    if collective == "allgatherv":
        comm.Allgatherv(
            np.ones(counts[r]), 0, counts[r], D,
            np.zeros(sum(counts)), 0, list(counts), list(displs), D,
        )
    elif collective == "gatherv":
        comm.Gatherv(
            np.ones(counts[r]), 0, counts[r], D,
            np.zeros(sum(counts)), 0, list(counts), list(displs), D, root,
        )
    elif collective == "scatterv":
        comm.Scatterv(
            np.ones(sum(counts)), 0, list(counts), list(displs), D,
            np.zeros(counts[r]), 0, counts[r], D, root,
        )
    else:
        comm.Reduce_scatter(
            np.ones(sum(counts)), 0, np.zeros(counts[r]), 0, list(counts), D, mpi.SUM
        )
    return Shape(sum(counts), 8, counts=counts, displs=displs)


@pytest.mark.parametrize("nprocs", [3, 4])
@pytest.mark.parametrize("collective,algorithm", ENTRIES + FIXED_ENTRIES)
def test_executor_sends_what_the_schedule_says(monkeypatch, collective, algorithm, nprocs):
    """Each collective runs twice in one job, so the second call runs
    the communicator's cached plan; both must send what the schedule
    says."""
    sent: list[tuple[int, int, int, int]] = []
    post_send = Comm._post_send

    def recording(self, buf, offset, count, datatype, dest, tag, context, mode):
        if context == getattr(self, "_context_coll", None):
            sent.append((self.rank(), dest, tag, datatype.packed_size(count)))
        return post_send(self, buf, offset, count, datatype, dest, tag, context, mode)

    monkeypatch.setattr(Comm, "_post_send", recording)

    def main(env):
        comm = env.COMM_WORLD
        if collective in REGISTRY:
            comm.set_collective_algorithm(collective, algorithm)
        root = comm.size() - 1
        for _ in range(2):
            shape = _call(comm, collective, root)
        p, r = comm.size(), comm.rank()
        schedule = schedule_of(collective, algorithm, p, shape)(
            r, p, root, shape, comm._select_algorithm
        )
        once = Counter(
            (r, st.peer, st.tag, st.block[2] * shape.itemsize)
            for steps in schedule
            for st in steps
            if st.kind == SEND
        )
        return once + once

    expected = sum(run_spmd(main, nprocs), Counter())
    assert Counter(sent) == expected
    assert sum(expected.values()) > 0


# ----------------------------------------------------------------------
# the metrics label names the algorithm that ran


class TestLabelNamesTheAlgorithmThatRan:
    @staticmethod
    def _labels(run, collective):
        keys = set()
        for counters in run:
            keys |= {k for k, v in counters.items() if k.startswith(f"coll.{collective}{{") and v}
        return keys

    def test_bcast_below_one_element_per_rank_is_binomial(self):
        def main(env):
            comm = env.COMM_WORLD
            comm.set_collective_algorithm("bcast", "scatter_allgather")
            buf = np.arange(2, dtype=float) if comm.rank() == 0 else np.zeros(2)
            comm.Bcast(buf, 0, 2, D, 0)  # count 2 < 4 ranks
            assert buf.tolist() == [0.0, 1.0]
            return env.device.engine.metrics.snapshot()["counters"]

        assert self._labels(run_spmd(main, 4), "bcast") == {"coll.bcast{algorithm=binomial}"}

    def test_non_commutative_allreduce_is_reduce_bcast(self):
        sub = mpi.Op(lambda a, b: a - b, commute=False, name="SUB")

        def main(env):
            comm = env.COMM_WORLD
            comm.set_collective_algorithm("allreduce", "rabenseifner")
            recv = np.zeros(8)
            comm.Allreduce(np.full(8, float(comm.rank())), 0, recv, 0, 8, D, sub)
            assert recv[0] == 0.0 - sum(range(1, comm.size()))
            return env.device.engine.metrics.snapshot()["counters"]

        assert self._labels(run_spmd(main, 4), "allreduce") == {
            "coll.allreduce{algorithm=reduce_bcast}"
        }
