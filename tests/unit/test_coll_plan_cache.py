"""The per-communicator plan cache.

``Intracomm._collective`` keeps the plan of each call shape it has run
(``PLAN_CACHE_SIZE`` of them, oldest evicted first).  Each test here
changes one input the cache key must cover between two calls of the
same shape, and fails against a cache that ignores it.
"""

from collections import Counter

import numpy as np

from repro import mpi
from repro.mpi import tuning
from repro.mpi.algorithms import REGISTRY, SEND, Shape
from repro.mpi.comm import TAG_BARRIER, Comm
from repro.mpi.intracomm import PLAN_CACHE_SIZE
from repro.mpi.tuning import DecisionTable, Rule
from repro.runtime.launcher import run_spmd

D = mpi.DOUBLE
COUNT = 64


def _allreduce(comm, count=COUNT):
    """One Allreduce(SUM) of *count* doubles; the result is checked."""
    p, r = comm.size(), comm.rank()
    send = np.arange(count, dtype=float) + r
    recv = np.zeros(count)
    comm.Allreduce(send, 0, recv, 0, count, D, mpi.SUM)
    assert np.array_equal(recv, p * np.arange(count, dtype=float) + p * (p - 1) // 2)


def _counters(env):
    return env.device.engine.metrics.snapshot()["counters"]


def _labels(counters, collective="allreduce"):
    prefix = f"coll.{collective}{{algorithm="
    return {k[len(prefix):-1]: v for k, v in counters.items() if k.startswith(prefix)}


def _schedule_sends(comm, algorithm, count=COUNT):
    """The (rank, dest, tag, bytes) multiset *algorithm*'s schedule sends."""
    p, r = comm.size(), comm.rank()
    shape = Shape.of(count, D, mpi.SUM)
    schedule = REGISTRY["allreduce"][algorithm](r, p, 0, shape, comm._select_algorithm)
    return Counter(
        (r, st.peer, st.tag, st.block[2] * shape.itemsize)
        for steps in schedule
        for st in steps
        if st.kind == SEND
    )


def _recording(monkeypatch):
    """Record every send the executor posts on a collective context,
    tagged with the caller's current phase (``phase[0]``)."""
    sent: list = []
    phase = [0]
    post_send = Comm._post_send

    def recording(self, buf, offset, count, datatype, dest, tag, context, mode):
        if context == getattr(self, "_context_coll", None):
            sent.append((phase[0], (self.rank(), dest, tag, datatype.packed_size(count))))
        return post_send(self, buf, offset, count, datatype, dest, tag, context, mode)

    monkeypatch.setattr(Comm, "_post_send", recording)
    return sent, phase


def _traffic(sent, phase):
    """What was sent in *phase*, barrier tokens aside."""
    return Counter(key for ph, key in sent if ph == phase and key[2] != TAG_BARRIER)


def test_override_between_same_shape_calls_takes_effect(monkeypatch):
    monkeypatch.delenv(tuning.ENV, raising=False)
    sent, phase = _recording(monkeypatch)

    def main(env):
        comm = env.COMM_WORLD
        _allreduce(comm)
        comm.Barrier()
        phase[0] = 1
        comm.Barrier()
        comm.set_collective_algorithm("allreduce", "recursive_doubling")
        _allreduce(comm)
        return _labels(_counters(env)), _schedule_sends(comm, "recursive_doubling")

    run = run_spmd(main, 4)
    assert all(labels == {"reduce_bcast": 1, "recursive_doubling": 1} for labels, _ in run)
    assert _traffic(sent, 1) == sum((sends for _, sends in run), Counter())


def test_tuning_table_set_between_calls_takes_effect(tmp_path, monkeypatch):
    path = tmp_path / "tuned.json"
    DecisionTable({"allreduce": [Rule("recursive_doubling")]}).save(str(path))
    monkeypatch.delenv(tuning.ENV, raising=False)
    sent, phase = _recording(monkeypatch)

    def main(env):
        comm = env.COMM_WORLD
        _allreduce(comm)
        comm.Barrier()
        if comm.rank() == 0:
            monkeypatch.setenv(tuning.ENV, str(path))
            phase[0] = 1
        comm.Barrier()
        _allreduce(comm)
        return _labels(_counters(env)), _schedule_sends(comm, "recursive_doubling")

    run = run_spmd(main, 4)
    assert all(labels == {"reduce_bcast": 1, "recursive_doubling": 1} for labels, _ in run)
    assert _traffic(sent, 1) == sum((sends for _, sends in run), Counter())


def test_cache_stays_at_its_bound_and_results_stay_exact():
    counts = range(1, PLAN_CACHE_SIZE + 9)

    def main(env):
        comm = env.COMM_WORLD
        for count in counts:
            _allreduce(comm, count)
        assert len(comm._plans) == PLAN_CACHE_SIZE
        # The first shapes were evicted: they plan again, still exact.
        for count in counts[:4]:
            _allreduce(comm, count)
        assert len(comm._plans) == PLAN_CACHE_SIZE
        return True

    assert all(run_spmd(main, 3))


def test_every_call_is_counted():
    n = 5

    def main(env):
        comm = env.COMM_WORLD
        for _ in range(n):
            _allreduce(comm)
        snap = env.device.engine.metrics.snapshot()
        return snap["counters"]["coll.allreduce"], snap["histograms"]["coll.bytes"]["count"]

    assert run_spmd(main, 4) == [(n, n)] * 4
