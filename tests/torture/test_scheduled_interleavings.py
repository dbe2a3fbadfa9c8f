"""Torture tests driven by the seeded interleaving scheduler.

Where ChaosTransport perturbs frames on the *sender* side, ScheduledInbox
permutes delivery order on the *receiver* side: every ``get()`` picks
among the eligible stream heads with a seeded PRNG, so one test run
exercises an interleaving of the scheduler's choosing — replayable
from the seed — instead of whatever the OS produced.
"""

import threading

import numpy as np

from repro.buffer import Buffer
from repro.testing import SeededSchedule, wait_until
from repro.testing.fixtures import make_scheduled_job
from repro.xdev.constants import ANY_SOURCE, ANY_TAG


def send_buffer(value):
    buf = Buffer()
    buf.write(np.array([value], dtype=np.int64))
    return buf


def read_one(buf):
    return int(buf.read_section()[0])


class TestScheduleReplay:
    def test_choices_are_recorded(self, seeded_schedule):
        devices, pids = seeded_schedule.job(2)
        for i in range(6):
            devices[0].send(send_buffer(i), pids[1], i, 0)
            rbuf = Buffer()
            devices[1].recv(rbuf, pids[0], i, 0)
            assert read_one(rbuf) == i
        choices = seeded_schedule.schedule.choices
        assert choices, "every delivery should consult the schedule"
        assert all(0 <= idx < n for _rank, idx, n, _ep in choices)

    def test_single_threaded_traffic_replays_identically(self, chaos_seed):
        """With single-file traffic the delivered sequence of schedule
        decisions is a pure function of the seed."""

        def run(seed):
            schedule = SeededSchedule(seed)
            devices, pids = make_scheduled_job(2, schedule)
            try:
                for i in range(10):
                    devices[0].send(send_buffer(i), pids[1], i % 3, 0)
                    rbuf = Buffer()
                    devices[1].recv(rbuf, pids[0], i % 3, 0)
                    assert read_one(rbuf) == i
                return list(schedule.choices)
            finally:
                for d in devices:
                    d.finish()

        a, b = run(chaos_seed), run(chaos_seed)
        assert a == b

    def test_different_seeds_can_pick_differently(self):
        """Sanity: the PRNG choice actually depends on the seed."""
        a = SeededSchedule(1)
        b = SeededSchedule(2)
        assert [a.pick(0, 10) for _ in range(20)] != [
            b.pick(0, 10) for _ in range(20)
        ]


class TestWildcardsUnderScheduledDelivery:
    def test_any_source_fifo_per_stream(self, seeded_schedule):
        """Two senders race into one ANY_SOURCE receiver; a generous
        gather window forces the scheduler to make real choices, and
        per-source FIFO must survive every one of them."""
        nsenders, per_sender = 2, 12
        devices, pids = seeded_schedule.job(
            nsenders + 1, gather_window_s=0.005
        )
        errors = []

        def sender(rank):
            try:
                for i in range(per_sender):
                    devices[rank].send(
                        send_buffer(rank * 1000 + i), pids[0], 4, 0
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=sender, args=(r,))
            for r in range(1, nsenders + 1)
        ]
        for t in threads:
            t.start()
        per_source = {}
        for _ in range(nsenders * per_sender):
            rbuf = Buffer()
            status = devices[0].recv(rbuf, ANY_SOURCE, 4, 0)
            per_source.setdefault(status.source.uid, []).append(read_one(rbuf))
        for t in threads:
            t.join(60)
        assert not errors
        assert len(per_source) == nsenders
        uid_to_rank = {p.uid: r for r, p in enumerate(pids)}
        for uid, values in per_source.items():
            rank = uid_to_rank[uid]
            assert values == [rank * 1000 + i for i in range(per_sender)]

    def test_any_tag_multiset_preserved(self, seeded_schedule):
        """Distinct tags are distinct streams — the scheduler may
        permute them freely, but nothing is lost or duplicated."""
        devices, pids = seeded_schedule.job(2, gather_window_s=0.005)
        n = 16
        recvd = []

        def receiver():
            for _ in range(n):
                rbuf = Buffer()
                devices[1].recv(rbuf, ANY_SOURCE, ANY_TAG, 0)
                recvd.append(read_one(rbuf))

        t = threading.Thread(target=receiver)
        t.start()
        for i in range(n):
            devices[0].send(send_buffer(i), pids[1], i, 0)
        t.join(60)
        assert sorted(recvd) == list(range(n))

    def test_blocked_thread_progression(self, seeded_schedule):
        """The ProgressionTest under scheduled delivery."""
        devices, pids = seeded_schedule.job(2, gather_window_s=0.005)
        rbuf = Buffer()
        blocked = devices[1].irecv(rbuf, pids[0], 999, 0)
        out = {}

        def waiter():
            out["status"] = blocked.wait(timeout=60)

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        for i in range(6):
            devices[0].send(send_buffer(i), pids[1], 6, 0)
            rbuf2 = Buffer()
            devices[1].recv(rbuf2, pids[0], 6, 0)
            assert read_one(rbuf2) == i
        assert "status" not in out
        devices[0].send(send_buffer(0), pids[1], 999, 0)
        wait_until(lambda: "status" in out, timeout=60, message="release delivered")
        assert out["status"].tag == 999


class TestConcurrentCollectives:
    """Two threads per rank drive different communicators concurrently
    under scheduled delivery — the THREAD_MULTIPLE claim for the new
    collective engine, replayable from the seed."""

    def test_allreduce_and_bcast_interleaved(self, seeded_schedule):
        from repro.mpi.environment import MPJEnvironment
        from repro.mpi.op import SUM

        nprocs, rounds = 3, 4
        devices, pids = seeded_schedule.job(nprocs)
        envs = [MPJEnvironment(devices[r], pids, r) for r in range(nprocs)]
        results = [{} for _ in range(nprocs)]
        errors = []

        def rank_main(rank):
            try:
                world = envs[rank].COMM_WORLD
                coll_a = world.dup()
                coll_b = world.dup()

                def allreducer():
                    # Force the vector-splitting algorithm so the two
                    # threads interleave segment traffic, not just calls.
                    coll_a.set_collective_algorithm("allreduce", "recursive_doubling")
                    out = []
                    for i in range(rounds):
                        send = np.arange(16, dtype=np.int64) + rank + i
                        recv = np.zeros(16, dtype=np.int64)
                        coll_a.Allreduce(send, 0, recv, 0, 16, None, SUM)
                        out.append(recv.tolist())
                    results[rank]["allreduce"] = out

                def bcaster():
                    coll_b.set_collective_algorithm("bcast", "binomial_pipelined")
                    out = []
                    for i in range(rounds):
                        buf = (
                            np.arange(16, dtype=np.int64) * (i + 1)
                            if rank == i % nprocs
                            else np.zeros(16, dtype=np.int64)
                        )
                        coll_b.Bcast(buf, 0, 16, None, i % nprocs)
                        out.append(buf.tolist())
                    results[rank]["bcast"] = out

                ta = threading.Thread(target=allreducer, daemon=True)
                tb = threading.Thread(target=bcaster, daemon=True)
                ta.start(), tb.start()
                ta.join(60), tb.join(60)
                assert not ta.is_alive() and not tb.is_alive(), "collective hang"
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append((rank, exc))

        threads = [
            threading.Thread(target=rank_main, args=(r,), daemon=True)
            for r in range(nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not errors, errors

        expected_allreduce = [
            [
                sum((np.arange(16, dtype=np.int64) + r + i).tolist()[j] for r in range(nprocs))
                for j in range(16)
            ]
            for i in range(rounds)
        ]
        expected_bcast = [
            (np.arange(16, dtype=np.int64) * (i + 1)).tolist() for i in range(rounds)
        ]
        for rank in range(nprocs):
            assert results[rank]["allreduce"] == expected_allreduce
            assert results[rank]["bcast"] == expected_bcast
