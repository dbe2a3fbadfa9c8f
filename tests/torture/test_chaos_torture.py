"""The chaos torture suite: protocol correctness under injected faults.

Every test here runs real traffic through ChaosTransport's seeded fault plan
(delays, safe reordering, duplicated control frames) and asserts the
paper's correctness claims still hold: contents exact, per-stream FIFO
preserved, blocked threads harmless, waitany wakeups correct.  A
failure prints its ``REPRO_CHAOS_SEED`` for replay.
"""

import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.mpjdev.request import RequestFailedError
from repro.mpjdev.waitany import waitany
from repro.testing import ChaosConfig, ChaosTransport, wait_until
from repro.testing.fixtures import make_chaos_job
from repro.xdev.constants import ANY_SOURCE, ANY_TAG
from repro.xdev.frames import FrameType, encode_frame
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import Transport


def send_buffer(values):
    arr = np.asarray(values, dtype=np.int64)
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


def read_one(buf):
    return int(buf.read_section()[0])


class GatedRecorder(Transport):
    """Inner transport recording each frame's one payload byte; the
    write of frame 0 blocks until ``gate`` opens, so the release of a
    held frame 0 stays in flight for as long as the test needs."""

    def __init__(self) -> None:
        self.delivered: list[int] = []
        self.entered = threading.Event()
        self.gate = threading.Event()

    def start(self, engine) -> None:
        pass

    def close(self) -> None:
        pass

    def write(self, dest, segments, route=0, on_delivered=None) -> None:
        (value,) = bytes(segments[1])
        if value == 0:
            self.entered.set()
            assert self.gate.wait(10)
        self.delivered.append(value)
        if on_delivered is not None:
            on_delivered()


class TestReleaseOrdering:
    """A frame never overtakes a held frame of its own (context, tag)
    stream, not even while that frame's release is in flight."""

    #: With reorder_prob=0.5, seed 1 holds the stream's first frame
    #: and not its second (asserted below from the schedule).
    SEED = 1

    @pytest.mark.parametrize("releaser", ["flush-timer", "swap"])
    def test_same_stream_frame_waits_for_the_release(self, releaser):
        rec = GatedRecorder()
        chaos = ChaosTransport(
            rec,
            ChaosConfig(
                seed=self.SEED,
                reorder_prob=0.5,
                hold_flush_s=0.001 if releaser == "flush-timer" else 10.0,
            ),
        )
        dest = ProcessID()

        def frame(value, tag=5):
            return encode_frame(FrameType.EAGER, tag=tag, payload=bytes([value]))

        chaos.write(dest, frame(0))
        assert [e.action for e in chaos.events()] == ["hold"]
        if releaser == "swap":
            # A frame of another stream releases the held one after
            # its own write; the release blocks in the recorder.
            threading.Thread(
                target=chaos.write, args=(dest, frame(7, tag=6)), daemon=True
            ).start()
        assert rec.entered.wait(10)
        chaos.write(dest, frame(1))
        rec.gate.set()
        frames = 3 if releaser == "swap" else 2
        wait_until(lambda: len(rec.delivered) == frames)
        assert [v for v in rec.delivered if v != 7] == [0, 1]
        assert all(e.action != "hold" or e.occurrence == 1 for e in chaos.events())
        chaos.close()


class TestDeterministicSchedule:
    """Acceptance: a fixed seed produces an identical fault schedule."""

    SEED = 0xC0FFEE

    def _run_once(self):
        config = ChaosConfig.torture(self.SEED)
        devices, pids = make_chaos_job(2, self.SEED, config=config)
        try:
            # Ping-pong keeps every rank's write sequence single-file,
            # so the recorded schedule is a total order.
            for i in range(12):
                if i % 3 == 0:
                    # Rendezvous path: exercises RTS/RTR duplication.
                    sreq = devices[0].issend(send_buffer([i]), pids[1], i % 4, 0)
                else:
                    sreq = devices[0].isend(send_buffer([i]), pids[1], i % 4, 0)
                rbuf = Buffer()
                devices[1].recv(rbuf, pids[0], i % 4, 0)
                assert read_one(rbuf) == i
                sreq.wait(timeout=20)
            return [d.engine.transport.schedule() for d in devices]
        finally:
            for d in devices:
                d.finish()

    def test_identical_schedule_across_three_runs(self):
        runs = [self._run_once() for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        # An empty schedule would make the equality vacuous.
        assert sum(len(s) for s in runs[0]) > 0

    def test_different_seeds_differ(self):
        """The schedule actually depends on the seed (sanity)."""
        a = self._run_once()
        config = ChaosConfig.torture(self.SEED + 1)
        devices, pids = make_chaos_job(2, self.SEED + 1, config=config)
        try:
            for i in range(12):
                if i % 3 == 0:
                    sreq = devices[0].issend(send_buffer([i]), pids[1], i % 4, 0)
                else:
                    sreq = devices[0].isend(send_buffer([i]), pids[1], i % 4, 0)
                rbuf = Buffer()
                devices[1].recv(rbuf, pids[0], i % 4, 0)
                sreq.wait(timeout=20)
            b = [d.engine.transport.schedule() for d in devices]
        finally:
            for d in devices:
                d.finish()
        assert a != b


class TestProgressionUnderChaos:
    def test_blocked_thread_does_not_halt_others(self, chaos_job):
        """The paper's ProgressionTest, now under injected faults."""
        devs, pids = chaos_job.devices, chaos_job.pids
        rbuf = Buffer()
        blocked_req = devs[1].irecv(rbuf, pids[0], 999, 0)
        outcome = {}

        def blocked():
            outcome["status"] = blocked_req.wait(timeout=60)

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        for i in range(8):
            devs[0].send(send_buffer([i]), pids[1], 7, 0)
            rbuf2 = Buffer()
            status = devs[1].recv(rbuf2, pids[0], 7, 0)
            assert read_one(rbuf2) == i
            assert status.tag == 7
        assert "status" not in outcome
        devs[0].send(send_buffer([0]), pids[1], 999, 0)
        t.join(60)
        assert outcome["status"].tag == 999
        assert not chaos_job.graph.violations

    def test_bidirectional_rendezvous_no_deadlock(self, chaos_job):
        devs, pids = chaos_job.devices, chaos_job.pids
        big = np.arange(50_000, dtype=np.int64)  # 400 KB >> threshold
        done = {}

        def exchange(me, peer):
            buf = Buffer(capacity=big.nbytes + 64)
            buf.write(big)
            sreq = devs[me].isend(buf, pids[peer], 3, 0)
            rbuf = Buffer()
            devs[me].recv(rbuf, pids[peer], 3, 0)
            sreq.wait(timeout=60)
            done[me] = bool(np.array_equal(rbuf.read_section(), big))

        t0 = threading.Thread(target=exchange, args=(0, 1))
        t1 = threading.Thread(target=exchange, args=(1, 0))
        t0.start(); t1.start()
        t0.join(90); t1.join(90)
        assert done == {0: True, 1: True}


class TestAnySourceUnderReordering:
    def test_wildcard_matching_preserves_per_source_fifo(self, chaos_seed):
        """ANY_SOURCE receives under chaos: every message arrives, and
        messages from one source are never reordered against each
        other (the guard chaos must respect)."""
        nsenders, per_sender = 2, 15
        devices, pids = make_chaos_job(nsenders + 1, chaos_seed)
        try:
            errors = []

            def sender(rank):
                try:
                    for i in range(per_sender):
                        devices[rank].send(
                            send_buffer([rank * 1000 + i]), pids[0], 5, 0
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=sender, args=(r,))
                for r in range(1, nsenders + 1)
            ]
            for t in threads:
                t.start()

            per_source: dict[int, list[int]] = {}
            for _ in range(nsenders * per_sender):
                rbuf = Buffer()
                status = devices[0].recv(rbuf, ANY_SOURCE, 5, 0)
                per_source.setdefault(status.source.uid, []).append(read_one(rbuf))
            for t in threads:
                t.join(60)
            assert not errors
            assert len(per_source) == nsenders
            for uid, values in per_source.items():
                rank = pids.index(next(p for p in pids if p.uid == uid))
                assert values == [rank * 1000 + i for i in range(per_sender)]
        finally:
            for d in devices:
                d.finish()

    def test_any_tag_and_any_source_combined(self, chaos_job):
        devs, pids = chaos_job.devices, chaos_job.pids
        n = 20
        recvd = []

        def receiver():
            for _ in range(n):
                rbuf = Buffer()
                devs[1].recv(rbuf, ANY_SOURCE, ANY_TAG, 0)
                recvd.append(read_one(rbuf))

        t = threading.Thread(target=receiver)
        t.start()
        for i in range(n):
            # One stream (same context/tag would forbid reordering);
            # vary the tag so chaos may legally permute, and assert
            # the multiset rather than the order.
            devs[0].send(send_buffer([i]), pids[1], i, 0)
        t.join(60)
        assert sorted(recvd) == list(range(n))


class TestWaitanyUnderContention:
    def test_threads_waitany_each_get_their_own(self, chaos_job):
        devs, pids = chaos_job.devices, chaos_job.pids
        nthreads = 6
        reqs, bufs, results, errors = {}, {}, {}, []
        for i in range(nthreads):
            bufs[i] = Buffer()
            reqs[i] = devs[1].irecv(bufs[i], pids[0], 40 + i, 0)

        def waiter(i):
            try:
                idx, status = waitany(devs[1], [reqs[i]], timeout=60)
                results[i] = (idx, status.tag)
            except Exception as exc:  # noqa: BLE001
                errors.append((i, exc))

        threads = [
            threading.Thread(target=waiter, args=(i,)) for i in range(nthreads)
        ]
        for t in threads:
            t.start()
        wait_until(
            lambda: getattr(devs[1], "_waitany_queue", None) is not None
            and len(devs[1]._waitany_queue) == nthreads,
            timeout=10,
            message="all waitany callers enqueued",
        )
        for i in range(nthreads):
            devs[0].send(send_buffer([i]), pids[1], 40 + i, 0)
        for t in threads:
            t.join(60)
        assert not errors
        assert results == {i: (0, 40 + i) for i in range(nthreads)}


class TestInjectedFaultHandling:
    def test_duplicate_control_frames_rejected_loudly(self, chaos_seed):
        """Force duplication of every control frame: traffic must still
        complete, and every duplicate must be rejected and counted."""
        config = ChaosConfig(seed=chaos_seed, duplicate_prob=1.0)
        devices, pids = make_chaos_job(2, chaos_seed, config=config)
        try:
            for i in range(5):
                sreq = devices[0].issend(send_buffer([i]), pids[1], 2, 0)
                rbuf = Buffer()
                devices[1].recv(rbuf, pids[0], 2, 0)
                assert read_one(rbuf) == i
                sreq.wait(timeout=20)
            # Every RTS and RTR was duplicated; each copy was rejected.
            # The sender's request completes before the trailing dup RTR
            # is drained, so wait for the counters rather than snapshot.
            def dupes():
                return sum(
                    d.engine.stats["duplicate_control_frames"] for d in devices
                )

            wait_until(  # 5 dup RTS at rank1 + 5 dup RTR at rank0
                lambda: dupes() >= 10, timeout=10, message="duplicates counted"
            )
            # ...and rejected loudly: the transport kept the errors.
            errs = [
                err
                for d in devices
                for err in d.engine.transport.inner.errors
            ]
            assert errs and all("duplicate" in str(e).lower() or "unknown" in str(e) for e in errs)
        finally:
            for d in devices:
                d.finish()

    def test_truncated_payload_fails_the_receive(self, chaos_seed):
        """A truncated eager payload must fail the posted receive with
        the cause — never leave the waiter blocked forever."""
        config = ChaosConfig(seed=chaos_seed, truncate_prob=1.0)
        devices, pids = make_chaos_job(2, chaos_seed, config=config)
        try:
            rbuf = Buffer()
            rreq = devices[1].irecv(rbuf, pids[0], 1, 0)
            devices[0].send(send_buffer(np.arange(64)), pids[1], 1, 0)
            with pytest.raises(RequestFailedError):
                rreq.wait(timeout=10)
            assert rreq.failed and rreq.error is not None
        finally:
            for d in devices:
                d.finish()
