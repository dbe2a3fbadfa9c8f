"""Thread-safety tests — the paper's core claim (Section IV-B).

"These test cases start multiple threads for a single MPJE process.
These threads communicate with other process.  When the message is
received at the receiver, the contents of the message are verified."

Includes the ProgressionTest: "one of the thread running in a
multi-threaded MPJE process blocks itself and we check if this halts
the execution of other threads in the same process."
"""

import sys
import threading

import numpy as np
import pytest

from repro import mpi
from repro.buffer import Buffer
from repro.runtime.launcher import run_spmd
from repro.xdev.constants import ANY_TAG

from tests.conftest import make_job


def send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


class TestMultiThreadedSends:
    def test_concurrent_senders_one_receiver(self, job2):
        """N sender threads on rank 0, contents verified at rank 1."""
        devs, pids = job2
        nthreads, per_thread = 4, 10
        errors = []

        def sender(tid):
            try:
                for i in range(per_thread):
                    payload = np.array([tid * 1000 + i], dtype=np.int64)
                    devs[0].send(send_buffer(payload), pids[1], tid, 0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=sender, args=(t,)) for t in range(nthreads)]
        for t in threads:
            t.start()

        received = {tid: [] for tid in range(nthreads)}
        for _ in range(nthreads * per_thread):
            rbuf = Buffer()
            status = devs[1].recv(rbuf, pids[0], ANY_TAG, 0)
            received[status.tag].append(int(rbuf.read_section()[0]))
        for t in threads:
            t.join(20)
        assert not errors
        # Per-thread FIFO must be preserved; contents exact.
        for tid in range(nthreads):
            assert received[tid] == [tid * 1000 + i for i in range(per_thread)]

    def test_concurrent_receivers(self, job2):
        devs, pids = job2
        nmsgs = 12
        results = []
        lock = threading.Lock()

        def receiver():
            rbuf = Buffer()
            devs[1].recv(rbuf, pids[0], ANY_TAG, 0)
            with lock:
                results.append(int(rbuf.read_section()[0]))

        threads = [threading.Thread(target=receiver) for _ in range(nmsgs)]
        for t in threads:
            t.start()
        for i in range(nmsgs):
            devs[0].send(send_buffer(np.array([i], dtype=np.int64)), pids[1], i, 0)
        for t in threads:
            t.join(20)
        assert sorted(results) == list(range(nmsgs))

    def test_bidirectional_concurrent_traffic(self, job2):
        """Both ranks send and receive simultaneously from threads."""
        devs, pids = job2
        n = 10
        errors = []

        def pump(me, peer):
            try:
                for i in range(n):
                    devs[me].send(
                        send_buffer(np.array([me * 100 + i], dtype=np.int64)),
                        pids[peer], 1, 0,
                    )
                got = []
                for _ in range(n):
                    rbuf = Buffer()
                    devs[me].recv(rbuf, pids[peer], 1, 0)
                    got.append(int(rbuf.read_section()[0]))
                assert got == [peer * 100 + i for i in range(n)]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        t0 = threading.Thread(target=pump, args=(0, 1))
        t1 = threading.Thread(target=pump, args=(1, 0))
        t0.start(); t1.start()
        t0.join(30); t1.join(30)
        assert not errors


class TestProgression:
    def test_blocked_thread_does_not_halt_others(self, job2):
        """The ProgressionTest (paper Section IV-B)."""
        devs, pids = job2
        blocked_done = threading.Event()

        # Post the never-matching receive synchronously, then block a
        # thread on it — deterministic, no sleep needed to "let the
        # thread get going".
        blocked_buf = Buffer()
        blocked_req = devs[1].irecv(blocked_buf, pids[0], 999, 0)

        def blocked_thread():
            # Blocks forever-ish: no one sends tag 999 yet.
            try:
                blocked_req.wait(timeout=30)
                blocked_done.set()
            except TimeoutError:
                pass

        t = threading.Thread(target=blocked_thread, daemon=True)
        t.start()

        # While that thread is blocked, other threads of the same
        # process must still make progress.
        for i in range(5):
            devs[0].send(send_buffer(np.array([i], dtype=np.int64)), pids[1], 7, 0)
            rbuf = Buffer()
            status = devs[1].recv(rbuf, pids[0], 7, 0)
            assert int(rbuf.read_section()[0]) == i
            assert status.tag == 7
        assert not blocked_done.is_set()
        # Unblock and let it finish cleanly.
        devs[0].send(send_buffer(np.array([0], dtype=np.int64)), pids[1], 999, 0)
        t.join(30)

    def test_blocked_send_does_not_halt_receives(self, job2):
        """A thread stuck in ssend (no matching recv) must not stop
        other threads' traffic."""
        devs, pids = job2
        unblocked = threading.Event()

        # issend posts the synchronous send before the thread starts
        # (ssend is issend + wait), so the send is guaranteed in
        # flight without sleeping.
        stuck_req = devs[0].issend(
            send_buffer(np.array([1], dtype=np.int8)), pids[1], 888, 0
        )

        def stuck_sender():
            stuck_req.wait(timeout=30)
            unblocked.set()

        t = threading.Thread(target=stuck_sender, daemon=True)
        t.start()
        for i in range(3):
            devs[0].send(send_buffer(np.array([i], dtype=np.int64)), pids[1], 5, 0)
            rbuf = Buffer()
            devs[1].recv(rbuf, pids[0], 5, 0)
        assert not unblocked.is_set()
        rbuf = Buffer()
        devs[1].recv(rbuf, pids[0], 888, 0)
        assert unblocked.wait(10)
        t.join(10)


class TestSimultaneousLargeMessages:
    def test_bidirectional_rendezvous_no_deadlock(self, job2):
        """The deadlock scenario the paper's forked rendez-write-thread
        exists to prevent: 'Such blockage of input-thread could result
        in a deadlock if two processes are simultaneously sending large
        messages to each other' (Section IV-A.2)."""
        devs, pids = job2
        big = np.arange(100_000, dtype=np.float64)  # 800 KB >> threshold
        done = {}

        def exchange(me, peer):
            sreq = devs[me].isend(send_buffer(big), pids[peer], 3, 0)
            rbuf = Buffer()
            devs[me].recv(rbuf, pids[peer], 3, 0)
            sreq.wait(timeout=30)
            done[me] = bool(np.array_equal(rbuf.read_section(), big))

        t0 = threading.Thread(target=exchange, args=(0, 1))
        t1 = threading.Thread(target=exchange, args=(1, 0))
        t0.start(); t1.start()
        t0.join(60); t1.join(60)
        assert done == {0: True, 1: True}

    def test_sendrecv_without_writer_threads_on_smdev(self):
        """The same exchange as one MPI Sendrecv per rank, with the
        rendez-write-thread ablated.  smdev writes the data on the
        thread that delivers the RTR whatever the option says, so
        nothing waits on a blocked handler and the exchange completes;
        on niodev the ablation can deadlock."""
        n = (1 << 20) // 8  # 1 MiB of doubles

        def main(env):
            comm = env.COMM_WORLD
            peer = 1 - comm.rank()
            out = np.full(n, comm.rank(), dtype=np.float64)
            incoming = np.empty(n, dtype=np.float64)
            comm.Sendrecv(
                out, 0, n, mpi.DOUBLE, peer, 4, incoming, 0, n, mpi.DOUBLE, peer, 4
            )
            return bool((incoming == peer).all())

        results = run_spmd(
            main, 2, device="smdev",
            options={"fork_rendezvous_writer": False}, timeout=60,
        )
        assert results == [True, True]

    @pytest.mark.parametrize(
        "device, nbytes",
        [
            ("niodev", 1 << 20),
            pytest.param(
                "niodev", 16 << 20,
                marks=pytest.mark.skip(
                    reason="deadlocks, as Fig. 8 warns: both input handlers "
                    "block in sendmsg with neither reading, and a hung job "
                    "leaks them (finish() cannot wake them)"
                ),
            ),
            ("procdev", 1 << 20),
            ("procdev", 16 << 20),
        ],
        ids=["niodev-1MiB", "niodev-16MiB", "procdev-1MiB", "procdev-16MiB"],
    )
    def test_sendrecv_without_writer_threads(self, device, nbytes):
        """The same exchange on the devices where the ablation changes
        behaviour: each rank's RTR is answered on the thread that reads
        it (niodev's input handler, procdev's poller), which writes the
        whole payload itself while the peer's data is due on the same
        connection.  procdev completes at both sizes; niodev's input
        handlers complete only while the socket buffers hold the payload
        (1 MiB did, 4 MiB did not, on a Linux host with default buffer
        limits)."""
        n = nbytes // 8

        def main(env):
            comm = env.COMM_WORLD
            peer = 1 - comm.rank()
            out = np.full(n, comm.rank(), dtype=np.float64)
            incoming = np.empty(n, dtype=np.float64)
            comm.Sendrecv(
                out, 0, n, mpi.DOUBLE, peer, 4, incoming, 0, n, mpi.DOUBLE, peer, 4
            )
            stats = comm._devcomm.device.engine.stats
            return bool((incoming == peer).all()), stats["rendezvous_writer_threads"]

        results = run_spmd(
            main, 2, device=device,
            options={"fork_rendezvous_writer": False}, timeout=60,
        )
        assert results == [(True, 0), (True, 0)]


class TestExactCounters:
    """Frames are delivered on whichever thread writes them, so the
    engine's counters are bumped by many threads at once and must not
    lose an increment to a badly timed thread switch.  (A GIL build of
    CPython 3.11 never switches inside a dict ``+= 1``; a free-threaded
    build can, which is what this guards.)"""

    def test_counts_are_exact_under_preemption(self):
        nthreads, per_thread = 4, 250
        total = nthreads * per_thread
        devs, pids = make_job("smdev", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def sender(tid):
                for i in range(per_thread):
                    payload = np.array([i], dtype=np.int64)
                    devs[0].send(send_buffer(payload), pids[1], tid, 0)

            threads = [
                threading.Thread(target=sender, args=(t,)) for t in range(nthreads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in threads)
            # No receive was posted: every message arrived unexpected,
            # counted by the sending threads inside rank 1's engine.
            sender_stats = devs[0].engine.stats
            assert sender_stats["eager_sends"] == total
            assert sender_stats["completions"] == total
            assert devs[1].engine.stats["unexpected_messages"] == total
            for _ in range(total):
                devs[1].recv(Buffer(), pids[0], ANY_TAG, 0)
            assert devs[1].engine.stats["completions"] == total
        finally:
            for d in devs:
                d.finish()
