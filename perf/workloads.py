"""The six messaging workloads, driven through the public MPI API.

Every workload is a closed loop: the next operation starts when the
previous one has completed.  A *trial* is a fixed number of operations
run by all ranks of one job, in three steps the worker calls on every
rank: ``state.prepare(trial, ops)`` makes the inputs from ``(seed, trial)``
alone, ``workload.trial(...)`` is the timed part and returns the per-op
times taken on the initiating side, ``state.verify(trial)`` checks what
the trial's last operation delivered and returns how many were wrong.

``spans`` is None on an end-to-end trial.  On a traced trial it is a
list that receives one ``(name, start, end, parent, op, rank)`` tuple
per public MPI call — the benchmark's own tracing; nothing inside
``repro`` is touched.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro import mpi

now = time.perf_counter

TAG_PING, TAG_PONG = 1, 2
FLOOD_WINDOW = 32
FLOOD_THREADS = 2
ALLREDUCE_COUNT = 8192


@dataclass(frozen=True)
class Message:
    """The message one op moves — what the peel replays at each depth."""

    kind: str  # "bytes" | "vector"
    nbytes: int
    #: one-way time on the reference container; only sizes the peel's loop.
    nominal_oneway_us: float


@dataclass(frozen=True)
class Workload:
    name: str
    device: str
    nranks: int
    #: operations in one full-size trial and what one costs on the
    #: reference container; together they turn ``--seconds`` into a
    #: fixed amount of work (see ``worker.plan``).
    ops_per_trial: int
    nominal_op_us: float
    #: op counts are multiples of this.
    granule: int
    #: verified payload bytes one op delivers.
    payload_bytes: int
    message: Message
    #: True when the trial calls a collective (``mpi.coll_*`` metrics).
    collective: bool
    setup: Callable[[Any, int], Any]
    trial: Callable[..., list[float]]


# ----------------------------------------------------------------------
# ping-pong (pp8_sm, pp8_nio, pp16m_nio, vec256k_sm)


class PingPongState:
    """Rank-local arrays for a ping-pong of ``count`` x ``datatype``."""

    def __init__(self, rank: int, seed: int, message: Message) -> None:
        self.rank = rank
        self.seed = seed
        self.vector = message.kind == "vector"
        if self.vector:
            # One 64-column block-column of a 512x512 DOUBLE matrix:
            # 512 blocks of 64 doubles, 512 apart = 256 KiB, strided.
            self.datatype = mpi.DOUBLE.vector(512, 64, 512)
            self.count = 1
            shape, dtype = (512, 512), np.float64
        else:
            self.datatype = mpi.BYTE
            self.count = message.nbytes
            shape, dtype = (message.nbytes,), np.uint8
        self.send = np.zeros(shape, dtype=dtype)
        self.recv = np.zeros(shape, dtype=dtype)

    def prepare(self, trial: int, ops: int) -> None:
        """A fresh pattern per trial, so the check on a trial's last op
        cannot be satisfied by bytes an earlier trial left behind."""
        if self.rank != 0:
            return
        rng = np.random.default_rng([self.seed, trial + 1])
        if self.vector:
            self.send[:, :64] = rng.integers(0, 1 << 40, size=(512, 64))
        else:
            # eight bytes a draw: 16 MiB of pattern in ~20 ms, not ~140
            self.send.view(np.uint64)[:] = rng.integers(
                0, 1 << 63, size=self.send.size // 8, dtype=np.uint64
            )

    def verify(self, trial: int) -> int:
        """Rank 1 echoes what it received, so rank 0 holding its own
        pattern again proves both directions byte-exact."""
        if self.rank != 0:
            return 0
        if self.vector:
            # the scatter must land the block-column and nothing else
            ok = np.array_equal(
                self.recv[:, :64], self.send[:, :64]
            ) and not self.recv[:, 64:].any()
        else:
            ok = np.array_equal(self.recv, self.send)
        return 0 if ok else 1


def pingpong_trial(env, st: PingPongState, ops: int, trial: int, spans: Optional[list]):
    """One op is one one-way message, timed as half a round trip on rank 0."""
    comm = env.COMM_WORLD
    round_trips = ops // 2
    count, dt = st.count, st.datatype
    if st.rank == 1:
        buf = st.recv
        for _ in range(round_trips):
            comm.Recv(buf, 0, count, dt, 0, TAG_PING)
            comm.Send(buf, 0, count, dt, 0, TAG_PONG)
        return []
    send, recv = st.send, st.recv
    samples = [0.0] * round_trips
    t0 = now()
    if spans is None:
        for i in range(round_trips):
            comm.Send(send, 0, count, dt, 1, TAG_PING)
            comm.Recv(recv, 0, count, dt, 1, TAG_PONG)
            t1 = now()
            samples[i] = (t1 - t0) / 2
            t0 = t1
        return samples
    for i in range(round_trips):
        comm.Send(send, 0, count, dt, 1, TAG_PING)
        ts = now()
        comm.Recv(recv, 0, count, dt, 1, TAG_PONG)
        t1 = now()
        samples[i] = (t1 - t0) / 2
        op = (trial, i)
        spans.append(("op.round_trip", t0, t1, None, op, 0))
        spans.append(("mpi.Send", t0, ts, "op.round_trip", op, 0))
        spans.append(("mpi.Recv", ts, t1, "op.round_trip", op, 0))
        t0 = t1
    return samples


# ----------------------------------------------------------------------
# allreduce64k_sm


class AllreduceState:
    def __init__(self, rank: int, seed: int, nranks: int) -> None:
        self.rank = rank
        self.seed = seed
        self.nranks = nranks
        self.send = np.zeros(ALLREDUCE_COUNT, dtype=np.float64)
        self.recv = np.zeros(ALLREDUCE_COUNT, dtype=np.float64)

    def _contribution(self, trial: int, rank: int) -> np.ndarray:
        # Small integers: the sum is exact in float64 whatever order
        # the algorithm reduces in.
        rng = np.random.default_rng([self.seed, trial + 1, rank])
        return rng.integers(0, 1 << 20, size=ALLREDUCE_COUNT).astype(np.float64)

    def prepare(self, trial: int, ops: int) -> None:
        self.send[:] = self._contribution(trial, self.rank)
        self.recv[:] = 0

    def verify(self, trial: int) -> int:
        expected = sum(self._contribution(trial, r) for r in range(self.nranks))
        return 0 if np.array_equal(self.recv, expected) else 1


def allreduce_trial(env, st: AllreduceState, ops: int, trial: int, spans: Optional[list]):
    """One op is one ``Allreduce(SUM)`` call, timed on rank 0."""
    comm = env.COMM_WORLD
    send, recv = st.send, st.recv
    samples = [0.0] * ops
    t0 = now()
    for i in range(ops):
        comm.Allreduce(send, 0, recv, 0, ALLREDUCE_COUNT, mpi.DOUBLE, mpi.SUM)
        t1 = now()
        samples[i] = t1 - t0
        if spans is not None:
            spans.append(("mpi.Allreduce", t0, t1, None, (trial, i), st.rank))
        t0 = t1
    return samples if st.rank == 0 else []


# ----------------------------------------------------------------------
# mt_flood_sm


class FloodState:
    """Rank 0 holds each sender thread's messages, rank 1 each receiver
    thread's landing area and count.  A message is the 8 bytes of
    ``base(seed, trial, thread) + sequence number``."""

    def __init__(self, rank: int, seed: int) -> None:
        self.rank = rank
        self.seed = seed
        self.nmsg = 0
        self.msgs: list[np.ndarray] = []
        self.landing = [np.zeros(FLOOD_WINDOW * 8, dtype=np.uint8) for _ in range(FLOOD_THREADS)]
        self.received = [0] * FLOOD_THREADS

    def _sequence(self, trial: int, thread: int) -> np.ndarray:
        base = ((self.seed & 0xFFFF) << 40) + ((trial + 1) << 28) + (thread << 24)
        return np.uint64(base) + np.arange(self.nmsg, dtype=np.uint64)

    def prepare(self, trial: int, ops: int) -> None:
        self.nmsg = ops // FLOOD_THREADS
        if self.rank == 0:
            self.msgs = [self._sequence(trial, t).view(np.uint8) for t in range(FLOOD_THREADS)]
        self.received = [0] * FLOOD_THREADS

    def verify(self, trial: int) -> int:
        """Per-tag count, and the last window byte-exact and in order."""
        if self.rank == 0:
            return 0
        bad = 0
        for t in range(FLOOD_THREADS):
            last = self._sequence(trial, t)[-FLOOD_WINDOW:]
            if self.received[t] != self.nmsg or not np.array_equal(
                self.landing[t].view(np.uint64), last
            ):
                bad += 1
        return bad


def _flood_sender(comm, st: FloodState, thread: int, trial: int, spans) -> list[float]:
    tag, ack_tag = 10 + thread, 20 + thread
    msgs = st.msgs[thread]
    ack = np.zeros(1, dtype=np.uint8)
    windows = st.nmsg // FLOOD_WINDOW
    samples = [0.0] * windows
    # The first ack says "your first window's receives are posted";
    # each later ack closes one window and opens the next.
    comm.Recv(ack, 0, 1, mpi.BYTE, 1, ack_tag)
    t0 = now()
    for w in range(windows):
        first = w * FLOOD_WINDOW * 8
        reqs = [
            comm.Isend(msgs, first + j * 8, 8, mpi.BYTE, 1, tag)
            for j in range(FLOOD_WINDOW)
        ]
        ti = now()
        mpi.waitall(reqs)
        comm.Recv(ack, 0, 1, mpi.BYTE, 1, ack_tag)
        t1 = now()
        samples[w] = (t1 - t0) / FLOOD_WINDOW
        if spans is not None:
            op = (trial, thread, w)
            spans.append(("op.window", t0, t1, None, op, 0))
            spans.append(("mpi.Isend*32", t0, ti, "op.window", op, 0))
            spans.append(("mpi.Waitall+ack", ti, t1, "op.window", op, 0))
        t0 = t1
    return samples


def _flood_receiver(comm, st: FloodState, thread: int) -> list[float]:
    tag, ack_tag = 10 + thread, 20 + thread
    landing = st.landing[thread]
    ack = np.ones(1, dtype=np.uint8)
    received = 0
    for _ in range(st.nmsg // FLOOD_WINDOW):
        reqs = [
            comm.Irecv(landing, j * 8, 8, mpi.BYTE, 0, tag)
            for j in range(FLOOD_WINDOW)
        ]
        comm.Send(ack, 0, 1, mpi.BYTE, 0, ack_tag)
        received += sum(s.count == 8 for s in mpi.waitall(reqs))
    comm.Send(ack, 0, 1, mpi.BYTE, 0, ack_tag)
    st.received[thread] = received
    return []


def flood_trial(env, st: FloodState, ops: int, trial: int, spans: Optional[list]):
    """Two sender threads on rank 0 flood two receiver threads on rank
    1 under THREAD_MULTIPLE, 64 receives posted at a time; one op is
    one 8-byte message, timed as a window's time / 32 on the sender."""
    comm = env.COMM_WORLD
    env.init_thread(mpi.THREAD_MULTIPLE)
    out: dict[int, Any] = {}

    def body(thread: int) -> None:
        try:
            if st.rank == 0:
                out[thread] = _flood_sender(comm, st, thread, trial, spans)
            else:
                out[thread] = _flood_receiver(comm, st, thread)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the rank thread
            out[thread] = exc

    threads = [
        threading.Thread(target=body, args=(t,), name=f"flood-r{st.rank}-t{t}")
        for t in range(FLOOD_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    samples: list[float] = []
    for t in range(FLOOD_THREADS):
        if isinstance(out[t], BaseException):
            raise out[t]
        samples += out[t]
    return samples


def _flood_setup(env, seed: int) -> FloodState:
    return FloodState(env.COMM_WORLD.rank(), seed)


# ----------------------------------------------------------------------
# the table


def _pingpong(name, device, ops, nominal_us, message) -> Workload:
    return Workload(
        name, device, 2, ops, nominal_us, 2, message.nbytes, message, False,
        lambda env, seed: PingPongState(env.COMM_WORLD.rank(), seed, message),
        pingpong_trial,
    )


_B8 = Message("bytes", 8, 135.0)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _pingpong("pp8_sm", "smdev", 2000, 125.0, _B8),
        _pingpong("pp8_nio", "niodev", 1600, 150.0, _B8),
        _pingpong("pp16m_nio", "niodev", 16, 28000.0, Message("bytes", 16 << 20, 28000.0)),
        _pingpong("vec256k_sm", "smdev", 400, 620.0, Message("vector", 256 << 10, 620.0)),
        Workload(
            "allreduce64k_sm", "smdev", 4, 200, 1280.0, 1,
            4 * ALLREDUCE_COUNT * 8, Message("bytes", ALLREDUCE_COUNT * 8, 300.0), True,
            lambda env, seed: AllreduceState(env.COMM_WORLD.rank(), seed, 4),
            allreduce_trial,
        ),
        Workload(
            "mt_flood_sm", "smdev", 2, 2048, 106.0, FLOOD_WINDOW * FLOOD_THREADS,
            8, _B8, False, _flood_setup, flood_trial,
        ),
    )
}
