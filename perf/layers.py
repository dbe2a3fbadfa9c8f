"""Per-layer measurements taken from outside the program (traced run only).

Two kinds:

* **The peel.**  Inside one job the workload's message is driven as a
  ping-pong at three call depths — ``comm.Send/Recv`` (mpi),
  ``MPJDevComm.send/recv`` on a pre-packed ``Buffer`` (mpjdev, the
  paper's own "mpjdev" curve) and ``device.send/recv`` on ProcessIDs
  (xdev) — taking turns round trip by round trip on one route, so
  drift hits all three alike.  A layer's self time is the median of the *paired*
  difference between its depth and the one below.
* **Stand-alone timings** of layer entry points that need no job:
  matcher, completion queue, frame header, ``Buffer``, pools, packing.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from common import median, percentile
from repro import mpi
from repro.buffer import Buffer
from repro.buffer.pool import BufferPool
from repro.mpi.packing import Packer, Unpacker
from repro.mpjdev.comm import MPJDevComm
from repro.mpjdev.request import Request
from repro.runtime.launcher import run_spmd
from repro.xdev.completion import CompletionShards
from repro.xdev.constants import ANY_SOURCE
from repro.xdev.frames import FrameHeader, FrameType
from repro.xdev.matching import ArrivedMessage, PostedRecv, ShardedMatcher
from workloads import Message, PingPongState

now = time.perf_counter

DEPTHS = ("mpi", "mpjdev", "xdev")
_TAG = 3


# ----------------------------------------------------------------------
# the peel


def _peel_rank(env, message: Message, seed: int, iters: int, depths, spans, out: dict):
    comm = env.COMM_WORLD
    rank = comm.rank()
    peer = 1 - rank
    device = env.device
    pids = device.all_ids()
    devcomm = MPJDevComm(device, pids, rank)
    # The same (context, tag) at every depth, so the message takes the
    # same route — matcher shard, inbox, handler thread — each time.
    context = comm.contexts[0]
    st = PingPongState(0, seed, message)  # both ranks pack the same pattern
    st.prepare(0, 0)
    count, dt = st.count, st.datatype
    packed = Buffer(capacity=message.nbytes + 64)
    dt.pack(packed, st.send, 0, count)
    packed.commit()
    landing = Buffer(capacity=message.nbytes + 64)

    def send(depth: str) -> None:
        if depth == "mpi":
            comm.Send(st.send, 0, count, dt, peer, _TAG)
        elif depth == "mpjdev":
            devcomm.send(packed, peer, _TAG, context)
        else:
            device.send(packed, pids[peer], _TAG, context)

    def recv(depth: str) -> None:
        if depth == "mpi":
            comm.Recv(st.recv, 0, count, dt, peer, _TAG)
        elif depth == "mpjdev":
            landing.clear()
            devcomm.recv(landing, peer, _TAG, context)
        else:
            landing.clear()
            device.recv(landing, pids[peer], _TAG, context)

    warm = max(1, iters // 10)
    # Both ranks walk the depths in the same order, rotated every
    # iteration so no depth always runs first.
    orders = [depths[k:] + depths[:k] for k in range(len(depths))]
    comm.Barrier()
    if rank == 1:
        for i in range(-warm, iters):
            for depth in orders[i % len(depths)]:
                recv(depth)
                send(depth)
    else:
        times = {d: ([], [], []) for d in depths}  # round trip, in send, in recv
        for i in range(-warm, iters):
            for depth in orders[i % len(depths)]:
                t0 = now()
                send(depth)
                ts = now()
                recv(depth)
                t1 = now()
                if i < 0:
                    continue
                rt, in_send, in_recv = times[depth]
                rt.append(t1 - t0)
                in_send.append(ts - t0)
                in_recv.append(t1 - ts)
                parent = f"peel.{depth}"
                spans.append((parent, t0, t1, None, i, 0))
                spans.append((f"{depth}.send", t0, ts, parent, i, 0))
                spans.append((f"{depth}.recv", ts, t1, parent, i, 0))
        out["times"] = times
        t0 = now()
        snaps = 5
        for _ in range(snaps):
            device.metrics.snapshot()
        out["snapshot_us"] = (now() - t0) / snaps * 1e6
    if rank == 0:
        # The lower depths skip the unpack; do it once on the last
        # landed buffer so the peel, too, is checked against its inputs.
        st.recv[...] = 0
        dt.unpack(landing, st.recv, 0, count)
        out["bad"] = st.verify(0)
    comm.Barrier()


def peel(message: Message, device: str, seed: int, iters: int, depths, spans: list) -> dict:
    """Run the peel job; returns rank 0's raw times plus a verdict."""
    out: dict = {}
    run_spmd(
        _peel_rank, 2, device=device,
        args=(message, seed, iters, depths, spans, out),
    )
    return out


def peel_metrics(own: dict, sm_xdev: dict, nio_xdev: dict) -> dict[str, float]:
    """Self times by paired difference; one-way = round trip / 2, in us."""
    t = own["times"]
    rt = {d: np.asarray(t[d][0]) for d in DEPTHS}
    xdev_sorted = sorted(rt["xdev"])

    def oneway(result: dict) -> float:
        return median(result["times"]["xdev"][0]) / 2 * 1e6

    return {
        "mpi.self_us": float(np.median(rt["mpi"] - rt["mpjdev"])) / 2 * 1e6,
        "mpi.send_call_us": median(t["mpi"][1]) * 1e6,
        "mpi.recv_wait_us": median(t["mpi"][2]) * 1e6,
        "mpjdev.self_us": float(np.median(rt["mpjdev"] - rt["xdev"])) / 2 * 1e6,
        "xdev.oneway_us": median(xdev_sorted) / 2 * 1e6,
        "xdev.oneway_us_p99": percentile(xdev_sorted, 99) / 2 * 1e6,
        "xdev.transport_delta_us": oneway(nio_xdev) - oneway(sm_xdev),
        "obs.snapshot_us": own["snapshot_us"],
    }


# ----------------------------------------------------------------------
# stand-alone timings


def _bench(fn: Callable[[], object], number: int, repeat: int = 5) -> float:
    """Median over *repeat* batches of the per-call time of *fn*, in us."""
    fn()
    per_call = []
    for _ in range(repeat):
        t0 = now()
        for _ in range(number):
            fn()
        per_call.append((now() - t0) / number * 1e6)
    return median(per_call)


def _matcher_pair(depth: int, wildcard: bool) -> Callable[[], object]:
    """post_recv + arrive of one message with *depth* - 1 other
    receives already pending in the matcher."""
    matcher = ShardedMatcher(4)
    for tag in range(100, 100 + depth - 1):
        matcher.post_recv(PostedRecv(None, 0, tag, 1))
    src = ANY_SOURCE if wildcard else 1

    def pair() -> None:
        matcher.post_recv(PostedRecv(None, 0, 5, src))
        matcher.arrive(ArrivedMessage(0, 5, 1, 8))

    return pair


def _buffer_pair(nbytes: int, number: int) -> tuple[float, float]:
    """``Buffer.write`` then ``Buffer.read_section`` of *nbytes*, each
    timed inside the loop (a Buffer cannot be re-read without a write)."""
    data = np.arange(nbytes, dtype=np.uint8)
    dest = np.zeros(nbytes, dtype=np.uint8)
    buf = Buffer(capacity=nbytes + 64)
    writes, reads = [], []
    for _ in range(number):
        buf.clear()
        t0 = now()
        buf.write(data)
        t1 = now()
        buf.commit()
        buf.read_section(out=dest)
        t2 = now()
        writes.append(t1 - t0)
        reads.append(t2 - t1)
    return median(writes) * 1e6, median(reads) * 1e6


def standalone(scale: float) -> dict[str, float]:
    """Every stand-alone layer timing; *scale* shrinks the repetition
    counts for the smoke test."""

    def n(full: int) -> int:
        return max(3, int(full * scale))

    out: dict[str, float] = {}

    vector = mpi.DOUBLE.vector(512, 64, 512)
    matrix = np.arange(512 * 512, dtype=np.float64).reshape(512, 512)
    wire = Packer(capacity=(256 << 10) + 64).pack(matrix, 0, 1, vector).tobytes()
    dest = np.zeros((512, 512), dtype=np.float64)
    out["mpi.pack_vector_us_256k"] = _bench(
        lambda: Packer(capacity=(256 << 10) + 64).pack(matrix, 0, 1, vector), n(40)
    )
    out["mpi.unpack_vector_us_256k"] = _bench(
        lambda: Unpacker(wire).unpack(dest, 0, 1, vector), n(40)
    )

    out["xdev.matching.post_match_us"] = _bench(_matcher_pair(1, False), n(5000))
    out["xdev.matching.post_match_us_d512"] = _bench(_matcher_pair(512, False), n(5000))
    out["xdev.matching.wildcard_match_us"] = _bench(_matcher_pair(1, True), n(5000))

    shards = CompletionShards(4)
    request = Request(Request.RECV)

    def push_pop() -> None:
        shards.push(request, 0)
        shards.pop_latest()

    out["xdev.completion.push_pop_us"] = _bench(push_pop, n(5000))

    header = FrameHeader(FrameType.EAGER, 0, 5, 1, 2, 8, 3, 1, 4)
    raw = header.encode()
    out["xdev.frames.encode_us"] = _bench(header.encode, n(10000))
    out["xdev.frames.decode_us"] = _bench(lambda: FrameHeader.decode(raw), n(10000))

    out["buffer.pack_us_8"], out["buffer.unpack_us_8"] = _buffer_pair(8, n(5000))
    out["buffer.pack_us_1m"], out["buffer.unpack_us_1m"] = _buffer_pair(1 << 20, n(60))

    pool = BufferPool()
    out["buffer.pool_cycle_us"] = _bench(lambda: pool.acquire(256).free(), n(10000))
    return out
