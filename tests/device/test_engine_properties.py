"""Property-based protocol tests with controlled frame interleaving.

Three engines exchange random message schedules; the test delivers the
emitted frames in arbitrary interleavings (FIFO per source channel, as
TCP guarantees) and asserts exactly-once, bit-exact delivery and
per-(src, tag) ordering — with no threads, so hypothesis can shrink
failures deterministically.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import Buffer
from repro.xdev.constants import ANY_SOURCE, ANY_TAG
from repro.xdev.frames import FrameHeader, HEADER_SIZE
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import ProtocolEngine, Transport

N_ENGINES = 3


class QueueTransport(Transport):
    """Collects frames in per-(src, dst) FIFO queues for manual delivery."""

    def __init__(self, network: dict, me: ProcessID) -> None:
        self.network = network
        self.me = me

    def start(self, engine) -> None:
        self.engine = engine

    def write(self, dest, segments, route=0, on_delivered=None) -> None:
        data = b"".join(bytes(s) for s in segments)
        self.network.setdefault((self.me.uid, dest.uid), []).append(data)
        if on_delivered is not None:
            on_delivered()  # consuming transport: the bytes were copied

    def close(self) -> None:
        pass


def make_engines():
    pids = [ProcessID(uid=i) for i in range(N_ENGINES)]
    network: dict = {}
    engines = []
    transports = []
    for pid in pids:
        t = QueueTransport(network, pid)
        e = ProtocolEngine(pid, t, eager_threshold=64, fork_rendezvous_writer=False)
        t.start(e)
        engines.append(e)
        transports.append(t)
    return pids, network, engines


def pump(network: dict, pids, engines, rng: np.random.Generator) -> None:
    """Deliver queued frames in a random global interleaving."""
    while any(network.values()):
        candidates = [k for k, v in network.items() if v]
        key = candidates[int(rng.integers(len(candidates)))]
        src_uid, dst_uid = key
        data = network[key].pop(0)
        header = FrameHeader.decode(data[:HEADER_SIZE])
        payload = data[HEADER_SIZE : HEADER_SIZE + header.payload_len]
        engines[dst_uid].handle_frame(pids[src_uid], header, payload)


messages = st.lists(
    st.tuples(
        st.integers(0, N_ENGINES - 1),           # src
        st.integers(0, N_ENGINES - 1),           # dst
        st.integers(0, 2),                       # tag
        st.integers(1, 30),                      # payload elements (i64)
    ),
    max_size=25,
)


@given(messages, st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_exactly_once_under_any_interleaving(plan, seed):
    pids, network, engines = make_engines()
    rng = np.random.default_rng(seed)

    # Post all receives first (ANY_SOURCE/ANY_TAG at the destination),
    # one per expected message.
    recv_reqs: dict[int, list] = {i: [] for i in range(N_ENGINES)}
    for _src, dst, _tag, _n in plan:
        buf = Buffer()
        recv_reqs[dst].append(
            (engines[dst].irecv(buf, ANY_SOURCE, ANY_TAG, 0), buf)
        )

    # Issue the sends; message i carries [i, i, ...] for identification.
    for i, (src, dst, tag, n) in enumerate(plan):
        buf = Buffer()
        buf.write(np.full(n, i, dtype=np.int64))
        engines[src].isend(buf, pids[dst], tag, 0)

    pump(network, pids, engines, rng)

    delivered: list[int] = []
    for dst, reqs in recv_reqs.items():
        for req, buf in reqs:
            status = req.wait(timeout=5)
            data = buf.read_section()
            i = int(data[0])
            src, _dst, tag, n = plan[i]
            assert _dst == dst
            assert status.tag == tag
            assert status.source.uid == pids[src].uid
            assert data.size == n
            assert (data == i).all()
            delivered.append(i)
    assert sorted(delivered) == list(range(len(plan)))


@given(st.lists(st.integers(1, 40), min_size=1, max_size=15), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_fifo_per_pair_under_any_interleaving(sizes, seed):
    """Messages 0→1 with one tag arrive in send order, whatever the
    global frame interleaving (rendezvous control traffic included)."""
    pids, network, engines = make_engines()
    rng = np.random.default_rng(seed)

    bufs = []
    reqs = []
    for _ in sizes:
        buf = Buffer()
        reqs.append(engines[1].irecv(buf, pids[0], 7, 0))
        bufs.append(buf)
    for i, n in enumerate(sizes):
        buf = Buffer()
        buf.write(np.full(n, i, dtype=np.int64))
        engines[0].isend(buf, pids[1], 7, 0)

    pump(network, pids, engines, rng)

    for i, (req, buf) in enumerate(zip(reqs, bufs)):
        req.wait(timeout=5)
        assert int(buf.read_section()[0]) == i, "FIFO order violated"
