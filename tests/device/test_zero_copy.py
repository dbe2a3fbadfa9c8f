"""The zero-copy datapath: segment sends, in-place rendezvous landings,
the public Send/Recv window route, copy accounting, pools, and the
partial-sendmsg continuation.

The acceptance bar for the scatter-gather datapath is observable in
:class:`~repro.buffer.pool.CopyStats`: a large contiguous rendezvous
transfer must show ``bytes_copied == 0`` — every payload byte lands
directly in the posted receive's storage, never staged through
temporary scratch.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro import mpi
from repro.buffer import Buffer, BufferFormatError
from repro.buffer.pool import BufferPool, CopyStats, RawPool, size_class
from repro.mpi.environment import MPJEnvironment
from repro.mpjdev.request import RequestFailedError
from repro.testing import ChaosConfig, wait_until
from repro.testing.fixtures import make_chaos_job
from repro.xdev.frames import HEADER, HEADER_SIZE, FrameHeader, FrameType
from repro.xdev.protocol import ProtocolEngine

from tests.conftest import make_job

MB = 1 << 20


def send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


def _reset_stats(devices):
    for d in devices:
        d.engine.copy_stats.reset()


def _combined(devices):
    stats = [d.engine.copy_stats.snapshot() for d in devices]
    return {k: sum(s[k] for s in stats) for k in stats[0]}


class TestZeroCopyRendezvous:
    """>= 1 MB contiguous transfers must not copy a single payload byte."""

    @pytest.mark.parametrize("device_kind", ["smdev", "niodev"])
    def test_large_contiguous_rendezvous_is_zero_copy(self, device_kind):
        devices, pids = make_job(device_kind, 2)
        try:
            payload = np.arange(MB, dtype=np.uint8)
            out = np.empty(MB, dtype=np.uint8)
            _reset_stats(devices)

            def receiver():
                rbuf = Buffer(capacity=payload.nbytes + 64)
                devices[1].recv(rbuf, pids[0], 5, 0)
                rbuf.read_section(out=out)

            t = threading.Thread(target=receiver)
            t.start()
            devices[0].send(send_buffer(payload), pids[1], 5, 0)
            t.join(timeout=30)
            assert not t.is_alive()
            assert np.array_equal(out, payload)

            combined = _combined(devices)
            assert combined["bytes_copied"] == 0, combined
            # The payload did move — at least once on each side.
            assert combined["bytes_moved"] >= payload.nbytes
        finally:
            for d in devices:
                d.finish()

    @pytest.mark.parametrize("device_kind", ["smdev", "niodev"])
    def test_self_send_rendezvous_lands_in_place(self, device_kind):
        # Rank-to-self frames are delivered on the writing thread on
        # both devices: RTS, RTR and the 1 MiB data frame, which lands
        # in the posted buffer without a socket or a copy.
        devices, pids = make_job(device_kind, 1)
        try:
            payload = np.arange(MB, dtype=np.uint8)
            out = np.empty(MB, dtype=np.uint8)
            _reset_stats(devices)
            req = devices[0].isend(send_buffer(payload), pids[0], 6, 0)
            rbuf = Buffer(capacity=payload.nbytes + 64)
            devices[0].recv(rbuf, pids[0], 6, 0)
            req.wait(timeout=30)
            rbuf.read_section(out=out)
            assert np.array_equal(out, payload)
            assert _combined(devices)["bytes_copied"] == 0
            assert devices[0].engine.stats["rendezvous_sends"] == 1
        finally:
            devices[0].finish()

    def test_ssend_is_zero_copy_on_smdev(self, ):
        # Synchronous mode forces rendezvous regardless of size.
        devices, pids = make_job("smdev", 2)
        try:
            payload = np.arange(4 * MB, dtype=np.uint8)
            _reset_stats(devices)

            def receiver():
                devices[1].recv(Buffer(capacity=payload.nbytes + 64), pids[0], 9, 0)

            t = threading.Thread(target=receiver)
            t.start()
            devices[0].ssend(send_buffer(payload), pids[1], 9, 0)
            t.join(timeout=30)
            assert not t.is_alive()
            assert _combined(devices)["bytes_copied"] == 0
        finally:
            for d in devices:
                d.finish()

    def test_eager_copies_are_accounted(self):
        # An eager message that arrives before its receive is staged
        # into device scratch, and every such byte must appear under
        # bytes_copied — the counter proves the *rendezvous* zeros
        # above are measurements, not a broken meter.
        devices, pids = make_job("smdev", 2)
        try:
            payload = np.arange(1024, dtype=np.uint8)
            _reset_stats(devices)
            # smdev delivers on this thread: the message is unexpected
            # by the time send returns.
            devices[0].send(send_buffer(payload), pids[1], 3, 0)
            assert devices[1].engine.unexpected_count() == 1
            devices[1].recv(Buffer(capacity=2048), pids[0], 3, 0)
            combined = _combined(devices)
            assert combined["bytes_copied"] >= payload.nbytes
        finally:
            for d in devices:
                d.finish()


#: Configurations the public window route must hold on: every engine
#: transport, and chaos (retaining, fault-injecting) over smdev.
WINDOW_CONFIGS = ["smdev", "niodev", "procdev", "chaos-smdev"]

#: 1 MiB of doubles: above the default 128 KiB eager threshold.
N_DOUBLES = MB // 8


def _mpi_job(kind, config=None):
    """Two devices of *kind* with an MPI environment over each."""
    if kind == "chaos-smdev":
        devices, pids = make_chaos_job(2, seed=11, config=config)
    else:
        devices, pids = make_job(kind, 2)
    return devices, [MPJEnvironment(d, pids, r) for r, d in enumerate(devices)]


def _exchange(envs, send, recv, timeout=30.0):
    """Run ``recv(rank-1 world)`` on a thread and ``send(rank-0 world)``
    here; returns recv's result, re-raising either side's error."""
    box: dict = {}

    def receiver():
        try:
            box["result"] = recv(envs[1].COMM_WORLD)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    t = threading.Thread(target=receiver)
    t.start()
    send(envs[0].COMM_WORLD)
    t.join(timeout=timeout)
    assert not t.is_alive(), "receive hung"
    if "error" in box:
        raise box["error"]
    return box["result"]


def _acquired(envs):
    return [env.pool.stats["acquired"] for env in envs]


class TestPublicWindowRoute:
    """Public Send/Recv of large contiguous arrays land in user memory."""

    @pytest.mark.parametrize("kind", WINDOW_CONFIGS)
    def test_send_recv_copies_nothing_and_takes_no_pool_buffer(self, kind):
        devices, envs = _mpi_job(kind)
        try:
            data = np.arange(N_DOUBLES, dtype=np.float64)
            out = np.zeros(N_DOUBLES)
            before = _acquired(envs)
            _reset_stats(devices)
            status = _exchange(
                envs,
                lambda c: c.Send(data, 0, N_DOUBLES, mpi.DOUBLE, 1, 5),
                lambda c: c.Recv(out, 0, N_DOUBLES, mpi.DOUBLE, 0, 5),
            )
            assert np.array_equal(out, data)
            assert status.Get_count(mpi.DOUBLE) == N_DOUBLES
            assert _combined(devices)["bytes_copied"] == 0
            assert _acquired(envs) == before
        finally:
            for d in devices:
                d.finish()

    @pytest.mark.parametrize("packed_side", [0, 1])
    @pytest.mark.parametrize("kind", WINDOW_CONFIGS)
    def test_window_interoperates_with_packed_peer(self, kind, packed_side):
        # A rank whose array is not contiguous declines the window and
        # packs; its peer still sends or lands in place.
        # Ssend keeps the transfer a rendezvous either way.
        devices, envs = _mpi_job(kind)
        try:
            data = np.arange(N_DOUBLES, dtype=np.float64)
            out = np.zeros(N_DOUBLES)
            strided = np.zeros(2 * N_DOUBLES)[::2]
            if packed_side == 0:
                strided[:] = data
                data = strided
            else:
                out = strided
            before = _acquired(envs)
            _exchange(
                envs,
                lambda c: c.Ssend(data, 0, N_DOUBLES, mpi.DOUBLE, 1, 6),
                lambda c: c.Recv(out, 0, N_DOUBLES, mpi.DOUBLE, 0, 6),
            )
            assert np.array_equal(out, data)
            used = [a - b for a, b in zip(_acquired(envs), before)]
            assert used[packed_side] == 1 and used[1 - packed_side] == 0
        finally:
            for d in devices:
                d.finish()

    @pytest.mark.parametrize("kind", WINDOW_CONFIGS)
    def test_buffered_send_snapshots_the_array(self, kind):
        devices, envs = _mpi_job(kind)
        try:
            data = np.arange(N_DOUBLES, dtype=np.float64)
            expected = data.copy()
            out = np.zeros(N_DOUBLES)

            def send(c):
                req = c.Ibsend(data, 0, N_DOUBLES, mpi.DOUBLE, 1, 7)
                data[:] = -1.0  # MPI lets a buffered sender reuse at once
                req.wait()

            _exchange(
                envs, send, lambda c: c.Recv(out, 0, N_DOUBLES, mpi.DOUBLE, 0, 7)
            )
            assert np.array_equal(out, expected)
        finally:
            for d in devices:
                d.finish()

    @pytest.mark.parametrize(
        "mismatch, error, eager",
        [
            ("count", mpi.CountMismatchError, False),
            ("type", mpi.DatatypeError, False),
            ("count", mpi.CountMismatchError, True),
        ],
    )
    @pytest.mark.parametrize("kind", WINDOW_CONFIGS)
    def test_rejected_message_fails_only_its_receive(
        self, kind, mismatch, error, eager
    ):
        # A well-formed message the posted window cannot hold is the
        # receiver's error: that receive raises what the packed path
        # raises, and the channel keeps carrying the peer's next message.
        devices, envs = _mpi_job(kind)
        try:
            if eager:  # the sender packs and sends eagerly
                devices[0].engine.eager_threshold = 64 * MB
            if mismatch == "count":
                bad = np.arange(2 * N_DOUBLES, dtype=np.float64)
            else:
                bad = np.arange(N_DOUBLES, dtype=np.int64)
            data = np.arange(N_DOUBLES, dtype=np.float64)
            out = np.zeros(N_DOUBLES)

            def send(c):
                c.Isend(bad, 0, bad.size, None, 1, 9).wait(timeout=30)
                c.Isend(data, 0, N_DOUBLES, mpi.DOUBLE, 1, 10).wait(timeout=30)

            def recv(c):
                with pytest.raises(error):
                    c.Irecv(out, 0, N_DOUBLES, mpi.DOUBLE, 0, 9).wait(timeout=30)
                return c.Irecv(out, 0, N_DOUBLES, mpi.DOUBLE, 0, 10).wait(
                    timeout=30
                )

            status = _exchange(envs, send, recv)
            assert np.array_equal(out, data)
            assert status.Get_count(mpi.DOUBLE) == N_DOUBLES
            transport = devices[1].engine.transport
            errors = getattr(transport, "inner", transport).errors
            assert not [e for e in errors if isinstance(e, BufferFormatError)]
            for env, d in zip(envs, devices):
                assert env.pool.outstanding == 0
                assert d.engine.raw_pool.outstanding == 0
        finally:
            for d in devices:
                d.finish()

    def test_truncated_rendezvous_fails_the_window_receive(self):
        devices, envs = _mpi_job(
            "chaos-smdev", config=ChaosConfig(seed=11, truncate_prob=1.0)
        )
        try:
            data = np.arange(N_DOUBLES, dtype=np.float64)
            out = np.zeros(N_DOUBLES)

            def recv(c):
                try:
                    c.Recv(out, 0, N_DOUBLES, mpi.DOUBLE, 0, 8)
                except RequestFailedError as exc:
                    return exc
                return None

            failure = _exchange(
                envs, lambda c: c.Send(data, 0, N_DOUBLES, mpi.DOUBLE, 1, 8), recv
            )
            assert isinstance(failure, RequestFailedError)
            for env, d in zip(envs, devices):
                assert env.pool.outstanding == 0
                assert d.engine.raw_pool.outstanding == 0
        finally:
            for d in devices:
                d.finish()


class TestSmallMessageWindows:
    """8-byte public Send/Recv take the window route too: no pool
    buffer on either rank, the same status and the same errors."""

    # mxdev: the name reaches the engine, not a stack of its own.
    @pytest.mark.parametrize("kind", [*WINDOW_CONFIGS, "mxdev"])
    def test_pingpong_takes_no_pool_buffer(self, kind):
        devices, envs = _mpi_job(kind)
        try:
            assert all(isinstance(d.engine, ProtocolEngine) for d in devices)
            data = np.arange(8, dtype=np.uint8)
            out = np.zeros(8, dtype=np.uint8)
            before = _acquired(envs)
            for tag in (1, 2, 3):
                status = _exchange(
                    envs,
                    lambda c: c.Send(data, 0, 8, mpi.BYTE, 1, tag),
                    lambda c: c.Recv(out, 0, 8, mpi.BYTE, 0, tag),
                )
                assert np.array_equal(out, data)
                assert status.Get_count(mpi.BYTE) == 8
            assert _acquired(envs) == before
        finally:
            for d in devices:
                d.finish()

    @pytest.mark.parametrize("kind", WINDOW_CONFIGS)
    def test_unexpected_message_lands_in_window(self, kind):
        devices, envs = _mpi_job(kind)
        try:
            data = np.array([1.5], dtype=np.float64)
            out = np.zeros(1)
            before = _acquired(envs)
            envs[0].COMM_WORLD.Send(data, 0, 1, mpi.DOUBLE, 1, 4)
            data[0] = -1.0  # the sender owns its array again once Send returns
            wait_until(
                lambda: devices[1].engine.unexpected_count() == 1,
                message="message staged as unexpected",
            )
            status = envs[1].COMM_WORLD.Recv(out, 0, 1, mpi.DOUBLE, 0, 4)
            assert out[0] == 1.5
            assert status.Get_count(mpi.DOUBLE) == 1
            assert _acquired(envs) == before
            assert devices[1].engine.raw_pool.outstanding == 0
        finally:
            for d in devices:
                d.finish()

    @pytest.mark.parametrize("kind", WINDOW_CONFIGS)
    def test_larger_posted_count_reports_the_sent_count(self, kind):
        devices, envs = _mpi_job(kind)
        try:
            data = np.arange(1, 9, dtype=np.uint8)
            out = np.full(16, 255, dtype=np.uint8)
            status = _exchange(
                envs,
                lambda c: c.Send(data, 0, 8, mpi.BYTE, 1, 5),
                lambda c: c.Recv(out, 0, 16, mpi.BYTE, 0, 5),
            )
            assert status.count == 8
            assert status.Get_count(mpi.BYTE) == 8
            assert np.array_equal(out[:8], data)
            assert (out[8:] == 255).all()
        finally:
            for d in devices:
                d.finish()

    @pytest.mark.parametrize("blocking", [True, False])
    @pytest.mark.parametrize(
        "mismatch, error",
        [("count", mpi.CountMismatchError), ("type", mpi.DatatypeError)],
    )
    @pytest.mark.parametrize("kind", WINDOW_CONFIGS)
    def test_mismatch_raises_the_mpi_error(self, kind, mismatch, error, blocking):
        devices, envs = _mpi_job(kind)
        try:
            if mismatch == "count":
                bad = np.arange(2, dtype=np.float64)
            else:
                bad = np.arange(1, dtype=np.int64)
            data = np.array([2.5])
            out = np.zeros(1)

            def recv_one(c, tag):
                if blocking:
                    return c.Recv(out, 0, 1, mpi.DOUBLE, 0, tag)
                return c.Irecv(out, 0, 1, mpi.DOUBLE, 0, tag).wait(timeout=30)

            def send(c):
                c.Send(bad, 0, bad.size, None, 1, 9)
                c.Send(data, 0, 1, mpi.DOUBLE, 1, 10)

            def recv(c):
                with pytest.raises(error):
                    recv_one(c, 9)
                return recv_one(c, 10)

            status = _exchange(envs, send, recv)
            assert out[0] == 2.5
            assert status.Get_count(mpi.DOUBLE) == 1
            transport = devices[1].engine.transport
            errors = getattr(transport, "inner", transport).errors
            assert not [e for e in errors if isinstance(e, BufferFormatError)]
            for env, d in zip(envs, devices):
                assert env.pool.outstanding == 0
                assert d.engine.raw_pool.outstanding == 0
        finally:
            for d in devices:
                d.finish()


class TestPartialSendmsgContinuation:
    """niodev must survive sendmsg() accepting only part of a frame."""

    def test_large_transfer_with_tiny_socket_buffers(self):
        # SO_SNDBUF/SO_RCVBUF of 4 KB guarantee many partial writes for
        # a 1 MB frame; the vectored-write continuation must resume
        # mid-segment until every byte is flushed.
        devices, pids = make_job(
            "niodev", 2, options={"socket_buffer_size": 4096}
        )
        try:
            payload = np.arange(MB, dtype=np.uint8)
            out = np.empty(MB, dtype=np.uint8)

            def receiver():
                rbuf = Buffer(capacity=payload.nbytes + 64)
                devices[1].recv(rbuf, pids[0], 11, 0)
                rbuf.read_section(out=out)

            t = threading.Thread(target=receiver)
            t.start()
            devices[0].send(send_buffer(payload), pids[1], 11, 0)
            t.join(timeout=60)
            assert not t.is_alive()
            assert np.array_equal(out, payload)
        finally:
            for d in devices:
                d.finish()

    def test_eager_transfer_with_tiny_socket_buffers(self):
        # Eager frames (below threshold) hit the same continuation path.
        devices, pids = make_job(
            "niodev", 2, options={"socket_buffer_size": 2048}
        )
        try:
            payload = np.arange(64 * 1024, dtype=np.uint8)
            out = np.empty_like(payload)

            def receiver():
                rbuf = Buffer(capacity=payload.nbytes + 64)
                devices[1].recv(rbuf, pids[0], 12, 0)
                rbuf.read_section(out=out)

            t = threading.Thread(target=receiver)
            t.start()
            devices[0].send(send_buffer(payload), pids[1], 12, 0)
            t.join(timeout=60)
            assert not t.is_alive()
            assert np.array_equal(out, payload)
        finally:
            for d in devices:
                d.finish()


class TestFrameHeaderDecode:
    def test_decode_from_bytes_memoryview_and_bytearray(self):
        header = FrameHeader(FrameType.RTS, context=3, tag=7, payload_len=0,
                             send_id=42, recv_id=99)
        wire = header.encode()
        assert len(wire) == HEADER_SIZE == HEADER.size
        for form in (bytes(wire), bytearray(wire), memoryview(bytes(wire))):
            decoded = FrameHeader.decode(form)
            assert decoded == header

    def test_decode_reads_prefix_without_slicing(self):
        # Input-handler hands decode() whole frames; only the first
        # HEADER_SIZE bytes are the header.
        header = FrameHeader(FrameType.EAGER, context=0, tag=1,
                             payload_len=4, send_id=0, recv_id=0)
        frame = header.encode() + b"abcd"
        assert FrameHeader.decode(memoryview(frame)) == header


class TestSizeClasses:
    def test_powers_of_two(self):
        assert size_class(1) == 16
        assert size_class(16) == 16
        assert size_class(17) == 32
        assert size_class(1000) == 1024
        assert size_class(1025) == 2048

    def test_rawpool_serves_size_classed_storage(self):
        pool = RawPool()
        storage = pool.acquire(1000)
        assert len(storage) == 1024
        pool.release(storage)
        again = pool.acquire(600)
        assert again is storage  # same bucket, reused
        pool.release(again)

    def test_rawpool_does_not_retain_giant_buffers(self):
        pool = RawPool(max_pooled_size=1024)
        storage = pool.acquire(4096)
        pool.release(storage)
        assert pool.acquire(4096) is not storage


class TestLeakChecks:
    def test_rawpool_leak_warns(self):
        pool = RawPool()
        pool.acquire(64)
        with pytest.warns(ResourceWarning, match="RawPool leak at test"):
            assert pool.check_leaks("test") == 1

    def test_bufferpool_leak_warns(self):
        pool = BufferPool()
        pool.acquire(64)
        with pytest.warns(ResourceWarning, match="BufferPool leak"):
            assert pool.check_leaks() == 1

    def test_balanced_usage_is_silent(self):
        pool = RawPool()
        pool.release(pool.acquire(64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pool.check_leaks("test") == 0

    def test_device_finish_is_leak_clean(self, device_name):
        # A full send/recv round trip must return every pooled scratch
        # buffer before finish()'s audit runs.
        devices, pids = make_job(device_name, 2)
        payload = np.arange(1024, dtype=np.uint8)

        def receiver():
            devices[1].recv(Buffer(capacity=2048), pids[0], 4, 0)

        t = threading.Thread(target=receiver)
        t.start()
        devices[0].send(send_buffer(payload), pids[1], 4, 0)
        t.join(timeout=30)
        assert not t.is_alive()
        for d in devices:
            d.finish()
            engine = getattr(d, "engine", None)
            if engine is not None:  # ibisdev has no pooled path
                assert engine.raw_pool.outstanding == 0


class TestCopyStats:
    def test_counters_and_snapshot(self):
        stats = CopyStats()
        stats.copied(100)
        stats.copied(50)
        stats.moved(1000)
        stats.pool_hit()
        stats.pool_miss()
        snap = stats.snapshot()
        assert snap == {
            "bytes_copied": 150, "copies": 2,
            "bytes_moved": 1000, "moves": 1,
            "pool_hits": 1, "pool_misses": 1,
        }

    def test_reset(self):
        stats = CopyStats()
        stats.copied(1)
        stats.moved(2)
        stats.reset()
        assert all(v == 0 for v in stats.snapshot().values())

    def test_thread_safety(self):
        stats = CopyStats()

        def bump():
            for _ in range(10_000):
                stats.copied(1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.snapshot()["bytes_copied"] == 40_000

    @pytest.mark.parametrize("device_kind", ["smdev", "niodev"])
    def test_engine_exposes_stats_through_device(self, device_kind):
        devices, _pids = make_job(device_kind, 2)
        try:
            for d in devices:
                snap = d.copy_stats.snapshot()
                assert set(snap) == {
                    "bytes_copied", "copies", "bytes_moved", "moves",
                    "pool_hits", "pool_misses",
                }
        finally:
            for d in devices:
                d.finish()
