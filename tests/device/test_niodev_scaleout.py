"""niodev at scale: lazy connections, the FD-budget cache, eviction.

The eager era opened 2·n·(n−1) sockets per job before any message
moved; these tests pin the replacement behaviours — nothing connects
until traffic flows, the cache never exceeds its budget for long, and
an evict→redial cycle is invisible to the protocol (exactly-once, in
order, even mid-rendezvous).
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.xdev.exceptions import ConnectError
from repro.xdev.frames import HEADER_SIZE, FrameHeader, FrameType
from repro.xdev.niodev import (
    ConnectionCache,
    _CacheEntry,
    fd_budget,
)
from repro.xdev.processid import ProcessID

from tests.conftest import make_job


def send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


def cache_stats(device):
    return device.engine.transport.introspect()["connection_cache"]


class TestLazyConnections:
    def test_init_opens_no_connections(self):
        """The bootstrap ships addresses only — a freshly-initialized
        job has zero sockets between ranks."""
        devices, _pids = make_job("niodev", 4)
        try:
            for d in devices:
                assert cache_stats(d)["open"] == 0
                assert cache_stats(d)["connects"] == 0
        finally:
            for d in devices:
                d.finish()

    def test_first_send_dials_exactly_one(self):
        devices, pids = make_job("niodev", 3)
        try:
            msg = np.array([42], dtype=np.int64)
            t = threading.Thread(
                target=lambda: devices[0].send(send_buffer(msg), pids[1], 1, 0)
            )
            t.start()
            rbuf = Buffer()
            devices[1].recv(rbuf, pids[0], 1, 0)
            t.join(20)
            assert cache_stats(devices[0])["connects"] == 1
            assert cache_stats(devices[0])["write_entries"] == 1
            # Rank 2 was never involved: still fully disconnected.
            assert cache_stats(devices[2])["open"] == 0
        finally:
            for d in devices:
                d.finish()

    def test_self_send_uses_no_socket(self):
        """Rank-to-self traffic is delivered on the writing thread —
        no loopback TCP, so the cache stays empty."""
        devices, pids = make_job("niodev", 1)
        try:
            msg = np.arange(100, dtype=np.float64)
            req = devices[0].isend(send_buffer(msg), pids[0], 7, 0)
            rbuf = Buffer()
            devices[0].recv(rbuf, pids[0], 7, 0)
            req.wait(20)
            np.testing.assert_array_equal(rbuf.read_section(), msg)
            assert cache_stats(devices[0])["open"] == 0
            assert cache_stats(devices[0])["connects"] == 0
        finally:
            devices[0].finish()

    def test_self_send_rendezvous_roundtrip(self):
        """The self path must carry the full RTS/RTR/DATA exchange,
        not just eager frames."""
        devices, pids = make_job("niodev", 1, options={"eager_threshold": 128})
        try:
            msg = np.arange(10_000, dtype=np.float64)  # 80 KB: rendezvous
            req = devices[0].isend(send_buffer(msg), pids[0], 9, 0)
            rbuf = Buffer()
            devices[0].recv(rbuf, pids[0], 9, 0)
            req.wait(20)
            np.testing.assert_array_equal(rbuf.read_section(), msg)
            assert cache_stats(devices[0])["open"] == 0
        finally:
            devices[0].finish()


class TestFdBudget:
    def test_explicit_option_wins(self):
        assert fd_budget(7) == 7

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FD_BUDGET", "33")
        assert fd_budget() == 33

    def test_default_derived_from_rlimit(self, monkeypatch):
        monkeypatch.delenv("REPRO_FD_BUDGET", raising=False)
        import resource

        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        assert fd_budget() == max(16, soft // 4)

    def test_floor_of_two(self):
        assert fd_budget(0) == 2
        assert fd_budget(-5) == 2


class TestEviction:
    def test_torture_exactly_once_across_evict_redial(self):
        """Satellite: budget of nprocs/4 forces constant eviction; every
        message must still arrive exactly once and in per-source order."""
        nprocs, rounds = 8, 10
        devices, pids = make_job("niodev", nprocs, options={"fd_budget": nprocs // 4})
        errors = []
        received = {r: {s: [] for s in range(nprocs)} for r in range(nprocs)}

        def run_rank(rank):
            try:
                expect = rounds * (nprocs - 1)
                recvd = 0

                def receiver():
                    nonlocal recvd
                    for _ in range(expect):
                        rbuf = Buffer()
                        status = devices[rank].recv(rbuf, -2, -1, 0)  # ANY/ANY
                        src = status.source.uid
                        received[rank][src].append(int(rbuf.read_section()[0]))
                        recvd += 1

                rt = threading.Thread(target=receiver)
                rt.start()
                for i in range(rounds):
                    for peer in range(nprocs):
                        if peer == rank:
                            continue
                        devices[rank].send(
                            send_buffer(np.array([i], dtype=np.int64)),
                            pids[peer], rank, 0,
                        )
                rt.join(120)
                assert recvd == expect, f"rank {rank}: {recvd}/{expect}"
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((rank, exc))

        try:
            threads = [
                threading.Thread(target=run_rank, args=(r,)) for r in range(nprocs)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(180)
            assert not errors, errors
            for rank in range(nprocs):
                for src in range(nprocs):
                    if src == rank:
                        continue
                    # Exactly once AND in order: an evict→redial cycle
                    # that lost, duplicated, or overtook a frame shows
                    # up right here.
                    assert received[rank][src] == list(range(rounds)), (
                        f"rank {rank} from {src}: {received[rank][src]}"
                    )
            total_evictions = sum(cache_stats(d)["evictions"] for d in devices)
            total_redials = sum(cache_stats(d)["redials"] for d in devices)
            assert total_evictions > 0, "budget nprocs/4 must force evictions"
            assert total_redials > 0, "evicted peers must have been re-dialed"
        finally:
            for d in devices:
                d.finish()

    def test_mid_rendezvous_eviction(self):
        """Large (rendezvous) messages under a tiny budget: the RTS,
        RTR and DATA legs may each ride a different connection incarnation."""
        nprocs = 4
        devices, pids = make_job(
            "niodev", nprocs,
            options={"fd_budget": 2, "eager_threshold": 256},
        )
        errors = []

        def run_rank(rank):
            try:
                msg = np.arange(5_000, dtype=np.float64) + rank  # 40 KB
                reqs = [
                    devices[rank].isend(send_buffer(msg), pids[peer], rank, 0)
                    for peer in range(nprocs)
                    if peer != rank
                ]
                for src in range(nprocs):
                    if src == rank:
                        continue
                    rbuf = Buffer()
                    devices[rank].recv(rbuf, pids[src], src, 0)
                    np.testing.assert_array_equal(
                        rbuf.read_section(),
                        np.arange(5_000, dtype=np.float64) + src,
                    )
                for req in reqs:
                    req.wait(20)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((rank, exc))

        try:
            threads = [
                threading.Thread(target=run_rank, args=(r,)) for r in range(nprocs)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not errors, errors
        finally:
            for d in devices:
                d.finish()

    def test_peak_stays_near_budget(self):
        """The cache's peak (write + read channels) must track the
        budget, not the peer count — the sublinear-growth invariant."""
        nprocs, budget = 6, 2
        devices, pids = make_job("niodev", nprocs, options={"fd_budget": budget})
        errors = []

        def run_rank(rank):
            try:
                expect = nprocs - 1

                def receiver():
                    for _ in range(expect):
                        rbuf = Buffer()
                        devices[rank].recv(rbuf, -2, -1, 0)

                rt = threading.Thread(target=receiver)
                rt.start()
                for peer in range(nprocs):
                    if peer != rank:
                        devices[rank].send(
                            send_buffer(np.array([1], dtype=np.int64)),
                            pids[peer], rank, 0,
                        )
                rt.join(60)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((rank, exc))

        try:
            threads = [
                threading.Thread(target=run_rank, args=(r,)) for r in range(nprocs)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(90)
            assert not errors, errors
            for d in devices:
                peak = cache_stats(d)["peak"]
                # Write side is budget-bound (transient overshoot when
                # every entry is pinned); read side is bounded by the
                # peers' own budgets.  2·(n−1) would be the eager era.
                assert peak < 2 * (nprocs - 1), f"peak {peak} is eager-era"
        finally:
            for d in devices:
                d.finish()


class TestDrainBeforeClose:
    def test_eviction_drains_queued_writes_before_close(self):
        """Satellite unit test: an eviction with bytes still queued in
        the kernel must deliver them (and the BYE) before the socket
        dies — close happens only after the peer's EOF."""
        ours, peer = socket.socketpair()
        cache = ConnectionCache(budget=1)
        entry = _CacheEntry(uid=7)
        entry.sock = ours
        entry.state = _CacheEntry.EVICTING
        cache._entries[7] = entry

        queued = b"\xab" * 64 * 1024  # in-flight writes the peer hasn't read
        ours.sendall(queued)

        drainer = threading.Thread(target=cache._drain_and_close, args=(entry,))
        drainer.start()
        try:
            # The peer is slow: until it consumes the stream and closes,
            # the eviction must keep waiting (no premature close).
            time.sleep(0.3)
            assert drainer.is_alive(), "drain must wait for the peer's EOF"
            assert cache.stats["evictions"] == 0

            got = bytearray()
            while True:
                chunk = peer.recv(65536)
                if not chunk:
                    break  # our FIN: everything queued has arrived
                got += chunk
            assert bytes(got[: len(queued)]) == queued, "queued bytes lost"
            trailer = bytes(got[len(queued):])
            assert len(trailer) == HEADER_SIZE
            assert FrameHeader.decode(trailer).type == FrameType.BYE
            peer.close()  # the peer-side close the drain is waiting for
            drainer.join(10)
            assert not drainer.is_alive()
        finally:
            peer.close()
            drainer.join(10)
        assert cache.stats["evictions"] == 1
        assert 7 not in cache._entries
        assert ours.fileno() == -1, "socket must be closed after the drain"

    def test_drain_timeout_is_bounded(self, monkeypatch):
        """A peer that never closes cannot wedge an eviction forever."""
        import repro.xdev.niodev as niodev_mod

        monkeypatch.setattr(niodev_mod, "EVICT_DRAIN_TIMEOUT", 0.2)
        ours, peer = socket.socketpair()
        cache = ConnectionCache(budget=1)
        entry = _CacheEntry(uid=3)
        entry.sock = ours
        entry.state = _CacheEntry.EVICTING
        cache._entries[3] = entry
        try:
            t0 = time.monotonic()
            cache._drain_and_close(entry)
            assert time.monotonic() - t0 < 5
            assert cache.stats["evictions"] == 1
            assert cache.stats["evict_drain_timeouts"] == 1
        finally:
            peer.close()


class TestDialErrors:
    def test_connect_error_reports_context(self, monkeypatch):
        """Satellite: a failed dial names the rank, peer, address,
        attempt count and elapsed window — not just an errno."""
        import repro.xdev.niodev as niodev_mod

        monkeypatch.setattr(niodev_mod, "CONNECT_TIMEOUT", 0.3)
        # A bound-but-never-accepting port answers RST fast on Linux
        # once the backlog overflows; a closed port answers RST at once.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # now nothing listens there

        devices, _pids = make_job("niodev", 1)
        try:
            transport = devices[0].engine.transport
            ghost = ProcessID(uid=99, address=("127.0.0.1", dead_port))
            with pytest.raises(ConnectError) as excinfo:
                transport._dial(ghost)
            err = excinfo.value
            assert err.rank == 0
            assert err.peer_uid == 99
            assert err.address == ("127.0.0.1", dead_port)
            assert err.attempts >= 1
            assert err.elapsed >= 0.3
            assert isinstance(err.cause, OSError)
            for needle in ("rank 0", "uid=99", str(dead_port), "attempt"):
                assert needle in str(err)
        finally:
            devices[0].finish()

    def test_unknown_address_fails_fast(self):
        devices, _pids = make_job("niodev", 1)
        try:
            transport = devices[0].engine.transport
            with pytest.raises(ConnectError) as excinfo:
                transport._dial(ProcessID(uid=55, address=None))
            assert excinfo.value.attempts == 0
        finally:
            devices[0].finish()


class TestWireCompat:
    def test_handshake_format_unchanged(self):
        """The 4-byte little-endian rank handshake is the wire contract
        the lazy rewrite must not move."""
        from repro.xdev.niodev import _HANDSHAKE

        assert _HANDSHAKE.size == 4
        assert _HANDSHAKE.pack(3) == struct.pack("<i", 3)
