"""procdev specifics: cross-address-space zero-copy landings, spill
segment recycling, and shared-memory hygiene.

These run procdev in its in-process mode (thread-ranks over real shm
rings) — the byte-identical datapath of process-rank jobs, minus fork.
The cross-*process* variants live in tests/integration/test_localspawn.py.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.shm.bootstrap import active_segments

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


def _transfer(devices, pids, payload, tag, mode="send"):
    out = np.empty_like(payload)

    def receiver():
        rbuf = Buffer(capacity=payload.nbytes + 64)
        devices[1].recv(rbuf, pids[0], tag, 0)
        rbuf.read_section(out=out)

    t = threading.Thread(target=receiver)
    t.start()
    getattr(devices[0], mode)(send_buffer(payload), pids[1], tag, 0)
    t.join(timeout=30)
    assert not t.is_alive()
    assert np.array_equal(out, payload)
    return out


class TestZeroCopyAcrossRings:
    """Rendezvous payloads land in place: bytes_copied == 0."""

    @pytest.mark.parametrize("nbytes", [MB, 4 * MB])
    def test_large_rendezvous_is_zero_copy(self, nbytes):
        devices, pids = make_job("procdev", 2)
        try:
            payload = np.arange(nbytes, dtype=np.uint8)
            _reset_stats(devices)
            _transfer(devices, pids, payload, tag=5)

            combined = _combined(devices)
            assert combined["bytes_copied"] == 0, combined
            # Sender's gather into the spill segment + receiver's
            # landing into the posted buffer: two accounted moves.
            assert combined["bytes_moved"] >= 2 * payload.nbytes

            sender = devices[0].engine.transport.counters
            receiver = devices[1].engine.transport.counters
            assert sender["frames_spilled"] >= 1
            assert receiver["landings_in_place"] >= 1
            assert receiver["landings_fallback"] == 0
        finally:
            for d in devices:
                d.finish()

    def test_ssend_forces_rendezvous_and_stays_zero_copy(self):
        devices, pids = make_job("procdev", 2)
        try:
            payload = np.arange(2 * MB, dtype=np.uint8)
            _reset_stats(devices)
            _transfer(devices, pids, payload, tag=9, mode="ssend")
            assert _combined(devices)["bytes_copied"] == 0
        finally:
            for d in devices:
                d.finish()

    def test_small_eager_rides_a_ring_slot_inline(self):
        devices, pids = make_job("procdev", 2)
        try:
            payload = np.arange(1024, dtype=np.uint8)
            _transfer(devices, pids, payload, tag=3)
            sender = devices[0].engine.transport.counters
            assert sender["frames_inline"] >= 1
            assert sender["frames_spilled"] == 0
        finally:
            for d in devices:
                d.finish()

    def test_oversized_eager_spills_and_still_delivers(self):
        # 32 KB: below the 128 KB eager threshold, above the 16 KB ring
        # slot — the eager frame must detour through a spill segment.
        devices, pids = make_job("procdev", 2)
        try:
            payload = np.arange(32 * 1024, dtype=np.uint8)
            _transfer(devices, pids, payload, tag=4)
            assert devices[0].engine.transport.counters["frames_spilled"] >= 1
        finally:
            for d in devices:
                d.finish()


class TestSpillRecycling:
    def test_release_notices_return_segments_to_the_pool(self):
        devices, pids = make_job("procdev", 2)
        try:
            payload = np.arange(MB, dtype=np.uint8)
            for tag in (21, 22, 23):
                _transfer(devices, pids, payload, tag=tag)
            sender = devices[0].engine.transport
            # RELEASE notices arrive asynchronously on the reverse ring.
            deadline = time.monotonic() + 5.0
            while sender._arena.inflight_names() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sender._arena.inflight_names() == []
            assert sender.counters["releases_received"] >= 3
            # Steady state reuses pooled pages instead of shm_open.
            assert sender._arena.hits >= 2
        finally:
            for d in devices:
                d.finish()

    def test_finish_waits_for_spills_the_peer_has_not_mapped_yet(self):
        """A sender that finishes right after a rendezvous completes
        must not unlink the spill segment under a receiver whose poller
        has not attached it yet — the message would be lost and the
        receive would hang (the cross-process ring-exchange flake)."""
        from repro.shm.ring import KIND_SPILL

        devices, pids = make_job("procdev", 2)
        try:
            receiver = devices[1].engine.transport
            dispatch = receiver._dispatch

            def slow_dispatch(src_rank, kind, view):
                if kind == KIND_SPILL:
                    time.sleep(0.3)  # the poller lags behind the sender
                dispatch(src_rank, kind, view)

            receiver._dispatch = slow_dispatch
            payload = np.arange(MB, dtype=np.uint8)
            out = np.empty_like(payload)
            rbuf = Buffer(capacity=payload.nbytes + 64)
            req = devices[1].irecv(rbuf, pids[0], 31, 0)
            devices[0].send(send_buffer(payload), pids[1], 31, 0)
            devices[0].finish()  # sender leaves while the handle is unread
            req.wait(timeout=10)
            rbuf.read_section(out=out)
            assert np.array_equal(out, payload)
            assert receiver.errors == []
        finally:
            for d in devices:
                d.finish()


class TestHygieneAndIntrospection:
    def test_finish_unlinks_every_job_segment(self):
        devices, pids = make_job("procdev", 2)
        job_id = devices[0].introspect()["job_id"]
        payload = np.arange(MB, dtype=np.uint8)
        _transfer(devices, pids, payload, tag=6)
        assert active_segments(job_id)  # rings segment is live mid-job
        for d in devices:
            d.finish()
        assert active_segments(job_id) == []

    def test_introspect_reports_the_datapath(self):
        devices, pids = make_job("procdev", 2)
        try:
            payload = np.arange(MB, dtype=np.uint8)
            _transfer(devices, pids, payload, tag=8)
            snap = devices[0].introspect()
            assert snap["device"] == "procdev"
            assert "job_id" in snap
            t = snap["transport"]
            for key in (
                "frames_inline", "frames_spilled", "releases_sent",
                "releases_received", "deferred_pushes",
                "landings_in_place", "landings_fallback",
                "arena", "inbox_depth",
            ):
                assert key in t, key
            assert t["frame_errors"] == 0
        finally:
            for d in devices:
                d.finish()

    def test_double_finish_is_safe(self):
        devices, _pids = make_job("procdev", 2)
        for d in devices:
            d.finish()
        for d in devices:
            d.finish()


class TestFullRingsBothWays:
    """Both directions' rings full at once must drain, not wedge.

    With a lock held across the blocking wait for ring space, an
    application thread spinning on a full ring held what the poller's
    RTR answer queued for, so both pollers stopped draining and every
    flood thread ended in ``RingStalledError``.  The outbound-ring lock
    now covers one ``try_push`` only and the engine holds nothing
    across a write.
    """

    N_SMALL, N_BIG, BIG = 3000, 200, 300_000

    def test_bidirectional_flood_with_rendezvous_completes(self):
        from repro.xdev.device import DeviceConfig, new_instance
        from repro.xdev.procdev import ProcFabric

        # Two 4 KB slots per ring: full after two eager frames.
        fabric = ProcFabric(2, nslots=2, slot_bytes=4096)
        devices = [new_instance("procdev") for _ in range(2)]
        for rank, dev in enumerate(devices):
            pids = dev.init(DeviceConfig(rank=rank, nprocs=2, fabric=fabric))
        job_id = devices[0].introspect()["job_id"]
        errors: list[BaseException] = []

        def guarded(fn, rank):
            def run():
                try:
                    fn(devices[rank], pids[1 - rank])
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            return threading.Thread(target=run, daemon=True)

        def flood_small(dev, peer):
            for i in range(self.N_SMALL):
                dev.send(send_buffer(np.full(256, i % 127, np.int8)), peer, 1, 0)

        def flood_big(dev, peer):
            for i in range(self.N_BIG):
                dev.send(send_buffer(np.full(self.BIG, i % 127, np.int8)), peer, 2, 0)

        def drain_small(dev, peer):
            for i in range(self.N_SMALL):
                rbuf = Buffer(capacity=320)
                dev.recv(rbuf, peer, 1, 0)
                got = rbuf.read_section()
                assert got.size == 256 and (got == i % 127).all(), i

        try:
            for dev in devices:
                # A stall must fail the test inside the join below, not
                # after the default minute.
                dev.engine.transport._ring_timeout = 8.0
            posted = []
            for rank, dev in enumerate(devices):
                for _ in range(self.N_BIG):
                    rbuf = Buffer(capacity=self.BIG + 64)
                    posted.append((rbuf, dev.irecv(rbuf, pids[1 - rank], 2, 0)))
            threads = [
                guarded(fn, rank)
                for rank in (0, 1)
                for fn in (flood_small, flood_big, drain_small)
            ]
            deadline = time.monotonic() + 30.0
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
            assert errors == []
            assert not any(t.is_alive() for t in threads), "a thread wedged"
            for n, (rbuf, req) in enumerate(posted):
                req.wait()
                got = rbuf.read_section()
                assert got.size == self.BIG and (got == n % self.N_BIG % 127).all()
        finally:
            for dev in devices:
                dev.finish()
        assert active_segments(job_id) == []
