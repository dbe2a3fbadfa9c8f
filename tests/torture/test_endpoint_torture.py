"""Endpoint torture: thread storms across the sharded engine.

Every test drives many concurrent sender/receiver threads whose tags
route to *different* endpoint shards — the configuration where the
sharded matcher and completion shards all run concurrently — and
asserts the paper's correctness claims
survive: contents exact, per-stream FIFO, wildcard receives complete,
no lock-order violations, no stalls.  Chaos tests inherit the
``chaos_seed`` fixture, so a failure prints its ``REPRO_CHAOS_SEED``
banner for replay; scheduled tests replay the interleaving itself.

Tests parametrized over ``endpoints`` in {1, 4} prove the claims hold
on both the seed's single-engine path and the sharded path (CI also
sweeps ``REPRO_ENDPOINTS`` over the whole torture job).
"""

import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.testing import ChaosConfig, SeededSchedule
from repro.testing.fixtures import make_chaos_job, make_scheduled_job
from repro.testing.watchdog import LockGraph
from repro.xdev.constants import ANY_SOURCE, ANY_TAG
from repro.xdev.endpoints import route_of
from repro.xdev.locknames import recording

JOIN_S = 90


def send_buffer(value):
    buf = Buffer()
    buf.write(np.array([value], dtype=np.int64))
    return buf


def read_one(buf):
    return int(buf.read_section()[0])


def shard_spread_tags(nstreams: int, endpoints: int) -> list[int]:
    """One tag per stream, spread round-robin over the shards."""
    tags = []
    for k in range(nstreams):
        tag = k * 100 + 1
        while route_of(0, tag) % endpoints != k % endpoints:
            tag += 1
        tags.append(tag)
    return tags


class TestEndpointStormUnderChaos:
    """Multi-thread storms through ChaosTransport with sharding on."""

    @pytest.mark.parametrize("endpoints", [1, 4])
    def test_concurrent_streams_exact_and_fifo(self, chaos_seed, endpoints):
        """N thread pairs, one tag-routed shard each, under the torture
        fault mix: every stream must arrive complete and in order, and
        the instrumented locks must stay cycle-free."""
        nthreads, per_thread = 4, 25
        graph = LockGraph()
        with recording(graph):  # smdev makes every lock at init
            devices, pids = make_chaos_job(2, chaos_seed, endpoints=endpoints)
        tags = shard_spread_tags(nthreads, endpoints)
        got = [[] for _ in range(nthreads)]
        errors = []
        try:
            def sender(t):
                try:
                    devices[0].engine.bind_endpoint(t % endpoints)
                    for i in range(per_thread):
                        devices[0].send(
                            send_buffer(t * 1000 + i), pids[1], tags[t], 0
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(("send", t, exc))

            def receiver(t):
                try:
                    devices[1].engine.bind_endpoint(t % endpoints)
                    for _ in range(per_thread):
                        rbuf = Buffer()
                        status = devices[1].recv(rbuf, pids[0], tags[t], 0)
                        assert status.tag == tags[t]
                        got[t].append(read_one(rbuf))
                except Exception as exc:  # noqa: BLE001
                    errors.append(("recv", t, exc))

            threads = [
                threading.Thread(target=fn, args=(t,), daemon=True)
                for t in range(nthreads)
                for fn in (sender, receiver)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(JOIN_S)
            stalled = [th for th in threads if th.is_alive()]
            assert not stalled, f"{len(stalled)} threads stalled"
            assert not errors, errors
            for t in range(nthreads):
                assert got[t] == [t * 1000 + i for i in range(per_thread)]
            assert not graph.violations, graph.violations
        finally:
            for d in devices:
                d.finish()

    @pytest.mark.parametrize("endpoints", [1, 4])
    def test_any_source_concrete_tag_single_shard(self, chaos_seed, endpoints):
        """ANY_SOURCE + concrete tag routes to one shard (the route
        ignores the source), so it must keep working with sharding on:
        every message delivered, per-source FIFO intact."""
        nsenders, per_sender = 3, 12
        devices, pids = make_chaos_job(
            nsenders + 1, chaos_seed, endpoints=endpoints
        )
        try:
            errors = []

            def sender(rank):
                try:
                    for i in range(per_sender):
                        devices[rank].send(
                            send_buffer(rank * 1000 + i), pids[0], 5, 0
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=sender, args=(r,), daemon=True)
                for r in range(1, nsenders + 1)
            ]
            for th in threads:
                th.start()
            per_source = {}
            for _ in range(nsenders * per_sender):
                rbuf = Buffer()
                status = devices[0].recv(rbuf, ANY_SOURCE, 5, 0)
                per_source.setdefault(status.source.uid, []).append(
                    read_one(rbuf)
                )
            for th in threads:
                th.join(JOIN_S)
            assert not errors
            uid_to_rank = {p.uid: r for r, p in enumerate(pids)}
            assert len(per_source) == nsenders
            for uid, values in per_source.items():
                rank = uid_to_rank[uid]
                assert values == [rank * 1000 + i for i in range(per_sender)]
        finally:
            for d in devices:
                d.finish()

    def test_any_tag_wildcard_fallback_races_concrete(self, chaos_seed):
        """An ANY_TAG receiver (the global wildcard path, all shards
        locked) races concrete-tag receivers on other threads; nothing
        may be lost, duplicated, or stall."""
        endpoints, nstreams, per_stream = 4, 3, 10
        wildcard_n = 10
        devices, pids = make_chaos_job(2, chaos_seed, endpoints=endpoints)
        tags = shard_spread_tags(nstreams, endpoints)
        wildcard_tag = 7777  # only ever received via ANY_TAG
        concrete = [[] for _ in range(nstreams)]
        wildcard = []
        errors = []
        try:
            def receiver(t):
                try:
                    devices[1].engine.bind_endpoint(t % endpoints)
                    for _ in range(per_stream):
                        rbuf = Buffer()
                        devices[1].recv(rbuf, pids[0], tags[t], 0)
                        concrete[t].append(read_one(rbuf))
                except Exception as exc:  # noqa: BLE001
                    errors.append(("concrete", t, exc))

            def wildcard_receiver():
                try:
                    for _ in range(wildcard_n):
                        rbuf = Buffer()
                        status = devices[1].recv(rbuf, ANY_SOURCE, ANY_TAG, 1)
                        assert status.tag == wildcard_tag
                        wildcard.append(read_one(rbuf))
                except Exception as exc:  # noqa: BLE001
                    errors.append(("wildcard", exc))

            threads = [
                threading.Thread(target=receiver, args=(t,), daemon=True)
                for t in range(nstreams)
            ] + [threading.Thread(target=wildcard_receiver, daemon=True)]
            for th in threads:
                th.start()
            # Interleave wildcard-context and concrete-context traffic.
            for i in range(max(per_stream, wildcard_n)):
                if i < wildcard_n:
                    devices[0].send(
                        send_buffer(9000 + i), pids[1], wildcard_tag, 1
                    )
                for t in range(nstreams):
                    if i < per_stream:
                        devices[0].send(
                            send_buffer(t * 1000 + i), pids[1], tags[t], 0
                        )
            for th in threads:
                th.join(JOIN_S)
            assert not any(th.is_alive() for th in threads), "stall"
            assert not errors, errors
            for t in range(nstreams):
                assert concrete[t] == [t * 1000 + i for i in range(per_stream)]
            # The wildcard context is one (src, context) stream: FIFO.
            assert wildcard == [9000 + i for i in range(wildcard_n)]
        finally:
            for d in devices:
                d.finish()

    def test_rendezvous_storm_across_endpoints(self, chaos_seed):
        """Synchronous-mode sends (RTS/RTR/DATA control traffic) from
        several threads, each on its own shard, under duplicated
        control frames — completion and payload integrity."""
        endpoints, nthreads, per_thread = 4, 3, 4
        config = ChaosConfig(seed=chaos_seed, duplicate_prob=0.5)
        devices, pids = make_chaos_job(
            2, chaos_seed, config=config, endpoints=endpoints
        )
        tags = shard_spread_tags(nthreads, endpoints)
        payload = np.arange(50_000, dtype=np.int64)  # rendezvous-sized
        errors = []
        try:
            def pair(t):
                try:
                    for _ in range(per_thread):
                        buf = Buffer(capacity=payload.nbytes + 64)
                        buf.write(payload + t)
                        sreq = devices[0].issend(buf, pids[1], tags[t], 0)
                        rbuf = Buffer()
                        devices[1].recv(rbuf, pids[0], tags[t], 0)
                        assert np.array_equal(rbuf.read_section(), payload + t)
                        sreq.wait(timeout=JOIN_S)
                except Exception as exc:  # noqa: BLE001
                    errors.append((t, exc))

            threads = [
                threading.Thread(target=pair, args=(t,), daemon=True)
                for t in range(nthreads)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(JOIN_S)
            assert not any(th.is_alive() for th in threads), "stall"
            assert not errors, errors
        finally:
            for d in devices:
                d.finish()


class TestScheduledReplayAcrossEndpoints:
    """The seeded scheduler extended across endpoint inboxes."""

    @pytest.mark.parametrize("endpoints", [1, 4])
    def test_schedule_replays_identically(self, chaos_seed, endpoints):
        """Same seed, same sharding degree → identical (rank, choice,
        fanout, endpoint) decision sequence.  This is the replayability
        claim for the per-endpoint inbox grid."""

        def run(seed):
            schedule = SeededSchedule(seed)
            devices, pids = make_scheduled_job(
                2, schedule, endpoints=endpoints
            )
            try:
                for i in range(10):
                    devices[0].send(send_buffer(i), pids[1], i % 5, 0)
                    rbuf = Buffer()
                    devices[1].recv(rbuf, pids[0], i % 5, 0)
                    assert read_one(rbuf) == i
                return list(schedule.choices)
            finally:
                for d in devices:
                    d.finish()

        a, b = run(chaos_seed), run(chaos_seed)
        assert a == b
        assert a, "traffic must consult the schedule"

    def test_endpoints_recorded_in_choices(self, chaos_seed):
        """With sharding on, deliveries actually land on more than one
        endpoint inbox (the schedule records which)."""
        endpoints = 4
        schedule = SeededSchedule(chaos_seed)
        devices, pids = make_scheduled_job(2, schedule, endpoints=endpoints)
        tags = shard_spread_tags(endpoints, endpoints)
        try:
            for t, tag in enumerate(tags):
                devices[0].send(send_buffer(t), pids[1], tag, 0)
                rbuf = Buffer()
                devices[1].recv(rbuf, pids[0], tag, 0)
                assert read_one(rbuf) == t
        finally:
            for d in devices:
                d.finish()
        eps_seen = {ep for _rank, _idx, _n, ep in schedule.choices}
        assert len(eps_seen) == endpoints

    def test_storm_multiset_preserved_under_schedule(self, chaos_seed):
        """Sender threads across all endpoints, an ANY_TAG drain on the
        receiver: the scheduler permutes delivery across the inbox
        grid, but the received multiset is exact."""
        endpoints, nthreads, per_thread = 4, 4, 8
        schedule = SeededSchedule(chaos_seed)
        devices, pids = make_scheduled_job(
            2, schedule, gather_window_s=0.005, endpoints=endpoints
        )
        tags = shard_spread_tags(nthreads, endpoints)
        errors = []
        try:
            def sender(t):
                try:
                    devices[0].engine.bind_endpoint(t % endpoints)
                    for i in range(per_thread):
                        devices[0].send(
                            send_buffer(t * 1000 + i), pids[1], tags[t], 0
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=sender, args=(t,), daemon=True)
                for t in range(nthreads)
            ]
            for th in threads:
                th.start()
            recvd = []
            for _ in range(nthreads * per_thread):
                rbuf = Buffer()
                devices[1].recv(rbuf, ANY_SOURCE, ANY_TAG, 0)
                recvd.append(read_one(rbuf))
            for th in threads:
                th.join(JOIN_S)
            assert not errors
            assert sorted(recvd) == sorted(
                t * 1000 + i
                for t in range(nthreads)
                for i in range(per_thread)
            )
        finally:
            for d in devices:
                d.finish()


class TestEndpointIntrospection:
    def test_per_endpoint_metrics_surface(self, chaos_seed):
        """``device.introspect()`` must expose the endpoint layout and
        matcher/inbox depths."""
        endpoints = 4
        devices, pids = make_chaos_job(2, chaos_seed, endpoints=endpoints)
        try:
            tags = shard_spread_tags(endpoints, endpoints)
            for t, tag in enumerate(tags):
                devices[0].engine.bind_endpoint(t)
                devices[0].send(send_buffer(t), pids[1], tag, 0)
                rbuf = Buffer()
                devices[1].recv(rbuf, pids[0], tag, 0)
            info = devices[1].introspect()["endpoints"]
            assert info["count"] == endpoints
            assert len(info["matching_shards"]) == endpoints
            assert set(info["probe_stats"]) == {
                "blocking_probes", "wakeups", "futile_wakeups",
            }
            send_info = devices[0].introspect()["endpoints"]
            assert send_info["bound_threads"] >= 1
        finally:
            for d in devices:
                d.finish()
