"""Unit tests for the endpoint layer.

Covers the pieces the thread-scaling tentpole is built from: endpoint
count resolution (`REPRO_ENDPOINTS`), content-hash frame routing,
sticky thread binding, the endpoint-sharded completion store, and the
per-shard arrival tickers behind blocking probes.
"""

import threading
import time

import pytest

from repro.mpjdev.request import Request
from repro.xdev.completion import CompletionShards
from repro.xdev.constants import ANY_SOURCE, ANY_TAG
from repro.xdev.endpoints import (
    DEFAULT_ENDPOINTS,
    ENDPOINTS_ENV,
    EndpointBinding,
    endpoint_count,
    route_of,
    route_of_id,
)
from repro.xdev.matching import ArrivedMessage, ShardedMatcher
from repro.xdev.processid import ProcessID


def msg(context=0, tag=0, src=0):
    return ArrivedMessage(context, tag, src, 1, b"", src_pid=ProcessID(uid=src))


def tag_on_shard(shard: int, nshards: int, start: int = 1) -> int:
    tag = start
    while route_of(0, tag) % nshards != shard:
        tag += 1
    return tag


class TestEndpointCount:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENDPOINTS_ENV, raising=False)
        assert endpoint_count() == DEFAULT_ENDPOINTS

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(ENDPOINTS_ENV, "7")
        assert endpoint_count() == 7

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENDPOINTS_ENV, "7")
        assert endpoint_count(explicit=2) == 2

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.setenv(ENDPOINTS_ENV, "0")
        assert endpoint_count() == 1
        assert endpoint_count(explicit=-3) == 1

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENDPOINTS_ENV, "many")
        with pytest.raises(ValueError, match=ENDPOINTS_ENV):
            endpoint_count()


class TestRouting:
    def test_route_is_pure(self):
        assert all(
            route_of(c, t) == route_of(c, t)
            for c in range(4)
            for t in range(32)
        )

    def test_route_fits_31_bits(self):
        for t in range(-5, 100):
            assert 0 <= route_of(1, t) < 2**31
            assert 0 <= route_of_id(t & 0xFFFF) < 2**31

    def test_consecutive_tags_spread_over_shards(self):
        """The mixing constants must not alias consecutive tags onto a
        few shards — every shard gets traffic from a small tag range."""
        for nshards in (2, 4, 8):
            hit = {route_of(0, tag) % nshards for tag in range(4 * nshards)}
            assert hit == set(range(nshards))

    def test_contexts_decorrelate(self):
        """The same tag in different contexts is a different stream."""
        routes = {route_of(c, 3) for c in range(16)}
        assert len(routes) > 8

    def test_id_routes_spread(self):
        for nshards in (2, 4, 8):
            hit = {route_of_id(i) % nshards for i in range(1, 4 * nshards)}
            assert hit == set(range(nshards))


class TestEndpointBinding:
    def test_round_robin_first_use(self):
        b = EndpointBinding(3)
        seen = {}

        def worker(i):
            seen[i] = b.current()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
            t.join()  # serialize so assignment order is deterministic
        assert sorted(seen.values()) == [0, 0, 1, 1, 2, 2]
        assert b.bound_threads() == 6

    def test_sticky_within_thread(self):
        b = EndpointBinding(4)
        assert b.current() == b.current() == b.current()
        assert b.bound_threads() == 1

    def test_bind_pins_and_wraps(self):
        b = EndpointBinding(4)
        assert b.bind(6) == 2
        assert b.current() == 2
        assert b.bound_threads() == 1


class TestCompletionShards:
    def test_pop_latest_is_global_lifo(self):
        cs = CompletionShards(4)
        reqs = [Request(Request.SEND) for _ in range(6)]
        for i, r in enumerate(reqs):
            cs.push(r, endpoint=i)  # completions land on many shards
        for expected in reversed(reqs):
            assert cs.pop_latest(timeout=1) is expected
        assert len(cs) == 0

    def test_pop_latest_reverses_completion_order(self):
        # Shards interleaved out of endpoint order: the global sequence
        # numbers, not the shard scan order, decide what pops first.
        cs = CompletionShards(3)
        reqs = [Request(Request.SEND) for _ in range(7)]
        for i, r in enumerate(reqs):
            cs.push(r, endpoint=(i * 2) % 3)
        assert [cs.pop_latest(timeout=1) for _ in reqs] == reqs[::-1]

    def test_pop_latest_times_out(self):
        cs = CompletionShards(2)
        with pytest.raises(TimeoutError):
            cs.pop_latest(timeout=0.05)

    def test_blocked_peek_woken_by_push(self):
        cs = CompletionShards(2)
        out = {}

        def peeker():
            out["req"] = cs.pop_latest(timeout=10)

        t = threading.Thread(target=peeker, daemon=True)
        t.start()
        time.sleep(0.05)  # let the peeker block
        req = Request(Request.SEND)
        cs.push(req, endpoint=1)
        t.join(10)
        assert out["req"] is req

    def test_depths_and_totals_per_shard(self):
        cs = CompletionShards(2)
        cs.push(Request(Request.SEND), endpoint=0)
        cs.push(Request(Request.SEND), endpoint=0)
        cs.push(Request(Request.SEND), endpoint=1)
        assert cs.depths() == [2, 1]
        for _ in range(3):
            cs.pop_latest(timeout=1)
        assert cs.depths() == [0, 0]
        assert cs.totals() == [2, 1]


class TestPerShardProbeTickers:
    """The blocking-probe wakeup path: per-shard tickers mean a store
    wakes only the probers of its own (context, tag) stream."""

    def test_prober_wakes_on_own_shard_store(self):
        m = ShardedMatcher(4)
        tag = tag_on_shard(2, 4)
        out = {}

        def prober():
            out["msg"] = m.wait_message(0, tag, ANY_SOURCE)

        t = threading.Thread(target=prober, daemon=True)
        t.start()
        time.sleep(0.05)
        assert m.arrive(msg(tag=tag)) is None  # stored, prober not a recv
        t.join(10)
        assert out["msg"].tag == tag
        first = m.probe_stats
        assert first["blocking_probes"] == 1
        assert first["futile_wakeups"] == 0
        # A probe on a second shard and an ANY_TAG probe, both met by
        # stored messages, count once each into the same sum.
        other = tag_on_shard(3, 4)
        m.arrive(msg(tag=other))
        assert m.wait_message(0, other, ANY_SOURCE).tag == other
        assert m.wait_message(0, ANY_TAG, ANY_SOURCE) is not None
        assert m.probe_stats == dict(first, blocking_probes=3)

    def test_other_shard_stores_do_not_wake_prober(self):
        """Traffic on other shards must not produce futile wakeups for
        a concrete-tag prober — the thundering herd the shared ticker
        suffered.  The prober's shard sees silence until its own tag
        arrives, and the wakeup accounting shows zero futile scans."""
        m = ShardedMatcher(4)
        my_tag = tag_on_shard(0, 4)
        other_tag = tag_on_shard(1, 4, start=my_tag + 1)
        released = threading.Event()

        def prober():
            m.wait_message(0, my_tag, ANY_SOURCE)
            released.set()

        t = threading.Thread(target=prober, daemon=True)
        t.start()
        time.sleep(0.05)
        for _ in range(20):
            m.arrive(msg(tag=other_tag))
        time.sleep(0.05)
        assert not released.is_set(), "prober woke for another stream"
        m.arrive(msg(tag=my_tag))
        assert released.wait(10)
        t.join(10)
        assert m.probe_stats["futile_wakeups"] == 0

    def test_any_tag_prober_uses_global_ticker(self):
        """ANY_TAG probes span shards, so any store may satisfy them —
        they register on the global ticker instead."""
        m = ShardedMatcher(4)
        out = {}

        def prober():
            out["msg"] = m.wait_message(0, ANY_TAG, ANY_SOURCE)

        t = threading.Thread(target=prober, daemon=True)
        t.start()
        time.sleep(0.05)
        m.arrive(msg(tag=12345))
        t.join(10)
        assert out["msg"].tag == 12345

    def test_idle_stores_pay_no_ticker_work(self):
        """With no prober blocked anywhere, stores never touch a ticker
        (the unlocked waiter hints stay zero)."""
        m = ShardedMatcher(4)
        for i in range(10):
            m.arrive(msg(tag=i))
        for shard in m._shards:
            assert shard.ticks == 0
        assert m._ticks == 0
