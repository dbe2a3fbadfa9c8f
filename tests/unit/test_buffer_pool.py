"""Unit tests for BufferPool."""

import threading

import numpy as np
import pytest

from repro.buffer import Buffer, BufferPool
from repro.buffer.pool import size_class


class TestAcquireRelease:
    def test_acquire_gives_writable_buffer(self):
        pool = BufferPool()
        buf = pool.acquire(100)
        assert not buf.committed
        buf.write(np.arange(5, dtype=np.int32))

    def test_release_then_reuse(self):
        pool = BufferPool()
        buf = pool.acquire(100)
        pool.release(buf)
        again = pool.acquire(100)
        assert again is buf
        assert pool.stats["reused"] == 1

    def test_free_returns_to_pool(self):
        pool = BufferPool()
        buf = pool.acquire(64)
        buf.free()
        assert pool.acquire(64) is buf

    def test_reused_buffer_is_clear(self):
        pool = BufferPool()
        buf = pool.acquire(64)
        buf.write(np.arange(4, dtype=np.int32))
        buf.commit()
        pool.release(buf)
        again = pool.acquire(64)
        assert again.size == 0
        assert not again.committed

    def test_different_buckets_do_not_mix(self):
        pool = BufferPool()
        small = pool.acquire(16)
        pool.release(small)
        big = pool.acquire(1 << 20)
        assert big is not small

    def test_bucket_capacity_bound(self):
        pool = BufferPool(max_buffers_per_bucket=2)
        bufs = [pool.acquire(64) for _ in range(4)]
        for b in bufs:
            pool.release(b)
        assert pool.stats["pooled"] <= 2

    def test_unpooled_buffer_free_is_noop(self):
        Buffer().free()  # no pool attached; must not raise

    def test_negative_bucket_cap_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(max_buffers_per_bucket=-1)


class TestConcurrency:
    def test_concurrent_acquire_release(self):
        pool = BufferPool()
        errors = []

        def worker():
            try:
                for _ in range(200):
                    buf = pool.acquire(128)
                    buf.write(np.arange(4, dtype=np.int64))
                    pool.release(buf)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.stats["acquired"] == 1600


class TestSizeClass:
    @staticmethod
    def doubling(capacity, floor=16):
        """The definition: double the floor until it holds *capacity*."""
        bucket = floor
        while bucket < capacity:
            bucket *= 2
        return bucket

    def test_matches_doubling_for_every_capacity_to_64k(self):
        for capacity in range(0, (1 << 16) + 1):
            assert size_class(capacity) == self.doubling(capacity), capacity

    @pytest.mark.parametrize("floor", [1, 3, 64])
    def test_other_floors(self, floor):
        for capacity in range(0, 5000):
            assert size_class(capacity, floor) == self.doubling(capacity, floor)
