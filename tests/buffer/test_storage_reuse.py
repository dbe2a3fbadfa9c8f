"""A Buffer keeps its storage across landings.

Landed sections are views into the buffer's own store; every refill
(``clear``, ``begin_landing``, ``load_wire``, ``load_wire_segments``,
and a pool round trip through ``clear``) starts again from the whole
store.  Re-aiming the buffer at an exact-size view instead made every
reuse allocate a fresh, zero-filled store twice the message size.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.buffer import Buffer, BufferPool
from repro.buffer.buffer import copy_segments

MB = 1 << 20


def _wire(nbytes: int) -> bytes:
    buf = Buffer(capacity=nbytes + 64)
    buf.write(np.arange(nbytes, dtype=np.uint8))
    return buf.commit().to_wire()


def _land(buf: Buffer, wire: bytes) -> Buffer:
    copy_segments(buf.begin_landing(len(wire)), [wire])
    return buf.finish_landing(len(wire))


def _thirds(wire: bytes) -> list[memoryview]:
    view, cut = memoryview(wire), len(wire) // 3
    return [view[:cut], view[cut : 2 * cut], view[2 * cut :]]


REFILLS = {
    "landing": _land,
    "load_wire": lambda buf, wire: buf.load_wire(wire),
    "load_wire_segments": lambda buf, wire: buf.load_wire_segments(_thirds(wire)),
}


def _peak_growth(fn) -> int:
    """Peak traced allocation while *fn* runs, in bytes."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def _check_payload(buf: Buffer, nbytes: int) -> None:
    data = buf.read_section().view(np.uint8)  # a BYTE section reads as int8
    assert np.array_equal(data, np.arange(nbytes, dtype=np.uint8))


@pytest.mark.parametrize("refill", sorted(REFILLS))
def test_five_landings_reuse_one_store(refill):
    wire = _wire(4 * MB)
    buf = Buffer(capacity=len(wire))
    store = buf._store._data

    def five() -> None:
        for _ in range(5):
            REFILLS[refill](buf, wire)

    assert _peak_growth(five) < MB
    assert buf._store._data is store
    _check_payload(buf, 4 * MB)


def test_pooled_buffer_keeps_its_store_across_round_trips():
    wire = _wire(4 * MB)
    pool = BufferPool()
    buf = pool.acquire(len(wire))
    store = buf._store._data

    def five() -> None:
        nonlocal buf
        for _ in range(5):
            _land(buf, wire)
            buf.free()
            again = pool.acquire(len(wire))
            assert again is buf
            buf = again

    assert _peak_growth(five) < MB
    assert buf._store._data is store
    assert pool.stats["acquired"] == 6 and pool.stats["reused"] == 5
    buf.free()


def test_smaller_then_larger_landing_that_fits_does_not_reallocate():
    small, large = _wire(64 * 1024), _wire(4 * MB)
    buf = Buffer(capacity=len(large))
    store = buf._store._data
    _land(buf, small)
    _check_payload(buf, 64 * 1024)
    _land(buf, large)
    assert buf._store._data is store
    _check_payload(buf, 4 * MB)


def test_release_files_the_buffer_under_its_acquired_size_class():
    pool = BufferPool()
    buf = pool.acquire(4 * MB)
    _land(buf, _wire(1024))  # the landed sections are tiny views
    buf.free()
    assert pool.acquire(4 * MB) is buf
    assert pool.acquire(1024) is not buf
