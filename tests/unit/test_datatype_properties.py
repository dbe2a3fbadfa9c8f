"""Property-based tests for derived datatypes.

Invariant: for any derived layout, pack-then-unpack writes exactly the
selected base elements (bit-identical) and touches nothing else —
the gather/scatter pair is the identity on the selection.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.buffer import Buffer

vectors = st.tuples(
    st.integers(1, 5),   # count (blocks)
    st.integers(1, 4),   # blocklength
    st.integers(4, 8),   # stride (>= blocklength to avoid overlap)
    st.integers(0, 3),   # offset
    st.integers(1, 3),   # element count
)


@given(vectors)
@settings(max_examples=80, deadline=None)
def test_vector_roundtrip_identity_on_selection(params):
    blocks, blocklength, stride, offset, count = params
    dt = mpi.DOUBLE.vector(blocks, blocklength, stride)
    needed = offset + count * dt.get_extent() + 1
    rng = np.random.default_rng(42)
    src = rng.random(needed)
    buf = Buffer()
    dt.pack(buf, src, offset, count)
    buf.commit()
    dest = np.zeros_like(src)
    assert dt.unpack(buf, dest, offset, count) == count
    idx = dt._indices(offset, count)
    np.testing.assert_array_equal(dest[idx], src[idx])
    mask = np.ones(needed, dtype=bool)
    mask[idx] = False
    assert not dest[mask].any(), "unpack wrote outside the selection"


@given(vectors)
@settings(max_examples=80, deadline=None)
def test_vector_strided_pack_matches_the_index_gather(params):
    # The index-pattern gather is the reference for the strided copy;
    # the input is itself strided and exactly as long as the span.
    blocks, blocklength, stride, offset, count = params
    dt = mpi.DOUBLE.vector(blocks, blocklength, stride)
    needed = offset + count * dt.get_extent()
    src = np.random.default_rng(7).random(2 * needed)[::2]
    buf = Buffer()
    dt.pack(buf, src, offset, count)
    buf.commit()
    np.testing.assert_array_equal(buf.read_section(), src[dt._indices(offset, count)])


indexed = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 12)), min_size=1, max_size=4
)


@given(indexed)
@settings(max_examples=80, deadline=None)
def test_indexed_roundtrip_identity(blocks):
    # Reject overlapping layouts (the constructor raises for them).
    seen: set[int] = set()
    for bl, disp in blocks:
        cells = set(range(disp, disp + bl))
        if cells & seen:
            return
        seen |= cells
    blocklengths = [bl for bl, _ in blocks]
    displacements = [d for _, d in blocks]
    dt = mpi.INT.indexed(blocklengths, displacements)
    needed = dt.get_extent() + 2
    src = np.arange(needed, dtype=np.int32)
    buf = Buffer()
    dt.pack(buf, src, 0, 1)
    buf.commit()
    dest = np.zeros(needed, dtype=np.int32)
    assert dt.unpack(buf, dest, 0, 1) == 1
    idx = dt._indices(0, 1)
    np.testing.assert_array_equal(dest[idx], src[idx])


@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_contiguous_equals_basic(inner, count, offset):
    """Contiguous(n) must move exactly the same bytes as n basics."""
    dt = mpi.LONG.contiguous(inner)
    total = offset + count * inner + 2
    src = np.arange(total, dtype=np.int64)

    buf_a = Buffer()
    dt.pack(buf_a, src, offset, count)
    buf_b = Buffer()
    mpi.LONG.pack(buf_b, src, offset, count * inner)
    assert buf_a.commit().to_wire() == buf_b.commit().to_wire()


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_packed_size_matches_actual(values):
    arr = np.array(values, dtype=np.int32)
    buf = Buffer()
    mpi.INT.pack(buf, arr, 0, arr.size)
    # packed_size counts payload only; the buffer adds a 5-byte header.
    assert buf.static_size == mpi.INT.packed_size(arr.size) + 5
