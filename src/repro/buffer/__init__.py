"""mpjbuf — the MPJ Express buffering API, reproduced in Python.

The paper (Section III, IV-A.3, IV-C and reference [3]) describes a
buffering layer in which every outgoing message is packed into a
*direct byte buffer* with two sections:

* a **static section** holding primitive-typed data, laid out as a
  sequence of ``(section header, payload)`` records so heterogeneous
  data can travel in one message, and
* a **dynamic section** holding serialized objects (JDK serialization
  in the paper; :mod:`pickle` here).

In the paper, packing once into a contiguous buffer is what lets the
JNI device (mxdev) hand memory straight to the native library without
a copy, and lets the NIO device (niodev) issue a single channel write;
here every engine device hands the sections to its transport as one
gather list.  The
Python analogue of a *direct* byte buffer is a :class:`bytearray`
exposed through zero-copy :class:`memoryview` slices.

Public classes
--------------
:class:`~repro.buffer.buffer.Buffer`
    The two-section message buffer.
:class:`~repro.buffer.raw.RawBuffer`
    The underlying growable contiguous byte store.
:class:`~repro.buffer.pool.BufferPool`
    A free-list allocator reusing buffers across messages.
:class:`~repro.buffer.types.SectionType`
    Type codes used in static-section headers.
"""

from repro.buffer.types import (
    SectionType,
    dtype_for,
    element_size,
    section_type_for_dtype,
)
from repro.buffer.raw import RawBuffer
from repro.buffer.buffer import (
    Buffer,
    BufferFormatError,
    ReceiveMismatchError,
    SectionHeader,
)
from repro.buffer.pool import BufferPool

__all__ = [
    "Buffer",
    "BufferFormatError",
    "BufferPool",
    "RawBuffer",
    "ReceiveMismatchError",
    "SectionHeader",
    "SectionType",
    "dtype_for",
    "element_size",
    "section_type_for_dtype",
]
