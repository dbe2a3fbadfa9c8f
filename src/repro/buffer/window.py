"""Zero-copy array windows: Buffers that alias user array memory.

The MPI layer otherwise moves array payloads through a *packed*
:class:`~repro.buffer.Buffer`: gather into a pooled buffer on the send
side, scatter out of one on the receive side.  For large contiguous
primitive transfers both copies are pure overhead — the wire image is
the user array's bytes, fronted by 21 bytes of headers.  The two
classes here eliminate them by presenting a window of the user's own
array *as* a Buffer:

:class:`ArraySendWindow`
    ``segments()`` returns ``[21-byte header, memoryview(user window)]``
    — the protocol engine's segment datapath carries the views to the
    transport untouched, so a rendezvous send never copies the payload.

:class:`ArrayRecvWindow`
    ``begin_landing`` returns the scatter list ``[21-byte header
    scratch, user window]``, so every transport lands the payload
    straight in the user array; ``finish_landing`` validates the
    headers.  ``load_wire_segments`` (eager frames) checks an image
    already cut as ``[headers, payload]`` — what a send window sends —
    in place and lands its payload with one slice; any other cut takes
    the landing route.

Both speak the standard buffer wire format byte for byte (one static
section, empty dynamic section), so a window on one rank interoperates
with a packed buffer on the other — the choice is a per-rank
optimization, not a protocol change.

This module is layered below :mod:`repro.mpi`: callers hand it raw
byte views and an mpjbuf section type; datatype gating (contiguity,
dtype compatibility, size thresholds) lives in the MPI layer.
"""

from __future__ import annotations

import struct

from repro.buffer.buffer import (
    Buffer,
    BufferFormatError,
    ReceiveMismatchError,
    WIRE_HEADER_SIZE,
)
from repro.buffer.types import SectionType, dtype_for

_HEADER = struct.Struct("<Bi")  # section type code, element count
#: Both headers of a single-section wire image, packed in one call.
_IMAGE_HEADER = struct.Struct("<qqBi")

#: Header bytes fronting a single-section wire image: the buffer wire
#: header plus one static-section header.
SECTION_OVERHEAD = WIRE_HEADER_SIZE + _HEADER.size


class ArraySendWindow(Buffer):
    """A committed, read-only Buffer aliasing a window of user memory.

    *view* must be a C-contiguous ``memoryview`` cast to bytes
    (``.cast("B")``) whose length is exactly the payload; *count* is
    the element count of *section_type* it contains.
    """

    __slots__ = ("_view", "_section_type", "_count", "_header")

    def __init__(self, view: memoryview, section_type: SectionType, count: int) -> None:
        # No Buffer.__init__: a window has no storage of its own, and
        # skipping the two unused stores matters at one window a message.
        if count * dtype_for(section_type).itemsize != len(view):
            raise BufferFormatError(
                f"window of {len(view)} bytes does not hold {count} "
                f"{section_type.name} elements"
            )
        self._store = self._static = self._dyn_store = self._dynamic = None
        self._pool = None
        self._view = view
        self._section_type = section_type
        self._count = count
        self._header = _IMAGE_HEADER.pack(
            _HEADER.size + len(view), 0, section_type, count
        )
        self._committed = True

    # -- sizes ----------------------------------------------------------

    @property
    def static_size(self) -> int:
        return _HEADER.size + len(self._view)

    @property
    def dynamic_size(self) -> int:
        return 0

    # -- wire conversion ------------------------------------------------

    def segments(self) -> list[memoryview]:
        """The zero-copy segment list: [combined headers, user window]."""
        return [memoryview(self._header), self._view]

    def clear(self) -> None:  # pragma: no cover - misuse guard
        raise BufferFormatError("send windows alias user memory; cannot clear")

    def begin_landing(self, nbytes: int) -> list[memoryview]:  # pragma: no cover
        raise BufferFormatError("send windows cannot receive")


class ArrayRecvWindow(Buffer):
    """A Buffer that lands an arriving single-section wire image
    directly in user memory.

    *dest* is a writable C-contiguous byte ``memoryview`` of the
    posted window; the message may fill any prefix of it that is a
    whole number of *block_count*-element groups.  A landing is the
    scatter list ``[21-byte header scratch, user window]``: the
    transport fills both, then :meth:`finish_landing` checks the
    headers.  After a successful landing :attr:`landed_count` holds the
    number of base elements received and :attr:`Buffer.size` the
    landed static-section size, so the engine's ``Status(size=...)``
    matches the packed path.  A landing that fails its header check
    has already written the user window — MPI leaves the receive
    buffer undefined when a receive fails.
    """

    __slots__ = ("_dest", "_section_type", "_max_count", "_block", "_head",
                 "landed_count", "_landed_static")

    def __init__(
        self,
        dest: memoryview,
        section_type: SectionType,
        max_count: int,
        block_count: int = 1,
    ) -> None:
        self._store = self._static = self._dyn_store = self._dynamic = None
        self._pool = None
        self._committed = False
        self._dest = dest
        self._section_type = section_type
        self._max_count = max_count
        self._block = max(1, block_count)
        self._head = bytearray(SECTION_OVERHEAD)
        #: Base elements landed by the last successful landing.
        self.landed_count = 0
        self._landed_static = 0

    # -- sizes ----------------------------------------------------------

    @property
    def static_size(self) -> int:
        return self._landed_static

    @property
    def dynamic_size(self) -> int:
        return 0

    # -- landing ----------------------------------------------------------

    def begin_landing(self, nbytes: int) -> list[memoryview]:
        """Scatter list for a wire image of *nbytes*: the header scratch,
        then the first ``nbytes - 21`` bytes of the user window."""
        payload = nbytes - SECTION_OVERHEAD
        if payload < 0:
            raise BufferFormatError(
                f"wire data of {nbytes} bytes is shorter than the headers"
            )
        if payload > len(self._dest):
            raise ReceiveMismatchError(
                "count",
                f"message of {payload} payload bytes overruns the posted "
                f"window of {len(self._dest)}",
            )
        self.landed_count = 0
        self._landed_static = 0
        self._committed = False
        head = memoryview(self._head)
        return [head, self._dest[:payload]] if payload else [head]

    def finish_landing(self, nbytes: int) -> "ArrayRecvWindow":
        """Check the landed headers against the posted window.

        A wire image whose sizes do not account for the landed bytes is
        corrupt (:class:`BufferFormatError`).  A consistent one the
        window cannot hold — another element type, more elements than
        posted — raises :class:`ReceiveMismatchError`.
        """
        return self._accept(self._head, nbytes)

    def load_wire_segments(self, segments) -> "ArrayRecvWindow":
        """Land a wire image given as a segment list (eager frames)."""
        if len(segments) == 2 and len(segments[0]) == SECTION_OVERHEAD:
            head, payload = segments
            n = len(payload)
            self._accept(head, SECTION_OVERHEAD + n)
            self._dest[:n] = payload
            return self
        return super().load_wire_segments(segments)

    def _accept(self, head, nbytes: int) -> "ArrayRecvWindow":
        """Validate *head*, an image's 21 header bytes, for *nbytes*."""
        static_size, dynamic_size, code, count = _IMAGE_HEADER.unpack_from(head)
        if (
            static_size < _HEADER.size
            or dynamic_size < 0
            or nbytes != WIRE_HEADER_SIZE + static_size + dynamic_size
        ):
            raise BufferFormatError(
                f"wire data is {nbytes} bytes, headers promise "
                f"{WIRE_HEADER_SIZE} + {static_size} + {dynamic_size}"
            )
        if count < 0:
            raise BufferFormatError(f"negative section count {count}")
        if code != int(self._section_type):
            got = SectionType(code).name if code in SectionType._value2member_map_ else code
            raise ReceiveMismatchError(
                "type",
                f"message section is {got}, window posted "
                f"{self._section_type.name}",
            )
        payload = count * dtype_for(self._section_type).itemsize
        if dynamic_size != 0 or static_size != _HEADER.size + payload:
            raise ReceiveMismatchError(
                "type",
                f"message is not one {self._section_type.name} section "
                f"({static_size} static, {dynamic_size} dynamic bytes)",
            )
        if count > self._max_count:
            raise ReceiveMismatchError(
                "count",
                f"message has {count} elements, window posted {self._max_count}",
            )
        if count % self._block != 0:
            raise ReceiveMismatchError(
                "count",
                f"message of {count} base elements is not a whole number "
                f"of derived elements ({self._block} each)",
            )
        self.landed_count = count
        self._landed_static = static_size
        self._committed = True
        return self

    def clear(self) -> None:  # pragma: no cover - misuse guard
        raise BufferFormatError("recv windows alias user memory; cannot clear")
