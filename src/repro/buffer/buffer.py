"""The two-section mpjbuf message buffer.

A :class:`Buffer` holds a **static section** — a sequence of
``(header, primitive payload)`` records — and a **dynamic section** — a
sequence of length-prefixed pickled objects.  The split mirrors mpjbuf
(paper Section IV-A.3): primitives go in the static section so they can
be moved as raw bytes; objects go in the dynamic section because they
need serialization.  The protocol engine transmits the two sections as
a segment list in one transport write, as the paper's mxdev does with
one ``mx_isend`` call.

Wire format
-----------
Static section record::

    +------+---------------+-----------------------+
    | type | count (int32) | count * sizeof(type)  |
    | (u8) | little endian | raw little-endian data|
    +------+---------------+-----------------------+

Dynamic section record::

    +----------------+---------------+
    | length (int32) | pickle bytes  |
    +----------------+---------------+

A whole buffer on the wire is ``static_size (int64) | dynamic_size
(int64) | static bytes | dynamic bytes`` (see :meth:`Buffer.to_wire`).
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.buffer.raw import RawBuffer
from repro.buffer.types import SectionType, dtype_for, section_type_for_dtype

_HEADER = struct.Struct("<Bi")  # type code, element count
_OBJ_HEADER = struct.Struct("<i")  # pickled length
_WIRE_HEADER = struct.Struct("<qq")  # static size, dynamic size

#: Bytes of wire header fronting every buffer on the wire (the two
#: section sizes).  Devices use this to translate payload byte counts
#: into message sizes without decoding.
WIRE_HEADER_SIZE = _WIRE_HEADER.size


class BufferFormatError(Exception):
    """Raised when a buffer's wire content cannot be decoded."""


class ReceiveMismatchError(BufferFormatError):
    """A well-formed wire image that the posted receive cannot hold.

    The whole frame arrived, so the channel that carried it is intact
    and only the receive fails.  *kind* is ``"count"`` (more elements
    than the receive posted) or ``"type"`` (another element type).
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class SectionHeader:
    """Decoded static-section header: element type and count."""

    type: SectionType
    count: int

    @property
    def nbytes(self) -> int:
        """Payload size in bytes of the section this header fronts."""
        return self.count * dtype_for(self.type).itemsize


class Buffer:
    """An mpjbuf-style message buffer with static and dynamic sections.

    Typical sender usage::

        buf = Buffer()
        buf.write(np.arange(10, dtype=np.int32))   # static section
        buf.write_object({"meta": 1})              # dynamic section
        buf.commit()
        segments = buf.segments()                  # zero-copy views

    Receiver usage::

        buf = Buffer.from_wire(wire_bytes)
        hdr = buf.read_section_header()
        data = buf.read(hdr.count, dtype_for(hdr.type))
        obj = buf.read_object()
    """

    __slots__ = ("_static", "_dynamic", "_committed", "_pool", "_store", "_dyn_store")

    def __init__(self, capacity: int = 256, _pool: Any = None) -> None:
        # The buffer's own storage.  A landing re-aims the sections at
        # views into ``_store``; every refill re-aims them back, so the
        # store is allocated once and reused for every message.
        self._store = self._static = RawBuffer(capacity)
        self._dyn_store = self._dynamic = RawBuffer(16)
        self._committed = False
        self._pool = _pool

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def committed(self) -> bool:
        return self._committed

    def commit(self) -> "Buffer":
        """Freeze the buffer for transmission.

        Further writes raise; reading is allowed.  Mirrors mpjbuf's
        ``commit()`` which flips the buffer from write to read mode.
        """
        self._committed = True
        return self

    def clear(self) -> None:
        """Reset to empty, writable state on the buffer's whole storage.

        After a landing the sections are views into the store; clearing
        re-aims them at the store itself, so reusing a buffer (a pool
        round trip, the next receive) never reallocates it.
        """
        self._static = self._store
        self._dynamic = self._dyn_store
        self._static.clear()
        self._dynamic.clear()
        self._committed = False

    def free(self) -> None:
        """Return this buffer to its pool, if it came from one."""
        if self._pool is not None:
            self._pool.release(self)

    @property
    def static_size(self) -> int:
        """Bytes in the static section."""
        return self._static.size

    @property
    def dynamic_size(self) -> int:
        """Bytes in the dynamic section."""
        return self._dynamic.size

    @property
    def size(self) -> int:
        """Total payload bytes (both sections, excluding wire header)."""
        return self.static_size + self.dynamic_size

    def _check_writable(self) -> None:
        if self._committed:
            raise BufferFormatError("buffer is committed; writes are frozen")

    # ------------------------------------------------------------------
    # static-section writes

    def write(self, data: np.ndarray | Sequence[Any], section_type: SectionType | None = None) -> None:
        """Append one primitive section.

        *data* is coerced to a contiguous 1-D numpy array.  The section
        type is inferred from the dtype unless given explicitly.  The
        payload is written directly into the backing store through a
        writable view — the single copy in the whole send pipeline,
        standing in for the paper's pack-onto-direct-buffer step.
        """
        arr = np.ascontiguousarray(data)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if section_type is None:
            section_type = section_type_for_dtype(arr.dtype)
        wire_dtype = dtype_for(section_type)
        if arr.dtype != wire_dtype:
            if arr.dtype.kind == "u" and wire_dtype.kind == "i":
                arr = arr.view(wire_dtype) if arr.dtype.itemsize == wire_dtype.itemsize else arr.astype(wire_dtype)
            else:
                arr = arr.astype(wire_dtype)
        self.write_section(section_type, arr.size)[:] = arr

    def write_section(self, section_type: SectionType, count: int) -> np.ndarray:
        """Append a section header for *count* elements and return the
        section's payload as a writable 1-D array over the backing store.

        The caller fills the array in place — a strided gather can copy
        user data straight into the buffer with no temporary.
        """
        self._check_writable()
        wire_dtype = dtype_for(section_type)
        self._static.write(_HEADER.pack(int(section_type), count))
        dest = self._static.writable_view(count * wire_dtype.itemsize)
        return np.frombuffer(dest, dtype=wire_dtype)

    def write_scalar(self, value: Any, section_type: SectionType) -> None:
        """Append a single-element section (convenience for headers)."""
        self.write(np.array([value], dtype=dtype_for(section_type)), section_type)

    def write_string(self, text: str) -> None:
        """Append a string as a CHAR section (UTF-16 code units).

        Java's ``char`` is a UTF-16 code unit, so this is the natural
        wire representation for mpjbuf's CHAR type — and strings stay
        readable by a hypothetical Java peer.
        """
        units = np.frombuffer(text.encode("utf-16-le"), dtype="<u2")
        self.write(units, SectionType.CHAR)

    def read_string(self) -> str:
        """Consume a CHAR section written by :meth:`write_string`."""
        hdr = self.read_section_header()
        if hdr.type != SectionType.CHAR:
            raise BufferFormatError(
                f"expected a CHAR section, found {hdr.type.name}"
            )
        units = self.read(hdr.count, dtype_for(SectionType.CHAR))
        return units.tobytes().decode("utf-16-le")

    # ------------------------------------------------------------------
    # dynamic-section writes

    def write_object(self, obj: Any) -> None:
        """Append one object record (pickled) to the dynamic section."""
        self._check_writable()
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._dynamic.write(_OBJ_HEADER.pack(len(payload)))
        self._dynamic.write(payload)

    # ------------------------------------------------------------------
    # static-section reads

    def read_section_header(self) -> SectionHeader:
        """Consume and decode the next static-section header."""
        try:
            raw = self._static.read(_HEADER.size)
        except EOFError:
            raise BufferFormatError("no further static sections") from None
        code, count = _HEADER.unpack(raw)
        try:
            stype = SectionType(code)
        except ValueError:
            raise BufferFormatError(f"unknown section type code {code}") from None
        if count < 0:
            raise BufferFormatError(f"negative section count {count}")
        return SectionHeader(stype, count)

    def peek_section_header(self) -> SectionHeader | None:
        """Decode the next static-section header without consuming it."""
        try:
            raw = self._static.peek(_HEADER.size)
        except EOFError:
            return None
        code, count = _HEADER.unpack(raw)
        return SectionHeader(SectionType(code), count)

    def has_static_data(self) -> bool:
        """True if unread static sections remain."""
        return self._static.remaining > 0

    def read(self, count: int, dtype: np.dtype, out: np.ndarray | None = None) -> np.ndarray:
        """Consume *count* elements of *dtype* from the current section.

        If *out* is given the elements are unpacked into it in place
        (the paper's copy-onto-user-array step); otherwise a new array
        is returned.  The caller must already have consumed the header.
        """
        src = self.read_view(count, dtype)
        if out is None:
            return src.copy()
        flat = out.reshape(-1)
        if flat.size < count:
            raise BufferFormatError(
                f"destination holds {flat.size} elements, message has {count}"
            )
        flat[:count] = src[:count]
        return out

    def read_view(self, count: int, dtype: np.dtype) -> np.ndarray:
        """Consume *count* elements of *dtype* as an array *viewing* the
        buffer's storage (no copy); valid until the buffer is refilled."""
        dtype = np.dtype(dtype)
        view = self._static.read(count * dtype.itemsize)
        return np.frombuffer(view, dtype=dtype, count=count)

    def read_section(self, out: np.ndarray | None = None) -> np.ndarray:
        """Read one complete section: header then payload."""
        hdr = self.read_section_header()
        return self.read(hdr.count, dtype_for(hdr.type), out=out)

    def skip_section(self) -> SectionHeader:
        """Consume and discard the next static section (selective unpack).

        Returns the skipped section's header so callers can log what
        they stepped over.
        """
        hdr = self.read_section_header()
        self._static.skip(hdr.nbytes)
        return hdr

    def iter_sections(self) -> Iterator[tuple[SectionHeader, np.ndarray]]:
        """Yield every remaining static section as (header, data)."""
        while self.has_static_data():
            hdr = self.read_section_header()
            yield hdr, self.read(hdr.count, dtype_for(hdr.type))

    # ------------------------------------------------------------------
    # dynamic-section reads

    def has_objects(self) -> bool:
        """True if unread dynamic records remain."""
        return self._dynamic.remaining > 0

    def read_object(self) -> Any:
        """Consume and unpickle the next dynamic-section record."""
        try:
            raw = self._dynamic.read(_OBJ_HEADER.size)
        except EOFError:
            raise BufferFormatError("no further objects in dynamic section") from None
        (length,) = _OBJ_HEADER.unpack(raw)
        if length < 0:
            raise BufferFormatError(f"negative object length {length}")
        payload = self._dynamic.read(length)
        try:
            return pickle.loads(bytes(payload))
        except Exception as exc:
            raise BufferFormatError(f"object deserialization failed: {exc}") from exc

    # ------------------------------------------------------------------
    # wire conversion

    def segments(self) -> list[memoryview]:
        """Zero-copy wire segments: [wire header, static, dynamic].

        This is the segment list the protocol engine hands its
        transport — both sections in one gather-send, matching the
        paper's use of ``mx_isend``'s ``segments_list``.
        """
        header = _WIRE_HEADER.pack(self.static_size, self.dynamic_size)
        segs = [memoryview(header)]
        if self.static_size:
            segs.append(self._static.contents())
        if self.dynamic_size:
            segs.append(self._dynamic.contents())
        return segs

    def to_wire(self) -> bytes:
        """Flatten the buffer to one bytes object (for stream transports)."""
        return b"".join(bytes(s) for s in self.segments())

    # ------------------------------------------------------------------
    # landing (every receive path)

    def begin_landing(self, nbytes: int) -> list[memoryview]:
        """Expose this buffer's own storage for a wire image of *nbytes*.

        Returns a scatter list of writable, non-empty views whose
        lengths sum to *nbytes*; the transport fills them in order with
        the complete wire image (header + both sections) —
        ``recv_into`` on niodev, a gather copy on smdev and procdev —
        so the posted buffer's memory is the payload's first and only
        user-space destination.  A plain buffer offers one view on its
        whole store; :class:`~repro.buffer.window.ArrayRecvWindow`
        offers header scratch and then the user's array.  Call
        :meth:`finish_landing` once the views are full.
        """
        if nbytes < _WIRE_HEADER.size:
            raise BufferFormatError(
                f"landing of {nbytes} bytes is shorter than the wire header"
            )
        self.clear()
        return [self._store.landing_view(nbytes)]

    def finish_landing(self, nbytes: int) -> "Buffer":
        """Adopt a landed wire image in place (no payload copy).

        Parses the wire header out of the storage filled via
        :meth:`begin_landing` and aims the static and dynamic sections
        at *views* into that same storage.  The store itself is kept:
        the next :meth:`clear` or landing starts again from all of it.
        """
        store = self._store._data
        if nbytes < _WIRE_HEADER.size or nbytes > len(store):
            raise BufferFormatError(
                f"landed wire data of {nbytes} bytes is shorter than the header"
            )
        static_size, dynamic_size = _WIRE_HEADER.unpack_from(store, 0)
        if static_size < 0 or dynamic_size < 0:
            raise BufferFormatError("negative section size on the wire")
        expected = _WIRE_HEADER.size + static_size + dynamic_size
        if nbytes != expected:
            raise BufferFormatError(
                f"wire data is {nbytes} bytes, header promises {expected}"
            )
        start = _WIRE_HEADER.size
        self._static = RawBuffer.view_on(store, start, static_size)
        if dynamic_size:  # else the (cleared) dynamic store already reads empty
            self._dynamic = RawBuffer.view_on(store, start + static_size, dynamic_size)
        self._committed = True
        return self

    def load_wire_segments(
        self, segments: Sequence[bytes | bytearray | memoryview]
    ) -> "Buffer":
        """Fill this buffer from a wire image given as a segment list.

        The same route as a transport's landing: :meth:`begin_landing`,
        one scatter-gather copy of the segments into the landing views,
        :meth:`finish_landing` — one move per byte, no intermediate
        join, and no allocation once the storage is big enough.
        """
        total = 0
        for seg in segments:
            total += memoryview(seg).nbytes
        copy_segments(self.begin_landing(total), segments)
        return self.finish_landing(total)

    def load_wire(self, data: bytes | bytearray | memoryview) -> "Buffer":
        """Fill *this* buffer from wire bytes, in place.

        The receive path loads incoming data into the buffer the user
        posted with the receive — the paper's "copied onto the memory
        specified by the user" step — so pooled buffers are reused
        rather than reallocated per message.
        """
        return self.load_wire_segments([data])

    @classmethod
    def from_wire(cls, data: bytes | bytearray | memoryview, pool: Any = None) -> "Buffer":
        """Reconstruct a committed buffer from :meth:`to_wire` output."""
        view = memoryview(data).cast("B")
        return cls(capacity=len(view), _pool=pool).load_wire(view)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "committed" if self._committed else "writable"
        return (
            f"Buffer(static={self.static_size}B, dynamic={self.dynamic_size}B, "
            f"{state})"
        )


def copy_segments(
    dests: Sequence[memoryview], sources: Sequence[bytes | bytearray | memoryview]
) -> int:
    """Copy the byte stream *sources* into the views *dests*, in order.

    The scatter-gather move behind every landing: both lists may be cut
    at arbitrary points, and each byte is copied exactly once.  Copying
    stops when either side runs out; returns the bytes copied.
    """
    copied = 0
    di = doff = 0
    for src in sources:
        s = memoryview(src).cast("B")
        soff = 0
        while soff < len(s) and di < len(dests):
            d = dests[di]
            take = min(len(d) - doff, len(s) - soff)
            d[doff : doff + take] = s[soff : soff + take]
            soff += take
            doff += take
            copied += take
            if doff == len(d):
                di += 1
                doff = 0
    return copied
