"""RawBuffer — a growable contiguous byte store with read/write cursors.

This is the Python analogue of the *direct* ``ByteBuffer`` the paper's
devices write to the network.  All bulk access goes through zero-copy
:class:`memoryview` slices so the same memory that user data was packed
into is handed to the transport, mirroring the paper's
"avoid-the-JNI-copy" argument (Section V-E).
"""

from __future__ import annotations


class RawBuffer:
    """Contiguous byte storage with independent read and write positions.

    The write position advances as data is appended with
    :meth:`write`; the read position advances as data is consumed with
    :meth:`read`.  :meth:`clear` resets both so the buffer can be
    reused (buffers are pooled by :class:`repro.buffer.pool.BufferPool`).
    """

    __slots__ = ("_data", "_capacity", "_write_pos", "_read_pos")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = max(capacity, 16)
        self._data = bytearray(self._capacity)
        self._write_pos = 0
        self._read_pos = 0

    @classmethod
    def view_on(cls, data, start: int, length: int) -> "RawBuffer":
        """A RawBuffer that *aliases* ``data[start:start+length]``.

        Zero-copy adoption of an already-landed wire region: the new
        buffer reads the shared memory directly (every receive path
        lands this way).  It is a read-only window by contract — the
        owning :class:`~repro.buffer.Buffer` is committed while its
        sections are views, and re-aims them at its own whole store
        before it is written again, so a view is never grown.
        """
        rb = cls.__new__(cls)
        rb._data = memoryview(data)[start : start + length]
        rb._capacity = length
        rb._write_pos = length
        rb._read_pos = 0
        return rb

    # ------------------------------------------------------------------
    # introspection

    @property
    def capacity(self) -> int:
        """Current allocated size in bytes."""
        return self._capacity

    @property
    def size(self) -> int:
        """Number of bytes written so far."""
        return self._write_pos

    @property
    def remaining(self) -> int:
        """Number of written bytes not yet read."""
        return self._write_pos - self._read_pos

    @property
    def read_pos(self) -> int:
        return self._read_pos

    @property
    def write_pos(self) -> int:
        return self._write_pos

    def __len__(self) -> int:
        return self._write_pos

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RawBuffer(size={self.size}, read_pos={self._read_pos}, "
            f"capacity={self._capacity})"
        )

    # ------------------------------------------------------------------
    # writing

    def ensure(self, nbytes: int) -> None:
        """Grow the backing store so *nbytes* more bytes fit.

        Growth doubles the capacity (amortised O(1) appends), exactly
        once per shortfall.
        """
        needed = self._write_pos + nbytes
        if needed <= self._capacity:
            return
        new_capacity = self._capacity
        while new_capacity < needed:
            new_capacity *= 2
        grown = bytearray(new_capacity)
        grown[: self._write_pos] = self._data[: self._write_pos]
        self._data = grown
        self._capacity = new_capacity

    def write(self, data: bytes | bytearray | memoryview) -> int:
        """Append *data*; returns the offset it was written at."""
        view = memoryview(data).cast("B")
        offset = self._write_pos
        self.ensure(len(view))
        self._data[offset : offset + len(view)] = view
        self._write_pos = offset + len(view)
        return offset

    def writable_view(self, nbytes: int) -> memoryview:
        """Reserve *nbytes* at the write position and return a view on it.

        The caller fills the view in place (e.g. ``np.frombuffer`` then
        bulk assignment) — this is the zero-copy packing path.
        """
        self.ensure(nbytes)
        offset = self._write_pos
        self._write_pos += nbytes
        return memoryview(self._data)[offset : offset + nbytes]

    def landing_view(self, nbytes: int) -> memoryview:
        """Reset the buffer and expose its first *nbytes* for filling.

        The receive path: the transport lands wire bytes directly in
        this storage (``recv_into`` or a gather copy), so the posted
        buffer's own memory is the message's first and only
        destination.  A store that already holds *nbytes* is reused as
        is; growth moves no payload (the buffer is empty when it grows).
        """
        self.clear()
        self.ensure(nbytes)
        self._write_pos = nbytes
        return memoryview(self._data)[:nbytes]

    # ------------------------------------------------------------------
    # reading

    def read(self, nbytes: int) -> memoryview:
        """Consume and return the next *nbytes* as a zero-copy view."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self._read_pos + nbytes > self._write_pos:
            raise EOFError(
                f"read of {nbytes} bytes at {self._read_pos} overruns "
                f"buffer of {self._write_pos}"
            )
        view = memoryview(self._data)[self._read_pos : self._read_pos + nbytes]
        self._read_pos += nbytes
        return view

    def peek(self, nbytes: int, offset: int = 0) -> memoryview:
        """Return the next *nbytes* (at read_pos+offset) without consuming."""
        start = self._read_pos + offset
        if start + nbytes > self._write_pos:
            raise EOFError("peek overruns buffer")
        return memoryview(self._data)[start : start + nbytes]

    def skip(self, nbytes: int) -> None:
        """Advance the read position without returning data."""
        if self._read_pos + nbytes > self._write_pos:
            raise EOFError("skip overruns buffer")
        self._read_pos += nbytes

    # ------------------------------------------------------------------
    # whole-buffer access

    def contents(self) -> memoryview:
        """Zero-copy view of everything written so far."""
        return memoryview(self._data)[: self._write_pos]

    def tobytes(self) -> bytes:
        """Copy of everything written so far (for transports that need bytes)."""
        return bytes(self._data[: self._write_pos])

    def load(self, data: bytes | bytearray | memoryview) -> None:
        """Replace contents with *data* and rewind the read cursor.

        Used on the receive path: the transport hands us the wire bytes
        and unpacking starts from position 0.
        """
        self.clear()
        self.write(data)

    def clear(self) -> None:
        """Reset both cursors; capacity is retained for reuse."""
        self._write_pos = 0
        self._read_pos = 0

    def rewind(self) -> None:
        """Reset only the read cursor (re-read the same contents)."""
        self._read_pos = 0
