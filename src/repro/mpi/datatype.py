"""MPI datatypes, including the four derived kinds (paper Section IV-C).

"There are four types of derived datatypes; contiguous, indexed,
vector, and struct. ... Imagine a 4x4 matrix stored in a float array.
It is possible to send first column of this matrix using the vector
datatype, by specifying a blocklength of 1 and stride of 4 ...  When
the send method is called, the first column is copied to a contiguous
area, which is used for the actual send.  This is made possible in MPJ
Express by our buffering API mpjbuf."

That is exactly the implementation here: every datatype knows how to
**pack** a selection of a user array into a
:class:`~repro.buffer.Buffer` (one contiguous static section — numpy
fancy indexing does the gather) and how to **unpack** a received
buffer back into a user array (the scatter).

Conventions
-----------
* ``data`` is a numpy array for primitive-based types (any shape; it
  is addressed through its flat view) or a mutable sequence for
  :data:`OBJECT`.
* ``offset`` is measured in *base elements* (for OBJECT: list items).
* ``count`` is measured in elements of the datatype itself; element
  ``k`` of a derived type covers base indices
  ``offset + k * extent + pattern``.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from repro.buffer import Buffer, SectionType, dtype_for
from repro.mpi.exceptions import CountMismatchError, DatatypeError


class Datatype(abc.ABC):
    """Base class: a recipe for moving data through a Buffer."""

    #: numpy dtype of the underlying primitive, None for OBJECT.
    base_dtype: np.dtype | None = None
    #: span of one element in base-element units (MPI extent).
    extent: int = 1
    #: number of base elements actually transferred per element.
    block_count: int = 1
    #: The section type when an element is exactly ``block_count``
    #: consecutive base elements (a basic type, or an index pattern
    #: ``0..block_count-1``), else None: the array-window gate's test.
    window: SectionType | None = None

    # ------------------------------------------------------------------
    # core contract

    @abc.abstractmethod
    def pack(self, buf: Buffer, data: Any, offset: int, count: int) -> None:
        """Gather *count* elements starting at *offset* into *buf*."""

    @abc.abstractmethod
    def unpack(self, buf: Buffer, data: Any, offset: int, count: int) -> int:
        """Scatter up to *count* elements from *buf* into *data*.

        Returns the number of datatype elements actually received.
        Raises :class:`CountMismatchError` if the message holds more
        elements than *count*.
        """

    def packed_size(self, count: int) -> int:
        """Bytes of static-section payload for *count* elements."""
        if self.base_dtype is None:
            return 0
        return count * self.block_count * self.base_dtype.itemsize

    # ------------------------------------------------------------------
    # mpijava-style queries

    def get_size(self) -> int:
        """Bytes transferred per element (MPI ``Type_size``)."""
        return self.packed_size(1)

    def get_extent(self) -> int:
        """Span per element in base elements (MPI ``Type_extent``)."""
        return self.extent

    Size = get_size
    Extent = get_extent

    # ------------------------------------------------------------------
    # derived-type constructors (mpijava spells these on Datatype)

    def contiguous(self, count: int) -> "ContiguousType":
        return ContiguousType(self, count)

    def vector(self, count: int, blocklength: int, stride: int) -> "VectorType":
        return VectorType(self, count, blocklength, stride)

    def indexed(
        self, blocklengths: Sequence[int], displacements: Sequence[int]
    ) -> "IndexedType":
        return IndexedType(self, blocklengths, displacements)

    Contiguous = contiguous
    Vector = vector
    Indexed = indexed


def _flat(data: Any, dtype: np.dtype) -> np.ndarray:
    arr = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=dtype)
    if arr.dtype != dtype:
        # Unsigned arrays ride the same-width signed datatype: reinterpret
        # in place (possible only for contiguous arrays — a view must not
        # silently become a copy or unpack would write into a temporary).
        same_width_int = (
            arr.dtype.itemsize == dtype.itemsize
            and arr.dtype.kind in "ui"
            and dtype.kind in "ui"
        )
        if same_width_int and arr.flags.c_contiguous:
            arr = arr.view(dtype)
        else:
            raise DatatypeError(
                f"array dtype {arr.dtype} does not match datatype {dtype}"
            )
    return arr.reshape(-1)


class BasicType(Datatype):
    """A primitive type bound to one mpjbuf section type."""

    def __init__(self, section_type: SectionType, name: str) -> None:
        self.section_type = section_type
        self.base_dtype = dtype_for(section_type)
        self.name = name
        self.extent = 1
        self.block_count = 1
        self.window = section_type

    def pack(self, buf: Buffer, data: Any, offset: int, count: int) -> None:
        flat = _flat(data, self.base_dtype)
        if offset < 0 or offset + count > flat.size:
            raise DatatypeError(
                f"pack window [{offset}, {offset + count}) exceeds array of {flat.size}"
            )
        buf.write(flat[offset : offset + count], self.section_type)

    def unpack(self, buf: Buffer, data: Any, offset: int, count: int) -> int:
        hdr = buf.read_section_header()
        if hdr.type != self.section_type:
            raise DatatypeError(
                f"message section is {hdr.type.name}, receive posted {self.name}"
            )
        if hdr.count > count:
            raise CountMismatchError(
                f"message has {hdr.count} elements, receive posted {count}"
            )
        flat = _flat(data, self.base_dtype)
        if offset + hdr.count > flat.size:
            raise CountMismatchError(
                f"unpack window [{offset}, {offset + hdr.count}) exceeds "
                f"array of {flat.size}"
            )
        received = buf.read(hdr.count, self.base_dtype)
        flat[offset : offset + hdr.count] = received
        return hdr.count

    def __repr__(self) -> str:
        return f"Datatype({self.name})"


class ObjectType(Datatype):
    """Arbitrary Python objects via the buffer's dynamic section.

    The paper: "It is possible to achieve some of the same goals by
    communicating Java objects, but there are concerns about the cost
    of object serialization — MPJ Express relies on JDK's default
    serialization."  We rely on pickle.
    """

    base_dtype = None
    name = "OBJECT"

    def pack(self, buf: Buffer, data: Any, offset: int, count: int) -> None:
        if offset < 0 or offset + count > len(data):
            raise DatatypeError(
                f"pack window [{offset}, {offset + count}) exceeds sequence "
                f"of {len(data)}"
            )
        for i in range(count):
            buf.write_object(data[offset + i])

    def unpack(self, buf: Buffer, data: Any, offset: int, count: int) -> int:
        received = 0
        while buf.has_objects() and received < count:
            data[offset + received] = buf.read_object()
            received += 1
        if buf.has_objects():
            raise CountMismatchError(
                f"message holds more than the posted {count} objects"
            )
        return received

    def __repr__(self) -> str:
        return "Datatype(OBJECT)"


class _IndexPatternType(Datatype):
    """Shared machinery for derived types defined by an index pattern.

    Subclasses provide ``pattern`` — base-element indices of ONE
    element of the derived type relative to its start — and the
    extent.  Packing gathers ``offset + k*extent + pattern`` for each
    ``k`` with one fancy-indexing operation.
    """

    def __init__(self, base: Datatype, pattern: np.ndarray, extent: int) -> None:
        if isinstance(base, ObjectType):
            raise DatatypeError("derived datatypes over OBJECT are not supported")
        if not isinstance(base, BasicType):
            # Derived-over-derived: flatten by composing index patterns.
            if not isinstance(base, _IndexPatternType):
                raise DatatypeError(f"cannot derive from {base!r}")
            inner = base.pattern
            pattern = (pattern[:, None] * base.extent + inner[None, :]).reshape(-1)
            extent = extent * base.extent
            base = base.basic
        self.basic: BasicType = base  # type: ignore[assignment]
        self.base_dtype = base.base_dtype
        self.pattern = np.asarray(pattern, dtype=np.intp)
        if self.pattern.size == 0:
            raise DatatypeError("derived datatype with empty pattern")
        if self.pattern.min() < 0:
            raise DatatypeError("derived datatype pattern has negative indices")
        self.extent = int(extent)
        self.block_count = int(self.pattern.size)
        self._pattern_max = int(self.pattern.max())
        # extent == block_count does not imply contiguity: an Indexed
        # pattern may permute elements within the extent.
        if self.extent == self.block_count and np.array_equal(
            self.pattern, np.arange(self.block_count, dtype=np.intp)
        ):
            self.window = base.section_type

    def _indices(self, offset: int, count: int) -> np.ndarray:
        starts = offset + np.arange(count, dtype=np.intp) * self.extent
        return (starts[:, None] + self.pattern[None, :]).reshape(-1)

    def _out_of_bounds(self, flat: np.ndarray, offset: int, count: int) -> int | None:
        """The highest base index *count* elements from *offset* reach,
        if that span does not fit *flat*; None when it fits."""
        last = offset + (count - 1) * self.extent + self._pattern_max
        if count > 0 and (offset < 0 or last >= flat.size):
            return last
        return None

    def pack(self, buf: Buffer, data: Any, offset: int, count: int) -> None:
        flat = _flat(data, self.base_dtype)
        last = self._out_of_bounds(flat, offset, count)
        if last is not None:
            raise DatatypeError(
                f"pack pattern from {offset} reaches index {last}, outside "
                f"array of {flat.size}"
            )
        dest = buf.write_section(self.basic.section_type, count * self.block_count)
        if count > 0:
            self._gather(flat, offset, count, dest)

    def _gather(self, flat: np.ndarray, offset: int, count: int, dest: np.ndarray) -> None:
        # Non-contiguous user data → one contiguous section (the
        # paper's "copied to a contiguous area").
        dest[:] = flat[self._indices(offset, count)]

    def unpack(self, buf: Buffer, data: Any, offset: int, count: int) -> int:
        hdr = buf.read_section_header()
        if hdr.type != self.basic.section_type:
            raise DatatypeError(
                f"message section is {hdr.type.name}, receive posted "
                f"{self.basic.name}-derived"
            )
        if hdr.count % self.block_count != 0:
            raise CountMismatchError(
                f"message of {hdr.count} base elements is not a whole number "
                f"of derived elements ({self.block_count} each)"
            )
        nelems = hdr.count // self.block_count
        if nelems > count:
            raise CountMismatchError(
                f"message has {nelems} elements, receive posted {count}"
            )
        flat = _flat(data, self.base_dtype)
        last = self._out_of_bounds(flat, offset, nelems)
        if last is not None:
            raise CountMismatchError(
                f"unpack pattern from {offset} reaches index {last}, outside "
                f"array of {flat.size}"
            )
        received = buf.read_view(hdr.count, self.base_dtype)
        if nelems > 0:
            self._scatter(flat, offset, nelems, received)
        return nelems

    def _scatter(self, flat: np.ndarray, offset: int, count: int, src: np.ndarray) -> None:
        flat[self._indices(offset, count)] = src


class ContiguousType(_IndexPatternType):
    """*count* consecutive base elements per element."""

    def __init__(self, base: Datatype, count: int) -> None:
        if count < 1:
            raise DatatypeError("contiguous count must be >= 1")
        super().__init__(base, np.arange(count, dtype=np.intp), extent=count)
        self.count = count

    def __repr__(self) -> str:
        return f"Contiguous({self.basic.name}, {self.count})"


class VectorType(_IndexPatternType):
    """*count* blocks of *blocklength*, starts *stride* apart.

    The paper's matrix-column example is
    ``DOUBLE.vector(count=4, blocklength=1, stride=4)``.
    """

    def __init__(self, base: Datatype, count: int, blocklength: int, stride: int) -> None:
        if count < 1 or blocklength < 1:
            raise DatatypeError("vector count and blocklength must be >= 1")
        if stride < 1:
            raise DatatypeError("vector stride must be >= 1")
        block = np.arange(blocklength, dtype=np.intp)
        starts = np.arange(count, dtype=np.intp) * stride
        pattern = (starts[:, None] + block[None, :]).reshape(-1)
        extent = (count - 1) * stride + blocklength
        # Over a basic type the selection is a regular 3-D grid (element,
        # block, item), so it packs as one strided view copy; over a
        # derived type the composed pattern is irregular and keeps the
        # index gather.
        self._strided = isinstance(base, BasicType)
        super().__init__(base, pattern, extent=extent)
        self.count, self.blocklength, self.stride = count, blocklength, stride

    def _grid(self, flat: np.ndarray, offset: int, count: int) -> np.ndarray:
        """*count* elements from *offset* as a strided view of *flat*
        (the caller has bounds-checked the span)."""
        step = flat.strides[0]
        return np.lib.stride_tricks.as_strided(
            flat[offset:],
            shape=(count, self.count, self.blocklength),
            strides=(self.extent * step, self.stride * step, step),
        )

    def _gather(self, flat: np.ndarray, offset: int, count: int, dest: np.ndarray) -> None:
        if not self._strided:
            return super()._gather(flat, offset, count, dest)
        # One strided copy straight from the user array into the buffer:
        # no index array, no temporary.
        grid = self._grid(flat, offset, count)
        np.copyto(dest.reshape(grid.shape), grid)

    def _scatter(self, flat: np.ndarray, offset: int, count: int, src: np.ndarray) -> None:
        if not self._strided:
            return super()._scatter(flat, offset, count, src)
        grid = self._grid(flat, offset, count)
        grid[...] = src.reshape(grid.shape)

    def __repr__(self) -> str:
        return (
            f"Vector({self.basic.name}, count={self.count}, "
            f"blocklength={self.blocklength}, stride={self.stride})"
        )


class IndexedType(_IndexPatternType):
    """Blocks of varying length at explicit displacements."""

    def __init__(
        self,
        base: Datatype,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
    ) -> None:
        if len(blocklengths) != len(displacements):
            raise DatatypeError(
                "blocklengths and displacements must have equal length"
            )
        if len(blocklengths) == 0:
            raise DatatypeError("indexed datatype needs at least one block")
        pieces = []
        for bl, disp in zip(blocklengths, displacements):
            if bl < 1 or disp < 0:
                raise DatatypeError(
                    f"illegal indexed block (length {bl}, displacement {disp})"
                )
            pieces.append(disp + np.arange(bl, dtype=np.intp))
        pattern = np.concatenate(pieces)
        if len(np.unique(pattern)) != len(pattern):
            raise DatatypeError("indexed blocks overlap")
        extent = int(pattern.max()) + 1
        super().__init__(base, pattern, extent=extent)
        self.blocklengths = list(blocklengths)
        self.displacements = list(displacements)

    def __repr__(self) -> str:
        return (
            f"Indexed({self.basic.name}, blocklengths={self.blocklengths}, "
            f"displacements={self.displacements})"
        )


class StructType(Datatype):
    """Heterogeneous records via a numpy structured dtype.

    MPI's ``Type_struct`` describes C structs with byte displacements;
    the natural Python carrier for the same layout is a numpy
    structured array, so this type packs/unpacks whole records of the
    given structured dtype (transported as a raw byte section — both
    ends agree on the layout, and the dtype is forced little-endian
    fixed-width for wire stability).
    """

    def __init__(self, dtype: np.dtype) -> None:
        dtype = np.dtype(dtype)
        if dtype.fields is None:
            raise DatatypeError("StructType needs a structured numpy dtype")
        self.struct_dtype = dtype.newbyteorder("<")
        self.base_dtype = np.dtype("<i1")
        self.extent = 1  # offsets are in records
        self.block_count = self.struct_dtype.itemsize

    def pack(self, buf: Buffer, data: Any, offset: int, count: int) -> None:
        arr = np.asarray(data, dtype=self.struct_dtype).reshape(-1)
        if offset < 0 or offset + count > arr.size:
            raise DatatypeError(
                f"pack window [{offset}, {offset + count}) exceeds array of {arr.size}"
            )
        raw = np.ascontiguousarray(arr[offset : offset + count]).view("<i1").reshape(-1)
        buf.write(raw, SectionType.BYTE)

    def unpack(self, buf: Buffer, data: Any, offset: int, count: int) -> int:
        hdr = buf.read_section_header()
        if hdr.type != SectionType.BYTE:
            raise DatatypeError("struct message must be a BYTE section")
        if hdr.count % self.block_count != 0:
            raise CountMismatchError(
                f"{hdr.count} bytes is not a whole number of records of "
                f"{self.block_count} bytes"
            )
        nrec = hdr.count // self.block_count
        if nrec > count:
            raise CountMismatchError(
                f"message has {nrec} records, receive posted {count}"
            )
        arr = data.reshape(-1)
        if arr.dtype != self.struct_dtype:
            raise DatatypeError(
                f"array dtype {arr.dtype} does not match struct {self.struct_dtype}"
            )
        raw = buf.read(hdr.count, np.dtype("<i1"))
        arr[offset : offset + nrec] = raw.view(self.struct_dtype)
        return nrec

    def __repr__(self) -> str:
        return f"Struct({self.struct_dtype})"


# ----------------------------------------------------------------------
# predefined datatypes (mpijava's MPI.INT etc.)

BYTE = BasicType(SectionType.BYTE, "BYTE")
BOOLEAN = BasicType(SectionType.BOOLEAN, "BOOLEAN")
CHAR = BasicType(SectionType.CHAR, "CHAR")
SHORT = BasicType(SectionType.SHORT, "SHORT")
INT = BasicType(SectionType.INT, "INT")
LONG = BasicType(SectionType.LONG, "LONG")
FLOAT = BasicType(SectionType.FLOAT, "FLOAT")
DOUBLE = BasicType(SectionType.DOUBLE, "DOUBLE")
OBJECT = ObjectType()

#: Map numpy dtypes to the matching basic datatype (mpi4py-style
#: automatic discovery for ``Send(array, ...)`` without a datatype).
_BY_DTYPE: dict[Any, BasicType] = {
    np.dtype("int8"): BYTE,
    np.dtype("uint8"): BYTE,
    np.dtype("bool"): BOOLEAN,
    np.dtype("uint16"): CHAR,
    np.dtype("int16"): SHORT,
    np.dtype("int32"): INT,
    np.dtype("int64"): LONG,
    np.dtype("float32"): FLOAT,
    np.dtype("float64"): DOUBLE,
}


def datatype_for(array: np.ndarray) -> BasicType:
    """Infer the basic datatype transporting *array* (by dtype)."""
    dtype = np.dtype(array.dtype).newbyteorder("=")
    dt = _BY_DTYPE.get(dtype)
    if dt is None and dtype.kind == "u":
        # Unsigned widths >1 byte travel as the same-width signed type
        # (Java has no unsigned primitives); bit patterns are preserved.
        dt = _BY_DTYPE.get(np.dtype(f"int{dtype.itemsize * 8}"))
    if dt is None:
        raise DatatypeError(f"no predefined datatype for dtype {array.dtype}")
    return dt
