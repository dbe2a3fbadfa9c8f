"""Type codes for mpjbuf static-section headers.

The original mpjbuf defines one code per Java primitive type.  We keep
the same set (mapping Java types onto numpy dtypes of identical width)
plus ``OBJECT`` for the dynamic section, so a receiver can decode a
heterogeneous packed message without out-of-band type information.
"""

from __future__ import annotations

import enum

import numpy as np


class SectionType(enum.IntEnum):
    """Type code carried in every static-section header.

    Values are part of the wire format: they are written as a single
    byte in front of each packed section and must therefore be stable.
    """

    BYTE = 1
    BOOLEAN = 2
    CHAR = 3
    SHORT = 4
    INT = 5
    LONG = 6
    FLOAT = 7
    DOUBLE = 8
    OBJECT = 9


#: numpy dtype used to (un)pack each section type.  All fixed-width and
#: little-endian so the wire format is platform independent.
_DTYPES: dict[SectionType, np.dtype] = {
    SectionType.BYTE: np.dtype("<i1"),
    SectionType.BOOLEAN: np.dtype("?"),
    SectionType.CHAR: np.dtype("<u2"),  # Java char is UTF-16 code unit
    SectionType.SHORT: np.dtype("<i2"),
    SectionType.INT: np.dtype("<i4"),
    SectionType.LONG: np.dtype("<i8"),
    SectionType.FLOAT: np.dtype("<f4"),
    SectionType.DOUBLE: np.dtype("<f8"),
}

#: Inverse map from numpy kind/itemsize to a section type.
_FROM_DTYPE: dict[tuple[str, int], SectionType] = {
    ("i", 1): SectionType.BYTE,
    ("u", 1): SectionType.BYTE,
    ("b", 1): SectionType.BOOLEAN,
    ("u", 2): SectionType.CHAR,
    ("i", 2): SectionType.SHORT,
    ("i", 4): SectionType.INT,
    ("i", 8): SectionType.LONG,
    ("f", 4): SectionType.FLOAT,
    ("f", 8): SectionType.DOUBLE,
}


def dtype_for(section_type: SectionType) -> np.dtype:
    """Return the numpy dtype that backs *section_type*.

    Raises :class:`ValueError` for :attr:`SectionType.OBJECT`, which has
    no fixed-width representation (objects are pickled).
    """
    try:
        # IntEnum members hash and compare as their int codes, so plain
        # codes look up the same entries without an enum conversion.
        return _DTYPES[section_type]
    except KeyError:
        raise ValueError(f"{section_type!r} has no primitive dtype") from None


def element_size(section_type: SectionType) -> int:
    """Size in bytes of one element of *section_type*."""
    return dtype_for(section_type).itemsize


def section_type_for_dtype(dtype: np.dtype) -> SectionType:
    """Map a numpy dtype to the section type used to transport it.

    Unsigned integer widths >1 byte are transported as the same-width
    signed type (bit pattern preserved); this mirrors Java, which has
    no unsigned primitives.
    """
    dtype = np.dtype(dtype)
    key = (dtype.kind, dtype.itemsize)
    if key in _FROM_DTYPE:
        return _FROM_DTYPE[key]
    if dtype.kind == "u" and ("i", dtype.itemsize) in _FROM_DTYPE:
        return _FROM_DTYPE[("i", dtype.itemsize)]
    raise ValueError(f"no section type for dtype {dtype!r}")
