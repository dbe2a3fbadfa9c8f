"""Device wire-frame format for the pure-Python protocol devices.

niodev and smdev speak the same frame format, because they run the
same protocol engine over different transports.  Each frame is::

    +------+---------+-----+---------+---------+-------------+
    | type | context | tag | send_id | recv_id | payload_len |
    | (u8) | (i32)   |(i32)| (i64)   | (i64)   | (i64)       |
    +------+---------+-----+---------+---------+-------------+
    | clock | flow_src | flow_seq | payload |
    | (i64) | (i32)    | (i64)    | bytes   |
    +-------+----------+----------+---------+

The source process is identified by the channel a frame arrives on
(transports hand the engine a ``(src ProcessID, frame)`` pair), so it
does not appear in the header — the same economy the paper's niodev
gets from its per-peer channels.

The trailing three fields are the *causal context*: a Lamport clock
ticked at every frame send and merged (``max(local, remote) + 1``) at
every receipt, plus the message's flow id ``(flow_src, flow_seq)`` —
origin engine uid and per-engine send sequence — which every frame of
one message carries so the obs layer can pair sends to recvs across
ranks by a true happened-before edge (:mod:`repro.obs.merge`).  The
protocol engine keeps both in its bookkeeping critical section; they
are always on, so a partially traced job still merges its clocks.
Byte 0 stays the frame type, so transports that peek at it raw
(procdev's ring dispatch) are unaffected by the header growth.

Frame types (paper Sections IV-A.1 and IV-A.2):

``EAGER``
    Full message data, sent optimistically (Fig. 3).
``RTS``
    Rendezvous *ready-to-send* control message carrying the sender's
    request id and the message size (Fig. 6).
``RTR``
    Rendezvous *ready-to-recv* reply, echoing the sender's request id
    and carrying the receiver's request id (Figs 7, 8).
``RNDZ_DATA``
    The actual rendezvous payload, addressed directly to the
    receiver's request id — no re-matching at the receiver.
``BYE``
    Orderly shutdown notification from a finishing peer.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple


class FrameType(enum.IntEnum):
    EAGER = 1
    RTS = 2
    RTR = 3
    RNDZ_DATA = 4
    BYE = 5


HEADER = struct.Struct("<Biiqqqqiq")
HEADER_SIZE = HEADER.size

#: Wire code -> FrameType, so decoding skips the enum constructor.
_FRAME_TYPES = {int(t): t for t in FrameType}


class FrameHeader(NamedTuple):
    """Decoded frame header.

    A named tuple: every frame decodes one, and a tuple builds several
    times faster than a frozen dataclass would.
    """

    type: FrameType
    context: int
    tag: int
    send_id: int
    recv_id: int
    payload_len: int
    #: Lamport clock at the moment this frame was sent.
    clock: int = 0
    #: Flow id: origin engine uid + per-engine send sequence.  A
    #: ``flow_seq`` of 0 means "no flow" (control frames predating the
    #: field, or synthetic test frames); real flows count from 1.
    flow_src: int = 0
    flow_seq: int = 0

    def encode(self) -> bytes:
        return HEADER.pack(*self)

    @classmethod
    def decode(cls, data: bytes | bytearray | memoryview) -> "FrameHeader":
        """Decode a header from *data* without copying.

        ``unpack_from`` reads ``bytes``, ``bytearray`` and
        ``memoryview`` callers alike straight from their backing
        storage — no ``bytes()`` cast, no slice materialization.  An
        unknown frame type raises :class:`ValueError`.
        """
        fields = HEADER.unpack_from(data)
        ftype = _FRAME_TYPES.get(fields[0])
        if ftype is None:
            raise ValueError(f"{fields[0]} is not a valid FrameType")
        return cls(ftype, *fields[1:])


def encode_frame(
    ftype: FrameType,
    context: int = 0,
    tag: int = 0,
    send_id: int = 0,
    recv_id: int = 0,
    payload: bytes | memoryview | list | None = None,
    clock: int = 0,
    flow_src: int = 0,
    flow_seq: int = 0,
) -> list[bytes | memoryview]:
    """Build a frame as a segment list: [header, *payload segments].

    *payload* may be one ``bytes``/``memoryview`` or a whole segment
    list (e.g. ``Buffer.segments()``).  Returned as segments rather
    than one joined blob so transports can gather-write without
    copying the payload (the mpjbuf zero-copy argument carried through
    to the wire).
    """
    if payload is None:
        segments: list[bytes | memoryview] = []
    elif isinstance(payload, list):
        segments = payload
    else:
        segments = [payload]
    plen = sum(map(len, segments))
    header = HEADER.pack(
        ftype, context, tag, send_id, recv_id, plen, clock, flow_src, flow_seq
    )
    return [header, *segments]
