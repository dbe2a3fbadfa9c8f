"""mxdev — the thin shim over a thread-safe, matching messaging library.

The paper's mxdev "does not implement any communication protocols
because these protocols have been internally implemented by the MX
library.  An added advantage is that the communication functions
provided by MX are thread-safe" (Section IV-A.3).  Here that library
is the :class:`~repro.xdev.protocol.ProtocolEngine` over smdev's
wire: matching and the eager/rendezvous protocols live in the engine,
and delivery runs on the sending thread, as ``mx_isend`` matches on
the sender's.  What is left for the device is a name.
"""

from __future__ import annotations

from repro.xdev.device import register_device
from repro.xdev.smdev import SMDevice


@register_device("mxdev")
class MXDevice(SMDevice):
    """The engine in MX's role; shares smdev's fabric and transport."""
