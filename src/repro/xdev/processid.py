"""ProcessID — the xdev-level process identity.

The xdev layer deliberately does not deal in MPI ranks (paper Section
III-A): rank-to-process mapping is mpjdev's job, so that groups and
communicators never leak below the device boundary.  A
:class:`ProcessID` is an opaque unique identity, optionally carrying
the transport address a peer can be reached at.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any

_counter = itertools.count()
_counter_lock = threading.Lock()


def _next_uid() -> int:
    with _counter_lock:
        return next(_counter)


@dataclass(frozen=True, eq=True)
class ProcessID:
    """Opaque, hashable process identity.

    ``uid`` uniquely identifies the process within the job; ``address``
    is transport-specific (a ``(host, port)`` pair for niodev, a queue
    index for smdev and mxdev) and excluded from
    equality so the same logical process compares equal regardless of
    which transport described it.
    """

    uid: int = field(default_factory=_next_uid)
    address: Any = field(default=None, compare=False, hash=False)

    def with_address(self, address: Any) -> "ProcessID":
        """Copy of this id carrying *address*."""
        return ProcessID(uid=self.uid, address=address)

    def __repr__(self) -> str:
        if self.address is None:
            return f"ProcessID({self.uid})"
        return f"ProcessID({self.uid}@{self.address})"
