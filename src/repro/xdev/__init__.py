"""xdev — the pluggable low-level device layer (paper Section III-A).

xdev sits below ``mpjdev`` and knows nothing about MPI abstractions:
no groups, no communicators, no ranks — only :class:`ProcessID`\\ s,
tags and integer contexts.  Its job is to "provide the means to
flexibly swap communication protocols" with a deliberately small API
(paper Fig. 2).

Devices provided, mirroring the paper plus the baselines it evaluates:

``niodev``
    Selector-based TCP device: two channels per peer, blocking writes
    under a per-destination lock, one non-blocking input-handler thread
    (the progress engine), eager + rendezvous protocols.
``smdev``
    The same protocol engine over an in-process shared-memory
    transport.  Deterministic and fast; the default for tests and for
    the paper's SMP/threads story.
``mxdev``
    The paper's thin Myrinet eXpress shim: the protocol engine plays
    the library that matches and runs the protocols, so the device is
    smdev under another name and holds no protocol code.
``ibisdev``
    A baseline device modelled on MPJ/Ibis: a thread per blocking
    operation, no progress engine.  Used by the qualitative
    experiments (Sections V-A and VI).
"""

from repro.xdev.exceptions import XDevException
from repro.xdev.processid import ProcessID
from repro.xdev.device import Device, DeviceConfig, new_instance

__all__ = [
    "Device",
    "DeviceConfig",
    "ProcessID",
    "XDevException",
    "new_instance",
]
