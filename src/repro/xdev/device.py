"""The xdev Device abstract base class and factory (paper Fig. 2).

The API is intentionally small — the paper's stated aim is "to keep
the API simple and small, to minimize the overall development time of
devices".  Method names follow Python convention (``isend`` not
``Isend``); the set of operations is exactly Fig. 2 plus ``irecv``
(used throughout the implementation sections even though the figure
elides it).
"""

from __future__ import annotations

import abc
import importlib
import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.buffer import Buffer
from repro.mpjdev.request import Request, Status
from repro.xdev.exceptions import DeviceNotFoundError
from repro.xdev.processid import ProcessID

#: Registry of device name -> Device subclass.  Populated by the
#: :func:`register_device` decorator; the built-in devices self-register
#: when :func:`new_instance` first imports them.
_REGISTRY: dict[str, type["Device"]] = {}

#: Built-in device modules, imported lazily on first factory use so
#: importing :mod:`repro.xdev` stays cheap.
_BUILTIN_MODULES = {
    "smdev": "repro.xdev.smdev",
    "niodev": "repro.xdev.niodev",
    "mxdev": "repro.xdev.mxdev",
    "ibisdev": "repro.xdev.ibisdev",
    "procdev": "repro.xdev.procdev",
}


#: Device used when a caller (or the CLI) doesn't name one.
DEFAULT_DEVICE = "smdev"


def default_device() -> str:
    """Device name to use when none is given explicitly.

    The ``REPRO_DEVICE`` environment variable overrides the built-in
    default — the knob the CI matrix (and any user) flips to run the
    whole suite over another transport, e.g. ``REPRO_DEVICE=procdev``.
    """
    return os.environ.get("REPRO_DEVICE", "").strip() or DEFAULT_DEVICE


def register_device(name: str):
    """Class decorator registering a Device implementation under *name*."""

    def deco(cls: type["Device"]) -> type["Device"]:
        _REGISTRY[name] = cls
        cls.device_name = name
        return cls

    return deco


def new_instance(dev: str) -> "Device":
    """Instantiate the device named *dev* (paper: ``Device.newInstance``).

    The returned device is unconnected; call :meth:`Device.init` next.
    """
    if dev not in _REGISTRY:
        module = _BUILTIN_MODULES.get(dev)
        if module is not None:
            importlib.import_module(module)
    try:
        cls = _REGISTRY[dev]
    except KeyError:
        known = sorted(set(_REGISTRY) | set(_BUILTIN_MODULES))
        raise DeviceNotFoundError(f"unknown device {dev!r}; known: {known}") from None
    return cls()


@dataclass
class DeviceConfig:
    """Arguments handed to :meth:`Device.init`.

    ``rank``/``nprocs`` identify this process within the job;
    ``fabric`` is the in-process wiring object for thread-rank devices
    (an ``SMFabric`` for smdev and mxdev; procdev, ibisdev have their
    own); ``peers`` is the address list for socket-based devices
    (niodev); ``options`` carries device-specific tuning such as the
    eager/rendezvous threshold.
    """

    rank: int = 0
    nprocs: int = 1
    fabric: Any = None
    peers: Sequence[Any] = ()
    options: Mapping[str, Any] = field(default_factory=dict)


class Device(abc.ABC):
    """Abstract communication device.

    Thread-safety contract (the paper's core claim): **every** method
    may be called concurrently from multiple user threads.  Blocking
    calls must not prevent other threads' operations from progressing
    (verified by the ProgressionTest in the test suite).
    """

    #: Set by :func:`register_device`.
    device_name: str = "abstract"

    # ------------------------------------------------------------------
    # lifecycle

    @abc.abstractmethod
    def init(self, args: DeviceConfig) -> list[ProcessID]:
        """Connect to the job and return the ProcessIDs of all processes.

        The returned list is ordered by job rank — mpjdev builds its
        initial rank table directly from it.
        """

    @abc.abstractmethod
    def id(self) -> ProcessID:
        """This process's own identity."""

    @abc.abstractmethod
    def finish(self) -> None:
        """Tear the device down; further operations raise."""

    # ------------------------------------------------------------------
    # observability

    def introspect(self) -> dict[str, Any]:
        """Live queue depths and device state, as a plain dict.

        The base implementation reports only the device name; devices
        built on the protocol engine add posted-receive / unexpected /
        rendezvous / WaitAny / transport depths (see
        ``docs/observability.md``).  Safe to call from any thread at
        any time — it must never block on in-flight traffic.
        """
        return {"device": self.device_name}

    # ------------------------------------------------------------------
    # overheads — used by upper layers when sizing buffers

    def get_send_overhead(self) -> int:
        """Bytes of header the device prepends to each sent message."""
        return 0

    def get_recv_overhead(self) -> int:
        """Bytes of header the device consumes from each received message."""
        return 0

    # ------------------------------------------------------------------
    # point-to-point

    @abc.abstractmethod
    def isend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        """Non-blocking standard-mode send of *buf* to *dest*."""

    def send(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        """Blocking standard-mode send (default: isend + wait)."""
        self.isend(buf, dest, tag, context).wait()

    @abc.abstractmethod
    def issend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        """Non-blocking synchronous-mode send: completes only once the
        matching receive has been posted at *dest*."""

    def ssend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        """Blocking synchronous-mode send (default: issend + wait)."""
        self.issend(buf, dest, tag, context).wait()

    @abc.abstractmethod
    def irecv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Request:
        """Non-blocking receive; *src* may be ``ANY_SOURCE``."""

    def recv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Status:
        """Blocking receive (default: irecv + wait)."""
        return self.irecv(buf, src, tag, context).wait()

    # ------------------------------------------------------------------
    # probing

    @abc.abstractmethod
    def iprobe(self, src: ProcessID | int, tag: int, context: int) -> Status | None:
        """Non-blocking probe: Status of a matching pending message, or
        None if nothing has arrived."""

    @abc.abstractmethod
    def probe(self, src: ProcessID | int, tag: int, context: int) -> Status:
        """Blocking probe: wait until a matching message is available."""

    # ------------------------------------------------------------------
    # progress

    @abc.abstractmethod
    def peek(self, timeout: float | None = None) -> Request:
        """Block until some request completes; return the most recently
        completed one (paper Section III-A / IV-E.1, borrowed from MX).

        Used by mpjdev to implement a non-polling ``Waitany``.  The
        *timeout* (seconds) is a reproduction-side safety valve; the
        paper's peek blocks indefinitely.

        The contract: a completion is visible to peek() iff, when it
        happened, its request belonged to a ``Waitany`` (carried a
        ``waitany_ref``) or a thread was blocked in peek().  Every
        device records through
        :meth:`~repro.xdev.completion.CompletionShards.offer`, so
        completions nobody can ask for never pile up.
        """
