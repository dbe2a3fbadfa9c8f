"""MPI environment: initialization, thread levels, COMM_WORLD.

The paper (Section IV-B): "The MPI 2.0 specification introduced the
notion of thread compliant MPI implementation ... MPJ Express runs
with level MPI_THREAD_MULTIPLE by default.  A MPJE process can have
multiple threads, which can communicate with other processes without
any restriction."

This reproduction does the same: :func:`MPJEnvironment.init_thread`
always *provides* ``THREAD_MULTIPLE`` whatever level was requested,
and the whole device stack is built to honour it (see the
multi-threaded tests and the ProgressionTest).

Because ranks may be threads of one Python process (the launcher's
default), MPI state is **per environment object**, not per interpreter:
each rank owns an ``MPJEnvironment`` with its own device and
COMM_WORLD.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

from repro.buffer.pool import BufferPool
from repro.mpi.exceptions import MPIException
from repro.mpi.group import Group
from repro.mpi.intracomm import ContextCounter, Intracomm
from repro.mpjdev.comm import MPJDevComm
from repro.xdev.device import Device, DeviceConfig, new_instance
from repro.xdev.processid import ProcessID

# MPI 2.0 thread-support levels.
THREAD_SINGLE = 0
THREAD_FUNNELED = 1
THREAD_SERIALIZED = 2
THREAD_MULTIPLE = 3

_LEVEL_NAMES = {
    THREAD_SINGLE: "MPI_THREAD_SINGLE",
    THREAD_FUNNELED: "MPI_THREAD_FUNNELED",
    THREAD_SERIALIZED: "MPI_THREAD_SERIALIZED",
    THREAD_MULTIPLE: "MPI_THREAD_MULTIPLE",
}

#: Context ids reserved for COMM_WORLD (pt2pt, collectives).
WORLD_CONTEXTS = (0, 1)


class MPJEnvironment:
    """One rank's MPI world: device, COMM_WORLD, thread level."""

    def __init__(
        self,
        device: Device,
        pids: Sequence[ProcessID],
        rank: int,
        pool: Optional[BufferPool] = None,
    ) -> None:
        self.device = device
        self.pool = pool if pool is not None else BufferPool()
        self._rank = rank
        self._pids = list(pids)
        self._finalized = False
        #: Metrics snapshot captured at Finalize (repro.obs); None until
        #: then, or when the device carries no metrics registry.
        self.final_metrics: Optional[dict] = None
        self._thread_level = THREAD_MULTIPLE
        self._main_thread = threading.current_thread()
        #: Non-blocking collective workers of this rank's communicators
        #: (repro.mpi.nbc), told to exit at Finalize.
        self._nbc_workers: list = []
        my_uid = self._pids[rank].uid
        group = Group(self._pids, my_uid=my_uid)
        devcomm = MPJDevComm(device, self._pids, rank)
        self.COMM_WORLD = Intracomm(
            devcomm,
            group,
            WORLD_CONTEXTS,
            pool=self.pool,
            env=self,
            context_counter=ContextCounter(start=WORLD_CONTEXTS[1] + 1),
        )
        #: COMM_SELF: just this process.
        self.COMM_SELF = Intracomm(
            devcomm.sub_comm([rank], 0),
            Group([self._pids[rank]], my_uid=my_uid),
            # A context pair reserved below the dynamic range; SELF
            # traffic only ever matches itself.
            (0x7FF0, 0x7FF1),
            pool=self.pool,
            env=self,
        )

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def create(
        cls,
        device_name: str,
        config: DeviceConfig,
        pool: Optional[BufferPool] = None,
    ) -> "MPJEnvironment":
        """Instantiate a device, init it, and build the environment."""
        device = new_instance(device_name)
        pids = device.init(config)
        return cls(device, pids, config.rank, pool=pool)

    # ------------------------------------------------------------------
    # thread support (MPI 2.0 additions, Java bindings promised by the
    # paper's Section IV-B)

    def init_thread(self, required: int) -> int:
        """Request a thread level; MPJ Express always provides MULTIPLE."""
        if required not in _LEVEL_NAMES:
            raise MPIException(f"unknown thread level {required}")
        self._thread_level = THREAD_MULTIPLE
        return self._thread_level

    def query_thread(self) -> int:
        """Currently provided thread level (always THREAD_MULTIPLE)."""
        return self._thread_level

    def is_thread_main(self) -> bool:
        """True on the thread that created this environment."""
        return threading.current_thread() is self._main_thread

    Init_thread = init_thread
    Query_thread = query_thread
    Is_thread_main = is_thread_main

    # ------------------------------------------------------------------
    # identity & timing

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._pids)

    @staticmethod
    def get_processor_name() -> str:
        """Hostname of this node (MPI_Get_processor_name)."""
        import socket

        return socket.gethostname()

    @staticmethod
    def get_version() -> tuple[int, int]:
        """(major, minor) of the MPI standard level implemented.

        1.2 — the mpijava 1.2 API the paper implements, plus the
        MPI 2.0 thread-environment calls (Section IV-B)."""
        return (1, 2)

    Get_processor_name = get_processor_name
    Get_version = get_version

    def abort(self, errorcode: int = 1) -> None:
        """Abandon the job (MPI_Abort).

        Tears the device down immediately and raises; with the thread
        launcher this fails the rank (and the job via SpmdError), with
        the process runtime it exits the worker non-zero.
        """
        self._finalized = True
        try:
            self.device.finish()
        finally:
            raise MPIException(f"MPI_Abort called with errorcode {errorcode}")

    Abort = abort

    @staticmethod
    def wtime() -> float:
        """Monotonic wall-clock seconds (MPI_Wtime)."""
        return time.perf_counter()

    @staticmethod
    def wtick() -> float:
        """Timer resolution in seconds (MPI_Wtick)."""
        return time.get_clock_info("perf_counter").resolution

    Wtime = wtime
    Wtick = wtick

    # ------------------------------------------------------------------
    # shutdown

    @property
    def finalized(self) -> bool:
        return self._finalized

    def finalize(self) -> None:
        """Tear down the device; the environment becomes unusable.

        Audits the rank's buffer pool on the way out: every packed
        message should have completed its round trip back to the free
        list by Finalize, so leftovers indicate a leak (warned, not
        raised — mirroring how MPI implementations report unfreed
        resources at MPI_Finalize).
        """
        if not self._finalized:
            self._finalized = True
            for worker in self._nbc_workers:
                worker.close()
            # Snapshot metrics while the engine is still alive — the
            # registry itself survives finish(), the live gauges do not.
            try:
                metrics = self.device.metrics
                if metrics is not None:
                    self.final_metrics = metrics.snapshot()
            except Exception:  # noqa: BLE001 - device without metrics
                self.final_metrics = None
            self.device.finish()
            self.pool.check_leaks("MPI.Finalize")

    Finalize = finalize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MPJEnvironment(rank={self._rank}, size={self.size}, "
            f"device={self.device.device_name}, "
            f"level={_LEVEL_NAMES[self._thread_level]})"
        )
