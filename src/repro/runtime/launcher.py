"""In-process SPMD launcher: ranks as threads.

The paper's central motivation is SMP programming with threads plus a
thread-safe messaging library (Section I).  ``run_spmd`` is the
embodiment: it runs ``main(env)`` once per rank, each rank on its own
OS thread with its own :class:`~repro.mpi.environment.MPJEnvironment`,
wired together by the chosen device's fabric.

Any device can back the job:

* ``smdev`` (default) — in-process queues, deterministic, fast;
* ``procdev`` — shared-memory rings (thread-ranks here; the same
  datapath runs ranks as OS processes under ``mpjrun --local``);
* ``niodev`` — real localhost TCP with the selector progress engine;
* ``mxdev`` — the Myrinet eXpress shim, smdev's engine and wire under
  the paper's thin-device name;
* ``ibisdev`` — the thread-per-message baseline.

``device=None`` resolves through :func:`repro.xdev.device.default_device`,
honouring the ``REPRO_DEVICE`` environment variable.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.mpi.environment import MPJEnvironment
from repro.xdev.device import DeviceConfig


class SpmdError(Exception):
    """One or more ranks raised; carries every rank's failure."""

    def __init__(self, failures: dict[int, BaseException]) -> None:
        self.failures = failures
        lines = [f"{len(failures)} rank(s) failed:"]
        for rank, exc in sorted(failures.items()):
            tb = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
            lines.append(f"--- rank {rank} ---\n{tb}")
        super().__init__("\n".join(lines))


def _make_fabric(device: str, nprocs: int):
    """Create the shared wiring object for an in-process job."""
    if device in ("smdev", "mxdev"):
        from repro.xdev.smdev import SMFabric

        return SMFabric(nprocs), None
    if device == "procdev":
        from repro.xdev.procdev import ProcFabric

        return ProcFabric(nprocs), None
    if device == "ibisdev":
        from repro.xdev.ibisdev import IbisFabric

        return IbisFabric(nprocs), None
    if device == "niodev":
        from repro.xdev.niodev import allocate_local_endpoints

        addrs, socks = allocate_local_endpoints(nprocs)
        return None, (addrs, socks)
    raise ValueError(f"unknown device {device!r}")


def run_spmd(
    main: Callable[[MPJEnvironment], Any],
    nprocs: int,
    device: Optional[str] = None,
    options: Optional[Mapping[str, Any]] = None,
    timeout: Optional[float] = 120.0,
    args: Sequence[Any] = (),
    trace: bool = False,
) -> list[Any]:
    """Run ``main(env, *args)`` on *nprocs* thread-ranks; returns per-rank results.

    Every rank gets its own environment (device instance, COMM_WORLD,
    buffer pool).  Exceptions in any rank are collected and re-raised
    as :class:`SpmdError` after all ranks stop.  *timeout* bounds the
    whole job (None = unbounded).

    With ``trace=True`` every rank's device is wrapped in a
    :class:`repro.obs.tracing.TracingDevice` and the call returns
    ``(results, traces)`` — one tracer per rank, already populated.
    On a timeout the traces survive in ``SpmdError.traces`` so the
    stalled operations can be inspected (``TracingDevice.detect_stalled``).
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if device is None:
        from repro.xdev.device import default_device

        device = default_device()
    fabric, nio = _make_fabric(device, nprocs)
    tracers: list[Any] = [None] * nprocs

    results: list[Any] = [None] * nprocs
    failures: dict[int, BaseException] = {}
    envs: list[Optional[MPJEnvironment]] = [None] * nprocs
    barrier = threading.Barrier(nprocs)

    def worker(rank: int) -> None:
        env: Optional[MPJEnvironment] = None
        # Phase 1: bring the device up.  A failure here aborts the
        # startup barrier so the other ranks don't wait forever.
        try:
            opts = dict(options or {})
            if nio is not None:
                addrs, socks = nio
                opts["listen_socket"] = socks[rank]
                config = DeviceConfig(
                    rank=rank, nprocs=nprocs, peers=addrs, options=opts
                )
            else:
                config = DeviceConfig(
                    rank=rank, nprocs=nprocs, fabric=fabric, options=opts
                )
            env = MPJEnvironment.create(device, config)
            if trace:
                from repro.obs.tracing import TracingDevice

                tracers[rank] = TracingDevice(env.device)
                # Rebuild the environment's world over the tracer so
                # every MPI-level operation is recorded.
                env = MPJEnvironment(
                    tracers[rank], env.COMM_WORLD.group().pids, rank, pool=env.pool
                )
            envs[rank] = env
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failures[rank] = exc
            barrier.abort()
            return
        try:
            barrier.wait()  # all devices up before user code runs
        except threading.BrokenBarrierError:
            return  # another rank failed startup; not this rank's fault
        # Phase 2: user code.  Failures here are this rank's own; the
        # barrier is behind us and must NOT be aborted (doing so would
        # spuriously fail ranks still approaching it in a rare race).
        try:
            results[rank] = main(env, *args)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failures[rank] = exc

    threads = [
        # Daemon threads: a rank that hangs past the job timeout must
        # not be able to hold the interpreter open at exit.
        threading.Thread(
            target=worker, args=(rank,), name=f"spmd-rank-{rank}", daemon=True
        )
        for rank in range(nprocs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    hung = [t for t in threads if t.is_alive()]
    try:
        if hung:
            failures = {
                rank: TimeoutError(f"rank {rank} did not finish within {timeout}s")
                for rank, t in enumerate(threads)
                if t.is_alive()
            }
        if failures:
            error = SpmdError(failures)
            error.traces = tracers if trace else None
            raise error
    finally:
        for env in envs:
            if env is not None and not hung:
                env.finalize()
    return (results, tracers) if trace else results
