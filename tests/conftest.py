"""Shared test fixtures.

``device_name`` parametrizes device-generic tests over every xdev
implementation.
"""

from __future__ import annotations

import pytest

#: The torture-harness fixtures (chaos_job, seeded_schedule, chaos_seed)
#: and the failure-report hook that prints the replay seed.
pytest_plugins = ["repro.testing.fixtures"]

#: The devices of DESIGN.md's inventory, plus the tracing decorator
#: over smdev — the whole device-generic matrix must pass through the
#: tracer unchanged (decorator-correctness guarantee).  procdev runs
#: here in its in-process mode: thread-ranks over real shared-memory
#: rings, the byte-identical datapath of process-rank jobs.  mxdev is
#: smdev's engine and wire under the MX shim's name.
ALL_DEVICES = ["smdev", "mxdev", "ibisdev", "niodev", "procdev", "traced-smdev"]


def _honour_repro_device() -> None:
    """Fold a REPRO_DEVICE override into the device matrix.

    ``REPRO_DEVICE=procdev`` (the CI matrix knob) must subject the
    whole suite to that device: it becomes the default for
    ``run_spmd``/``make_job`` callers automatically (see
    ``repro.xdev.device.default_device``), and here it is promoted
    into the explicit fixture matrix as well.
    """
    import os

    dev = os.environ.get("REPRO_DEVICE", "").strip()
    if dev and dev not in ALL_DEVICES:
        ALL_DEVICES.append(dev)


_honour_repro_device()


@pytest.fixture(params=ALL_DEVICES)
def device_name(request) -> str:
    return request.param


def make_job(device: str, nprocs: int, options: dict | None = None):
    """Stand up *nprocs* initialized devices of kind *device*.

    Returns (devices, pids) where pids is the common ProcessID table.
    niodev ranks must init concurrently (they rendezvous), so inits
    run on threads for every device, which is also the realistic mode.
    """
    import threading

    from repro.runtime.launcher import _make_fabric
    from repro.xdev import new_instance
    from repro.xdev.device import DeviceConfig

    traced = device.startswith("traced-")
    if traced:
        device = device.removeprefix("traced-")
    fabric, nio = _make_fabric(device, nprocs)
    devices = [new_instance(device) for _ in range(nprocs)]
    if traced:
        from repro.obs.tracing import TracingDevice

        devices = [TracingDevice(d) for d in devices]
    pids_out: list = [None] * nprocs
    errors: list = []

    def init_one(rank: int) -> None:
        try:
            opts = dict(options or {})
            if nio is not None:
                addrs, socks = nio
                opts["listen_socket"] = socks[rank]
                config = DeviceConfig(rank=rank, nprocs=nprocs, peers=addrs, options=opts)
            else:
                config = DeviceConfig(rank=rank, nprocs=nprocs, fabric=fabric, options=opts)
            pids_out[rank] = devices[rank].init(config)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((rank, exc))

    threads = [
        threading.Thread(target=init_one, args=(r,)) for r in range(nprocs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise RuntimeError(f"device init failed: {errors}")
    return devices, pids_out[0]


@pytest.fixture
def job2(device_name):
    """Two connected devices of each kind; finished on teardown."""
    devices, pids = make_job(device_name, 2)
    yield devices, pids
    for d in devices:
        d.finish()
