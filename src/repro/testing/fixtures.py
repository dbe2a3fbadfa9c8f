"""Pytest fixtures for the concurrency-torture harness.

Loaded as a plugin from the test suite's root ``conftest.py``::

    pytest_plugins = ["repro.testing.fixtures"]

Fixtures:

``chaos_seed``
    The run's replay seed — ``$REPRO_CHAOS_SEED`` if set, fresh
    otherwise.  When a test using it fails, the seed is printed in a
    ``REPRO_CHAOS_SEED=... `` banner so the schedule can be replayed.

``chaos_job``
    A 2-rank smdev job whose engines write through a
    :class:`~repro.testing.chaos.ChaosTransport` under the default
    torture mix, built inside :func:`~repro.xdev.locknames.recording`
    of one :class:`~repro.testing.watchdog.LockGraph`.

``seeded_schedule``
    A :class:`~repro.testing.scheduler.SeededSchedule` plus a factory
    for smdev jobs whose deliveries replay it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import pytest

from repro.testing.chaos import ChaosConfig, ChaosTransport, seed_from_env
from repro.testing.scheduler import (
    ScheduledInbox,
    ScheduledTransport,
    SeededSchedule,
)
from repro.testing.watchdog import LockGraph
from repro.xdev.device import DeviceConfig, new_instance
from repro.xdev.locknames import recording
from repro.xdev.smdev import SMFabric


def make_chaos_job(
    nprocs: int,
    seed: int,
    config: Optional[ChaosConfig] = None,
    options: Optional[dict] = None,
    endpoints: Optional[int] = None,
):
    """Stand up *nprocs* smdev ranks on one fabric, each engine writing
    through a :class:`ChaosTransport` (``dev.engine.transport``).

    Inbound frames were perturbed by the sender's own ChaosTransport,
    so outbound interception covers the whole fabric.  *endpoints*
    overrides the ``REPRO_ENDPOINTS`` shard count so a test can pin
    the sharding degree without env juggling.
    """
    cfg = config if config is not None else ChaosConfig.torture(seed)
    fabric = SMFabric(nprocs, endpoints=endpoints)
    devices = []
    for rank in range(nprocs):
        dev = new_instance("smdev")
        opts = dict(options or {})
        dev.init(DeviceConfig(rank=rank, nprocs=nprocs, fabric=fabric, options=opts))
        dev.engine.transport = ChaosTransport(dev.engine.transport, cfg)
        devices.append(dev)
    return devices, fabric.pids


def make_scheduled_job(
    nprocs: int,
    schedule: SeededSchedule,
    options: Optional[dict] = None,
    gather_window_s: float = 0.001,
    endpoints: Optional[int] = None,
):
    """Stand up *nprocs* smdev ranks whose deliveries replay *schedule*.

    *endpoints* overrides the ``REPRO_ENDPOINTS`` shard count, which
    is also the number of scheduled inboxes (and delivery threads) per
    rank.
    """
    fabric = SMFabric(nprocs, endpoints=endpoints)
    inboxes = [
        [
            ScheduledInbox(schedule, rank, gather_window_s, endpoint=ep)
            for ep in range(fabric.endpoints)
        ]
        for rank in range(nprocs)
    ]
    devices = []
    for rank in range(nprocs):
        dev = new_instance("smdev")
        dev.init(
            DeviceConfig(
                rank=rank, nprocs=nprocs, fabric=fabric, options=dict(options or {})
            )
        )
        engine = dev.engine
        engine.transport = ScheduledTransport(
            engine.transport, fabric, rank, inboxes
        )
        devices.append(dev)
    return devices, fabric.pids


# ----------------------------------------------------------------------
# failure-aware seed reporting

@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Stash each phase's report on the item so fixture finalizers can
    tell whether the test failed (the standard pytest recipe)."""
    outcome = yield
    rep = outcome.get_result()
    setattr(item, f"rep_{rep.when}", rep)


def _failed(request) -> bool:
    rep = getattr(request.node, "rep_call", None)
    return rep is not None and rep.failed


#: Default replay seed: the tier-1 suite must be reproducible run to
#: run, so fresh seeds are opt-in (REPRO_CHAOS_FRESH=1, as CI's
#: non-blocking torture job does) rather than the default.
DEFAULT_SEED = 20060901


@pytest.fixture
def chaos_seed(request):
    import os

    if os.environ.get("REPRO_CHAOS_FRESH"):
        seed = seed_from_env()
    else:
        seed = seed_from_env(default=DEFAULT_SEED)
    yield seed
    if _failed(request):
        print(
            f"\n*** chaos torture failure — replay this schedule with:"
            f"\n***   REPRO_CHAOS_SEED={seed} python -m pytest "
            f"{request.node.nodeid!r}\n"
        )


@dataclass
class ChaosJob:
    """What the ``chaos_job`` fixture hands to a test."""

    devices: list
    pids: list
    seed: int
    graph: LockGraph
    config: ChaosConfig

    @property
    def engines(self) -> list:
        return [d.engine for d in self.devices]

    def schedules(self) -> list[list[tuple]]:
        """Per-rank injected-fault schedules (for replay comparison)."""
        return [d.engine.transport.schedule() for d in self.devices]


@pytest.fixture
def chaos_job(chaos_seed):
    config = ChaosConfig.torture(chaos_seed)
    graph = LockGraph()
    with recording(graph):  # smdev makes every lock at init
        devices, pids = make_chaos_job(2, chaos_seed, config=config)
    yield ChaosJob(devices, pids, chaos_seed, graph, config)
    for d in devices:
        d.finish()


@dataclass
class ScheduledJobFactory:
    """What the ``seeded_schedule`` fixture hands to a test."""

    seed: int
    schedule: SeededSchedule = field(init=False)
    _jobs: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.schedule = SeededSchedule(self.seed)

    def job(self, nprocs: int, fresh: bool = False, **kwargs) -> tuple[list, list]:
        """Build a scheduled smdev job; ``fresh=True`` restarts the
        PRNG from the seed (replay of an identical run)."""
        if fresh:
            self.schedule = SeededSchedule(self.seed)
        devices, pids = make_scheduled_job(nprocs, self.schedule, **kwargs)
        self._jobs.append(devices)
        return devices, pids

    def finish(self) -> None:
        for devices in self._jobs:
            for d in devices:
                d.finish()
        self._jobs.clear()


@pytest.fixture
def seeded_schedule(chaos_seed):
    factory = ScheduledJobFactory(chaos_seed)
    yield factory
    factory.finish()
