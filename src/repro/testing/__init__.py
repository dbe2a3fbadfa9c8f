"""Concurrency-torture harness: chaos transport, seeded scheduling, watchdog.

The correctness-tooling layer behind the paper's thread-safety claim.
Three cooperating pieces:

* :mod:`repro.testing.chaos` — :class:`ChaosTransport`, a transport
  decorator that injects seeded, deterministic frame-level faults
  (delays, safe reordering, duplicated RTS/RTR, truncated payloads);
* :mod:`repro.testing.scheduler` — a seeded interleaving scheduler,
  a transport decorator that replays smdev delivery choices from a
  PRNG seed;
* :mod:`repro.testing.watchdog` — lock-order cycle detection over the
  locks :mod:`repro.xdev.locknames` makes, plus a stuck-progress
  watchdog with trace-integrated stall reports.

Plus :func:`repro.testing.sync.wait_until` for race-free test
synchronization and pytest fixtures in :mod:`repro.testing.fixtures`.
"""

from repro.testing.chaos import (
    ChaosConfig,
    ChaosEvent,
    ChaosTransport,
    SEED_ENV_VAR,
    seed_from_env,
)
from repro.testing.scheduler import (
    ScheduledInbox,
    ScheduledTransport,
    SeededSchedule,
)
from repro.testing.sync import wait_until
from repro.testing.watchdog import (
    InstrumentedLock,
    LockGraph,
    LockOrderViolation,
    ProgressWatchdog,
)

__all__ = [
    "ChaosConfig",
    "ChaosEvent",
    "ChaosTransport",
    "SEED_ENV_VAR",
    "seed_from_env",
    "ScheduledInbox",
    "ScheduledTransport",
    "SeededSchedule",
    "wait_until",
    "InstrumentedLock",
    "LockGraph",
    "LockOrderViolation",
    "ProgressWatchdog",
]
