"""The 8-byte message on a budget: Python calls and lock acquisitions.

An 8 B smdev ``Send``/``Recv`` message costs a fixed amount of work
when its receive is posted first: the same calls and the same locks,
message after message, summed over the two rank threads.  Counts,
unlike timings, are exact on any host.  This test pins them, so a
change that adds a call or a lock to the eager path fails here and
must say why in the budget below.

* Calls are the rank threads' Python-level ``call`` events — the
  package's functions, its dataclass and named-tuple constructors —
  read with :func:`sys.setprofile`.  The interpreter's C calls
  (builtins, lock methods) are not Python calls and do not count.
* Lock acquisitions are counted by a ``threading.Lock`` stand-in
  installed while the job is built and run, so every lock the stack
  makes then, classed or not, counts (a lock made at import time
  would not).

A rare thread switch can send a message down another path (it arrives
before its receive is posted, or its receiver is not yet parked), so
the per-message mean may drift a little off the exact count; a planted
call or lock adds a whole one to every message.  The two ``planted``
tests check the budget notices both.
"""

import sys
import threading

import numpy as np

from repro import mpi
from repro.runtime.launcher import run_spmd
from repro.xdev.protocol import ProtocolEngine

#: Exact per-message counts of the eager path, both ranks summed.
CALLS_PER_MESSAGE = 61
LOCKS_PER_MESSAGE = 10
#: The ceilings these counts were cut to (from ~108 calls, 21 locks).
CALL_CEILING = 80
LOCK_CEILING = 10
#: Drift a handful of re-routed messages can add to the mean.
SLACK = 0.5

WARMUP = 20
ROUND_TRIPS = 100

_REAL_LOCK = threading.Lock
_counting = threading.local()


class _CountingLock:
    """A ``threading.Lock`` that counts acquisitions on counting threads."""

    __slots__ = ("_lock",)

    def __init__(self):
        self._lock = _REAL_LOCK()

    def acquire(self, blocking=True, timeout=-1):
        counts = getattr(_counting, "counts", None)
        if counts is not None:
            counts[1] += 1
        return self._lock.acquire(blocking, timeout)

    __enter__ = acquire

    def release(self):
        self._lock.release()

    def __exit__(self, *exc):
        self._lock.release()

    def locked(self):
        return self._lock.locked()


#: The stand-in's own methods are not the stack's calls.
_HARNESS_CODE = {
    f.__code__ for f in vars(_CountingLock).values() if hasattr(f, "__code__")
}


def _main(env):
    """Warm up, then count one round trip after another on this rank."""
    comm = env.COMM_WORLD
    rank = comm.rank()
    buf = np.zeros(8, dtype=np.uint8)
    byte = mpi.BYTE

    def round_trips(n):
        for _ in range(n):
            if rank == 0:
                comm.Send(buf, 0, 8, byte, 1, 1)
                comm.Recv(buf, 0, 8, byte, 1, 2)
            else:
                comm.Recv(buf, 0, 8, byte, 0, 1)
                comm.Send(buf, 0, 8, byte, 0, 2)

    round_trips(WARMUP)
    comm.Barrier()
    counts = [0, 0]
    skip = _HARNESS_CODE | {round_trips.__code__}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code not in skip:
            counts[0] += 1

    _counting.counts = counts
    sys.setprofile(profile)
    try:
        round_trips(ROUND_TRIPS)
    finally:
        sys.setprofile(None)
        _counting.counts = None
    comm.Barrier()
    return counts


def _per_message(monkeypatch) -> tuple[float, float]:
    """(calls, lock acquisitions) per one-way message."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.setattr(threading, "Lock", _CountingLock)
    interval = sys.getswitchinterval()
    # Rarely preempted, each message takes the posted-receive path.
    sys.setswitchinterval(0.05)
    try:
        results = run_spmd(_main, 2, device="smdev", timeout=60)
    finally:
        sys.setswitchinterval(interval)
    messages = 2 * ROUND_TRIPS
    calls = sum(r[0] for r in results) / messages
    locks = sum(r[1] for r in results) / messages
    return calls, locks


def test_eager_message_stays_on_budget(monkeypatch):
    assert CALLS_PER_MESSAGE <= CALL_CEILING
    assert LOCKS_PER_MESSAGE <= LOCK_CEILING
    calls, locks = _per_message(monkeypatch)
    print(f"\n8 B smdev message: {calls:.2f} calls, {locks:.2f} lock acquisitions")
    assert calls <= CALLS_PER_MESSAGE + SLACK, f"{calls:.2f} calls per message"
    assert locks <= LOCKS_PER_MESSAGE + SLACK, f"{locks:.2f} locks per message"
    # A budget that is not met exactly was cut on another path.
    assert calls >= CALLS_PER_MESSAGE - SLACK
    assert locks >= LOCKS_PER_MESSAGE - SLACK


def test_planted_wrapper_is_over_budget(monkeypatch):
    isend = ProtocolEngine.isend

    def wrapped(self, *args, **kwargs):
        return isend(self, *args, **kwargs)

    monkeypatch.setattr(ProtocolEngine, "isend", wrapped)
    calls, _locks = _per_message(monkeypatch)
    assert calls > CALLS_PER_MESSAGE + SLACK


def test_planted_lock_is_over_budget(monkeypatch):
    tick = ProtocolEngine._tick
    extra = _CountingLock()  # as if the stack had made it

    def tick_with_extra_lock(self, remote=-1):
        with extra:
            pass
        return tick(self, remote)

    monkeypatch.setattr(ProtocolEngine, "_tick", tick_with_extra_lock)
    _calls, locks = _per_message(monkeypatch)
    assert locks > LOCKS_PER_MESSAGE + SLACK
