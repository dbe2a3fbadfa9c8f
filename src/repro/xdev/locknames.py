"""Canonical lock names, the global acquisition hierarchy, the lock factory.

Every lock the protocol stack takes belongs to a named *class*, written
down once where the lock is made (``new_lock(CLASS, index)`` or
``new_condition``); the two tools that reason about locks read that call:

* the **dynamic** side — inside :func:`recording` the factory returns
  the recorder's locks, which :class:`repro.testing.watchdog.LockGraph`
  names ``recv-shard2``, ``send-sets``..., so stall snapshots and
  lock-order violation reports speak this vocabulary;
* the **static** side — the reprolint lock-order checker
  (:mod:`repro.analysis.locks`) gives each ``with``/``acquire()`` site
  on an attribute the class of its module's ``attr = new_lock(CLASS,
  ...)`` and checks nesting against :data:`HIERARCHY`.

A static finding and a dynamic stall snapshot that both say
``send-sets`` are talking about the same lock.

The hierarchy encodes the documented acquisition discipline (DESIGN.md
and the module docstrings of :mod:`repro.xdev.protocol` and
:mod:`repro.xdev.matching`): a thread may acquire a lock only while
holding locks of *strictly lower* rank.  Within one class, nesting is
forbidden except for the classes in :data:`SELF_NESTING`, whose members
are always taken in a globally consistent order (matching shards in
ascending index — the ``_all_locked`` path).

Rank order (outermost first):

1.  ``recv-shard`` — per-endpoint matching-shard locks (ascending).
2.  ``recv-wildcard`` — the ANY_TAG wildcard domain; nests inside the
    shard locks, never the other way around.
3.  ``send-sets`` — the pending-send set.  The engine releases it
    before calling ``Transport.write``, so it and a transport's write
    lock are taken *sequentially*, never nested, but if they ever were
    nested this is the required order (Fig. 6 commentary).
4.  ``rendezvous-ids`` — recv-id table and active-RTS set.
5.  ``conn-cache`` — niodev's connection-cache condition (LRU table,
    FD-budget accounting, dial/evict state).  Deliberately *outside*
    the channel locks: ``NIOTransport.write`` pins its connection
    **before** taking that connection's write lock and unpins after
    releasing it, so a write never dials or evicts while holding a
    channel — taking the cache lock under a channel lock is a
    hierarchy violation the static checker flags.
6.  ``channel`` — the write lock of one niodev connection (one per
    destination), held by ``NIOTransport.write`` for a whole frame so
    socket bytes never interleave.  Owned by the transport: the
    engine holds no lock across a write.
7.  ``proc-out`` — procdev's per-destination outbound-ring locks
    (restore the SPSC single-producer invariant between application
    threads and the poller); held for one non-blocking ``try_push``.
8.  ``ticker`` — arrival/probe condition variables.
9.  ``completed`` — completion-shard locks.
10. ``internal`` — leaf locks private to one object (pool free lists,
    metric registries, arenas...).  They guard a few statements and are
    never recorded; the only lock one may take is ``bookkeeping``.
11. ``bookkeeping`` — one per metrics registry, so one per device: its
    histograms, its CopyStats and the protocol engine's counters and
    Lamport clock.  The engine records each side of a message in one
    hold.  Innermost of all: taken under a shard lock (an unexpected
    message is counted as it is stored) or a pool lock (hit/miss), and
    nothing is ever acquired while it is held.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

RECV_SHARD = "recv-shard"
RECV_WILDCARD = "recv-wildcard"
SEND_SETS = "send-sets"
RENDEZVOUS_IDS = "rendezvous-ids"
CONN_CACHE = "conn-cache"
CHANNEL = "channel"
PROC_OUT = "proc-out"
TICKER = "ticker"
COMPLETED = "completed"
INTERNAL = "internal"
BOOKKEEPING = "bookkeeping"

#: Lock class -> rank.  Acquiring class B while holding class A is
#: legal iff ``HIERARCHY[A] < HIERARCHY[B]`` (or A == B and the class
#: allows self-nesting).
HIERARCHY: dict[str, int] = {
    RECV_SHARD: 10,
    RECV_WILDCARD: 20,
    SEND_SETS: 30,
    RENDEZVOUS_IDS: 40,
    CONN_CACHE: 55,
    CHANNEL: 60,
    PROC_OUT: 70,
    TICKER: 80,
    COMPLETED: 85,
    INTERNAL: 90,
    BOOKKEEPING: 95,
}

#: Classes whose members may nest within themselves: shard locks
#: because every holder takes them in one global order (ascending —
#: the ``_all_locked`` path), and ``internal`` because it is a *family*
#: of leaf locks on distinct objects (a name-based checker cannot
#: order them, and by the leaf-lock rule they guard a few statements
#: each, so cross-object nesting cannot cycle).
SELF_NESTING: frozenset[str] = frozenset({RECV_SHARD, INTERNAL})


#: The installed recorder: anything with a ``lock(name)`` method.  One
#: global, not thread-local, because a job's ranks init on threads of
#: their own and their locks must be recorded too.
_recorder: Optional[Any] = None


def new_lock(lock_class: str, index: Optional[int] = None) -> threading.Lock:
    """``threading.Lock()``, or the recorder's lock named *lock_class* + *index*."""
    if _recorder is None:
        return threading.Lock()
    return _recorder.lock(lock_class if index is None else f"{lock_class}{index}")


def new_condition(lock_class: str, index: Optional[int] = None) -> threading.Condition:
    """``threading.Condition()``, or one over :func:`new_lock`'s lock."""
    if _recorder is None:
        return threading.Condition()
    return threading.Condition(new_lock(lock_class, index))


@contextmanager
def recording(recorder: Any) -> Iterator[Any]:
    """Make every classed lock created in the block with *recorder*.
    Wrap a job's whole life: niodev makes write locks on first send."""
    global _recorder
    previous, _recorder = _recorder, recorder
    try:
        yield recorder
    finally:
        _recorder = previous
