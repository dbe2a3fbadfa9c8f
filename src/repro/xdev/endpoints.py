"""Per-thread endpoints: counts, thread binding, and frame routing.

The paper makes one engine safe for ``MPI_THREAD_MULTIPLE`` by locking
the shared communication sets; *MPIxThreads* (PAPERS.md) observes that
the next step is to stop sharing them — give each thread (or thread
group) its own **endpoint** with its own slice of the matching state
and completion queue, so unrelated threads never contend on one
lock.

Two orthogonal mappings implement that here:

* **Thread → endpoint binding** (:class:`EndpointBinding`): user
  threads are bound round-robin to one of ``N`` endpoints on first
  use.  The binding decides which completion shard a thread's requests
  land on and labels the per-endpoint ``ep.*`` metrics.

* **Frame → route hashing** (:func:`route_of`): every frame's
  *content* — ``(context, tag)`` for matched traffic, the request id
  for id-addressed rendezvous control — hashes to a 31-bit route.
  ``route % N`` picks the matching shard on the receiver (and, in a
  seeded-schedule test job, the inbox the frame waits in).

Routing by content rather than by sending thread is deliberate: the
same frame always takes the same route no matter which thread sent it
or when, so seeded-schedule replays and ChaosTransport's content-keyed
fault decisions stay deterministic under endpoint sharding.  It also
keeps MPI's non-overtaking rule structural: all frames of one
``(context, tag, src)`` stream share a route (the route key is a
coarsening of the stream key), hence one matching shard, so they can
never overtake each other.

The source uid is deliberately **not** part of the route.  Uids come
from a process-global allocation counter, so the same logical job run
twice in one process gets different uids — folding them into the hash
would make routes, and therefore seeded schedules, unreplayable.  It
also buys a structural win: an ``ANY_SOURCE`` receive with a concrete
tag maps to exactly one shard (every candidate message shares its
``(context, tag)`` hash), so only ``ANY_TAG`` receives need the
all-shards wildcard fallback.

The endpoint count comes from the ``REPRO_ENDPOINTS`` environment knob
(default 4); ``REPRO_ENDPOINTS=1`` reproduces the seed's fully-shared
path exactly.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading

#: Environment knob selecting the per-device endpoint count.
ENDPOINTS_ENV = "REPRO_ENDPOINTS"

#: Default endpoint count when the knob is unset.
DEFAULT_ENDPOINTS = 4

#: Odd multiplicative mixing constants (Murmur/xxHash finalizers).
#: Odd multipliers are bijective mod 2**32, so consecutive tags spread
#: across any power-of-two shard count instead of aliasing.
_MIX_CTX = 0x9E3779B1
_MIX_TAG = 0x85EBCA77
_MIX_SRC = 0xC2B2AE3D
_MASK32 = 0xFFFFFFFF


def endpoint_count(explicit: int | None = None) -> int:
    """Resolve the endpoint count: explicit option > env knob > default."""
    if explicit is not None:
        return max(1, int(explicit))
    raw = os.environ.get(ENDPOINTS_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(
                f"{ENDPOINTS_ENV} must be a positive integer, got {raw!r}"
            ) from None
    return DEFAULT_ENDPOINTS


@functools.lru_cache(maxsize=4096)
def route_of(context: int, tag: int) -> int:
    """Deterministic 31-bit route for a matched-traffic stream.

    Same ``(context, tag)`` → same route, always — in this run, in a
    replay, in any process: the property the non-overtaking rule,
    seeded-schedule replays, and ``ANY_SOURCE``-to-one-shard routing
    all lean on.  (Source uids are excluded on purpose; see the module
    docstring.)  Every message asks three times, sender and receiver;
    a program uses few streams, so the answers are cached.
    """
    h = (context * _MIX_CTX) & _MASK32 ^ (tag * _MIX_TAG) & _MASK32
    h ^= h >> 15
    return (h * _MIX_TAG) & 0x7FFFFFFF


def route_of_id(request_id: int) -> int:
    """Route for id-addressed frames (RTR by send id, data by recv id)."""
    h = (request_id * _MIX_CTX) & _MASK32
    h ^= h >> 16
    return (h * _MIX_SRC) & 0x7FFFFFFF


class EndpointBinding:
    """Round-robin, sticky thread → endpoint assignment.

    The first time a thread asks for its endpoint it is assigned the
    next slot modulo ``n`` and keeps it for life (thread-local).  Use
    :meth:`bind` to pin a thread to a specific endpoint instead.
    """

    def __init__(self, n: int) -> None:
        self.n = max(1, int(n))
        self._local = threading.local()
        self._next = itertools.count()
        self._bound = 0
        self._bound_lock = threading.Lock()

    def current(self) -> int:
        """This thread's endpoint, assigning one on first use."""
        ep = getattr(self._local, "ep", None)
        if ep is None:
            ep = next(self._next) % self.n
            self._local.ep = ep
            with self._bound_lock:
                self._bound += 1
        return ep

    def bind(self, endpoint: int) -> int:
        """Pin the calling thread to *endpoint* (mod ``n``)."""
        ep = int(endpoint) % self.n
        if getattr(self._local, "ep", None) is None:
            with self._bound_lock:
                self._bound += 1
        self._local.ep = ep
        return ep

    def bound_threads(self) -> int:
        """How many threads have been assigned an endpoint so far."""
        with self._bound_lock:
            return self._bound
