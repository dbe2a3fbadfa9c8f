"""Four-key message matching (paper Section IV-E.2).

A message is identified by ``(context, tag, src)``.  Because receives
may use the wildcards ``ANY_TAG`` and ``ANY_SOURCE``, each *incoming
message* generates four lookup keys::

    (context, tag,     src)
    (context, ANY_TAG, src)
    (context, tag,     ANY_SOURCE)
    (context, ANY_TAG, ANY_SOURCE)

A posted receive is registered under exactly one key — the one
containing whatever wildcards it was posted with — so an incoming
message finds any compatible receive with four O(1) dictionary probes
instead of a linear scan of the pending set.  Symmetrically, arrived
but unmatched ("unexpected") messages are indexed under all four of
their keys, so a newly posted receive finds the earliest compatible
message with a single probe of its own key.

MPI's non-overtaking rule requires that when several candidates match,
the *earliest posted* receive (resp. earliest arrived message) wins.
Entries therefore carry sequence numbers and a claim flag; claimed
entries are lazily popped when they surface at the head of a queue.

:class:`MessageQueues` is deliberately lock-free: callers serialize
access — the paper's single ``receive-communication-sets`` lock in the
seed engine (Figs 4, 5, 7, 8), or one lock per shard inside
:class:`ShardedMatcher`, which splits the matching state across
``N`` endpoint shards by content hash (see :mod:`repro.xdev.endpoints`)
and keeps a wildcard domain for ``ANY_TAG`` receives, which span
``(context, tag)`` streams and therefore cannot be routed to one shard.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.xdev.constants import ANY_SOURCE, ANY_TAG
from repro.xdev.endpoints import route_of
from repro.xdev.locknames import RECV_SHARD, RECV_WILDCARD, TICKER, new_condition, new_lock

Key = tuple[int, int, int]


@dataclass
class PostedRecv:
    """A receive request waiting in the pending-recv-request-set."""

    request: Any
    context: int
    tag: int
    src_uid: int  # may be ANY_SOURCE
    seqno: int = 0
    claimed: bool = False


@dataclass
class ArrivedMessage:
    """An arrived message with no matching receive yet.

    For the eager protocol this carries the payload; for rendezvous it
    is a ready-to-send record carrying the sender's request id.
    """

    context: int
    tag: int
    src_uid: int  # always concrete
    size: int
    payload: Any = None  # wire bytes / segment list for eager, None for RTS
    #: Pooled scratch (``RawPool`` bytearray) backing ``payload`` when
    #: the message was stored unexpected; the engine releases it after
    #: delivery (or at device finish).
    storage: Any = None
    send_id: int = 0  # sender-side request id (rendezvous)
    src_pid: Any = None
    is_rts: bool = False
    #: Causal flow id from the frame header (repro.xdev.frames);
    #: ``flow_seq == 0`` means the frame carried no flow.
    flow_src: int = 0
    flow_seq: int = 0
    seqno: int = 0
    claimed: bool = False

    def keys(self) -> tuple[Key, Key, Key, Key]:
        """The four lookup keys this message answers to."""
        return (
            (self.context, self.tag, self.src_uid),
            (self.context, ANY_TAG, self.src_uid),
            (self.context, self.tag, ANY_SOURCE),
            (self.context, ANY_TAG, ANY_SOURCE),
        )


def _prune(q: deque) -> None:
    """Drop claimed entries from the head of *q*."""
    while q and q[0].claimed:
        q.popleft()


class MessageQueues:
    """Pending-recv-request-set and unexpected-message store.

    NOT internally synchronized — callers hold the engine's
    receive-communication-sets lock around every call.
    """

    def __init__(self, seq: Optional[itertools.count] = None) -> None:
        self._recvs: dict[Key, deque[PostedRecv]] = {}
        #: How many of ``_recvs``' keys hold a wildcard (queues are
        #: never removed).  While none does, an arrival has one key to
        #: probe, not four.
        self._wild_keys = 0
        self._msgs: dict[Key, deque[ArrivedMessage]] = {}
        # Sequence numbers order posted receives and arrived messages
        # for the non-overtaking rule.  A ShardedMatcher passes one
        # shared counter to every shard so seqnos form a single global
        # order — what lets wildcard receives compare candidates from
        # different shards.
        self._seq = seq if seq is not None else itertools.count(1)
        #: Matching outcome counters (engine lock serializes updates).
        #: The unexpected-queue hit rate is
        #: ``recvs_matched_unexpected / recvs_posted``; the posted-queue
        #: hit rate is ``arrivals_matched_posted / arrivals``.
        self.counters = {
            "recvs_posted": 0,
            "recvs_matched_unexpected": 0,
            "recvs_wildcard": 0,
            "arrivals": 0,
            "arrivals_matched_posted": 0,
            "probe_hits": 0,
            "probe_misses": 0,
            "claims": 0,
        }

    # ------------------------------------------------------------------
    # receive side

    def post_recv(self, recv: PostedRecv) -> Optional[ArrivedMessage]:
        """Match *recv* against arrived messages or enqueue it.

        Returns the earliest matching arrived message (claimed and
        removed), or None after enqueuing the receive, mirroring
        Figs 4 and 7: match-or-add under one lock hold.
        """
        counters = self.counters
        counters["recvs_posted"] += 1
        if recv.tag == ANY_TAG or recv.src_uid == ANY_SOURCE:
            counters["recvs_wildcard"] += 1
        key = (recv.context, recv.tag, recv.src_uid)
        q = self._msgs.get(key)
        if q:
            while q and q[0].claimed:
                q.popleft()
            if q:
                msg = q.popleft()
                msg.claimed = True
                counters["recvs_matched_unexpected"] += 1
                return msg
        recv.seqno = next(self._seq)
        q = self._recvs.get(key)
        if q is None:
            q = self._recvs[key] = deque()
            if recv.tag == ANY_TAG or recv.src_uid == ANY_SOURCE:
                self._wild_keys += 1
        q.append(recv)
        return None

    def arrive(self, msg: ArrivedMessage) -> Optional[PostedRecv]:
        """Match an incoming message against posted receives or store it.

        Probes the four keys and claims the earliest-posted compatible
        receive; otherwise indexes the message under all four keys and
        returns None (Figs 5 and 8: the input handler's match-or-add).
        """
        self.counters["arrivals"] += 1
        cand = self.best_posted(msg)
        if cand is not None:
            best_q, best = cand
            best_q.popleft()
            best.claimed = True
            self.counters["arrivals_matched_posted"] += 1
            return best
        self.store(msg)
        return None

    def best_posted(
        self, msg: ArrivedMessage
    ) -> Optional[tuple[deque, PostedRecv]]:
        """Earliest-posted receive compatible with *msg*, not yet claimed.

        Returns ``(queue, recv)`` with *recv* at the queue's head, or
        None.  Does not claim — the caller decides (a ShardedMatcher
        may prefer an even earlier wildcard receive).
        """
        recvs = self._recvs
        ctx, tag, src = msg.context, msg.tag, msg.src_uid
        best: Optional[PostedRecv] = None
        best_q: Optional[deque] = None
        keys: tuple[Key, ...] = ((ctx, tag, src),)
        if self._wild_keys:
            keys += ((ctx, ANY_TAG, src), (ctx, tag, ANY_SOURCE), (ctx, ANY_TAG, ANY_SOURCE))
        for key in keys:
            q = recvs.get(key)
            if q:
                while q and q[0].claimed:
                    q.popleft()
                if q and (best is None or q[0].seqno < best.seqno):
                    best = q[0]
                    best_q = q
        if best is None:
            return None
        return best_q, best

    def store(self, msg: ArrivedMessage) -> None:
        """Index *msg* as unexpected under all four of its keys."""
        msg.seqno = next(self._seq)
        for key in msg.keys():
            self._msgs.setdefault(key, deque()).append(msg)

    # ------------------------------------------------------------------
    # probing

    def find_message(
        self, context: int, tag: int, src_uid: int, record: bool = True
    ) -> Optional[ArrivedMessage]:
        """Earliest arrived, unclaimed message matching the pattern.

        *tag*/*src_uid* may be wildcards.  Does not consume the message
        — this backs ``iprobe``/``probe``.  ``record=False`` skips the
        probe counters (internal scans by the sharded matcher, which
        counts one probe per user call, not one per shard probed).
        """
        q = self._msgs.get((context, tag, src_uid))
        if q is not None:
            _prune(q)
        msg = q[0] if q else None
        if record:
            if msg is not None:
                self.counters["probe_hits"] += 1
            else:
                self.counters["probe_misses"] += 1
        return msg

    def claim_message(
        self, context: int, tag: int, src_uid: int, record: bool = True
    ) -> Optional[ArrivedMessage]:
        """Find *and consume* the earliest matching unclaimed message.

        The atomic probe-then-claim backing ``improbe``/``mprobe``:
        under the caller's lock the observed message is removed from
        matching, so no concurrent receive on another thread can steal
        it between the probe and the matching ``mrecv``.
        """
        q = self._msgs.get((context, tag, src_uid))
        if q is not None:
            _prune(q)
        if not q:
            if record:
                self.counters["probe_misses"] += 1
            return None
        msg = q.popleft()
        msg.claimed = True
        if record:
            self.counters["probe_hits"] += 1
            self.counters["claims"] += 1
        return msg

    # ------------------------------------------------------------------
    # introspection (tests, diagnostics)

    def pending_recv_count(self) -> int:
        """Number of unclaimed posted receives."""
        seen = set()
        for q in self._recvs.values():
            for r in q:
                if not r.claimed:
                    seen.add(id(r))
        return len(seen)

    def unexpected_count(self) -> int:
        """Number of unclaimed arrived messages."""
        seen = set()
        for q in self._msgs.values():
            for m in q:
                if not m.claimed:
                    seen.add(id(m))
        return len(seen)

    def iter_unexpected(self) -> Iterator[ArrivedMessage]:
        """Yield unclaimed arrived messages (diagnostics only)."""
        seen: set[int] = set()
        for q in self._msgs.values():
            for m in q:
                if not m.claimed and id(m) not in seen:
                    seen.add(id(m))
                    yield m


class _MatchShard:
    """One endpoint's slice of the matching state: a lock + queues.

    Each shard carries its own arrival ticker so a blocking probe on a
    concrete tag sleeps on — and is woken by — *its shard only*.  With
    one global ticker every store would wake every prober in the
    process (a thundering herd of futile rescans, one per prober per
    message); per-shard tickers make probe wakeups 1:1 with relevant
    arrivals, which is where a shared engine burns its CPU when many
    threads probe-then-recv.
    """

    __slots__ = ("lock", "mq", "ticker", "ticks", "waiters", "probes")

    def __init__(self, mq: MessageQueues, index: int) -> None:
        self.lock = new_lock(RECV_SHARD, index)
        self.mq = mq
        self.ticker = new_condition(TICKER, index)
        self.ticks = 0
        self.waiters = 0
        #: This shard's blocking-probe accounting, under ``ticker``.
        self.probes = _probe_key()


def _probe_key() -> dict[str, int]:
    return {"blocking_probes": 0, "wakeups": 0, "futile_wakeups": 0}


def _count_wakeups(probes: dict[str, int], wakeups: int) -> None:
    probes["wakeups"] += wakeups
    probes["futile_wakeups"] += max(wakeups - 1, 0)


def _wc_key() -> dict[str, int]:
    return {
        "recvs_posted": 0,
        "recvs_matched_unexpected": 0,
        "recvs_wildcard": 0,
        "arrivals": 0,
        "arrivals_matched_posted": 0,
        "probe_hits": 0,
        "probe_misses": 0,
        "claims": 0,
    }


class ShardedMatcher:
    """Endpoint-sharded matching state, internally synchronized.

    ``N`` :class:`MessageQueues` shards, each behind its own lock, plus
    a **wildcard domain** for receives that cannot name a shard.  A
    frame's shard is ``route_of(context, tag) % N``, a content hash, so
    each shard's lock is only ever contended by the threads actually
    sharing that traffic stream.
    Because the route ignores the source, an ``ANY_SOURCE`` receive
    with a concrete tag still maps to exactly one shard — every message
    it could match hashes there too — and only ``ANY_TAG`` receives
    (which span ``(context, tag)`` streams) take the wildcard path.

    Lock order (deadlock freedom, checked by the LockGraph watchdog):
    shard locks in ascending index, then the wildcard lock.  Concrete
    operations take exactly one shard lock; wildcard operations take
    all of them — the "global path" fallback the issue specifies.

    A shared sequence counter spans every shard and the wildcard
    domain, so posted-receive and arrival seqnos form one global order:
    wildcard receives compare candidates across shards by seqno and MPI
    non-overtaking holds globally, not just per shard.

    With ``nshards == 1`` this degenerates to the seed's single lock +
    single MessageQueues — the ``REPRO_ENDPOINTS=1`` baseline.
    """

    def __init__(self, nshards: int) -> None:
        self.nshards = max(1, int(nshards))
        self._seq = itertools.count(1)
        self._shards = [
            _MatchShard(MessageQueues(seq=self._seq), i) for i in range(self.nshards)
        ]
        # Wildcard domain: receives that span shards, in post order.
        self._wc_lock = new_lock(RECV_WILDCARD)
        self._wc_recvs: deque[PostedRecv] = deque()
        #: Unclaimed wildcard receives.  Mutated only under the wildcard
        #: lock; read as a cheap skip hint under a shard lock, which is
        #: safe because wildcard *insertion* holds every shard lock —
        #: an arrival holding its shard lock can never miss a wildcard
        #: receive that was posted before it locked the shard.
        self._wc_count = 0
        self._wc_counters = _wc_key()
        # Global arrival ticker for ANY_TAG blocking probes, which span
        # shards and so cannot wait on one shard's ticker.  Bumped only
        # while such a prober is registered (the register-then-scan
        # protocol below), so shard-local traffic never pays for it.
        self._ticker = new_condition(TICKER)
        self._ticks = 0
        self._probe_waiters = 0
        #: ANY_TAG blocking-probe accounting, under ``_ticker``.
        self._wc_probes = _probe_key()

    # ------------------------------------------------------------------
    # routing

    def shard_index(self, context: int, tag: int) -> int:
        return route_of(context, tag) % self.nshards

    @contextmanager
    def _all_locked(self):
        """Every shard lock (ascending), then the wildcard lock."""
        for shard in self._shards:
            shard.lock.acquire()
        self._wc_lock.acquire()
        try:
            yield
        finally:
            self._wc_lock.release()
            for shard in reversed(self._shards):
                shard.lock.release()

    def _notify_stores(self, shard: _MatchShard) -> None:
        """Wake blocking probes after a store into *shard*.

        The waiter counts are read unlocked as skip hints.  That is
        lost-wakeup-safe because probers *register before scanning*: a
        store whose hint read misses a prober finished storing (under
        the shard lock) before that prober registered, so the prober's
        first scan already sees the message.  When no probe is blocked
        anywhere — every flood's hot path — both hints are zero and a
        store pays nothing here.
        """
        if shard.waiters:
            with shard.ticker:
                shard.ticks += 1
                shard.ticker.notify_all()
        if self._probe_waiters:
            with self._ticker:
                self._ticks += 1
                self._ticker.notify_all()

    # ------------------------------------------------------------------
    # receive side

    def post_recv(self, recv: PostedRecv) -> Optional[ArrivedMessage]:
        """Match-or-add for a posted receive (Figs 4 and 7, sharded).

        Concrete-tag receives — including ``ANY_SOURCE`` ones, since
        routes ignore the source — touch exactly one shard.  ``ANY_TAG``
        receives take the global path: with every shard locked, claim
        the earliest (by global seqno) compatible unexpected message
        from any shard, or park in the wildcard domain.
        """
        if recv.tag == ANY_TAG:
            return self._post_wildcard(recv)
        shard = self._shards[route_of(recv.context, recv.tag) % self.nshards]
        with shard.lock:
            return shard.mq.post_recv(recv)

    def _post_wildcard(self, recv: PostedRecv) -> Optional[ArrivedMessage]:
        with self._all_locked():
            c = self._wc_counters
            c["recvs_posted"] += 1
            c["recvs_wildcard"] += 1
            best: Optional[ArrivedMessage] = None
            for shard in self._shards:
                msg = shard.mq.find_message(
                    recv.context, recv.tag, recv.src_uid, record=False
                )
                if msg is not None and (best is None or msg.seqno < best.seqno):
                    best = msg
            if best is not None:
                best.claimed = True
                c["recvs_matched_unexpected"] += 1
                return best
            recv.seqno = next(self._seq)
            self._wc_recvs.append(recv)
            self._wc_count += 1
            return None

    # ------------------------------------------------------------------
    # arrival side

    def arrive(
        self, msg: ArrivedMessage, on_store=None
    ) -> Optional[PostedRecv]:
        """Match-or-store for an arrival (Figs 5 and 8, sharded).

        Only the arrival's own shard lock is taken; the wildcard lock
        nests inside it when wildcard receives are pending.  The
        earliest of {best shard-posted receive, best wildcard receive}
        wins — seqnos are globally comparable.

        *on_store*, if given, runs under the shard lock immediately
        before the message is indexed: the engine uses it to stage the
        unexpected payload into stable storage *before* the message
        becomes visible to concurrent receivers on other threads.
        """
        shard = self._shards[route_of(msg.context, msg.tag) % self.nshards]
        stored = False
        matched: Optional[PostedRecv] = None
        with shard.lock:
            mq = shard.mq
            mq.counters["arrivals"] += 1
            cand = mq.best_posted(msg)
            if self._wc_count:
                with self._wc_lock:
                    wc = self._best_wildcard(msg)
                    if wc is not None and (
                        cand is None or wc.seqno < cand[1].seqno
                    ):
                        wc.claimed = True
                        self._wc_count -= 1
                        _prune(self._wc_recvs)
                        mq.counters["arrivals_matched_posted"] += 1
                        return wc
            if cand is not None:
                best_q, matched = cand
                best_q.popleft()
                matched.claimed = True
                mq.counters["arrivals_matched_posted"] += 1
            else:
                if on_store is not None:
                    on_store(msg)
                mq.store(msg)
                stored = True
        if stored:
            self._notify_stores(shard)
        return matched

    def _best_wildcard(self, msg: ArrivedMessage) -> Optional[PostedRecv]:
        """Earliest unclaimed wildcard receive compatible with *msg*.

        The deque is in post (seqno) order, so the first compatible
        entry is the earliest.  Caller holds the wildcard lock.
        """
        for recv in self._wc_recvs:
            if recv.claimed:
                continue
            if (
                recv.context == msg.context
                and recv.tag in (ANY_TAG, msg.tag)
                and recv.src_uid in (ANY_SOURCE, msg.src_uid)
            ):
                return recv
        return None

    # ------------------------------------------------------------------
    # probing

    def find_message(
        self, context: int, tag: int, src_uid: int
    ) -> Optional[ArrivedMessage]:
        """Earliest matching unclaimed message; non-consuming (iprobe)."""
        if tag != ANY_TAG:
            shard = self._shards[self.shard_index(context, tag)]
            with shard.lock:
                return shard.mq.find_message(context, tag, src_uid)
        with self._all_locked():
            best: Optional[ArrivedMessage] = None
            for shard in self._shards:
                msg = shard.mq.find_message(context, tag, src_uid, record=False)
                if msg is not None and (best is None or msg.seqno < best.seqno):
                    best = msg
            c = self._wc_counters
            if best is not None:
                c["probe_hits"] += 1
            else:
                c["probe_misses"] += 1
            return best

    def claim_message(
        self, context: int, tag: int, src_uid: int
    ) -> Optional[ArrivedMessage]:
        """Atomic probe-then-claim across shards (improbe/mprobe).

        The returned message has been removed from matching: a
        concurrent receive on another thread cannot consume it.  This
        is the fix for the probe/recv race — a plain ``iprobe`` only
        *observes*, so the observed message can be stolen before the
        follow-up ``recv``; ``claim_message`` makes the pair atomic
        under the shard lock (or, for ``ANY_TAG``, under all of them).
        """
        if tag != ANY_TAG:
            shard = self._shards[self.shard_index(context, tag)]
            with shard.lock:
                return shard.mq.claim_message(context, tag, src_uid)
        with self._all_locked():
            best: Optional[ArrivedMessage] = None
            best_shard: Optional[_MatchShard] = None
            for shard in self._shards:
                msg = shard.mq.find_message(context, tag, src_uid, record=False)
                if msg is not None and (best is None or msg.seqno < best.seqno):
                    best = msg
                    best_shard = shard
            c = self._wc_counters
            if best is None:
                c["probe_misses"] += 1
                return None
            assert best_shard is not None
            q = best_shard.mq._msgs.get((context, tag, src_uid))
            assert q is not None and q[0] is best
            q.popleft()
            best.claimed = True
            c["probe_hits"] += 1
            c["claims"] += 1
            return best

    def wait_message(
        self, context: int, tag: int, src_uid: int
    ) -> ArrivedMessage:
        """Block until a matching message arrives (blocking probe).

        Concrete-tag probes sleep on their shard's ticker, so they are
        woken only by stores into that shard — with sharding on, never
        by other thread pairs' traffic.  ``ANY_TAG`` probes sleep on
        the global ticker, which every store bumps while one is
        registered.

        Lost-wakeup safe by the register-then-scan protocol: the
        waiter count is incremented and the tick sampled *before* the
        scan, so any store the scan misses finds the waiter hint set
        and bumps the tick the wait is watching.
        """
        wakeups = 0
        if tag != ANY_TAG:
            shard = self._shards[self.shard_index(context, tag)]
            with shard.ticker:
                shard.waiters += 1
                shard.probes["blocking_probes"] += 1
                tick = shard.ticks
            try:
                while True:
                    with shard.lock:
                        msg = shard.mq.find_message(context, tag, src_uid)
                    if msg is not None:
                        return msg
                    with shard.ticker:
                        while shard.ticks == tick:
                            shard.ticker.wait()
                        tick = shard.ticks
                    wakeups += 1
            finally:
                with shard.ticker:
                    shard.waiters -= 1
                    _count_wakeups(shard.probes, wakeups)
        with self._ticker:
            self._probe_waiters += 1
            self._wc_probes["blocking_probes"] += 1
            tick = self._ticks
        try:
            while True:
                msg = self.find_message(context, tag, src_uid)
                if msg is not None:
                    return msg
                with self._ticker:
                    while self._ticks == tick:
                        self._ticker.wait()
                    tick = self._ticks
                wakeups += 1
        finally:
            with self._ticker:
                self._probe_waiters -= 1
                _count_wakeups(self._wc_probes, wakeups)

    # ------------------------------------------------------------------
    # introspection (tests, diagnostics, obs)

    @property
    def probe_stats(self) -> dict[str, int]:
        """Blocking-probe wakeup accounting, summed over the shards and
        the ANY_TAG path.  ``futile_wakeups`` counts wakeups whose
        rescan found nothing — the thundering-herd tax a shared ticker
        pays and per-shard tickers mostly eliminate; ``perf/run.py``'s
        traced run reports it per operation."""
        total = _probe_key()
        for shard in self._shards:
            with shard.ticker:
                for k, v in shard.probes.items():
                    total[k] += v
        with self._ticker:
            for k, v in self._wc_probes.items():
                total[k] += v
        return total

    def counters(self) -> dict[str, int]:
        """Aggregated matching counters (shards + wildcard domain)."""
        total = _wc_key()
        for shard in self._shards:
            with shard.lock:
                for k, v in shard.mq.counters.items():
                    total[k] += v
        with self._wc_lock:
            for k, v in self._wc_counters.items():
                total[k] += v
        return total

    def pending_recv_count(self) -> int:
        n = 0
        for shard in self._shards:
            with shard.lock:
                n += shard.mq.pending_recv_count()
        with self._wc_lock:
            n += sum(1 for r in self._wc_recvs if not r.claimed)
        return n

    def unexpected_count(self) -> int:
        n = 0
        for shard in self._shards:
            with shard.lock:
                n += shard.mq.unexpected_count()
        return n

    def iter_unexpected(self) -> Iterator[ArrivedMessage]:
        for shard in self._shards:
            with shard.lock:
                msgs = list(shard.mq.iter_unexpected())
            yield from msgs

    def depths(self) -> list[dict[str, int]]:
        """Per-shard queue depths, for ``device.introspect()``."""
        out = []
        for shard in self._shards:
            with shard.lock:
                out.append(
                    {
                        "posted_recvs": shard.mq.pending_recv_count(),
                        "unexpected_messages": shard.mq.unexpected_count(),
                    }
                )
        return out

    def wildcard_depth(self) -> int:
        with self._wc_lock:
            return sum(1 for r in self._wc_recvs if not r.claimed)
