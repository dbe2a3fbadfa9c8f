"""The completed-request queue behind every device's peek().

Devices give each request ``hook=CompletionShards.offer``: a completion
is kept only if a Waitany holds the request or a thread is blocked in
``pop_latest``.  ``tests/unit/test_endpoints.py::TestCompletionShards``
covers the sharded push/pop underneath.
"""

import threading

import pytest

from repro.mpjdev.request import Request, Status
from repro.mpjdev.waitany import WaitAny
from repro.testing import wait_until
from repro.xdev.completion import CompletionShards


def offered(cs, parked=True):
    """A request completing into *cs*, parked in a Waitany if *parked*."""
    request = Request(Request.RECV, hook=cs.offer)
    if parked:
        request.waitany_ref = WaitAny([request])
    return request


class TestCompletedQueue:
    def test_tracked_request_appears_on_completion(self):
        cs = CompletionShards(1)
        req = offered(cs)
        assert len(cs) == 0
        req.complete(Status())
        assert len(cs) == 1
        assert cs.pop_latest(timeout=1) is req

    def test_lifo_order(self):
        cs = CompletionShards(1)
        a, b = offered(cs), offered(cs)
        a.complete(Status())
        b.complete(Status())
        assert cs.pop_latest(timeout=1) is b
        assert cs.pop_latest(timeout=1) is a

    def test_peek_blocks_until_push(self):
        """An unparked completion is kept while a peeker is blocked."""
        cs = CompletionShards(1)
        req = offered(cs, parked=False)
        out = {}

        def peeker():
            out["req"] = cs.pop_latest(timeout=5)

        t = threading.Thread(target=peeker, daemon=True)
        t.start()
        wait_until(lambda: cs.watched, message="peeker blocked")
        req.complete(Status())
        t.join(5)
        assert out["req"] is req

    def test_timeout(self):
        """A completion nobody can ask for is dropped, so peek times out."""
        cs = CompletionShards(1)
        offered(cs, parked=False).complete(Status())
        assert len(cs) == 0 and cs.totals() == [0]
        with pytest.raises(TimeoutError):
            cs.pop_latest(timeout=0.02)

    def test_already_completed_request_tracked(self):
        """offer() judges the request when it is offered, not when it
        completed: a completed request parked since is kept."""
        cs = CompletionShards(1)
        req = Request(Request.SEND)
        req.complete(Status())
        cs.offer(req)
        assert len(cs) == 0
        req.waitany_ref = WaitAny([req])
        cs.offer(req)
        assert cs.pop_latest(timeout=1) is req

    def test_concurrent_producers_consumers(self):
        cs = CompletionShards(2)
        n = 100
        consumed = []

        def producer():
            for _ in range(n):
                offered(cs).complete(Status())

        def consumer():
            for _ in range(n):
                consumed.append(cs.pop_latest(timeout=10))

        threads = [
            threading.Thread(target=producer, daemon=True),
            threading.Thread(target=consumer, daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert len(consumed) == n
        assert len(set(map(id, consumed))) == n
