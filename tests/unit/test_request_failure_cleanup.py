"""Failure-path resource hygiene for MPI-level requests.

When the device flips a request with ``Request.fail``, the MPI-layer
finisher — which normally returns the packed message to its pool —
never runs.  ``MPIRequest`` therefore carries a *cleanup* callable
that must run exactly once on the failure path, and never on a
timeout (the buffer is still in flight) or after a successful finish.
"""

import numpy as np
import pytest

from repro import mpi
from repro.mpi.request import MPIRequest
from repro.mpi.status import MPIStatus
from repro.mpjdev.request import Request, RequestFailedError
from repro.mpjdev.request import Status as DevStatus
from repro.runtime.launcher import run_spmd


class _FakeInner:
    """Stand-in RankRequest with scriptable wait/test behaviour."""

    def __init__(self, behaviour: str) -> None:
        self.behaviour = behaviour  # "fail" | "timeout" | "done"

    @property
    def done(self) -> bool:
        return self.behaviour == "done"

    def wait(self, timeout=None):
        if self.behaviour == "fail":
            raise RequestFailedError("injected failure")
        if self.behaviour == "timeout":
            raise TimeoutError("injected timeout")
        return DevStatus()

    def test(self):
        if self.behaviour == "fail":
            raise RequestFailedError("injected failure")
        if self.behaviour == "timeout":
            return None
        return DevStatus()


class _Counter:
    def __init__(self) -> None:
        self.calls = 0

    def __call__(self) -> None:
        self.calls += 1


class TestCleanupSemantics:
    def test_wait_on_failed_request_runs_cleanup_once(self):
        cleanup = _Counter()
        req = MPIRequest(_FakeInner("fail"), lambda s: MPIStatus(s), cleanup=cleanup)
        with pytest.raises(RequestFailedError):
            req.wait(timeout=1)
        assert cleanup.calls == 1
        # Re-waiting re-raises but must not release the buffer twice.
        with pytest.raises(RequestFailedError):
            req.wait(timeout=1)
        with pytest.raises(RequestFailedError):
            req.test()
        assert cleanup.calls == 1

    def test_test_on_failed_request_runs_cleanup_once(self):
        cleanup = _Counter()
        req = MPIRequest(_FakeInner("fail"), lambda s: MPIStatus(s), cleanup=cleanup)
        with pytest.raises(RequestFailedError):
            req.test()
        assert cleanup.calls == 1

    def test_timeout_does_not_run_cleanup(self):
        cleanup = _Counter()
        req = MPIRequest(_FakeInner("timeout"), lambda s: MPIStatus(s), cleanup=cleanup)
        with pytest.raises(TimeoutError):
            req.wait(timeout=0.01)
        assert req.test() is None
        assert cleanup.calls == 0, "a timed-out request's buffer is still in flight"

    def test_success_does_not_run_cleanup(self):
        cleanup = _Counter()
        req = MPIRequest(_FakeInner("done"), lambda s: MPIStatus(s), cleanup=cleanup)
        assert req.wait(timeout=1) is not None
        assert cleanup.calls == 0, "the finisher owns the buffer on success"


class TestPoolBalanceOnFailure:
    def test_failed_irecv_returns_message_to_pool(self):
        """Regression: a recv whose device request fails must release
        its pooled message (the finisher that normally frees it never
        runs)."""

        def main(env):
            comm = env.COMM_WORLD
            if comm.rank() == 0:
                pool = comm._pool
                before = pool.outstanding
                # A strided array: the window gate declines it, so the
                # receive packs through a pooled message.
                buf = np.zeros(8, dtype=np.int32)[::2]
                req = comm.Irecv(buf, 0, 4, mpi.INT, 1, 7)
                assert pool.outstanding > before, "Irecv should hold a pooled message"
                dev_req = req.inner.inner
                assert isinstance(dev_req, Request)
                dev_req.fail(RuntimeError("injected: peer declared dead"))
                with pytest.raises(RequestFailedError):
                    req.wait(timeout=5)
                assert pool.outstanding == before, (
                    "failed Irecv leaked its pooled message"
                )
            return True

        assert all(run_spmd(main, 2, timeout=60))

    def test_failed_object_irecv_returns_message_to_pool(self):
        def main(env):
            comm = env.COMM_WORLD
            if comm.rank() == 0:
                pool = comm._pool
                before = pool.outstanding
                req = comm.irecv(source=1, tag=3)
                assert pool.outstanding > before
                req.inner.inner.fail(RuntimeError("injected"))
                with pytest.raises(RequestFailedError):
                    req.wait(timeout=5)
                assert pool.outstanding == before, (
                    "failed object irecv leaked its pooled message"
                )
            return True

        assert all(run_spmd(main, 2, timeout=60))
