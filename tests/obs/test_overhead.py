"""Overhead guard: tracing off, metrics instrumentation must stay cheap.

Local target is <5% on the quick ping-pong (documented in
docs/observability.md); the hard CI bound is deliberately looser
(1.5x) because single-process timing on shared runners sees multi-x
noise.  The number is printed so a regression is visible in the log
long before it trips the bound.
"""

import threading
import time

import numpy as np

from repro.buffer import Buffer
from tests.conftest import make_job

ITERS = 300
TRIALS = 3


def _pingpong(devices, pids, iters):
    payload = np.zeros(64, dtype=np.uint8)

    def responder():
        for _ in range(iters):
            devices[1].recv(Buffer(), pids[0], 1, 0)
            buf = Buffer(capacity=128)
            buf.write(payload)
            devices[1].send(buf, pids[0], 2, 0)

    t = threading.Thread(target=responder)
    t.start()
    t0 = time.perf_counter()
    for _ in range(iters):
        buf = Buffer(capacity=128)
        buf.write(payload)
        devices[0].send(buf, pids[1], 1, 0)
        devices[0].recv(Buffer(), pids[1], 2, 0)
    elapsed = time.perf_counter() - t0
    t.join(60)
    return elapsed


def _trial(monkeypatch, metrics_value):
    """One timed ping-pong on a fresh smdev job, after a warm-up."""
    if metrics_value is None:
        monkeypatch.delenv("REPRO_METRICS", raising=False)
    else:
        monkeypatch.setenv("REPRO_METRICS", metrics_value)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    devices, pids = make_job("smdev", 2)
    try:
        _pingpong(devices, pids, ITERS // 10)  # warmup
        return _pingpong(devices, pids, ITERS)
    finally:
        for d in devices:
            d.finish()


class TestOverhead:
    def test_metrics_on_vs_off(self, monkeypatch):
        # Off and on trials alternate, so load that drifts during the
        # test lands on both sides; the best of each is compared.
        t_off = t_on = float("inf")
        for _ in range(TRIALS):
            t_off = min(t_off, _trial(monkeypatch, "0"))
            t_on = min(t_on, _trial(monkeypatch, None))
        ratio = t_on / t_off
        print(
            f"\nmetrics-on/off pingpong ratio: {ratio:.3f} "
            f"(on={t_on * 1e3:.1f}ms off={t_off * 1e3:.1f}ms, "
            f"local target <1.05)"
        )
        # Hard bound, deliberately lenient for noisy CI runners.
        assert ratio < 1.5, (
            f"metrics instrumentation overhead too high: {ratio:.2f}x"
        )

    def test_null_registry_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        devices, _pids = make_job("smdev", 2)
        try:
            assert devices[0].metrics.enabled is False
            snap = devices[0].metrics.snapshot()
            assert snap["enabled"] is False
        finally:
            for d in devices:
                d.finish()
