"""Lock-cheap metrics: counters, gauges, log2-bucketed histograms.

The registry is the cross-layer measurement substrate the ROADMAP's
perf work needs: every device-stack layer (MPI collectives, mpjdev's
Waitany, the protocol engine, the matching queues, the transports, the
buffer pools) reports into one :class:`MetricsRegistry` per device, and
one :meth:`MetricsRegistry.snapshot` call folds them all into a plain
dict — engine protocol counters, matching hit rates, copy/move
accounting (:class:`~repro.buffer.pool.CopyStats` lives *in* the
registry — the single source of truth), and live queue depths.

Design constraints, in order:

* **Cheap when off.** ``REPRO_METRICS=0`` swaps in :class:`NullMetrics`
  whose instruments are shared no-op singletons; instrumented hot paths
  pre-bind instrument references at engine construction, so the
  disabled cost is one no-op method call.  The overhead guard in
  ``tests/obs/test_overhead.py`` compares the two configurations.
* **Exact when on.** Every instrument records under a lock, so
  counters are deterministic under the torture fixtures' seeded
  interleavings — a GIL-racy ``+= 1`` would make the "same seed, same
  counts" assertion flaky by construction.  A registry's histograms
  and CopyStats share its leaf lock, :attr:`MetricsRegistry.lock`: the
  protocol engine records a whole message side in one hold of it.
* **Allocation-free observation.** A histogram observation is one int
  ``bit_length`` and two adds; buckets are a fixed 64-slot list
  (enough for any value below 2**63 — sizes in bytes, latencies in
  microseconds).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Iterable, Optional

from repro.buffer.pool import CopyStats
from repro.xdev.locknames import BOOKKEEPING, new_lock

#: Kill switch: ``REPRO_METRICS=0`` (or ``off``/``false``/``no``)
#: disables instrument recording process-wide (the registry still
#: exists and still owns a live CopyStats — copy accounting is part of
#: the datapath contract, not an optional metric).
METRICS_ENV = "REPRO_METRICS"

_FALSEY = frozenset({"0", "off", "false", "no"})

_NBUCKETS = 64
#: Values from here up share the last bucket.
_TOP = 1 << (_NBUCKETS - 1)


def metrics_enabled() -> bool:
    """True unless ``REPRO_METRICS`` disables recording."""
    return os.environ.get(METRICS_ENV, "").strip().lower() not in _FALSEY


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value: either set explicitly or callback-backed."""

    __slots__ = ("name", "_lock", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], Any]] = None) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: Any = 0
        self._fn = fn

    def set(self, value: Any) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> Any:
        if self._fn is not None:
            try:
                return self._fn()
            except Exception:  # noqa: BLE001 - a dead callback is a 0 gauge
                return None
        with self._lock:
            return self._value


class Histogram:
    """A log2-bucketed distribution of non-negative integers.

    Bucket *i* holds values ``v`` with ``v.bit_length() == i`` — i.e.
    ``2**(i-1) <= v < 2**i`` — and bucket 0 holds zero.  That makes an
    observation branch-free and keeps 64 buckets enough for any byte
    count or microsecond latency this codebase will ever see.
    """

    __slots__ = ("name", "_lock", "_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self._lock = lock if lock is not None else threading.Lock()
        self._buckets = [0] * _NBUCKETS
        self._count = 0
        self._sum = 0
        self._min: float = float("inf")  # reported as 0 until observed
        self._max = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.add(value)

    def add(self, value: float) -> None:
        """:meth:`observe` for a caller already holding the histogram's
        lock (its registry's :attr:`~MetricsRegistry.lock`)."""
        v = int(value)
        if v < 0:
            v = 0
        self._buckets[v.bit_length() if v < _TOP else _NBUCKETS - 1] += 1
        self._count += 1
        self._sum += v
        if v > self._max:
            self._max = v
        if v < self._min:
            self._min = v

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @staticmethod
    def bucket_label(idx: int) -> str:
        return "0" if idx == 0 else f"<{1 << idx}"

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            buckets = {
                self.bucket_label(i): n
                for i, n in enumerate(self._buckets)
                if n
            }
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0,
                "max": self._max,
                "buckets": buckets,
            }


class _NullInstrument:
    """Shared no-op stand-in for Counter/Gauge/Histogram when disabled."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: Any) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    add = observe

    def snapshot(self) -> dict[str, Any]:
        return {"count": 0, "sum": 0, "min": 0, "max": 0, "buckets": {}}


_NULL = _NullInstrument()


def labeled_name(name: str, labels: dict[str, str]) -> str:
    """Render a labeled instrument key, Prometheus-style.

    ``labeled_name("coll.bcast", {"algorithm": "binomial"})`` →
    ``"coll.bcast{algorithm=binomial}"``.  Labels sort by key so the
    same label set always yields the same instrument.
    """
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Per-device instrument registry + snapshot assembler.

    ``attach(name, fn)`` registers a *section callback* — a zero-arg
    callable returning a dict folded into :meth:`snapshot` under
    *name*.  The engine uses this to surface its protocol ``stats``,
    the matching queues' hit counters, and live queue depths without
    the registry holding references into engine internals.
    """

    enabled = True

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._lock = threading.Lock()
        #: The leaf lock the histograms and the CopyStats record under
        #: (see the module docstring).
        self.lock = new_lock(BOOKKEEPING)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sections: dict[str, Callable[[], Any]] = {}
        #: The device's datapath copy/move accounting — owned here so
        #: trace summaries, bench cells and metrics snapshots all read
        #: the same object (see docs/performance.md).
        self.copy_stats = CopyStats(self.lock)

    # -- instrument factories (get-or-create) --------------------------

    def counter(
        self, name: str, labels: Optional[dict[str, str]] = None
    ) -> Counter:
        if labels:
            name = labeled_name(name, labels)
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def adopt(self, counter: Counter) -> None:
        """Report an owner's own *counter* under its name — for counts
        that must stay exact even when the registry is a NullMetrics."""
        with self._lock:
            self._counters[counter.name] = counter

    def gauge(self, name: str, fn: Optional[Callable[[], Any]] = None) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name, fn)
            return g

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name, self.lock)
            return h

    def attach(self, name: str, fn: Callable[[], Any]) -> None:
        """Fold ``fn()`` into every snapshot under *name*."""
        with self._lock:
            self._sections[name] = fn

    # -- reading --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            counters = {n: c.value for n, c in sorted(self._counters.items())}
            gauges = {n: g.value for n, g in sorted(self._gauges.items())}
            histograms = {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            }
            sections = list(self._sections.items())
        out: dict[str, Any] = {
            "label": self.label,
            "enabled": True,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "copy": self.copy_stats.snapshot(),
        }
        for name, fn in sections:
            try:
                out[name] = fn()
            except Exception as exc:  # noqa: BLE001 - section != crash
                out[name] = {"error": repr(exc)}
        return out


class NullMetrics(MetricsRegistry):
    """Disabled registry: instruments are shared no-ops, snapshot is flat.

    Still owns a real :class:`CopyStats` — the zero-copy datapath's
    accounting (asserted by tests, surfaced in BENCH files) is not
    optional instrumentation.
    """

    enabled = False

    def counter(self, name, labels=None):  # type: ignore[override]
        return _NULL

    def gauge(self, name, fn=None):  # type: ignore[override]
        return _NULL

    def histogram(self, name: str) -> Histogram:  # type: ignore[override]
        return _NULL  # type: ignore[return-value]

    def attach(self, name: str, fn: Callable[[], Any]) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "enabled": False,
            "copy": self.copy_stats.snapshot(),
        }


def make_registry(label: str = "") -> MetricsRegistry:
    """A registry honouring the ``REPRO_METRICS`` kill switch."""
    return MetricsRegistry(label) if metrics_enabled() else NullMetrics(label)


def merge_snapshots(snaps: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold several :meth:`MetricsRegistry.snapshot` dicts into one.

    Numbers sum (``min``/``max`` keys take min/max instead); nested
    dicts merge recursively; non-numeric scalars keep the first value
    seen.  Used by the bench to combine both ranks of a cell and by
    the merge CLI to aggregate per-rank metrics dumps.
    """
    merged: dict[str, Any] = {}
    for snap in snaps:
        if snap:
            _merge_into(merged, snap)
    return merged


def _merge_into(dst: dict[str, Any], src: dict[str, Any]) -> None:
    for key, value in src.items():
        if key not in dst:
            if isinstance(value, dict):
                dst[key] = {}
                _merge_into(dst[key], value)
            else:
                dst[key] = value
            continue
        old = dst[key]
        if isinstance(old, dict) and isinstance(value, dict):
            _merge_into(old, value)
        elif isinstance(old, bool) or isinstance(value, bool):
            dst[key] = old or value
        elif isinstance(old, (int, float)) and isinstance(value, (int, float)):
            if key == "min":
                dst[key] = min(old, value)
            elif key == "max":
                dst[key] = max(old, value)
            else:
                dst[key] = old + value
        # else: keep the first scalar (labels, strings)
