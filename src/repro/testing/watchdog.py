"""Deadlock diagnostics: lock-order tracking and a progress watchdog.

Two cooperating tools for the question every hang raises — *what is
everyone waiting on?*

:class:`LockGraph` records the locks :mod:`repro.xdev.locknames` makes
inside ``locknames.recording(graph)`` (all nine lock classes, paper
Section IV-A) as instrumented locks, so every acquisition is checked
against the global lock-order graph.  A cycle in that graph is
a potential deadlock even if this run got lucky; violations are
recorded with both threads' held-lock stacks.

:class:`ProgressWatchdog` watches a set of engines and fires when
outstanding work exists but no request has completed within a budget.
Its report is trace-integrated: give it the job's
:class:`~repro.obs.tracing.TracingDevice` wrappers and the dump includes
the stalled operations (:func:`repro.obs.introspect.pending_operations`)
next to the engine-side pending sets.

Usage::

    graph = LockGraph()
    with locknames.recording(graph):
        devices = ...  # build the job inside the block
        with ProgressWatchdog([d.engine for d in devices], budget_s=2.0) as dog:
            ...  # run the workload
    assert not graph.violations and not dog.stalls
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Sequence

from repro.obs.introspect import pending_operations, write_stall_file
from repro.xdev.exceptions import XDevException


class LockOrderViolation:
    """A lock acquisition that closes a cycle in the lock-order graph."""

    def __init__(
        self, thread: str, acquiring: str, held: tuple[str, ...], cycle: list[str]
    ) -> None:
        self.thread = thread
        self.acquiring = acquiring
        self.held = held
        self.cycle = cycle

    def __repr__(self) -> str:
        return (
            f"LockOrderViolation(thread={self.thread!r}, "
            f"acquiring={self.acquiring!r} while holding {self.held}, "
            f"cycle={' -> '.join(self.cycle)})"
        )


class LockGraph:
    """Global acquired-before graph over named locks (``recv-shard2``:
    one node for that lock of every rank in the job)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: dict[str, set[str]] = {}
        self._local = threading.local()
        self.violations: list[LockOrderViolation] = []

    # ------------------------------------------------------------------

    def _held(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _find_path(self, start: str, goal: str) -> Optional[list[str]]:
        """DFS for a path start -> ... -> goal in the edge graph."""
        seen = {start}
        frontier = [(start, [start])]
        while frontier:
            node, path = frontier.pop()
            if node == goal:
                return path
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, path + [nxt]))
        return None

    def before_acquire(self, name: str) -> None:
        """Record held->name edges; detect any cycle they close."""
        held = self._held()
        if not held:
            return
        with self._lock:
            for h in held:
                if h == name:
                    continue
                # A cycle exists if name already reaches h.
                path = self._find_path(name, h)
                if path is not None:
                    self.violations.append(
                        LockOrderViolation(
                            threading.current_thread().name,
                            name,
                            tuple(held),
                            path + [name],
                        )
                    )
                self._edges.setdefault(h, set()).add(name)

    def on_acquired(self, name: str) -> None:
        self._held().append(name)

    def on_released(self, name: str) -> None:
        held = self._held()
        # Remove the most recent occurrence (locks may be released
        # out of LIFO order — the engine takes its two set locks
        # sequentially, never nested, and this must not confuse us).
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return

    def lock(self, name: str) -> "InstrumentedLock":
        """The recorder hook :func:`repro.xdev.locknames.new_lock` calls."""
        return InstrumentedLock(self, name)

    # ------------------------------------------------------------------

    def edges(self) -> dict[str, set[str]]:
        with self._lock:
            return {k: set(v) for k, v in self._edges.items()}

    def summary(self) -> dict[str, Any]:
        with self._lock:
            return {
                "locks": sorted(
                    set(self._edges) | {e for v in self._edges.values() for e in v}
                ),
                "edges": sorted(
                    (a, b) for a, v in self._edges.items() for b in v
                ),
                "violations": [repr(v) for v in self.violations],
            }


class InstrumentedLock:
    """A ``threading.Lock`` that reports to a :class:`LockGraph`.

    Implements ``_is_owned`` so it can back a ``threading.Condition``
    (``locknames.new_condition`` builds its conditions on one).
    """

    def __init__(self, graph: LockGraph, name: str) -> None:
        self._graph = graph
        self.name = name
        self._inner = threading.Lock()
        self._owner: Optional[int] = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._graph.before_acquire(self.name)
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._owner = threading.get_ident()
            self._graph.on_acquired(self.name)
        return got

    def release(self) -> None:
        self._owner = None
        self._graph.on_released(self.name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InstrumentedLock({self.name!r}, locked={self.locked()})"


class ProgressWatchdog:
    """Fires when outstanding work makes no progress within a budget.

    Progress is the engines' monotonically increasing ``completions``
    counter; outstanding work is any pending receive, pending
    rendezvous send, or unexpected message.  The budget is therefore
    virtual: an idle engine (nothing outstanding) never trips it, and
    a slow-but-moving run resets it on every completion.
    """

    def __init__(
        self,
        engines: Sequence[Any],
        budget_s: float = 5.0,
        poll_s: float = 0.02,
        tracers: Sequence[Any] = (),
        graph: Optional[LockGraph] = None,
        on_stall: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.engines = list(engines)
        self.budget_s = budget_s
        self.poll_s = poll_s
        self.tracers = list(tracers)
        self.graph = graph
        self.on_stall = on_stall
        self.stalls: list[dict] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    def _completions(self) -> int:
        return sum(e.stats["completions"] for e in self.engines)

    def _outstanding(self) -> bool:
        for e in self.engines:
            if e.pending_recv_count() or e.unexpected_count():
                return True
            if e.pending_send_count() or e.rendezvous_recv_count():
                return True
        return False

    def report(self) -> dict:
        """Snapshot of everything a deadlock triage needs."""
        per_engine = []
        for e in self.engines:
            per_engine.append(
                {
                    "rank": e.my_pid.uid,
                    "pending_recvs": e.pending_recv_count(),
                    "unexpected_messages": e.unexpected_count(),
                    "pending_sends": e.pending_send_count(),
                    "rendezvous_recvs": e.rendezvous_recv_count(),
                    "stats": dict(e.stats),
                }
            )
        return {
            "completions": self._completions(),
            "engines": per_engine,
            "stalled_operations": pending_operations(self.tracers),
            "locks": self.graph.summary() if self.graph is not None else None,
        }

    # ------------------------------------------------------------------

    @staticmethod
    def _write_stall_file(stall: dict) -> None:
        """Persist the stall report next to the traces (if tracing is on)."""
        try:
            write_stall_file(stall)
        except Exception:  # noqa: BLE001 - diagnostics must not kill the dog
            pass

    def _run(self) -> None:
        last = self._completions()
        last_change = time.monotonic()
        while not self._stop.wait(self.poll_s):
            now = time.monotonic()
            current = self._completions()
            if current != last:
                last, last_change = current, now
                continue
            if not self._outstanding():
                last_change = now
                continue
            if now - last_change >= self.budget_s:
                stall = self.report()
                stall["stuck_for_s"] = round(now - last_change, 3)
                self.stalls.append(stall)
                self._write_stall_file(stall)
                if self.on_stall is not None:
                    self.on_stall(stall)
                else:  # pragma: no cover - interactive aid
                    print(f"[watchdog] stuck progress: {stall}")
                last_change = now  # re-arm rather than spam

    def start(self) -> "ProgressWatchdog":
        if self._thread is not None:
            raise XDevException("watchdog already started")
        self._thread = threading.Thread(
            target=self._run, name="progress-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ProgressWatchdog":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
