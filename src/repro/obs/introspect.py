"""Stall snapshots: pending operations with ages, on demand or on signal.

This is the promoted form of the PR-1 watchdog's triage dump: one
function that gathers, from any mix of plain and traced devices, everything
a hang post-mortem needs — live queue depths (``device.introspect()``),
engine protocol counters, and every pending traced operation with its
age.  :class:`~repro.testing.watchdog.ProgressWatchdog` calls it on a
stall (and writes it into the ``REPRO_TRACE`` directory when tracing
is on); :func:`install_stall_handler` wires it to SIGUSR1 so a hung
run can be interrogated from outside without killing it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.obs.tracing import write_json


def pending_operations(
    devices: Sequence[Any], min_age_s: float = 0.0
) -> list[dict[str, Any]]:
    """Pending operations older than *min_age_s*, with ages.

    Every device in *devices* that has ``detect_stalled`` (a
    :class:`~repro.obs.tracing.TracingDevice`) contributes; ``rank``
    is the device's index in *devices*.
    """
    ops: list[dict[str, Any]] = []
    for rank, dev in enumerate(devices):
        detect = getattr(dev, "detect_stalled", None)
        if detect is None:
            continue
        now = dev.clock()
        ops += [
            {"rank": rank, "op": r["ev"].split(".")[1], "peer": r.get("peer"),
             "tag": r.get("tag"), "context": r.get("ctx"), "posted_at": r["t"],
             "age_s": round(now - r["t"], 6)}
            for r in detect(min_age_s=min_age_s)
        ]
    return ops


def stall_snapshot(
    devices: Sequence[Any] = (),
    min_age_s: float = 0.0,
) -> dict[str, Any]:
    """Snapshot pending work across *devices*.

    ``devices`` are anything with ``introspect()`` (queue depths) —
    engine stats ride along inside that dict.  Traced devices also
    list their pending operations (:func:`pending_operations`).
    """
    snap: dict[str, Any] = {
        "taken_at": time.time(),
        "devices": [],
        "pending_operations": pending_operations(devices, min_age_s),
    }
    for dev in devices:
        introspect = getattr(dev, "introspect", None)
        if introspect is None:
            continue
        try:
            snap["devices"].append(introspect())
        except Exception as exc:  # noqa: BLE001 - a dead device still snapshots
            snap["devices"].append({"error": repr(exc)})
    return snap


def write_stall_file(snapshot: dict[str, Any]) -> Optional[Path]:
    """Persist *snapshot* into the ``REPRO_TRACE`` directory, if set."""
    return write_json(f"stall-p{os.getpid()}-{time.time_ns()}.json", snapshot)


def install_stall_handler(
    devices: Sequence[Any] = (),
    signum: int = getattr(signal, "SIGUSR1", signal.SIGTERM),
    on_snapshot: Optional[Callable[[dict[str, Any]], None]] = None,
) -> Any:
    """Dump a stall snapshot whenever *signum* (default SIGUSR1) arrives.

    The snapshot goes to the ``REPRO_TRACE`` directory when tracing is
    on, else to stderr; *on_snapshot* additionally receives the dict.
    Must be called from the main thread (CPython signal rule).  Returns
    the previous handler so callers can restore it.
    """

    def _handler(_sig, _frame) -> None:
        snap = stall_snapshot(devices=devices)
        path = write_stall_file(snap)
        if path is None:
            print(json.dumps(snap, indent=1, default=repr), file=sys.stderr)
        if on_snapshot is not None:
            on_snapshot(snap)

    return signal.signal(signum, _handler)
