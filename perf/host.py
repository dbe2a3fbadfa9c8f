"""Host facts and the plain baselines ("canaries") — no ``repro`` code.

The canaries are what every ratio in a report is quoted against, and
the noise check: they run before and after the workloads, and a run
whose two readings differ by more than 10 % is marked ``noisy``.  Each
is the best of several batches — the host's own floor, which is the
steadiest thing a short measurement can say about it.
"""

from __future__ import annotations

import gc
import os
import platform
import queue
import socket
import subprocess
import sys
import sysconfig
import threading
import time

import numpy as np

from common import ROOT

#: before/after canary drift above this share marks the run noisy.
NOISY_SHARE = 0.10


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(f"{base}/{index}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{index}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{index}/size") as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def facts() -> dict:
    """Everything about the host and interpreter a reader needs to
    judge whether two runs are comparable.  Nothing here is tuned:
    switch interval and GC thresholds are recorded as found."""
    gil_disabled = bool(sysconfig.get_config_var("Py_GIL_DISABLED"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "python_build": "free-threaded" if gil_disabled else "gil",
        "switch_interval_s": sys.getswitchinterval(),
        "gc_thresholds": list(gc.get_threshold()),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "caches": _cache_sizes(),
        "git_commit": _git_commit(),
        "traffic": "in-process queues (smdev) or host loopback TCP (niodev); no real link",
    }


# ----------------------------------------------------------------------
# canaries


def _queue_handoff_us(rounds: int = 2000, batches: int = 5) -> float:
    """One-way thread-to-thread handoff through a bare ``queue.Queue``."""
    ping: queue.Queue = queue.Queue()
    pong: queue.Queue = queue.Queue()

    def echo() -> None:
        while True:
            item = ping.get()
            if item is None:
                return
            pong.put(item)

    thread = threading.Thread(target=echo, name="canary-echo")
    thread.start()
    per_batch = []
    try:
        for _ in range(batches):
            t0 = time.perf_counter()
            for i in range(rounds):
                ping.put(i)
                pong.get()
            per_batch.append((time.perf_counter() - t0) / rounds / 2 * 1e6)
    finally:
        ping.put(None)
        thread.join()
    return min(per_batch)


def _tcp_rtt_us(nbytes: int = 8, rounds: int = 2000, batches: int = 5) -> float:
    """Round trip of *nbytes* over a bare loopback TCP connection."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def echo() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                data = conn.recv(nbytes)
                if not data:
                    return
                conn.sendall(data)

    thread = threading.Thread(target=echo, name="canary-tcp")
    thread.start()
    payload = bytes(nbytes)
    per_batch = []
    try:
        with socket.create_connection(listener.getsockname()) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(batches):
                t0 = time.perf_counter()
                for _ in range(rounds):
                    conn.sendall(payload)
                    conn.recv(nbytes)
                per_batch.append((time.perf_counter() - t0) / rounds * 1e6)
    finally:
        thread.join()
        listener.close()
    return min(per_batch)


def _memcpy_MBps(nbytes: int = 16 << 20, copies: int = 9) -> float:
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    rates = []
    for _ in range(copies):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(nbytes / (time.perf_counter() - t0) / 1e6)
    return max(rates)


def canaries(scale: float = 1.0) -> dict[str, float]:
    """*scale* shrinks the repetition counts for the smoke test."""
    rounds = max(50, int(2000 * scale))
    return {
        "host.queue_handoff_us": _queue_handoff_us(rounds),
        "host.tcp_rtt_us_8": _tcp_rtt_us(8, rounds),
        "host.memcpy_MBps_16m": _memcpy_MBps(copies=max(3, int(9 * scale))),
    }


def drift(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Relative before/after change of each canary."""
    return {k: abs(after[k] - before[k]) / before[k] for k in before}
