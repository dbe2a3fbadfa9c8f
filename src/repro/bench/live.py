"""Live ping-pong benchmark over the real devices (not netsim).

Measures what the zero-copy datapath actually changed: one-way latency
and throughput of a two-rank ping-pong over smdev and niodev, plus the
engines' :class:`~repro.buffer.pool.CopyStats` for the timed window —
how many payload bytes were *copied* (staged through temporary
storage) versus *moved* (placed straight into their final
destination).  ``python -m repro.bench --json`` emits the results as
JSON; the committed ``BENCH_pingpong.json`` at the repo root is one
such run with the pre-change baseline embedded for comparison.

Methodology: each timed iteration sends ``nbytes`` of contiguous
payload rank0→rank1 and back; one-way latency is wall-clock over
``2 * iterations``, best of three trials; throughput is
``nbytes / latency``, in MB/s with MB = 1e6 bytes.  Copy counters are
reset before each trial, so they cover exactly the reported trial's
timed window.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

import numpy as np

from repro.buffer import Buffer

#: Message sizes for the standard sweep: 1 B to 16 MB.
DEFAULT_SIZES = [1, 8, 1024, 64 * 1024, 1 << 20, 16 << 20]

#: Devices the live bench exercises.
DEFAULT_DEVICES = ["smdev", "niodev"]

_TAG_PING, _TAG_PONG = 7, 8


def _iters_for(nbytes: int, quick: bool) -> int:
    """Iteration count scaled so every size finishes in sane time."""
    budget = 4 << 20 if quick else 64 << 20
    iters = max(1, budget // max(nbytes, 1))
    return min(iters, 20 if quick else 200)


def _make_job(device: str, nprocs: int) -> tuple[list[Any], list[Any]]:
    """Stand up an in-process job (same wiring the test suite uses)."""
    from repro.runtime.launcher import _make_fabric
    from repro.xdev import new_instance
    from repro.xdev.device import DeviceConfig

    fabric, nio = _make_fabric(device, nprocs)
    devices = [new_instance(device) for _ in range(nprocs)]
    pids_out: list = [None] * nprocs
    errors: list = []

    def init_one(rank: int) -> None:
        try:
            if nio is not None:
                addrs, socks = nio
                config = DeviceConfig(
                    rank=rank,
                    nprocs=nprocs,
                    peers=addrs,
                    options={"listen_socket": socks[rank]},
                )
            else:
                config = DeviceConfig(rank=rank, nprocs=nprocs, fabric=fabric)
            pids_out[rank] = devices[rank].init(config)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((rank, exc))

    threads = [threading.Thread(target=init_one, args=(r,)) for r in range(nprocs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise RuntimeError(f"device init failed: {errors}")
    return devices, pids_out[0]


def _pingpong_loop(dev, peer, payload, iters: int, initiator: bool) -> None:
    send_tag, recv_tag = (
        (_TAG_PING, _TAG_PONG) if initiator else (_TAG_PONG, _TAG_PING)
    )
    for _ in range(iters):
        if initiator:
            sbuf = Buffer()
            sbuf.write(payload)
            dev.send(sbuf, peer, send_tag, 0)
            dev.recv(Buffer(), peer, recv_tag, 0)
        else:
            dev.recv(Buffer(), peer, recv_tag, 0)
            sbuf = Buffer()
            sbuf.write(payload)
            dev.send(sbuf, peer, send_tag, 0)


def measure_pingpong(
    device: str, nbytes: int, iters: int, warmup: int = 2
) -> dict[str, Any]:
    """One (device, size) cell: latency, throughput, copy counters."""
    devices, pids = _make_job(device, 2)
    try:
        payload = np.zeros(max(nbytes, 1), dtype=np.uint8)[:nbytes]

        def run(n: int) -> float:
            t1 = threading.Thread(
                target=_pingpong_loop, args=(devices[1], pids[0], payload, n, False)
            )
            t1.start()
            t0 = time.perf_counter()
            _pingpong_loop(devices[0], pids[1], payload, n, True)
            elapsed = time.perf_counter() - t0
            t1.join()
            return elapsed

        run(warmup)
        # Best of three timed trials: one-process benchmarks on a
        # shared machine see multi-x run-to-run noise, and the minimum
        # is the standard low-variance latency estimator.
        elapsed = None
        combined: dict[str, int] = {}
        for _ in range(3):
            for d in devices:
                d.engine.copy_stats.reset()
            trial = run(iters)
            if elapsed is None or trial < elapsed:
                elapsed = trial
                stats = [d.engine.copy_stats.snapshot() for d in devices]
                combined = {k: stats[0][k] + stats[1][k] for k in stats[0]}
        latency_s = elapsed / (2 * iters)
        cell: dict[str, Any] = {
            "latency_us": round(latency_s * 1e6, 2),
            "throughput_MBps": round(nbytes / latency_s / 1e6, 2)
            if nbytes
            else 0.0,
            "iterations": iters,
            "copy_stats": combined,
        }
        # Both ranks' metric registries, merged (repro.obs).  Unlike
        # copy_stats these cover the whole cell, warmup included.
        from repro.obs.metrics import merge_snapshots

        snaps = [d.engine.metrics.snapshot() for d in devices]
        if all(s.get("enabled") for s in snaps):
            cell["metrics"] = merge_snapshots(snaps)
        return cell
    finally:
        for d in devices:
            d.finish()


def run_live_bench(
    devices: Optional[list[str]] = None,
    sizes: Optional[list[int]] = None,
    quick: bool = False,
    baseline: Optional[dict] = None,
    progress=None,
) -> dict[str, Any]:
    """The full sweep, as the JSON-ready result dict."""
    devices = devices or list(DEFAULT_DEVICES)
    sizes = sizes or list(DEFAULT_SIZES)
    out: dict[str, Any] = {
        "benchmark": "pingpong",
        "generated_by": "python -m repro.bench --json",
        "methodology": (
            "one-way latency = wall clock / (2 * iterations), best of "
            "3 trials; throughput MB/s with MB = 1e6 bytes; copy_stats "
            "cover the best trial's timed window only (both ranks summed)"
        ),
        "sizes": sizes,
        "devices": {},
    }
    for device in devices:
        cells: dict[str, Any] = {}
        for nbytes in sizes:
            if progress is not None:
                progress(f"{device} {nbytes}B")
            cells[str(nbytes)] = measure_pingpong(
                device, nbytes, _iters_for(nbytes, quick)
            )
        out["devices"][device] = cells
    if baseline is not None:
        out["pre_change"] = baseline
        out["comparison"] = _compare(out["devices"], baseline)
    return out


def _compare(results: dict, baseline: dict) -> dict[str, Any]:
    """Throughput deltas vs. the pre-change baseline, where comparable."""
    deltas: dict[str, Any] = {}
    for device, cells in results.items():
        base_cells = baseline.get(device, {})
        for size, cell in cells.items():
            base = base_cells.get(size)
            if not base or not base.get("throughput_MBps"):
                continue
            new_tp = cell["throughput_MBps"]
            old_tp = base["throughput_MBps"]
            deltas[f"{device}/{size}B"] = {
                "throughput_MBps_before": old_tp,
                "throughput_MBps_after": new_tp,
                "improvement_pct": round((new_tp - old_tp) / old_tp * 100, 1),
            }
    return deltas
