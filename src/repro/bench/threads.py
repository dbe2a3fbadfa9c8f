"""Many-thread message-rate benchmark: the endpoint-scaling proof.

``python -m repro.bench --threads`` drives ``T`` concurrent
sender/receiver thread pairs over a two-rank smdev job twice per
round — once with the endpoint-sharded engine (``endpoints = T``) and
once on the single-endpoint path (``endpoints = 1``, the seed's fully
shared engine) — and reports aggregate messages/second for each.  The
committed ``BENCH_threads.json`` at the repo root is one such run.

Each worker pair owns a tag chosen so its ``route_of(context, tag)``
content hash lands on its own shard: with sharding on, a pair's
traffic touches only its own matching shard, so pairs never contend.
With ``endpoints=1`` the same workload funnels every pair through one
matching lock — the seed's serialization point that the paper's
coarse-grained locking implies.  (smdev's write delivers on the
writing thread and takes no lock of its own, so there is no
write-lock column.)

Methodology (the PR 4 bench discipline):

* **Interleaved trials** — every round times the sharded and the
  single-endpoint configuration back to back on a fresh job each, so
  drift (CPU frequency, page cache, sibling load) hits both equally.
* **Round-paired ratios** — the headline speedup is the *median of
  per-round ratios*, never a ratio of medians from different rounds.
* **Preemptive scheduling** — the timed window runs with the
  interpreter's thread switch interval lowered to 100 µs (restored
  after).  CPython's default 5 ms quantum hides lock convoys that any
  preemptively scheduled runtime — the paper's JVM above all — suffers
  constantly; shortening the quantum makes preemption land inside
  critical sections at realistic rates instead of once per 5 ms.  Both
  configurations run under the same interval, so the comparison stays
  paired.
* Per-op cost is wall clock over the whole flood (all threads joined),
  messages are 8-byte eager payloads in windows of 64 outstanding.
* **A contention metric travels with every trial** — futile probe
  wakeups per message (probers woken by stores that were not for
  them).  On a single-core host the GIL serializes the interpreter work
  either way, so throughput ratios hover near 1.0; the futile-wakeup
  column is the single-core evidence that sharding removed shared
  wake-ups.  See ``docs/performance.md`` for the full analysis.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Optional

import numpy as np

from repro.buffer import Buffer
from repro.xdev.endpoints import route_of

#: Thread counts swept by the committed bench.
DEFAULT_THREADS = [1, 2, 4, 8]

#: Outstanding isend/irecv requests per worker before waiting.
WINDOW = 64

#: The timed flood runs with a 100 µs interpreter switch interval so
#: preemption behaves like a preemptive multicore scheduler's.
SWITCH_INTERVAL_S = 1e-4

_CONTEXT = 0


def _pick_tags(nthreads: int, endpoints: int) -> list[int]:
    """One tag per worker pair, each routed to its own shard.

    Searches tags until worker ``k`` gets ``route % endpoints ==
    k % endpoints`` — with ``endpoints == nthreads`` every pair owns a
    shard outright.
    """
    tags = []
    for k in range(nthreads):
        tag = k * 1000 + 1
        while route_of(_CONTEXT, tag) % endpoints != k % endpoints:
            tag += 1
        tags.append(tag)
    return tags


def _make_smdev_job(endpoints: int) -> tuple[list[Any], list[Any]]:
    """A two-rank smdev job with an explicit endpoint count."""
    from repro.xdev import new_instance
    from repro.xdev.device import DeviceConfig
    from repro.xdev.smdev import SMFabric

    fabric = SMFabric(2, endpoints=endpoints)
    devices = [new_instance("smdev") for _ in range(2)]
    for rank, dev in enumerate(devices):
        dev.init(DeviceConfig(rank=rank, nprocs=2, fabric=fabric))
    return devices, fabric.pids


def _flood_trial(
    endpoints: int, nthreads: int, msgs_per_thread: int, probe: bool = False
) -> dict[str, float]:
    """One timed flood; returns rate plus futile wakeups per message.

    ``probe=True`` switches receivers to the blocking
    probe-then-receive idiom (the variable-size receive pattern):
    ``probe(src, tag)`` then ``recv``.  This is where the shared
    engine's one arrival ticker thunders — every store wakes every
    blocked prober — while per-shard tickers wake only the pair the
    message belongs to.
    """
    devices, pids = _make_smdev_job(endpoints)
    tags = _pick_tags(nthreads, endpoints)
    payload = np.arange(1, dtype=np.int64)
    barrier = threading.Barrier(2 * nthreads + 1)
    errors: list[BaseException] = []

    def sender(t: int) -> None:
        try:
            dev = devices[0]
            dev.engine.bind_endpoint(t % endpoints)
            tag = tags[t]
            barrier.wait()
            done = 0
            while done < msgs_per_thread:
                n = min(WINDOW, msgs_per_thread - done)
                reqs = []
                for _ in range(n):
                    sbuf = Buffer()
                    sbuf.write(payload)
                    reqs.append(dev.isend(sbuf, pids[1], tag, _CONTEXT))
                for r in reqs:
                    r.wait()
                done += n
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def receiver(t: int) -> None:
        try:
            dev = devices[1]
            dev.engine.bind_endpoint(t % endpoints)
            tag = tags[t]
            barrier.wait()
            if probe:
                for _ in range(msgs_per_thread):
                    dev.probe(pids[0], tag, _CONTEXT)
                    dev.recv(Buffer(), pids[0], tag, _CONTEXT)
                return
            done = 0
            while done < msgs_per_thread:
                n = min(WINDOW, msgs_per_thread - done)
                reqs = [
                    (dev.irecv(Buffer(), pids[0], tag, _CONTEXT))
                    for _ in range(n)
                ]
                for r in reqs:
                    r.wait()
                done += n
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=sender, args=(t,), daemon=True)
        for t in range(nthreads)
    ] + [
        threading.Thread(target=receiver, args=(t,), daemon=True)
        for t in range(nthreads)
    ]
    for th in threads:
        th.start()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        barrier.wait()
        t0 = time.perf_counter()
        for th in threads:
            th.join()
        elapsed = time.perf_counter() - t0
        total_msgs = nthreads * msgs_per_thread
        pstats = [dict(d.engine._matcher.probe_stats) for d in devices]
        futile = sum(p["futile_wakeups"] for p in pstats)
    finally:
        sys.setswitchinterval(old_interval)
        for dev in devices:
            dev.finish()
    if errors:
        raise RuntimeError(f"flood worker failed: {errors[0]!r}") from errors[0]
    return {
        "rate_per_s": total_msgs / max(elapsed, 1e-9),
        "futile_wakeups_per_msg": futile / total_msgs,
    }


def run_threads_bench(
    threads_list: Optional[list[int]] = None,
    quick: bool = False,
    rounds: Optional[int] = None,
    msgs_per_thread: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[str, Any]:
    """The full sweep; returns the ``BENCH_threads.json`` payload."""
    threads_list = threads_list or DEFAULT_THREADS
    rounds = rounds if rounds is not None else (3 if quick else 5)
    msgs = msgs_per_thread if msgs_per_thread is not None else (
        400 if quick else 2000
    )
    say = progress or (lambda msg: None)

    def _side(trials: list[dict[str, float]], endpoints: int) -> dict[str, Any]:
        return {
            "endpoints": endpoints,
            "rates_per_s": [round(t["rate_per_s"], 1) for t in trials],
            "median_rate_per_s": round(
                statistics.median(t["rate_per_s"] for t in trials), 1
            ),
            "median_futile_wakeups_per_msg": round(
                statistics.median(t["futile_wakeups_per_msg"] for t in trials),
                4,
            ),
        }

    def _reduction(pairs: list[tuple[float, float]]) -> Optional[float]:
        """Median of single/sharded cost ratios over finite pairs.

        A pair where the sharded side paid zero has no finite ratio —
        both-zero pairs contribute 1.0, single-only-zero pairs are
        dropped (the per-side medians still show the raw costs).
        Returns None when no pair yields a ratio.
        """
        ratios = [
            one / n if n > 0 else 1.0
            for n, one in pairs
            if n > 0 or one == 0
        ]
        return round(statistics.median(ratios), 2) if ratios else None

    modes: dict[str, Any] = {}
    for mode in ("flood", "probe"):
        use_probe = mode == "probe"
        cells: dict[str, Any] = {}
        for nthreads in threads_list:
            sharded_eps = max(nthreads, 2)
            sharded: list[dict[str, float]] = []
            single: list[dict[str, float]] = []
            rate_ratios: list[float] = []
            for rnd in range(rounds):
                trial_n = _flood_trial(
                    sharded_eps, nthreads, msgs, probe=use_probe
                )
                trial_1 = _flood_trial(1, nthreads, msgs, probe=use_probe)
                sharded.append(trial_n)
                single.append(trial_1)
                rate_ratios.append(
                    trial_n["rate_per_s"] / trial_1["rate_per_s"]
                )
                say(
                    f"{mode} threads={nthreads} round {rnd + 1}/{rounds}: "
                    f"sharded={trial_n['rate_per_s']:,.0f}/s "
                    f"single={trial_1['rate_per_s']:,.0f}/s "
                    f"ratio={rate_ratios[-1]:.2f}"
                )
            cell = {
                "sharded": _side(sharded, sharded_eps),
                "single": _side(single, 1),
                "rate_ratios": [round(r, 3) for r in rate_ratios],
                "rate_ratio_median": round(statistics.median(rate_ratios), 3),
            }
            # Contention reduction: how many futile wakeups the
            # single-endpoint engine pays per message relative to the
            # sharded one (paired per round, median of ratios).
            cell["futile_wakeup_reduction"] = _reduction(
                [
                    (
                        n["futile_wakeups_per_msg"],
                        one["futile_wakeups_per_msg"],
                    )
                    for n, one in zip(sharded, single)
                ]
            )
            cells[str(nthreads)] = cell
        modes[mode] = cells

    return {
        "bench": "threads",
        "device": "smdev",
        "cpus": os.cpu_count(),
        "message_bytes": 8,
        "window": WINDOW,
        "msgs_per_thread": msgs,
        "rounds": rounds,
        "switch_interval_s": SWITCH_INTERVAL_S,
        "methodology": (
            "per round: sharded (endpoints=max(T,2), one tag-routed shard "
            "per worker pair) and single-endpoint (endpoints=1) floods on "
            "fresh jobs, interleaved; headline speedups are medians of "
            "per-round paired ratios; 'probe' mode uses blocking "
            "probe-then-recv receivers, 'flood' uses windowed irecv"
        ),
        "limitations": (
            "on a single-core host the GIL serializes the ~90 µs of "
            "interpreter work per message, so aggregate throughput ratios "
            "sit near 1.0 regardless of lock granularity; the sharding win "
            "visible here is the futile-probe-wakeup column (zero sharded), "
            "and matching sharding translates to throughput only on "
            "multicore hosts"
        ),
        "modes": modes,
    }
