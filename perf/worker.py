"""One workload in one subprocess — launched by ``run.py``, not by hand.

Runs the workload as *rounds* of fresh jobs (``run_spmd`` bring-up,
first barrier, one warm-up trial, then the timed trials), audits FDs,
threads and pools after every round, and prints one JSON document on
its last line.  With ``--trace 1`` the same rounds alternate plain and
span-recording trials and bracket every trial with the program's own
public counters, then the peel and the stand-alone layer timings run
(``layers.py``).

The amount of work is fixed by ``(--seconds, --rounds)`` and the
workload table alone — never by how fast this commit happens to be —
so two commits run the same operations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
import time

from common import ROOT, cell, load_contract, median, percentile, scalar

now = time.perf_counter

def plan(wl, seconds: float, rounds: int) -> tuple[int, int]:
    """(trials per round, ops per trial) for a timed budget of *seconds*.

    Whole trials while they fit; below one trial per round the trial
    itself shrinks (the smoke test)."""
    trial_s = wl.ops_per_trial * wl.nominal_op_us / 1e6
    per_round = seconds / rounds
    if per_round >= trial_s:
        return max(1, round(per_round / trial_s)), wl.ops_per_trial
    ops = int(wl.ops_per_trial * per_round / trial_s) // wl.granule * wl.granule
    return 1, max(wl.granule, ops)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _counters(env) -> dict[str, float]:
    """The program's public counters this benchmark reads, flattened."""
    snap = env.device.metrics.snapshot()
    hist, engine, matching = snap["histograms"], snap["engine"], snap["matching"]
    out = {
        "eager": engine["eager_sends"],
        "rndz": engine["rendezvous_sends"],
        "completions": engine["completions"],
        "unexpected": engine["unexpected_messages"],
        "lock_wait_us": hist["channel_lock.wait_us"]["sum"],
        "send_latency_us": hist["send.latency_us"]["sum"],
        "sends_timed": hist["send.latency_us"]["count"],
        "recv_latency_us": hist["recv.latency_us"]["sum"],
        "recvs_timed": hist["recv.latency_us"]["count"],
        "sent_bytes": hist["send.eager_bytes"]["sum"] + hist["send.rendezvous_bytes"]["sum"],
        "arrivals": matching["arrivals"],
        "matched_posted": matching["arrivals_matched_posted"],
        "probe_futile": snap["endpoints"]["probe_stats"]["futile_wakeups"],
    }
    out.update(snap["copy"])
    return out


def _net(env) -> dict[str, float]:
    """niodev's connection counters (all zero on smdev)."""
    snap = env.device.metrics.snapshot()
    latency = snap["histograms"].get("net.connect_latency_us", {"sum": 0, "count": 0})
    return {
        "connects": snap["counters"].get("net.connects_total", 0),
        "open": snap["gauges"].get("net.connections_open", 0),
        "latency_sum_us": latency["sum"],
        "latency_n": latency["count"],
    }


def _coll_algorithm(env) -> str | None:
    for key in env.device.metrics.snapshot()["counters"]:
        if key.startswith("coll.allreduce{algorithm="):
            return key.split("=", 1)[1].rstrip("}")
    return None


def _rank_main(env, wl, seed, round_index, ops, ntrials, traced, rec, spans):
    comm = env.COMM_WORLD
    rank = comm.rank()
    if rank == 0:
        rec["entered"] = now()
    st = wl.setup(env, seed)
    comm.Barrier()
    if rank == 0:
        rec["barrier_done"] = now()
    warm = round_index * 1000 + 999
    st.prepare(warm, ops)
    wl.trial(env, st, ops, warm, None)
    bad = st.verify(warm)
    if rank == 0:
        rec["warm_done"] = now()
    for i in range(ntrials):
        trial = round_index * 1000 + i
        tracing = traced and i % 2 == 1
        st.prepare(trial, ops)
        if rank == 0:
            gc.collect()
        comm.Barrier()
        if traced:
            before = _counters(env)
        if rank == 0:
            rec["threads_peak"] = max(rec["threads_peak"], threading.active_count())
            cpu0, t0 = _cpu_s(), now()
        samples = wl.trial(env, st, ops, trial, spans if tracing else None)
        if rank == 0:
            wall, cpu = now() - t0, _cpu_s() - cpu0
            rec["trials"].append(
                {"wall_s": wall, "cpu_s": cpu, "samples": samples, "traced": tracing}
            )
        if traced:
            # No barrier before this reading: its messages would land
            # in the window.  A rank's own counters are settled when
            # its trial returns — every message it was sent has been
            # consumed by one of its blocking calls.
            after = _counters(env)
            rec["counter_deltas"].append({k: after[k] - before[k] for k in after})
        bad += st.verify(trial)
    comm.Barrier()
    if traced and rank == 0:
        rec["net"] = _net(env)
        rec["coll_algorithm"] = _coll_algorithm(env)
    rec["bad"].append(bad)
    if rank == 0:
        rec["left"] = now()
    return env


def run_round(wl, seed, round_index, ops, ntrials, traced, spans) -> dict:
    """One fresh job, timed phase by phase and audited afterwards."""
    from repro.runtime.launcher import SpmdError, run_spmd

    rec: dict = {
        "trials": [], "counter_deltas": [], "bad": [], "threads_peak": 0,
        "error": None,
    }
    fds0, threads0 = _open_fds(), threading.active_count()
    called = now()
    envs = []
    try:
        envs = run_spmd(
            _rank_main, wl.nranks, device=wl.device,
            args=(wl, seed, round_index, ops, ntrials, traced, rec, spans),
        )
    except SpmdError as exc:
        rec["error"] = str(exc)[-2000:]
    done = now()
    # input-handler threads finish on their own shortly after finalize
    deadline = now() + 2.0
    while threading.active_count() > threads0 and now() < deadline:
        time.sleep(0.01)
    rec["leaked_threads"] = max(0, threading.active_count() - threads0)
    rec["leaked_fds"] = max(0, _open_fds() - fds0)
    rec["pool_leaks"] = sum(
        env.pool.outstanding + (env.final_metrics or {}).get("raw_pool", {}).get("outstanding", 0)
        for env in envs
    )
    if rec["error"] is None:
        rec["bringup_s"] = rec["entered"] - called
        rec["barrier_s"] = rec["barrier_done"] - rec["entered"]
        rec["warmup_s"] = rec["warm_done"] - rec["barrier_done"]
        rec["teardown_s"] = done - rec["left"]
    return rec


def _write_spans(path: str, spans: list) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op, rank in spans:
            fh.write(json.dumps({
                "name": name, "start_us": round(start * 1e6, 3),
                "end_us": round(end * 1e6, 3), "parent": parent,
                "op": op, "rank": rank,
            }) + "\n")


def per_trial(trials: list[dict], ops: int, payload_bytes: int) -> dict[str, list[float]]:
    """One value per trial for each timing statistic."""
    rows: dict[str, list[float]] = {"p50": [], "p90": [], "rate": [], "mbps": [], "cpu": []}
    for t in trials:
        ordered = sorted(t["samples"])
        rows["p50"].append(percentile(ordered, 50) * 1e6)
        rows["p90"].append(percentile(ordered, 90) * 1e6)
        rows["rate"].append(ops / t["wall_s"])
        rows["mbps"].append(ops * payload_bytes / t["wall_s"] / 1e6)
        rows["cpu"].append(t["cpu_s"] * 1e6 / ops)
    return rows


def end_to_end(plain: dict[str, list[float]]) -> dict[str, dict]:
    """The end-to-end cells this process can make; ``run.py`` adds
    ``setup_s`` from the round timings and its import samples."""
    return {
        "op_us_p50": cell(plain["p50"], "us", "lower"),
        "op_us_p90": cell(plain["p90"], "us", "lower"),
        "ops_per_s": cell(plain["rate"], "1/s", "higher"),
        "payload_MBps": cell(plain["mbps"], "MB/s", "higher"),
        "cpu_us_per_op": cell(plain["cpu"], "us", "lower"),
        "peak_rss_mb": scalar(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, args, rounds: list[dict], n_ops: int, spans: list, doc: dict) -> dict[str, float]:
    """Counters of the traced rounds, then the peel and the stand-alone
    timings (``layers.py``).  Adds the peel's verdict and detail to *doc*."""
    import layers

    # Peel: a third of the budget (0.15 s at least, two round trips at
    # least) on the workload's own device at all three depths; the xdev
    # depth alone on the other device gives the transport delta.
    cycle_s = 3 * 2 * wl.message.nominal_oneway_us / 1e6
    iters = max(2, int(max(args.seconds / 3, 0.15) / cycle_s))
    own = layers.peel(wl.message, wl.device, args.seed, iters, layers.DEPTHS, spans)
    other = "niodev" if wl.device == "smdev" else "smdev"
    on = {wl.device: own, other: layers.peel(wl.message, other, args.seed, iters, ("xdev",), [])}
    wrong = on["smdev"]["bad"] + on["niodev"]["bad"]
    doc["failed"] = min(doc["attempted"], doc["failed"] + wrong)
    doc["audit"]["wrong_results"] += wrong
    doc["peel"] = {
        "iterations": iters,
        "oneway_us": {d: median(own["times"][d][0]) / 2 * 1e6 for d in layers.DEPTHS},
    }

    total: dict[str, float] = {}
    for r in rounds:
        for delta in r["counter_deltas"]:
            for k, v in delta.items():
                total[k] = total.get(k, 0) + v
    net = rounds[-1]["net"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = dict(layers.peel_metrics(own, on["smdev"], on["niodev"]))
    # below a full-size run the stand-alone timings shrink in proportion
    out.update(layers.standalone(min(1.0, args.seconds / load_contract()["run_seconds"])))
    out.update({
        "mpi.coll_msgs_per_op": (total["eager"] + total["rndz"]) / n_ops if wl.collective else 0.0,
        "mpi.coll_bytes_per_op": total["sent_bytes"] / n_ops if wl.collective else 0.0,
        "xdev.protocol.eager_per_op": total["eager"] / n_ops,
        "xdev.protocol.rndz_per_op": total["rndz"] / n_ops,
        "xdev.protocol.completions_per_op": total["completions"] / n_ops,
        "xdev.protocol.unexpected_per_op": total["unexpected"] / n_ops,
        "xdev.protocol.lock_wait_us_per_op": total["lock_wait_us"] / n_ops,
        "xdev.protocol.send_latency_us_mean": ratio(total["send_latency_us"], total["sends_timed"]),
        "xdev.protocol.recv_latency_us_mean": ratio(total["recv_latency_us"], total["recvs_timed"]),
        "xdev.matching.matched_posted_ratio": ratio(total["matched_posted"], total["arrivals"]),
        "xdev.matching.probe_futile_per_op": total["probe_futile"] / n_ops,
        "xdev.niodev.connects": net["connects"],
        "xdev.niodev.connections_open": net["open"],
        "xdev.niodev.connect_latency_us": ratio(net["latency_sum_us"], net["latency_n"]),
        "buffer.bytes_copied_per_op": total["bytes_copied"] / n_ops,
        "buffer.copies_per_op": total["copies"] / n_ops,
        "buffer.bytes_moved_per_op": total["bytes_moved"] / n_ops,
        "buffer.pool_hit_ratio": ratio(total["pool_hits"], total["pool_hits"] + total["pool_misses"]),
        "runtime.bringup_s": median(r["bringup_s"] for r in rounds),
        "runtime.warmup_s": median(r["barrier_s"] + r["warmup_s"] for r in rounds),
        "runtime.teardown_s": median(r["teardown_s"] for r in rounds),
        "runtime.threads_peak": max(r["threads_peak"] for r in rounds),
        "runtime.leaked_fds": doc["audit"]["leaked_fds"],
        "runtime.pool_leaks": doc["audit"]["pool_leaks"],
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    t0 = now()
    import repro.mpi  # noqa: F401 - timed: what a user pays before the first call
    import repro.runtime.launcher  # noqa: F401
    import_s = now() - t0

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    # The traced run spends half its budget on the workload (plain and
    # span-recording trials in turn), the rest on the peel.
    ntrials, ops = plan(wl, args.seconds / 2 if traced else args.seconds, args.rounds)
    if traced:
        ntrials = max(2, ntrials + ntrials % 2)
    spans: list = []
    rounds = [
        run_round(wl, args.seed, r, ops, ntrials, traced, spans)
        for r in range(args.rounds)
    ]

    planned = args.rounds * ntrials * ops
    trials = [t for r in rounds for t in r["trials"]]
    completed = len(trials) * ops
    audit = {
        "wrong_results": sum(sum(r["bad"]) for r in rounds),
        "leaked_fds": sum(r["leaked_fds"] for r in rounds),
        "leaked_threads": sum(r["leaked_threads"] for r in rounds),
        "pool_leaks": sum(r["pool_leaks"] for r in rounds),
    }
    doc: dict = {
        "workload": wl.name,
        "plan": {
            "device": wl.device, "ranks": wl.nranks, "rounds": args.rounds,
            "trials_per_round": ntrials, "ops_per_trial": ops,
            "payload_bytes_per_op": wl.payload_bytes,
        },
        "attempted": planned,
        "failed": min(planned, (planned - completed) + sum(audit.values())),
        "errors": [r["error"] for r in rounds if r["error"]],
        "audit": audit,
    }
    good_rounds = [r for r in rounds if r["error"] is None]
    if not good_rounds:
        print(json.dumps(doc))
        return 1

    plain = per_trial([t for t in trials if not t["traced"]], ops, wl.payload_bytes)
    doc["samples_per_trial"] = len(trials[0]["samples"])
    doc["import_s"] = import_s
    doc["setup_rounds_s"] = [r["bringup_s"] + r["barrier_s"] + r["warmup_s"] for r in good_rounds]
    if not traced:
        doc["end_to_end"] = end_to_end(plain)
    else:
        layer = per_layer(wl, args, good_rounds, completed, spans, doc)
        spanned = per_trial([t for t in trials if t["traced"]], ops, wl.payload_bytes)
        layer["runtime.import_s"] = import_s
        layer["obs.bench_trace_overhead_pct"] = (median(spanned["p50"]) / median(plain["p50"]) - 1) * 100
        doc["per_layer"] = layer
        doc["peel"]["plain_trials_op_us_p50"] = median(plain["p50"])
        doc["labels"] = {"mpi.coll_algorithm": good_rounds[-1]["coll_algorithm"]}
        if args.spans:
            _write_spans(args.spans, spans)
            doc["spans"] = {"file": os.path.relpath(args.spans, ROOT), "count": len(spans)}
    print(json.dumps(doc))
    return 0 if doc["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
