#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perf/run.py                         every workload, end to end
    python3 perf/run.py --traced                ... plus the per-layer run
    python3 perf/run.py --workload pp8_sm       one workload
    python3 perf/run.py --workload pp8_sm --seed 7 --seconds 8 --trace 1

Each workload runs in a subprocess of its own (``worker.py``) with every
``REPRO_*`` variable removed, so the library runs on product defaults
(metrics on, tracing off).  Every metric is printed by name with its
unit; the full ``repro-bench-v1`` document goes to ``--out`` (default
``perf/out/``); the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
non-zero on any wrong result, leak or failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import host
from common import OUT_DIR, PERF_DIR, SCHEMA, SRC_DIR, cell, load_contract, median

#: fresh interpreters that time ``import repro`` for ``setup_s``.
IMPORT_SAMPLES = 3
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.mpi, repro.runtime.launcher; "
    "print(time.perf_counter() - t)"
)

METHODOLOGY = {
    "loop": "closed; all load comes from this one process; ranks are threads (run_spmd)",
    "rounds": "each workload: fresh jobs, each 1 warm-up trial + timed trials of a fixed op count",
    "work": "set by --seconds and the workload table, not by the speed of the commit",
    "statistic": "one value per trial; a cell's value is the good-side quartile over all timed "
                 "trials (q1 if lower is better, q3 if higher), with median, quartiles and n beside it",
    "op_us_p90": "the trial's 90th percentile; a whole run holds >= 10 samples beyond it "
                 "on every workload",
    "setup_s": "median fresh-interpreter import of repro + median over rounds of run_spmd "
               "bring-up, first barrier and warm-up trial",
    "interpreter": "no tuning beyond gc.collect() between trials; settings recorded under host",
    "tracing": "end-to-end cells come from runs with benchmark tracing off; the traced run is separate",
}


def scrubbed_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def pin_to_one_cpu() -> dict:
    """One CPU for the whole process tree.  On this kind of VM a wake-up
    that crosses vCPUs costs ~4x one that does not (bare queue handoff
    6 us vs 26 us), and the scheduler flips between the two placements
    from run to run; unpinned, every latency here is bimodal by 2x."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return {"allowed": allowed, "pinned_to": allowed[-1]}


def _import_times(env: dict[str, str]) -> list[float]:
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
            text=True, timeout=120,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise SystemExit("cannot import repro: is src/ beside perf/?")
        times.append(float(out.stdout))
    return times


def run_worker(name: str, args, trace: int, env: dict[str, str]) -> dict:
    """Run one workload in its subprocess; returns its JSON document."""
    spans = OUT_DIR / f"trace-{name}.jsonl"
    cmd = [
        sys.executable, str(PERF_DIR / "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--rounds", str(args.rounds), "--trace", str(trace), "--spans", str(spans),
    ]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out.stderr)
        raise SystemExit(f"worker for {name} produced no result (exit {out.returncode})")
    doc = json.loads(lines[-1])
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
    return doc


def _add_setup(doc: dict, import_times: list[float]) -> None:
    """``setup_s``: median fresh-interpreter import (the worker's own
    reading included) + each round's bring-up, barrier and warm-up."""
    if "end_to_end" in doc:
        imports = median(import_times + [doc["import_s"]])
        doc["end_to_end"]["setup_s"] = cell(
            [imports + s for s in doc["setup_rounds_s"]], "s"
        )


def _print_cells(title: str, cells: dict[str, dict]) -> None:
    print(f"  {title}")
    for name, c in cells.items():
        spread = ""
        if "q1" in c:
            spread = f"  [q1 {c['q1']:.6g}, median {c['median']:.6g}, q3 {c['q3']:.6g}, n={c['n']}]"
        print(f"    {name:<42} {c['value']:>14.6g} {c['unit']}{spread}")


def _headline(workloads: dict, canaries: dict[str, float]) -> dict:
    """ROADMAP's three unexplained numbers as this harness measures
    them — stated, not explained; owners are a later issue's job."""

    def e2e(name: str, metric: str):
        return workloads.get(name, {}).get("end_to_end", {}).get(metric, {}).get("value")

    def layer(name: str, metric: str):
        return workloads.get(name, {}).get("per_layer", {}).get(metric, {}).get("value")

    out: dict = {}
    floor = e2e("pp8_sm", "op_us_p50")
    if floor is not None:
        out["small_message_floor"] = {
            "pp8_sm.op_us_p50": floor,
            "over_host.queue_handoff_us": floor / canaries["host.queue_handoff_us"],
        }
    if e2e("pp16m_nio", "payload_MBps") is not None:
        plan = workloads["pp16m_nio"]["untraced"]["plan"]
        out["large_message_goodput"] = {
            "pp16m_nio.payload_MBps": e2e("pp16m_nio", "payload_MBps"),
            "timed_round_trips": plan["rounds"] * plan["trials_per_round"] * plan["ops_per_trial"] // 2,
            "over_host.memcpy_MBps_16m": e2e("pp16m_nio", "payload_MBps") / canaries["host.memcpy_MBps_16m"],
        }
    if layer("pp8_nio", "xdev.transport_delta_us") is not None:
        out["transport_delta"] = {
            "pp8_nio.xdev.transport_delta_us": layer("pp8_nio", "xdev.transport_delta_us"),
            "pp16m_nio.xdev.transport_delta_us": layer("pp16m_nio", "xdev.transport_delta_us"),
            "pp8_nio-pp8_sm.op_us_p50": (e2e("pp8_nio", "op_us_p50") or 0) - (floor or 0),
        }
    return out


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="timed budget per workload; fixes the amount of work")
    parser.add_argument("--rounds", type=int, default=5, help="fresh jobs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", help="where to write the repro-bench-v1 document")
    args = parser.parse_args()

    affinity = pin_to_one_cpu()
    env = scrubbed_env()
    per_layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    single = args.workload is not None
    # A single-workload run is one mode or the other (what the driver
    # asks for); a full run with --traced does both per workload.
    modes = [args.trace] if single else ([0, 1] if args.trace else [0])

    scale = min(1.0, args.seconds / contract["run_seconds"])
    before = host.canaries(scale)
    import_times = _import_times(env) if 0 in modes else []
    workloads: dict[str, dict] = {}
    for name in [args.workload] if single else names:
        entry = workloads[name] = {
            "why": next(w["why"] for w in contract["workloads"] if w["name"] == name),
            "attempted": 0, "failed": 0,
        }
        print(f"== {name}")
        for mode in modes:
            doc = run_worker(name, args, mode, env)
            _add_setup(doc, import_times)
            entry["attempted"] += doc["attempted"]
            entry["failed"] += doc["failed"]
            entry["traced" if mode else "untraced"] = {
                k: doc[k] for k in ("audit", "errors", "plan", "peel", "spans", "labels",
                                    "samples_per_trial") if k in doc
            }
            if "end_to_end" in doc:
                entry["end_to_end"] = doc["end_to_end"]
                _print_cells("end to end (tracing off)", doc["end_to_end"])
            if "per_layer" in doc:
                doc["per_layer"].update(before)
                entry["per_layer"] = {
                    k: {"value": v, "unit": per_layer_units[k]}
                    for k, v in doc["per_layer"].items()
                }
                _print_cells("per layer (traced run)", entry["per_layer"])
        entry["correct"] = entry["failed"] == 0
        print(f"  attempted {entry['attempted']}  failed {entry['failed']}")
    after = host.canaries(scale)

    drift = host.drift(before, after)
    facts = host.facts()
    facts["affinity"] = affinity
    facts["canaries"] = {"before": before, "after": after, "drift": drift}
    facts["noisy"] = max(drift.values()) > host.NOISY_SHARE
    result = {
        "schema": SCHEMA,
        "benchmark": "perf",
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": args.rounds,
        "host": facts,
        "methodology": METHODOLOGY,
        "headline": _headline(workloads, before),
        "workloads": workloads,
    }
    out_path = args.out or str(
        OUT_DIR / f"run-{args.workload or 'all'}-seed{args.seed}-trace{args.trace}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"host canaries before/after: { {k: (round(before[k], 2), round(after[k], 2)) for k in before} }"
          f"{'  ** noisy run **' if facts['noisy'] else ''}")
    print(f"wrote {out_path}")

    attempted = sum(w["attempted"] for w in workloads.values())
    failed = sum(w["failed"] for w in workloads.values())
    summary: dict = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if single:
        cells = workloads[args.workload].get("per_layer" if args.trace else "end_to_end")
        if cells is None:
            raise SystemExit(f"{args.workload}: no round completed; no result")
        summary["metrics"] = {
            k: {"value": v["value"], "unit": v["unit"]} for k, v in cells.items()
        }
    else:
        summary["metrics"] = {}
        summary["out"] = out_path
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
