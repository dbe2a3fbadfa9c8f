#!/usr/bin/env python3
"""Checks the benchmark against its own contract.

    python3 perf/selftest.py --smoke     tiny op counts, <= 15 s
    python3 perf/selftest.py             the same checks at full size

One full pass of ``run.py --traced`` (every workload, end to end and
traced) and a second traced run of every workload are compared with
``BENCHMARK.json``:

* every declared workload and metric is emitted, finite, and spelled
  from ``[A-Za-z0-9_.-]``; the declaration stays within 8 workloads,
  16 end-to-end and 128 per-layer metrics;
* counts that are exact by construction are identical in both runs;
* nothing failed or leaked;
* the peel is sane: no layer's self time is negative beyond the noise
  floor (mpi depth >= mpjdev depth >= xdev depth on the same message),
  and on the ping-pong workloads the peel's mpi-depth one-way time
  agrees with ``op_us_p50`` of the untraced trials run beside it in the
  same process within 10 % (50 % in the smoke test: one cold 400-op
  trial resolves a wrong factor of two, not 10 %).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
import time

import run
from common import OUT_DIR, PERF_DIR, load_contract

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Per-layer counts fixed by the protocol, not by timing: the same on
#: every run of the same work.  (``copies``/``bytes_copied`` and
#: ``unexpected`` are not — a message that beats its receive is staged.)
EXACT = (
    "mpi.coll_msgs_per_op", "mpi.coll_bytes_per_op",
    "xdev.protocol.eager_per_op", "xdev.protocol.rndz_per_op",
    "xdev.protocol.completions_per_op", "buffer.bytes_moved_per_op",
    "xdev.niodev.connects", "runtime.leaked_fds", "runtime.pool_leaks",
)
#: Workloads whose op is exactly the peel's mpi-depth message.
PINGPONG = ("pp8_sm", "pp8_nio", "pp16m_nio", "vec256k_sm")
#: A self time may dip below zero by this share of the xdev one-way
#: time before it counts as an inverted peel: at 16 MiB the mpjdev
#: layer's ~2 us is far below what a handful of round trips resolves.
PEEL_NOISE = 0.05
MIN_ITERATIONS = 10


SEED = 5


def full_pass(seconds: float, rounds: int) -> dict:
    """The real command, every workload, both modes."""
    out = OUT_DIR / "selftest.json"
    cmd = [
        sys.executable, str(PERF_DIR / "run.py"), "--traced", "--seed", str(SEED),
        "--seconds", str(seconds), "--rounds", str(rounds), "--out", str(out),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-3000:] + done.stderr[-3000:])
        raise SystemExit(f"run.py exited {done.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def traced_again(names: list[str], seconds: float, rounds: int) -> dict[str, dict]:
    """Each workload's traced worker once more: its per-layer values."""
    run.pin_to_one_cpu()
    args = argparse.Namespace(seed=SEED, seconds=seconds, rounds=rounds)
    env = run.scrubbed_env()
    return {name: run.run_worker(name, args, 1, env)["per_layer"] for name in names}


def check(contract: dict, first: dict, again: dict[str, dict], agree: float) -> list[str]:
    problems: list[str] = []
    workloads = [w["name"] for w in contract["workloads"]]
    if not (2 <= len(workloads) <= 8):
        problems.append(f"{len(workloads)} workloads declared")
    if not (1 <= len(contract["end_to_end"]) <= 16):
        problems.append(f"{len(contract['end_to_end'])} end-to-end metrics declared")
    if not (1 <= len(contract["per_layer"]) <= 128):
        problems.append(f"{len(contract['per_layer'])} per-layer metrics declared")
    declared = workloads + [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    problems += [f"bad name {n!r}" for n in declared if not NAME.match(n)]
    problems += [f"name {n!r} used twice" for n in set(declared) if declared.count(n) > 1]
    if not any(m["name"] == "setup_s" for m in contract["end_to_end"]):
        problems.append("no setup_s among the end-to-end metrics")

    for name in workloads:
        entry = first["workloads"].get(name)
        if entry is None:
            problems.append(f"{name}: not run")
            continue
        if entry["failed"] or not entry["correct"]:
            problems.append(f"{name}: {entry['failed']} failed of {entry['attempted']}")
        for kind in ("end_to_end", "per_layer"):
            cells = entry.get(kind, {})
            for metric in contract[kind]:
                got = cells.get(metric["name"])
                if got is None:
                    problems.append(f"{name}: {metric['name']} not emitted")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{name}: {metric['name']} = {got['value']}")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} in {got['unit']}")
                elif kind == "end_to_end" and got["value"] <= 0:
                    problems.append(f"{name}: {metric['name']} = {got['value']}")
            extra = set(cells) - {m["name"] for m in contract[kind]}
            problems += [f"{name}: undeclared {kind} metric {m}" for m in sorted(extra)]

    for name in workloads:
        a = first["workloads"].get(name, {}).get("per_layer", {})
        for metric in EXACT:
            if metric in a and a[metric]["value"] != again[name][metric]:
                problems.append(
                    f"{name}: {metric} differs between two runs: "
                    f"{a[metric]['value']} vs {again[name][metric]}"
                )

    for name in workloads:
        entry = first["workloads"].get(name, {})
        layer = entry.get("per_layer")
        # The timing checks need round trips to stand on; the smoke
        # test's two cold ones at 16 MiB say nothing.
        if not layer or entry["traced"]["peel"]["iterations"] < MIN_ITERATIONS:
            continue
        floor = -PEEL_NOISE * layer["xdev.oneway_us"]["value"]
        for metric in ("mpi.self_us", "mpjdev.self_us"):
            if layer[metric]["value"] < floor:
                problems.append(
                    f"{name}: {metric} = {layer[metric]['value']:.2f} us, "
                    f"below the noise floor {floor:.2f}"
                )
        if layer["xdev.oneway_us"]["value"] <= 0:
            problems.append(f"{name}: xdev.oneway_us not positive")
        if name in PINGPONG:
            mpi_depth = entry["traced"]["peel"]["oneway_us"]["mpi"]
            untraced = entry["traced"]["peel"]["plain_trials_op_us_p50"]
            if abs(mpi_depth - untraced) > agree * untraced:
                problems.append(
                    f"{name}: traced mpi-depth one-way {mpi_depth:.1f} us vs "
                    f"untraced op_us_p50 {untraced:.1f} us: more than {agree:.0%} apart"
                )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true", help="tiny op counts, <= 15 s")
    args = parser.parse_args()
    contract = load_contract()
    seconds, rounds = (0.05, 1) if args.smoke else (float(contract["run_seconds"]), 5)
    t0 = time.perf_counter()
    names = [w["name"] for w in contract["workloads"]]
    first = full_pass(seconds, rounds)
    again = traced_again(names, seconds, rounds)
    problems = check(contract, first, again, 0.50 if args.smoke else 0.10)
    elapsed = time.perf_counter() - t0
    for p in problems:
        print("FAIL", p)
    print(f"selftest: {len(problems)} problem(s) in {elapsed:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
