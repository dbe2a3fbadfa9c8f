#!/usr/bin/env python3
"""A/A and compare in one tool.

    python3 perf/aa.py RUN_A RUN_B [--json REPORT]

RUN_A and RUN_B are each a directory of ``repro-bench-v1`` documents
(or one file) — several runs of one commit, each with another
``--seed``.  For every workload x end-to-end metric the tool prints
both sides' median and quartiles over the runs and a verdict against
the bound ``BENCHMARK.json`` fixes for the metric:

    unresolved  a side's inter-quartile spread is wider than the bound
                (or a side has fewer than 4 runs): no verdict possible
    worse       B's median is worse than A's by more than the bound
    better      B's median is better than A's by more than the bound
    same        neither

Two sets from the *same* commit (A/A) must show ``same`` everywhere;
exit status is 1 if any row is ``worse`` or ``unresolved``.

To make a set of ten runs::

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perf/run.py --seed $s --out perf/out/A/run-$s.json
    done
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import SCHEMA, load_contract, quartiles

MIN_RUNS = 4


def load_set(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    docs = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema") != SCHEMA:
            raise SystemExit(f"{f}: not a {SCHEMA} document")
        docs.append(doc)
    if not docs:
        raise SystemExit(f"{path}: no runs")
    return docs


def values(docs: list[dict], workload: str, metric: str) -> list[float]:
    out = []
    for doc in docs:
        cells = doc["workloads"].get(workload, {}).get("end_to_end", {})
        if metric in cells:
            out.append(cells[metric]["value"])
    return out


def side(vals: list[float]) -> dict:
    q1, med, q3 = quartiles(vals)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals),
            "spread": (q3 - q1) / med if med else 0.0}


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if min(a["n"], b["n"]) < MIN_RUNS or max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(docs_a: list[dict], docs_b: list[dict]) -> list[dict]:
    contract = load_contract()
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            va = values(docs_a, workload, metric["name"])
            vb = values(docs_b, workload, metric["name"])
            if not va or not vb:
                continue
            a, b = side(va), side(vb)
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "better": metric["better"], "bound": metric["bound"], "a": a, "b": b,
                "change": (b["median"] - a["median"]) / a["median"],
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("run_a")
    parser.add_argument("run_b")
    parser.add_argument("--json", help="also write the rows as a JSON report")
    args = parser.parse_args()
    docs_a, docs_b = load_set(args.run_a), load_set(args.run_b)
    rows = compare(docs_a, docs_b)

    print(f"{'workload':<16} {'metric':<14} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
          f"{'change':>8} {'spread A/B':>13} {'bound':>6}  verdict")
    for r in rows:
        a, b = r["a"], r["b"]
        print(
            f"{r['workload']:<16} {r['metric']:<14} "
            f"{a['median']:>12.5g} [{a['q1']:>9.5g}, {a['q3']:>9.5g}] "
            f"{b['median']:>12.5g} [{b['q1']:>9.5g}, {b['q3']:>9.5g}] "
            f"{r['change']:>+8.1%} {a['spread']:>6.1%}/{b['spread']:<6.1%} {r['bound']:>6.0%}  {r['verdict']}"
        )
    failed = sum(
        doc["workloads"][w]["failed"] for doc in docs_a + docs_b for w in doc["workloads"]
    )
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} rows, {len(bad)} worse/unresolved, failed operations: {failed}")
    if args.json:
        report = {
            "schema": "repro-bench-aa-v1",
            "runs": {"a": len(docs_a), "b": len(docs_b)},
            "commit": {"a": docs_a[0]["host"].get("git_commit"), "b": docs_b[0]["host"].get("git_commit")},
            "noisy_runs": sum(1 for d in docs_a + docs_b if d["host"].get("noisy")),
            "failed_operations": failed,
            "rows": rows,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())
