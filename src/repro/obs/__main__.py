"""The observability CLI: ``python -m repro.obs``.

Subcommands::

    python -m repro.obs merge DIR [--out FILE] [--quiet]
        Merge DIR's per-rank JSONL traces into a causally stitched
        Chrome trace_event JSON (default DIR/timeline.json; open it in
        chrome://tracing or https://ui.perfetto.dev) — including
        ``s``/``f`` flow arrows for every matched send→recv pair — and
        print the text report.

    python -m repro.obs report DIR [--critical-path] [--json FILE]
        Print the text report (per-peer byte matrix, protocol stage
        spans, causal-flow summary, top latencies, unmatched
        receives).  ``--critical-path`` appends the longest dependency
        chain with wait/wire/compute attribution; ``--json FILE``
        writes a metric snapshot (span latencies, stage table, flow
        summary, critical-path totals) that CI asserts on.

Regression diffs between two runs are ``perf/aa.py``'s job, not this
CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.critical import critical_path, format_critical_path
from repro.obs.merge import analyze_directory, build_snapshot, write_snapshot


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge traces, write Chrome JSON, print report")
    p_merge.add_argument("dir", help="directory of per-rank *.jsonl trace files")
    p_merge.add_argument(
        "--out", metavar="FILE",
        help="Chrome trace_event JSON output path (default DIR/timeline.json)",
    )
    p_merge.add_argument(
        "--quiet", action="store_true", help="suppress the text report"
    )

    p_report = sub.add_parser("report", help="print the text report")
    p_report.add_argument(
        "dir", nargs="?", help="directory of per-rank *.jsonl trace files"
    )
    p_report.add_argument(
        "--critical-path", action="store_true",
        help="append the longest dependency chain with "
        "wait/wire/compute attribution",
    )
    p_report.add_argument(
        "--json", metavar="FILE", dest="json_out",
        help="write a metric snapshot to FILE",
    )

    ns = parser.parse_args(argv)

    if ns.dir is None:
        print("report: a trace directory is required", file=sys.stderr)
        return 2
    directory = Path(ns.dir)
    if not directory.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return 2

    analysis = analyze_directory(directory)

    if ns.command == "merge":
        out = Path(ns.out) if ns.out else directory / "timeline.json"
        out.write_text(json.dumps(analysis.chrome) + "\n", encoding="utf-8")
        if not ns.quiet:
            print(analysis.report)
        print(f"wrote {out} ({len(analysis.chrome['traceEvents'])} trace events)")
        return 0

    print(analysis.report)
    if ns.critical_path:
        crit = critical_path(analysis.spans, analysis.edges)
        print(format_critical_path(crit))
    if ns.json_out:
        snapshot = build_snapshot(analysis)
        path = write_snapshot(snapshot, ns.json_out)
        print(f"wrote metric snapshot {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
