"""Critical-path analysis over the merged message DAG.

A job's wall time is governed by its longest dependency chain, not by
any per-rank total.  With flow stitching (:mod:`repro.obs.merge`) the
merged timeline *is* a DAG: send/recv spans are nodes, matched flows
are cross-rank edges, and program order on each rank file supplies the
local edges.  :func:`critical_path` walks that DAG backwards from the
latest-completing span, at each step following the predecessor that
finished last — the one that actually gated progress — and attributes
every microsecond of the chain to one of three buckets:

``wire``
    Time inside a span whose gating predecessor was the matched send
    on another rank (the message was in flight / being transferred),
    plus time inside send spans themselves (serialization, channel
    locks, the transport write).
``wait``
    Time inside a recv span gated by *local* program order — the
    receive was posted and idle long before the data mattered, i.e.
    the rank was blocked on its own earlier work finishing.
``compute``
    Gaps between spans on one rank where no traced operation ran —
    the application was doing real work (or at least not messaging).

The result is printed by ``python -m repro.obs report --critical-path``
and summarised in the ``--json`` metric snapshot.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Any, Optional

from repro.obs.merge import FlowEdge, Span

#: Chains longer than this are truncated (defensive bound; a real
#: trace's chain length is bounded by its span count anyway).
_MAX_STEPS = 100_000


def critical_path(
    spans: list[Span], edges: list[FlowEdge]
) -> dict[str, Any]:
    """The longest dependency chain ending at the last-finishing span.

    Returns a dict with ``total_us``, the ``wait_us``/``wire_us``/
    ``compute_us`` attribution, and ``steps`` — the chain in
    chronological order, each step naming its span and how its time
    was attributed.  Empty traces yield ``{"total_us": 0, "steps": []}``.
    """
    ops = [s for s in spans if s.base in ("send", "recv")]
    if not ops:
        return {
            "total_us": 0.0,
            "wait_us": 0.0,
            "wire_us": 0.0,
            "compute_us": 0.0,
            "steps": [],
        }

    # Matched send for each recv span (identity-keyed: spans are not
    # hashable by value and several may share ids across files).
    send_for_recv: dict[int, Span] = {
        id(e.recv): e.send for e in edges
    }
    # Per-file spans sorted by end time, for "latest span ending before
    # this one started" lookups.
    by_file: dict[int, list[Span]] = defaultdict(list)
    for span in ops:
        by_file[span.file_idx].append(span)
    for file_spans in by_file.values():
        file_spans.sort(key=lambda s: s.end_us)
    ends: dict[int, list[float]] = {
        f: [s.end_us for s in file_spans] for f, file_spans in by_file.items()
    }

    def local_pred(span: Span) -> Optional[Span]:
        file_spans = by_file[span.file_idx]
        idx = bisect_left(ends[span.file_idx], span.start_us)
        # idx is the first span ending at/after our start; the one
        # before it is the latest to finish strictly before we began.
        while idx > 0:
            cand = file_spans[idx - 1]
            if cand is not span and cand.end_us <= span.start_us:
                return cand
            idx -= 1
        return None

    current = max(ops, key=lambda s: s.end_us)
    steps: list[dict[str, Any]] = []
    totals = {"wait_us": 0.0, "wire_us": 0.0, "compute_us": 0.0}

    def bucket_of(span: Span, via: str) -> str:
        if via == "flow":
            return "wire"  # gated by the remote send: transfer time
        if span.base == "send":
            return "wire"  # serialization + channel lock + write
        return "wait"  # recv gated by local order: posted and idle

    for _ in range(min(len(ops) + 1, _MAX_STEPS)):
        flow_pred = send_for_recv.get(id(current))
        local = local_pred(current)
        # A predecessor only explains our completion if it finished
        # before we did; pick the latest-finishing one — that is the
        # dependency that actually gated this span.
        candidates: list[tuple[str, Span]] = []
        if flow_pred is not None and flow_pred.end_us < current.end_us:
            candidates.append(("flow", flow_pred))
        if local is not None and local.end_us < current.end_us:
            candidates.append(("local", local))
        if not candidates:
            # Chain head: the whole span is its own explanation.
            bucket = bucket_of(current, "none")
            totals[f"{bucket}_us"] += current.dur_us
            steps.append(_step(current, "start", {bucket: current.dur_us}))
            break
        via, pred = max(candidates, key=lambda c: c[1].end_us)
        gap = max(0.0, current.start_us - pred.end_us)
        in_span = current.end_us - max(current.start_us, pred.end_us)
        attribution: dict[str, float] = {}
        if gap > 0:
            attribution["compute"] = gap
            totals["compute_us"] += gap
        bucket = bucket_of(current, via)
        attribution[bucket] = attribution.get(bucket, 0.0) + in_span
        totals[f"{bucket}_us"] += in_span
        steps.append(_step(current, via, attribution))
        current = pred

    steps.reverse()
    total = sum(totals.values())
    return {
        "total_us": round(total, 3),
        "wait_us": round(totals["wait_us"], 3),
        "wire_us": round(totals["wire_us"], 3),
        "compute_us": round(totals["compute_us"], 3),
        "steps": steps,
    }


def _step(span: Span, via: str, attribution: dict[str, float]) -> dict[str, Any]:
    return {
        "base": span.base,
        "rank": span.rank,
        "file": span.file_idx,
        "peer": span.peer,
        "tag": span.tag,
        "size": span.size,
        "proto": span.proto or "eager",
        "flow": f"{span.fs if span.fs is not None else span.rank}:{span.fq}"
        if span.fq
        else None,
        "start_us": round(span.start_us, 3),
        "end_us": round(span.end_us, 3),
        "via": via,
        "attribution": {k: round(v, 3) for k, v in attribution.items()},
    }


def format_critical_path(crit: dict[str, Any], max_steps: int = 30) -> str:
    """Render :func:`critical_path`'s result for the report CLI."""
    lines = []
    total = crit["total_us"]
    lines.append(
        f"critical path: {total:.1f}µs over {len(crit['steps'])} step(s)"
    )
    if total > 0:
        lines.append(
            "  attribution: "
            f"wait {crit['wait_us']:.1f}µs ({crit['wait_us'] / total * 100:.0f}%), "
            f"wire {crit['wire_us']:.1f}µs ({crit['wire_us'] / total * 100:.0f}%), "
            f"compute {crit['compute_us']:.1f}µs "
            f"({crit['compute_us'] / total * 100:.0f}%)"
        )
    shown = crit["steps"][-max_steps:]
    if len(shown) < len(crit["steps"]):
        lines.append(f"  … {len(crit['steps']) - len(shown)} earlier step(s)")
    for step in shown:
        attr = " ".join(
            f"{k}={v:.1f}µs" for k, v in step["attribution"].items()
        )
        flow = f" flow={step['flow']}" if step.get("flow") else ""
        lines.append(
            f"  [{step['start_us']:>12.1f} → {step['end_us']:>12.1f}] "
            f"rank{step['rank']} {step['base']}/{step['proto']} "
            f"peer={step['peer']} size={step['size']}{flow} "
            f"via={step['via']} ({attr})"
        )
    return "\n".join(lines)
