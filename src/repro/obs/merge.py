"""Merge per-rank JSONL traces into one causally stitched timeline.

Backs ``python -m repro.obs merge <dir>``: reads every ``*.jsonl`` the
:class:`~repro.obs.tracing.TraceWriter` wrote, aligns ranks on their
``wall_t0`` anchors, and produces

* Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
  https://ui.perfetto.dev): one process per rank file, one track per
  thread, ``X`` duration events for each ``<base>.post``/
  ``<base>.complete`` pair, ``i`` instants for the rendezvous stage
  marks (RTS/RTR/data), and ``s``/``f`` *flow events* drawing an arrow
  from each send span to the recv span that consumed its message, and
* a text report: per-peer byte matrix, protocol-stage latency table,
  flow-stitching summary, top span latencies, unmatched receives, and
* for ``python -m repro.obs report DIR --json FILE``, a small metric
  snapshot: span-latency aggregates per (op, protocol), the stage
  table, the flow summary and the critical-path attribution.

Clock model: ``wall_t0`` anchors give the coarse alignment, then the
*causal* edges correct it.  Every message carries a flow id
``(fs, fq)`` in its frame headers (:mod:`repro.xdev.frames`), stamped
into the trace events, so a send span and the recv span it caused can
be paired exactly — a true happened-before edge.  From the matched
pairs the merge estimates per-file clock offsets (NTP-style: with
edges in both directions between two files, half the difference of
the minimum apparent one-way delays; with one direction, just enough
shift that no recv completes before its send posts) and applies them
to every event, so the merged timeline never shows an effect before
its cause even when rank clocks disagree.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional


@dataclass
class RankTrace:
    """One parsed per-rank JSONL file."""

    path: Path
    meta: dict[str, Any]
    events: list[dict[str, Any]]
    fin: dict[str, Any] = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return int(self.meta.get("rank", -1))

    @property
    def label(self) -> str:
        return str(self.meta.get("label", "dev"))

    @property
    def wall_t0(self) -> float:
        return float(self.meta.get("wall_t0", 0.0))


@dataclass
class Span:
    """A paired <base>.post/<base>.complete operation."""

    base: str
    file_idx: int
    rank: int
    label: str
    tid: int
    start_us: float
    dur_us: float
    id: Optional[int] = None
    peer: Optional[int] = None
    tag: Optional[int] = None
    size: Optional[int] = None
    proto: Optional[str] = None
    #: Endpoint the posting thread was bound to (``ep=`` trace field).
    ep: Optional[int] = None
    #: Absolute µs of each stage instant sharing this span's id.
    stages: dict[str, float] = field(default_factory=dict)
    #: Lamport clock at the span's defining event (post for sends,
    #: complete for recvs) — ``lc`` trace field, schema version 2+.
    lc: Optional[int] = None
    #: Causal flow id ``(fs, fq)``: origin engine uid and per-engine
    #: send sequence.  Send spans carry only ``fq`` on the wire (the
    #: origin is the span's own rank); recv spans carry both.
    fs: Optional[int] = None
    fq: Optional[int] = None

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us

    def flow_key(self) -> Optional[tuple[str, int, int]]:
        """The stitching key, or None when the span carries no flow."""
        if not self.fq:
            return None
        src = self.fs if self.fs is not None else self.rank
        return (self.label, src, self.fq)

    def shift(self, delta_us: float) -> None:
        """Apply a clock-offset correction to every timestamp."""
        self.start_us += delta_us
        for stage in self.stages:
            self.stages[stage] += delta_us


@dataclass
class FlowEdge:
    """One matched send→recv pair: a happened-before edge."""

    send: Span
    recv: Span

    @property
    def key(self) -> tuple[str, int, int]:
        return self.send.flow_key()  # type: ignore[return-value]


@dataclass
class FlowSummary:
    """How well the directory's sends and recvs stitched together."""

    sends: int = 0
    recvs: int = 0
    paired: int = 0
    #: Recvs whose send span was evicted by the sender's trace ring
    #: (the sender's file reports ``fin.dropped > 0``) — expected loss.
    dropped: int = 0
    #: Recvs with no explanation: no send span and no drops recorded
    #: on the sender's side — a genuine stitching gap.
    unmatched: int = 0
    #: Pre-causal spans (no ``fq`` field): schema v1 traces.
    unversioned: int = 0

    @property
    def pair_ratio(self) -> float:
        return self.paired / self.recvs if self.recvs else 1.0


#: Stage instants folded into the owning span (keyed by the same id).
_SEND_STAGES = ("rts.out", "rtr.in", "rndz.out")
_RECV_STAGES = ("rts.in", "rtr.out", "rndz.in", "eager.in")
_STAGE_EVENTS = frozenset(_SEND_STAGES) | frozenset(_RECV_STAGES)


def load_trace_dir(directory: Path | str) -> list[RankTrace]:
    """Parse every ``*.jsonl`` rank file under *directory*."""
    directory = Path(directory)
    traces: list[RankTrace] = []
    for path in sorted(directory.glob("*.jsonl")):
        meta: dict[str, Any] = {}
        fin: dict[str, Any] = {}
        events: list[dict[str, Any]] = []
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn line loses itself, not the file
                if "meta" in record:
                    meta = record["meta"]
                elif "fin" in record:
                    fin = record["fin"]
                else:
                    events.append(record)
        if meta or events:
            traces.append(RankTrace(path=path, meta=meta, events=events, fin=fin))
    return traces


def build_spans(traces: list[RankTrace]) -> tuple[list[Span], list[dict[str, Any]]]:
    """Pair post/complete events into spans; collect the leftovers.

    Returns ``(spans, unmatched)`` where *unmatched* lists ``.post``
    events that never completed (the deadlock list) annotated with
    their file/rank.
    """
    zero = min((t.wall_t0 for t in traces), default=0.0)
    spans: list[Span] = []
    unmatched: list[dict[str, Any]] = []
    for file_idx, trace in enumerate(traces):
        offset_us = (trace.wall_t0 - zero) * 1e6
        open_posts: dict[tuple[str, Any], dict[str, Any]] = {}
        stage_marks: dict[Any, dict[str, float]] = defaultdict(dict)
        for ev in trace.events:
            name = ev.get("ev", "")
            abs_us = offset_us + float(ev.get("t", 0.0)) * 1e6
            if name in _STAGE_EVENTS:
                if ev.get("id") is not None:
                    stage_marks[ev["id"]][name] = abs_us
                continue
            if name.endswith(".post"):
                base = name[: -len(".post")]
                open_posts[(base, ev.get("id"))] = dict(ev, _abs_us=abs_us)
            elif name.endswith(".complete"):
                base = name[: -len(".complete")]
                post = open_posts.pop((base, ev.get("id")), None)
                if post is None:
                    continue  # post fell out of the ring buffer
                spans.append(
                    Span(
                        base=base,
                        file_idx=file_idx,
                        rank=trace.rank,
                        label=trace.label,
                        tid=int(post.get("tid", 0)),
                        start_us=post["_abs_us"],
                        dur_us=max(abs_us - post["_abs_us"], 0.0),
                        id=post.get("id"),
                        peer=post.get("peer", ev.get("peer")),
                        tag=post.get("tag"),
                        size=post.get("size", ev.get("size")),
                        proto=post.get("proto", ev.get("proto")),
                        ep=post.get("ep"),
                        # Causal context: sends stamp it at post, recvs
                        # only learn their flow at complete time.
                        lc=post.get("lc", ev.get("lc")),
                        fs=post.get("fs", ev.get("fs")),
                        fq=post.get("fq", ev.get("fq")),
                    )
                )
        for (base, _id), post in open_posts.items():
            unmatched.append(
                {
                    "base": base,
                    "rank": trace.rank,
                    "label": trace.label,
                    "file": trace.path.name,
                    "peer": post.get("peer"),
                    "tag": post.get("tag"),
                    "ctx": post.get("ctx"),
                    "posted_at_us": round(post["_abs_us"], 3),
                }
            )
        for span in spans:
            if span.file_idx == file_idx and span.id in stage_marks:
                span.stages.update(stage_marks[span.id])
    return spans, unmatched


# ----------------------------------------------------------------------
# causal flow stitching


def stitch_flows(
    spans: list[Span], traces: Optional[list[RankTrace]] = None
) -> tuple[list[FlowEdge], FlowSummary]:
    """Pair send spans to recv spans by flow id.

    A flow id is unique per engine, so within one job the pairing is
    exact.  A directory holding several jobs of the same label (the
    bench) can reuse ids across engine instances; colliding groups are
    zipped in start-time order — the nearest-in-time interpretation.

    The summary distinguishes a recv whose send event was *dropped* by
    the sender's bounded trace ring (the sender's file finishes with
    ``fin.dropped > 0`` — expected, tunable via REPRO_TRACE_BUFFER)
    from one that is genuinely *unmatched*.
    """
    sends: dict[tuple[str, int, int], list[Span]] = defaultdict(list)
    recvs: dict[tuple[str, int, int], list[Span]] = defaultdict(list)
    summary = FlowSummary()
    for span in spans:
        if span.base not in ("send", "recv"):
            continue
        key = span.flow_key()
        if key is None:
            summary.unversioned += 1
            continue
        if span.base == "send":
            summary.sends += 1
            sends[key].append(span)
        else:
            summary.recvs += 1
            recvs[key].append(span)

    # Ranks whose trace ring evicted events: a missing send span from
    # one of these is loss we can attribute, not a stitching bug.
    lossy_ranks: set[int] = set()
    for trace in traces or []:
        if int(trace.fin.get("dropped", 0)) > 0:
            lossy_ranks.add(trace.rank)

    edges: list[FlowEdge] = []
    for key, recv_group in recvs.items():
        send_group = sorted(sends.get(key, []), key=lambda s: s.start_us)
        recv_group = sorted(recv_group, key=lambda s: s.start_us)
        for send, recv in zip(send_group, recv_group):
            edges.append(FlowEdge(send=send, recv=recv))
            summary.paired += 1
        for recv in recv_group[len(send_group):]:
            if key[1] in lossy_ranks:
                summary.dropped += 1
            else:
                summary.unmatched += 1
    return edges, summary


def estimate_skew(
    traces: list[RankTrace], edges: list[FlowEdge]
) -> list[float]:
    """Per-file clock-offset corrections (µs) from matched flow pairs.

    Causality says a recv span cannot complete before its send span
    posted; the apparent one-way delay of edge ``a→b`` is
    ``recv.end - send.start``.  For each ordered file pair the minimum
    apparent delay ``m`` is collected; with both directions available
    the relative offset is the NTP estimate ``(m_ab - m_ba) / 2``, and
    with only one direction the offset is whatever (if anything) is
    needed to make the minimum delay non-negative.  Offsets propagate
    from file 0 over a BFS spanning tree of the pair graph, then a
    short relaxation pass lifts any file still showing a negative
    residual, so no effect precedes its cause in the merged timeline.
    """
    nfiles = len(traces)
    min_delay: dict[tuple[int, int], float] = {}
    for edge in edges:
        a, b = edge.send.file_idx, edge.recv.file_idx
        if a == b:
            continue
        apparent = edge.recv.end_us - edge.send.start_us
        key = (a, b)
        if key not in min_delay or apparent < min_delay[key]:
            min_delay[key] = apparent

    neighbours: dict[int, set[int]] = defaultdict(set)
    for a, b in min_delay:
        neighbours[a].add(b)
        neighbours[b].add(a)

    offsets = [0.0] * nfiles
    visited = {0} if nfiles else set()
    queue = [0] if nfiles else []
    while queue:
        a = queue.pop(0)
        for b in sorted(neighbours.get(a, ())):
            if b in visited:
                continue
            m_ab = min_delay.get((a, b))
            m_ba = min_delay.get((b, a))
            if m_ab is not None and m_ba is not None:
                delta = (m_ab - m_ba) / 2.0  # b's clock leads a's by delta
            elif m_ab is not None:
                delta = min(m_ab, 0.0)
            else:
                delta = -min(m_ba, 0.0)  # type: ignore[arg-type]
            offsets[b] = offsets[a] - delta
            visited.add(b)
            queue.append(b)

    # Relaxation: raise any file whose corrected min delay is still
    # negative.  Each pass only increases offsets, so it terminates.
    for _ in range(max(nfiles, 1) * 2):
        adjusted = False
        for (a, b), m in min_delay.items():
            residual = m + offsets[b] - offsets[a]
            if residual < 0:
                offsets[b] += -residual
                adjusted = True
        if not adjusted:
            break
    return offsets


def apply_skew(
    traces: list[RankTrace], spans: list[Span], offsets: list[float]
) -> None:
    """Shift spans (and their raw events) by the per-file corrections."""
    for span in spans:
        delta = offsets[span.file_idx] if span.file_idx < len(offsets) else 0.0
        if delta:
            span.shift(delta)
    for file_idx, trace in enumerate(traces):
        delta = offsets[file_idx] if file_idx < len(offsets) else 0.0
        if delta:
            # Instant events are rendered straight from the raw event
            # list; fold the correction into their offsets once.
            trace.meta["skew_us"] = round(delta, 3)


def chrome_trace(
    traces: list[RankTrace],
    spans: list[Span],
    edges: Optional[list[FlowEdge]] = None,
    offsets: Optional[list[float]] = None,
) -> dict[str, Any]:
    """The merged timeline as Chrome ``trace_event`` JSON (dict form)."""
    zero = min((t.wall_t0 for t in traces), default=0.0)
    events: list[dict[str, Any]] = []
    for file_idx, trace in enumerate(traces):
        pid = file_idx
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": f"rank {trace.rank} [{trace.label}]"
                    f" (os pid {trace.meta.get('pid', '?')})"
                },
            }
        )
        for tid, tname in (trace.fin.get("threads") or {}).items():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": int(tid),
                    "args": {"name": tname},
                }
            )
        offset_us = (trace.wall_t0 - zero) * 1e6
        if offsets is not None and file_idx < len(offsets):
            offset_us += offsets[file_idx]
        for ev in trace.events:
            name = ev.get("ev", "")
            # Stage marks and any other point event (probe, failure,
            # lifecycle) become instants; .post/.complete pairs are
            # already covered by the X spans.
            if name in _STAGE_EVENTS or not (
                name.endswith(".post") or name.endswith(".complete")
            ):
                events.append(
                    {
                        "ph": "i",
                        "name": name,
                        "pid": pid,
                        "tid": int(ev.get("tid", 0)),
                        "ts": round(offset_us + float(ev.get("t", 0.0)) * 1e6, 3),
                        "s": "t",
                        "args": {
                            k: v
                            for k, v in ev.items()
                            if k not in ("t", "tid", "ev")
                        },
                    }
                )
    for span in spans:
        name = span.base
        if span.proto:
            name = f"{span.base} [{span.proto}]"
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": span.label,
                "pid": span.file_idx,
                "tid": span.tid,
                "ts": round(span.start_us, 3),
                "dur": round(span.dur_us, 3),
                "args": {
                    "id": span.id,
                    "peer": span.peer,
                    "tag": span.tag,
                    "size": span.size,
                    "rank": span.rank,
                    "ep": span.ep,
                    "lc": span.lc,
                    "flow": f"{span.fs if span.fs is not None else span.rank}"
                    f":{span.fq}" if span.fq else None,
                },
            }
        )
    # Flow events: an ``s`` (start) anchored inside the send span and
    # an ``f`` (finish, binding-point "enclosing") inside the recv span
    # draw the causal arrow between them in Perfetto/chrome://tracing.
    # Anchoring at the span midpoints keeps both endpoints strictly
    # inside their slices, which is what the binding rules require.
    for edge in edges or []:
        send, recv = edge.send, edge.recv
        label, src, seq = edge.key
        fid = f"{label}:{src}:{seq}"
        events.append(
            {
                "ph": "s",
                "cat": "flow",
                "name": "msg",
                "id": fid,
                "pid": send.file_idx,
                "tid": send.tid,
                "ts": round(send.start_us + send.dur_us / 2.0, 3),
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "cat": "flow",
                "name": "msg",
                "id": fid,
                "pid": recv.file_idx,
                "tid": recv.tid,
                "ts": round(recv.start_us + recv.dur_us / 2.0, 3),
            }
        )
    events.sort(key=lambda e: e.get("ts", -1.0))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# text report


def _byte_matrix(spans: Iterable[Span]) -> dict[int, dict[int, int]]:
    """sender rank -> receiver rank/uid -> payload bytes (send spans)."""
    matrix: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span.base == "send" and span.size and span.peer is not None:
            matrix[span.rank][span.peer] += span.size
    return matrix


def _stage_table(spans: Iterable[Span]) -> dict[str, dict[str, Any]]:
    """Per (label, proto) aggregate of protocol-stage durations (µs)."""
    agg: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for span in spans:
        if span.base != "send":
            continue
        key = f"{span.label}/{span.proto or 'eager'}"
        end = span.start_us + span.dur_us
        if span.proto == "rndz":
            marks = [("post", span.start_us)]
            for stage in _SEND_STAGES:
                if stage in span.stages:
                    marks.append((stage, span.stages[stage]))
            marks.append(("complete", end))
            for (a, ta), (b, tb) in zip(marks, marks[1:]):
                agg[key][f"{a}→{b}"].append(max(tb - ta, 0.0))
        else:
            agg[key]["post→complete"].append(span.dur_us)
    out: dict[str, dict[str, Any]] = {}
    for key, stages in agg.items():
        out[key] = {
            stage: {
                "count": len(vals),
                "mean_us": round(sum(vals) / len(vals), 2),
                "max_us": round(max(vals), 2),
            }
            for stage, vals in stages.items()
        }
    return out


#: ``"version"`` of the ``report --json`` snapshot.
SNAPSHOT_VERSION = 1


def build_snapshot(analysis: MergeAnalysis) -> dict[str, Any]:
    """The ``report --json`` metric snapshot of *analysis*."""
    from repro.obs.critical import critical_path

    span_agg: dict[str, dict[str, Any]] = {}
    groups: dict[str, list[float]] = {}
    for span in analysis.spans:
        if span.base not in ("send", "recv"):
            continue
        groups.setdefault(f"{span.base}/{span.proto or 'eager'}", []).append(
            span.dur_us
        )
    for key, vals in sorted(groups.items()):
        vals.sort()
        span_agg[key] = {
            "count": len(vals),
            "mean_us": round(sum(vals) / len(vals), 2),
            "p50_us": round(vals[len(vals) // 2], 2),
            "max_us": round(vals[-1], 2),
        }

    crit = critical_path(analysis.spans, analysis.edges)
    flows = analysis.flows
    return {
        "version": SNAPSHOT_VERSION,
        "spans": span_agg,
        "stages": _stage_table(analysis.spans),
        "flows": {
            "sends": flows.sends,
            "recvs": flows.recvs,
            "paired": flows.paired,
            "pair_ratio": round(flows.pair_ratio, 4),
            "dropped": flows.dropped,
            "unmatched": flows.unmatched,
        },
        "critical_path": {
            "total_us": crit["total_us"],
            "wait_us": crit["wait_us"],
            "wire_us": crit["wire_us"],
            "compute_us": crit["compute_us"],
            "steps": len(crit["steps"]),
        },
    }


def write_snapshot(snapshot: dict[str, Any], path: Path | str) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out


def _endpoint_table(spans: Iterable[Span]) -> dict[str, dict[str, Any]]:
    """Per (rank, endpoint, op) span-latency aggregate (µs).

    Breaks stage latency down by the posting thread's endpoint so
    ``repro.obs report`` shows whether one endpoint's lock shard is the
    hot one.  Spans from traces predating the ``ep=`` field are
    skipped.
    """
    agg: dict[tuple[int, int, str], list[float]] = defaultdict(list)
    for span in spans:
        if span.ep is None or span.base not in ("send", "recv"):
            continue
        agg[(span.rank, int(span.ep), span.base)].append(span.dur_us)
    out: dict[str, dict[str, Any]] = {}
    for (rank, ep, base), vals in sorted(agg.items()):
        out[f"rank{rank}/ep{ep}/{base}"] = {
            "count": len(vals),
            "mean_us": round(sum(vals) / len(vals), 2),
            "max_us": round(max(vals), 2),
        }
    return out


def text_report(
    traces: list[RankTrace],
    spans: list[Span],
    unmatched: list[dict[str, Any]],
    top_n: int = 10,
    flows: Optional[FlowSummary] = None,
    offsets: Optional[list[float]] = None,
) -> str:
    lines: list[str] = []
    total_events = sum(len(t.events) for t in traces)
    total_dropped = sum(int(t.fin.get("dropped", 0)) for t in traces)
    lines.append(
        f"merged timeline: {len(traces)} rank file(s), {total_events} events, "
        f"{len(spans)} spans, {total_dropped} dropped by ring buffers"
    )
    labels = sorted({t.label for t in traces})
    lines.append(f"devices: {', '.join(labels) if labels else '(none)'}")

    if flows is not None:
        lines.append(
            f"causal flows: {flows.sends} send(s), {flows.recvs} recv(s), "
            f"{flows.paired} paired ({flows.pair_ratio * 100:.1f}%); "
            f"{flows.dropped} dropped by trace rings, "
            f"{flows.unmatched} unmatched"
            + (
                f"; {flows.unversioned} span(s) predate causal tracing"
                if flows.unversioned
                else ""
            )
        )
    if offsets is not None and any(abs(o) > 0.5 for o in offsets):
        lines.append(
            "clock-skew corrections (µs per file): "
            + ", ".join(f"{o:+.1f}" for o in offsets)
        )

    matrix = _byte_matrix(spans)
    lines.append("")
    lines.append("per-peer payload bytes (sender rank -> receiver uid):")
    if not matrix:
        lines.append("  (no completed sends)")
    else:
        receivers = sorted({p for row in matrix.values() for p in row})
        header = "  sender " + "".join(f"{f'->{p}':>14}" for p in receivers)
        lines.append(header)
        for sender in sorted(matrix):
            row = matrix[sender]
            lines.append(
                f"  {sender:>6} "
                + "".join(f"{row.get(p, 0):>14}" for p in receivers)
            )

    lines.append("")
    lines.append("protocol stage spans (µs):")
    stage_table = _stage_table(spans)
    if not stage_table:
        lines.append("  (no send spans)")
    for key in sorted(stage_table):
        lines.append(f"  {key}:")
        for stage, cell in stage_table[key].items():
            lines.append(
                f"    {stage:<22} n={cell['count']:<6} "
                f"mean={cell['mean_us']:>10.2f} max={cell['max_us']:>10.2f}"
            )

    endpoint_table = _endpoint_table(spans)
    if endpoint_table:
        lines.append("")
        lines.append("per-endpoint span latency (µs):")
        for key, cell in endpoint_table.items():
            lines.append(
                f"  {key:<22} n={cell['count']:<6} "
                f"mean={cell['mean_us']:>10.2f} max={cell['max_us']:>10.2f}"
            )

    lines.append("")
    lines.append(f"top {top_n} span latencies:")
    slowest = sorted(spans, key=lambda s: s.dur_us, reverse=True)[:top_n]
    if not slowest:
        lines.append("  (none)")
    for span in slowest:
        lines.append(
            f"  {span.dur_us:>12.2f}µs  {span.base:<6} rank={span.rank} "
            f"peer={span.peer} tag={span.tag} size={span.size} "
            f"proto={span.proto or 'eager'} [{span.label}]"
        )

    recv_unmatched = [u for u in unmatched if u["base"].endswith("recv")]
    lines.append("")
    lines.append(f"unmatched receives: {len(recv_unmatched)}")
    for u in recv_unmatched[:top_n]:
        lines.append(
            f"  rank={u['rank']} peer={u['peer']} tag={u['tag']} "
            f"ctx={u['ctx']} posted_at={u['posted_at_us']}µs [{u['label']}]"
        )
    other_unmatched = len(unmatched) - len(recv_unmatched)
    if other_unmatched:
        lines.append(f"other unmatched operations: {other_unmatched}")
    return "\n".join(lines) + "\n"


@dataclass
class MergeAnalysis:
    """Everything the merge pipeline derives from one trace directory."""

    traces: list[RankTrace]
    spans: list[Span]
    unmatched: list[dict[str, Any]]
    edges: list[FlowEdge]
    flows: FlowSummary
    offsets: list[float]
    chrome: dict[str, Any]
    report: str


def analyze_directory(directory: Path | str, top_n: int = 10) -> MergeAnalysis:
    """The full merge pipeline: load → span-pair → flow-stitch →
    skew-correct → render."""
    traces = load_trace_dir(directory)
    spans, unmatched = build_spans(traces)
    edges, flows = stitch_flows(spans, traces)
    offsets = estimate_skew(traces, edges)
    apply_skew(traces, spans, offsets)
    chrome = chrome_trace(traces, spans, edges=edges, offsets=offsets)
    report = text_report(
        traces, spans, unmatched, top_n=top_n, flows=flows, offsets=offsets
    )
    return MergeAnalysis(
        traces=traces,
        spans=spans,
        unmatched=unmatched,
        edges=edges,
        flows=flows,
        offsets=offsets,
        chrome=chrome,
        report=report,
    )


def merge_directory(
    directory: Path | str, out: Optional[Path | str] = None
) -> tuple[dict[str, Any], str]:
    """Load, merge, and render *directory*; optionally write Chrome JSON.

    Returns ``(chrome_trace_dict, text_report_str)``.
    """
    analysis = analyze_directory(directory)
    if out is not None:
        Path(out).write_text(json.dumps(analysis.chrome) + "\n", encoding="utf-8")
    return analysis.chrome, analysis.report
