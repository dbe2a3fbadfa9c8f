"""Causal wire tracing: flow stitching, Lamport determinism, chaos.

Covers the acceptance criteria of the causal-tracing work:

* a traced 4-rank job pairs ≥99% of send/recv spans by flow id and the
  Chrome export carries ``s``/``f`` flow events, on smdev AND procdev;
* the critical-path analyzer returns a non-empty chain whose
  wait/wire/compute attribution sums to the total;
* Lamport clock assignments (and the critical-path *structure*) are
  deterministic under the seeded scheduler — same seed, same values —
  across REPRO_ENDPOINTS=1 and 4;
* flow ids survive ChaosTransport's duplicate and truncated-frame injection;
* a recv whose send event was evicted by the sender's trace ring is
  reported as *dropped*, not *unmatched*.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.obs.__main__ import main as obs_main
from repro.obs.critical import critical_path, format_critical_path
from repro.obs.merge import analyze_directory, build_spans, load_trace_dir
from repro.testing.chaos import ChaosConfig
from repro.testing.fixtures import make_chaos_job, make_scheduled_job
from repro.testing.scheduler import SeededSchedule
from repro.mpjdev.request import RequestFailedError
from tests.conftest import make_job

RNDZ_BYTES = 256 * 1024  # past the 128 KB eager threshold


def send_buffer(arr) -> Buffer:
    arr = np.asarray(arr)
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


def _ring_traffic(devices, pids, rounds=3, payload_words=64):
    """Every rank sends to its right neighbour, *rounds* times."""
    nprocs = len(devices)
    errors: list = []

    def worker(r: int) -> None:
        try:
            nxt, prv = (r + 1) % nprocs, (r - 1) % nprocs
            for i in range(rounds):
                arr = np.full(payload_words, r * 100 + i, dtype=np.int64)
                devices[r].send(send_buffer(arr), pids[nxt], 5, 0)
                devices[r].recv(Buffer(), pids[prv], 5, 0)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((r, exc))

    threads = [
        threading.Thread(target=worker, args=(r,)) for r in range(nprocs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors, f"ring traffic failed: {errors}"


@pytest.fixture(params=["smdev", "procdev"])
def traced_ring(request, tmp_path, monkeypatch):
    """A traced 4-rank ring on each device the acceptance names."""
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
    devices, pids = make_job(request.param, 4)
    try:
        _ring_traffic(devices, pids)
    finally:
        for d in devices:
            d.finish()
    return request.param, tmp_path


class TestFlowStitching:
    def test_pair_ratio_and_flow_events(self, traced_ring):
        device, directory = traced_ring
        analysis = analyze_directory(directory)
        flows = analysis.flows
        assert flows.sends == 12 and flows.recvs == 12, (device, flows)
        assert flows.pair_ratio >= 0.99, (device, flows)
        assert flows.unversioned == 0
        # Every matched pair produced an s/f flow-event couple.
        flow_events = [
            e for e in analysis.chrome["traceEvents"] if e.get("cat") == "flow"
        ]
        assert len(flow_events) == 2 * flows.paired
        starts = [e for e in flow_events if e["ph"] == "s"]
        finishes = [e for e in flow_events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == flows.paired
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        # Finish events use the "enclosing slice" binding point.
        assert all(e.get("bp") == "e" for e in finishes)

    def test_edges_are_causally_ordered(self, traced_ring):
        _device, directory = traced_ring
        analysis = analyze_directory(directory)
        for edge in analysis.edges:
            # After skew correction no recv may end before its send
            # began — the merge's core promise.
            assert edge.recv.end_us >= edge.send.start_us
            # Lamport order backs the same edge logically.
            assert edge.recv.lc is None or edge.send.lc is None or (
                edge.recv.lc > edge.send.lc
            )

    def test_critical_path_nonempty_with_attribution(self, traced_ring):
        _device, directory = traced_ring
        analysis = analyze_directory(directory)
        crit = critical_path(analysis.spans, analysis.edges)
        assert crit["steps"], "critical path must not be empty"
        parts = crit["wait_us"] + crit["wire_us"] + crit["compute_us"]
        assert crit["total_us"] == pytest.approx(parts, abs=0.01)
        assert crit["total_us"] > 0
        # Chain is chronological and each step's attribution is named.
        ends = [s["end_us"] for s in crit["steps"]]
        assert ends == sorted(ends)
        for step in crit["steps"]:
            assert step["attribution"]
            assert set(step["attribution"]) <= {"wait", "wire", "compute"}
        text = format_critical_path(crit)
        assert "critical path:" in text and "attribution:" in text

    def test_report_cli_prints_critical_path(self, traced_ring, capsys):
        _device, directory = traced_ring
        rc = obs_main(["report", str(directory), "--critical-path"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "causal flows:" in out
        assert "critical path:" in out
        assert "attribution:" in out


def _lamport_fingerprint(directory):
    """(per-rank send lcs, per-rank recv (lc, fs, fq)) from a trace dir.

    Engine uids are allocated globally and differ run to run; they are
    normalized to each rank's position so fingerprints compare across
    independent jobs.
    """
    traces = sorted(load_trace_dir(directory), key=lambda t: t.rank)
    uid_to_idx = {t.rank: i for i, t in enumerate(traces)}
    sends: dict[int, list] = {}
    recvs: dict[int, list] = {}
    for idx, trace in enumerate(traces):
        s = [
            (ev["lc"], ev["fq"])
            for ev in trace.events
            if ev.get("ev") == "send.post" and "lc" in ev
        ]
        r = [
            (ev["lc"], uid_to_idx.get(ev.get("fs"), ev.get("fs")), ev.get("fq"))
            for ev in trace.events
            if ev.get("ev") == "recv.complete" and "lc" in ev
        ]
        sends[idx] = s
        recvs[idx] = r
    return sends, recvs


def _critical_skeleton(directory):
    """The structure of the critical path, timing- and uid-free."""
    analysis = analyze_directory(directory)
    uid_to_idx = {
        t.rank: i
        for i, t in enumerate(sorted(analysis.traces, key=lambda t: t.rank))
    }
    crit = critical_path(analysis.spans, analysis.edges)
    skeleton = []
    for s in crit["steps"]:
        flow = s["flow"]
        if flow:
            src, seq = flow.rsplit(":", 1)
            flow = f"{uid_to_idx.get(int(src), src)}:{seq}"
        skeleton.append(
            (s["base"], uid_to_idx.get(s["rank"], s["rank"]), s["proto"],
             flow, s["via"])
        )
    return skeleton


class TestLamportDeterminism:
    """Same seed ⇒ same clock values, across endpoint counts.

    The traffic is strictly sequential (one message in flight at a
    time, driven from one thread), so the frame order — and therefore
    every tick/merge — is fixed by the program, not the scheduler; the
    seeded schedule only perturbs delivery timing.  Clock assignments
    and the critical path's structure must come out identical for
    REPRO_ENDPOINTS=1 and 4 and for repeated runs of the same seed.
    """

    SEED = 20060901

    def _pingpong(self, tmp_dir, monkeypatch, endpoints):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_dir))
        schedule = SeededSchedule(self.SEED)
        devices, pids = make_scheduled_job(
            2, schedule, endpoints=endpoints
        )
        try:
            for i in range(4):
                devices[0].send(send_buffer([i]), pids[1], 9, 0)
                devices[1].recv(Buffer(), pids[0], 9, 0)
                devices[1].send(send_buffer([i * 2]), pids[0], 9, 0)
                devices[0].recv(Buffer(), pids[1], 9, 0)
        finally:
            for d in devices:
                d.finish()
        monkeypatch.delenv("REPRO_TRACE")
        return _lamport_fingerprint(tmp_dir), _critical_skeleton(tmp_dir)

    def test_same_seed_same_clocks_across_endpoints(self, tmp_path, monkeypatch):
        runs = {}
        for endpoints in (1, 4):
            d = tmp_path / f"ep{endpoints}"
            d.mkdir()
            runs[endpoints] = self._pingpong(d, monkeypatch, endpoints)
        (fp1, skel1), (fp4, skel4) = runs[1], runs[4]
        assert fp1 == fp4, "Lamport assignments differ across endpoint counts"
        assert skel1 == skel4, "critical-path structure differs"
        # Sanity: the fingerprint actually saw the traffic.
        sends, recvs = fp1
        assert len(sends[0]) == 4 and len(sends[1]) == 4
        assert len(recvs[0]) == 4 and len(recvs[1]) == 4
        # Clocks strictly increase along each rank's send sequence.
        for lcs in sends.values():
            values = [lc for lc, _fq in lcs]
            assert values == sorted(values) and len(set(values)) == len(values)

    def test_repeated_run_is_identical(self, tmp_path, monkeypatch):
        a = self._pingpong(tmp_path / "a", monkeypatch, 1)
        b = self._pingpong(tmp_path / "b", monkeypatch, 1)
        assert a == b


class TestFlowIdsSurviveChaos:
    def test_duplicate_injection_keeps_pairing_exact(self, tmp_path, monkeypatch):
        """Every RTS/RTR duplicated: the engine rejects the copies and
        flow pairing still reaches 100% — duplicates never create
        phantom flows."""
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        seed = 77
        config = ChaosConfig(seed=seed, duplicate_prob=1.0)
        devices, pids = make_chaos_job(2, seed, config=config)
        try:
            for i in range(5):
                sreq = devices[0].issend(send_buffer([i]), pids[1], 2, 0)
                devices[1].recv(Buffer(), pids[0], 2, 0)
                sreq.wait(timeout=20)
        finally:
            for d in devices:
                d.finish()
        monkeypatch.delenv("REPRO_TRACE")
        analysis = analyze_directory(tmp_path)
        flows = analysis.flows
        assert flows.sends == 5 and flows.recvs == 5
        assert flows.paired == 5 and flows.pair_ratio == 1.0
        assert flows.dropped == 0 and flows.unmatched == 0
        # The duplicates really were injected (the test has teeth).
        assert sum(
            d.engine.stats["duplicate_control_frames"] for d in devices
        ) > 0

    def test_truncated_frames_keep_their_flow_ids(self, tmp_path, monkeypatch):
        """Truncation halves the payload but must leave the header —
        and with it the flow id — intact: the arrival event still names
        the flow the sender stamped, even though the receive fails."""
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        seed = 78
        config = ChaosConfig(seed=seed, truncate_prob=1.0)
        devices, pids = make_chaos_job(2, seed, config=config)
        try:
            rbuf = Buffer()
            rreq = devices[1].irecv(rbuf, pids[0], 1, 0)
            devices[0].send(send_buffer(np.arange(64)), pids[1], 1, 0)
            with pytest.raises(RequestFailedError):
                rreq.wait(timeout=10)
        finally:
            for d in devices:
                d.finish()
        monkeypatch.delenv("REPRO_TRACE")

        sender, receiver = sorted(load_trace_dir(tmp_path), key=lambda t: t.rank)
        posts = [ev for ev in sender.events if ev.get("ev") == "send.post"]
        arrivals = [ev for ev in receiver.events if ev.get("ev") == "eager.in"]
        assert posts and arrivals
        # send.post carries only fq (the origin is the span's own
        # rank); the arrival must name that rank's uid as fs.
        sent_flows = {(sender.rank, ev["fq"]) for ev in posts}
        seen_flows = {(ev["fs"], ev["fq"]) for ev in arrivals}
        assert seen_flows == sent_flows


class TestDroppedVsUnmatched:
    """Classification of unpaired recvs by the sender's ring state."""

    @staticmethod
    def _write_trace(directory, rank, events, dropped=0):
        path = directory / f"dev-rank{rank}-p1000{rank}-1.jsonl"
        lines = [
            json.dumps(
                {
                    "meta": {
                        "rank": rank,
                        "pid": 10000 + rank,
                        "label": "dev",
                        "wall_t0": 100.0,
                        "mono_t0": 0.0,
                        "version": 2,
                    }
                }
            )
        ]
        lines += [json.dumps(ev) for ev in events]
        lines.append(
            json.dumps(
                {"fin": {"events": len(events), "dropped": dropped, "threads": {}}}
            )
        )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _recv_events(self, fq):
        return [
            {"t": 0.001, "tid": 1, "ev": "recv.post", "id": fq, "peer": 0},
            {
                "t": 0.002, "tid": 1, "ev": "recv.complete", "id": fq,
                "peer": 0, "size": 8, "lc": 5, "fs": 0, "fq": fq,
            },
        ]

    def test_lossy_sender_classified_as_dropped(self, tmp_path):
        # Rank 0's ring evicted everything (no send events, dropped>0);
        # rank 1 still completed a recv naming rank 0's flow.
        self._write_trace(tmp_path, 0, [], dropped=3)
        self._write_trace(tmp_path, 1, self._recv_events(fq=1))
        analysis = analyze_directory(tmp_path)
        assert analysis.flows.recvs == 1
        assert analysis.flows.dropped == 1
        assert analysis.flows.unmatched == 0
        assert "1 dropped by trace rings, 0 unmatched" in analysis.report

    def test_clean_sender_classified_as_unmatched(self, tmp_path):
        self._write_trace(tmp_path, 0, [], dropped=0)
        self._write_trace(tmp_path, 1, self._recv_events(fq=1))
        analysis = analyze_directory(tmp_path)
        assert analysis.flows.dropped == 0
        assert analysis.flows.unmatched == 1
        assert "0 dropped by trace rings, 1 unmatched" in analysis.report


class TestRegressCli:
    def _snapshot(self, tmp_path, monkeypatch, name):
        d = tmp_path / f"run-{name}"
        d.mkdir()
        monkeypatch.setenv("REPRO_TRACE", str(d))
        devices, pids = make_job("smdev", 2)
        try:
            devices_thread = threading.Thread(
                target=lambda: devices[0].send(
                    send_buffer(np.arange(16)), pids[1], 7, 0
                )
            )
            devices_thread.start()
            devices[1].recv(Buffer(), pids[0], 7, 0)
            devices_thread.join(10)
        finally:
            for dev in devices:
                dev.finish()
        monkeypatch.delenv("REPRO_TRACE")
        out = tmp_path / f"{name}.json"
        rc = obs_main(["report", str(d), "--json", str(out)])
        assert rc == 0
        return out

    def test_snapshot_and_regress_flow(self, tmp_path, monkeypatch, capsys):
        base = self._snapshot(tmp_path, monkeypatch, "base")
        doc = json.loads(base.read_text())
        assert doc["version"] == 1
        assert doc["flows"]["pair_ratio"] == 1.0
        assert doc["critical_path"]["steps"] >= 1
        assert set(doc) == {"version", "spans", "stages", "flows", "critical_path"}
        assert doc["spans"]["send/eager"]["count"] == 1
        assert "wrote metric snapshot" in capsys.readouterr().out

    def test_report_requires_dir_or_regress(self, capsys):
        rc = obs_main(["report"])
        assert rc == 2


class TestCausalMetrics:
    def test_clock_and_flow_counters_ride_metrics(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        devices, pids = make_job("smdev", 2)
        try:
            t = threading.Thread(
                target=lambda: devices[0].send(
                    send_buffer(np.arange(8)), pids[1], 3, 0
                )
            )
            t.start()
            devices[1].recv(Buffer(), pids[0], 3, 0)
            t.join(10)
            snap0 = devices[0].engine.metrics.snapshot()
            snap1 = devices[1].engine.metrics.snapshot()
            assert snap0["causal"]["flows"] == 1
            assert snap0["causal"]["clock"] >= 1
            # The receiver merged the sender's clock: strictly ahead of
            # the send tick it consumed.
            assert snap1["causal"]["clock"] > 0
        finally:
            for d in devices:
                d.finish()
