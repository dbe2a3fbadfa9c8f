"""Tests for run_spmd(trace=True) and the stall detector."""

import numpy as np
import pytest

from repro import mpi
from repro.obs.merge import load_trace_dir
from repro.runtime.launcher import SpmdError, run_spmd


class TestTracedJobs:
    def test_traces_returned_alongside_results(self):
        def main(env):
            comm = env.COMM_WORLD
            if comm.rank() == 0:
                comm.send("traced!", dest=1, tag=5)
                return "sent"
            return comm.recv(source=0, tag=5)

        results, traces = run_spmd(main, 2, trace=True)
        assert results == ["sent", "traced!"]
        sends = [
            e for e in traces[0].events()
            if e["ev"] in ("mpi.send.post", "mpi.isend.post")
        ]
        recvs = [
            e for e in traces[1].events()
            if e["ev"] in ("mpi.recv.post", "mpi.irecv.post")
        ]
        assert sends and recvs
        assert sends[0]["tag"] == 5

    def test_collectives_visible_in_traces(self):
        def main(env):
            comm = env.COMM_WORLD
            total = np.zeros(1, dtype=np.int64)
            comm.Allreduce(
                np.array([1], dtype=np.int64), 0, total, 0, 1, mpi.LONG, mpi.SUM
            )
            return int(total[0])

        results, traces = run_spmd(main, 3, trace=True)
        assert results == [3, 3, 3]
        # The reduce/bcast plumbing shows up as point-to-point events.
        for tracer in traces:
            assert tracer.summary()["events"] > 0

    def test_timeout_preserves_traces_for_diagnosis(self):
        def main(env):
            comm = env.COMM_WORLD
            if comm.rank() == 1:
                # A receive that will never match: the classic hang.
                buf = np.zeros(1)
                comm.Recv(buf, 0, 1, mpi.DOUBLE, 0, 12345)
            return True

        with pytest.raises(SpmdError) as err:
            run_spmd(main, 2, trace=True, timeout=2)
        traces = err.value.traces
        assert traces is not None
        stalled = traces[1].detect_stalled(min_age_s=0.5)
        assert stalled, "the hung receive should be reported"
        assert stalled[0]["tag"] == 12345
        assert stalled[0]["ev"] in ("mpi.recv.post", "mpi.irecv.post")

    def test_mpi_jsonl_export(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))

        def main(env):
            comm = env.COMM_WORLD
            if comm.rank() == 0:
                comm.send("ping", dest=1, tag=1)
                return comm.recv(source=1, tag=2)
            msg = comm.recv(source=0, tag=1)
            comm.send("pong", dest=0, tag=2)
            return msg

        results, traces = run_spmd(main, 2, trace=True)
        assert results == ["pong", "ping"]
        files = load_trace_dir(tmp_path)
        # The tracer's ``mpi`` files sit next to the device engines' own.
        device_labels = {t.label for t in files} - {"mpi"}
        assert len(device_labels) == 1 and len(files) == 4
        mpi_files = {t.rank: t for t in files if t.label == "mpi"}
        assert sorted(mpi_files) == sorted(tr.id().uid for tr in traces)
        for tracer in traces:
            trace = mpi_files[tracer.id().uid]
            posts = {e["id"] for e in trace.events if e["ev"].endswith(".post")}
            completes = {
                e["id"] for e in trace.events if e["ev"].endswith(".complete")
            }
            assert posts and posts <= completes
            assert tracer.events() == trace.events

    def test_no_trace_returns_plain_results(self):
        def main(env):
            return env.COMM_WORLD.rank()

        assert run_spmd(main, 2) == [0, 1]
