"""The MPJE daemon: listens on an IP port, starts worker processes.

Paper Section IV-D: "The runtime system consists of two modules.  The
daemon module executes on compute-nodes and listens for requests to
start MPJE processes. ... The mpjrun module acts as a client to the
daemon module."

One daemon runs per compute node; ``mpjrun`` sends it a ``start``
request naming which of the job's ranks this node hosts.  The daemon
launches one worker interpreter per rank (see
:mod:`repro.runtime.worker`), captures each worker's stdout/stderr to
scratch files, and answers ``poll`` requests with status and output.

The Java Service Wrapper role (installing the daemon as an OS service)
is covered by :mod:`repro.runtime.wrapper`.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import tempfile
import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.runtime.protocol import ProtocolError, recv_json, send_json

DEFAULT_PORT = 10_000  # the historical MPJ Express daemon port


@dataclass
class _WorkerProc:
    rank: int
    process: subprocess.Popen
    stdout_path: Path
    stderr_path: Path


@dataclass
class _Job:
    job_id: str
    workers: list[_WorkerProc] = field(default_factory=list)
    scratch: Optional[Path] = None


class Daemon:
    """A compute-node daemon instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((host, port))
        self._listen.listen(16)
        self.host, self.port = self._listen.getsockname()
        self._jobs: dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # serving

    def start(self) -> None:
        """Serve in a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"mpj-daemon-{self.port}", daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        self._listen.settimeout(0.5)
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._listen.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._serve_one, args=(conn,), daemon=True
            ).start()
        self._listen.close()

    def _serve_one(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("r", encoding="utf-8") as f:
                try:
                    req = recv_json(f)
                except ProtocolError:
                    return
                try:
                    reply = self._handle(req)
                except Exception as exc:  # noqa: BLE001 - reported to client
                    reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                send_json(conn, reply)
        except OSError:  # pragma: no cover - client went away
            pass

    # ------------------------------------------------------------------
    # request handling

    def _handle(self, req: Any) -> dict:
        if not isinstance(req, dict) or "cmd" not in req:
            return {"ok": False, "error": "malformed request"}
        cmd = req["cmd"]
        if cmd == "ping":
            with self._lock:
                njobs = len(self._jobs)
            return {"ok": True, "jobs": njobs, "port": self.port}
        if cmd == "start":
            return self._start_job(req)
        if cmd == "poll":
            return self._poll_job(req)
        if cmd == "stop":
            return self._stop_job(req)
        if cmd == "shutdown":
            self._shutdown.set()
            return {"ok": True}
        return {"ok": False, "error": f"unknown command {cmd!r}"}

    def _start_job(self, req: dict) -> dict:
        job_id = req.get("job_id") or uuid.uuid4().hex
        ranks = req["ranks"]  # ranks THIS daemon hosts
        scratch = Path(tempfile.mkdtemp(prefix=f"mpj-job-{job_id[:8]}-"))
        job = _Job(job_id=job_id, scratch=scratch)

        base_config = {
            "nprocs": req["nprocs"],
            "peers": req["peers"],
            "device": req.get("device", "niodev"),
            "options": req.get("options", {}),
            "entry": req.get("entry", "main"),
            "args": req.get("args", []),
        }
        if "module_source" in req:
            base_config["module_source"] = req["module_source"]
        else:
            base_config["module_path"] = req["module_path"]

        self._spawn_workers(job, base_config, ranks)

        with self._lock:
            self._jobs[job_id] = job
        return {"ok": True, "job_id": job_id, "pids": [w.process.pid for w in job.workers]}

    def _spawn_workers(self, job: _Job, base_config: dict, ranks: list) -> None:
        for rank in ranks:
            config = dict(base_config, rank=rank)
            config_path = job.scratch / f"rank{rank}.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            stdout_path = job.scratch / f"rank{rank}.out"
            stderr_path = job.scratch / f"rank{rank}.err"
            # "starts a new JVM whenever there is a request to execute
            # an MPJE process" — here, a new CPython interpreter.
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.worker", str(config_path)],
                stdout=stdout_path.open("wb"),
                stderr=stderr_path.open("wb"),
            )
            worker = _WorkerProc(rank, process, stdout_path, stderr_path)
            job.workers.append(worker)

    def _poll_job(self, req: dict) -> dict:
        job_id = req["job_id"]
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return {"ok": False, "error": f"unknown job {job_id!r}"}
        statuses = []
        for w in job.workers:
            code = w.process.poll()
            entry: dict[str, Any] = {"rank": w.rank, "exit_code": code}
            if code is not None:
                entry["stdout"] = w.stdout_path.read_text(errors="replace")
                entry["stderr"] = w.stderr_path.read_text(errors="replace")
            statuses.append(entry)
        return {"ok": True, "job_id": job_id, "workers": statuses}

    def _stop_job(self, req: dict) -> dict:
        job_id = req["job_id"]
        with self._lock:
            job = self._jobs.pop(job_id, None)
        if job is None:
            return {"ok": False, "error": f"unknown job {job_id!r}"}
        for w in job.workers:
            if w.process.poll() is None:
                w.process.terminate()
        return {"ok": True}

    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        self._shutdown.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        with self._lock:
            jobs = list(self._jobs.values())
            self._jobs.clear()
        for job in jobs:
            for w in job.workers:
                if w.process.poll() is None:
                    w.process.terminate()


def main(argv: Optional[list[str]] = None) -> int:
    """CLI: ``mpjdaemon [--port N]`` — run a daemon in the foreground."""
    import argparse

    parser = argparse.ArgumentParser(description="MPJ Express compute-node daemon")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    ns = parser.parse_args(argv)
    daemon = Daemon(ns.host, ns.port)
    print(f"mpj daemon listening on {daemon.host}:{daemon.port}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
