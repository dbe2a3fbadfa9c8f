"""Local process spawner: procdev or niodev ranks as child processes.

The daemon/mpjrun pair launches ranks across hosts over TCP; procdev
ranks instead share memory, so they must share a *host* — and then no
daemon is needed at all.  ``run_local_job`` is the local counterpart of
:func:`repro.runtime.mpjrun.run_job`: it creates the job's bootstrap —
a shared-memory segment (rings + descriptor) for procdev, an
*addresses-only* peer table for niodev (no sockets: lazy connections
appear on first traffic) — forks one
``python -m repro.runtime.worker`` per rank with the bootstrap in its
config, and babysits the children:

* any rank exiting non-zero (or dying on a signal) gets the rest of
  the job terminated and a :class:`JobError` raised with the failing
  ranks' stderr — the parent never hangs on a half-dead job;
* after reaping, the parent closes the bootstrap segment it owns and
  **sweeps** the job's shared-memory name prefix, unlinking anything a
  killed rank left behind (SIGKILL runs no atexit hook in the child;
  this sweep is the only cleanup such a rank gets);
* per-rank copy-stats snapshots written into the bootstrap's stats
  directory at finalize are merged into ``JobResult.stats`` — job-wide
  numbers, not rank-0-only ones.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.obs import tracing
from repro.runtime.mpjrun import JobError, JobResult, _extract_result
from repro.shm.bootstrap import ShmBootstrap, active_segments, new_job_id, sweep


def _worker_env(trace_dir: Optional[Path] = None) -> dict[str, str]:
    """Child environment: inherit, but make sure ``repro`` imports.

    The parent may be running from a source checkout that is on
    ``sys.path`` without being on ``PYTHONPATH``; the child is a fresh
    interpreter and only sees the latter.

    Observability env rides along the same way: ``REPRO_METRICS`` /
    ``REPRO_TRACE`` (and its buffer knob) are inherited, so a traced
    ``mpjrun --local`` invocation produces per-rank trace files just
    like an in-process job.  An explicit *trace_dir* overrides the
    inherited ``REPRO_TRACE``; either way the directory is absolutized
    — the children run in the parent's cwd today, but a relative path
    would silently scatter traces if that ever changes.
    """
    env = dict(os.environ)
    pkg_root = str(Path(__file__).resolve().parent.parent.parent)
    parts = env.get("PYTHONPATH", "").split(os.pathsep)
    if pkg_root not in parts:
        env["PYTHONPATH"] = os.pathsep.join([pkg_root] + [p for p in parts if p])
    if trace_dir is None:
        trace_dir = tracing.trace_dir()
    if trace_dir is not None:
        env[tracing.TRACE_ENV] = str(Path(trace_dir).resolve())
    return env


def _collect_traces(
    env: dict[str, str], pids: list[int]
) -> tuple[Optional[str], list[str]]:
    """This job's trace files: the env's trace dir filtered by rank pid.

    The trace dir may accumulate files across jobs (the bench reuses
    one dir); the worker pids embedded in the file names
    (``…-p<ospid>-…``) pick out exactly this job's output.
    """
    directory = env.get(tracing.TRACE_ENV, "").strip()
    if not directory:
        return None, []
    markers = [f"-p{pid}-" for pid in pids]
    files = sorted(
        str(p)
        for p in Path(directory).glob("*.jsonl")
        if any(marker in p.name for marker in markers)
    )
    return directory, files


def run_local_job(
    nprocs: int,
    module_path: str | Path | None = None,
    *,
    module_source: str | None = None,
    entry: str = "main",
    args: Sequence[Any] = (),
    device: str = "procdev",
    options: Optional[dict] = None,
    timeout: float = 120.0,
    poll_interval: float = 0.05,
    nslots: int = 32,
    slot_bytes: int = 16384,
    trace_dir: str | Path | None = None,
) -> JobResult:
    """Run an SPMD job as local child processes over shared memory.

    Exactly one of *module_path* / *module_source* selects the user
    code (same contract as the daemon path).  Raises :class:`JobError`
    carrying ``job_id`` and the list of ``swept`` leftover segments on
    any failure; on success the job is guaranteed to leave zero named
    segments behind.
    """
    if nprocs < 1:
        raise JobError("nprocs must be >= 1")
    if (module_path is None) == (module_source is None):
        raise JobError("exactly one of module_path/module_source is required")

    job_id = new_job_id()
    workdir = Path(tempfile.mkdtemp(prefix=f"repro-job-{job_id}-"))
    stats_dir = workdir / "stats"
    stats_dir.mkdir()
    opts = dict(options or {})
    peers: list[Any] = []
    bootstrap = None
    if device == "niodev":
        # Addresses-only bootstrap: pre-pick one listen address per
        # rank by briefly binding it, then close the placeholders —
        # each child re-binds its own ``peers[rank]`` (SO_REUSEADDR)
        # and no connection exists until first traffic, so job-wide
        # startup cost is O(n) sockets, not the eager era's O(n²).
        from repro.xdev.niodev import allocate_local_endpoints

        addrs, placeholders = allocate_local_endpoints(nprocs)
        for s in placeholders:
            s.close()
        peers = [list(a) for a in addrs]
    else:
        bootstrap = ShmBootstrap.create(
            job_id,
            nprocs,
            nslots=nslots,
            slot_bytes=slot_bytes,
            stats_dir=str(stats_dir),
        )
        opts["shm_bootstrap"] = bootstrap.descriptor()

    base_config: dict[str, Any] = {
        "nprocs": nprocs,
        "peers": peers,
        "device": device,
        "options": opts,
        "entry": entry,
        "args": list(args),
    }
    if module_source is not None:
        base_config["module_source"] = module_source
    else:
        base_config["module_path"] = str(Path(module_path).resolve())

    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    env = _worker_env(Path(trace_dir) if trace_dir is not None else None)
    procs: list[subprocess.Popen] = []
    swept: list[str] = []
    try:
        for rank in range(nprocs):
            cfg_path = workdir / f"rank{rank}.json"
            cfg_path.write_text(
                json.dumps(dict(base_config, rank=rank)), encoding="utf-8"
            )
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.runtime.worker", str(cfg_path)],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                )
            )

        deadline = time.monotonic() + timeout
        while True:
            codes = [p.poll() for p in procs]
            if all(c is not None for c in codes):
                break
            if any(c is not None and c != 0 for c in codes):
                # One rank died; its peers are stuck talking to a
                # corpse. Reap the job now rather than waiting for
                # their ring timeouts.
                _terminate(procs)
                break
            if time.monotonic() > deadline:
                _terminate(procs)
                outs = _drain(procs)
                raise JobError(
                    f"job {job_id} did not finish within {timeout}s",
                    job_id=job_id,
                )
            time.sleep(poll_interval)

        outs = _drain(procs)
        codes = [p.returncode for p in procs]
        if any(code != 0 for code in codes):
            bad = [r for r in range(nprocs) if codes[r] != 0]
            detail = "\n".join(
                f"--- rank {r} (exit {codes[r]}) ---\n{outs[r][1]}" for r in bad
            )
            raise JobError(
                f"job {job_id}: workers failed:\n{detail}", job_id=job_id
            )

        stats = (
            _collect_stats(str(stats_dir), nprocs)
            if bootstrap is not None
            else None
        )
        job_trace_dir, trace_files = _collect_traces(
            env, [p.pid for p in procs]
        )
        result = JobResult(
            job_id,
            [_extract_result(out) for out, _ in outs],
            [out for out, _ in outs],
            [err for _, err in outs],
            codes,
            stats=stats,
            trace_dir=job_trace_dir,
            trace_files=trace_files,
        )
        return result
    except JobError as exc:
        exc.job_id = job_id
        raise
    finally:
        _terminate(procs)
        leftovers: list[str] = []
        if bootstrap is not None:
            bootstrap.close()
            # Reap anything a killed rank had no chance to unlink itself.
            swept.extend(sweep(job_id))
            leftovers = active_segments(job_id)
        shutil.rmtree(workdir, ignore_errors=True)
        # Record sweep results on an in-flight JobError (leak audits
        # read these to prove cleanup actually happened).
        exc_info = sys.exc_info()[1]
        if isinstance(exc_info, JobError):
            exc_info.swept = list(swept)
            exc_info.leaked = leftovers


def _terminate(procs: list[subprocess.Popen]) -> None:
    for p in procs:
        if p.poll() is None:
            p.terminate()
    deadline = time.monotonic() + 5
    for p in procs:
        if p.poll() is None:
            try:
                p.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()


def _drain(procs: list[subprocess.Popen]) -> list[tuple[str, str]]:
    outs = []
    for p in procs:
        try:
            out, err = p.communicate(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - already reaped
            p.kill()
            out, err = p.communicate()
        outs.append((out or "", err or ""))
    return outs


def _collect_stats(stats_dir: str, nprocs: int) -> Optional[dict]:
    from repro.xdev.procdev import collect_job_stats

    try:
        # Children have exited: every snapshot that will ever exist is
        # on disk, so no grace wait is needed.
        return collect_job_stats(stats_dir, nprocs, timeout=0.0)
    except Exception:  # pragma: no cover - stats are best-effort
        return None
