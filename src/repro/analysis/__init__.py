"""reprolint — static analysis for this codebase's concurrency invariants.

The runtime already *observes* its invariants dynamically: the torture
watchdog tracks lock order and stuck progress, the pools warn about
leaked buffers at shutdown, and procdev's counters expose deferred
pushes.  All of that fires after the bug is written.  This package
checks the same invariants **statically**, at review time, from the
AST:

``lock-order``
    ``with``/``acquire()`` nesting against the canonical hierarchy in
    :mod:`repro.xdev.locknames` (the watchdog's lock-graph vocabulary).
``no-block-in-poller``
    nothing reachable from a procdev poller or niodev input-handler
    entry point may call an unbounded blocking primitive.
``segment-escape``
    views from ``Buffer.segments()`` / ``begin_landing`` /
    ``rendezvous_landing`` / ``SpscRing.poll`` must not outlive their
    delivery fence (``finish_landing`` / ``consume``).
``pool-balance``
    every pool/arena ``acquire`` must reach a ``release`` (or transfer
    ownership) on all paths, including exception edges.
``publish-after-write``
    in :mod:`repro.shm.ring`, slot-payload stores must precede the
    cursor publish store.

Run it with ``python -m repro.analysis [--json] [--diff REF]
[paths...]``; waivers are inline ``# reprolint: allow[...] -- why``
directives only; see ``docs/analysis.md``.
"""

from __future__ import annotations

from repro.analysis.core import Finding, Project, SourceFile

__all__ = ["Finding", "Project", "SourceFile", "run_checkers", "CHECKERS"]


def run_checkers(project: Project, checkers=None) -> list[Finding]:
    """Run *checkers* (default: all) over *project*; sorted findings."""
    from repro.analysis.cli import run_checkers as _run

    return _run(project, checkers)


def __getattr__(name: str):
    if name == "CHECKERS":
        from repro.analysis.cli import CHECKERS

        return CHECKERS
    raise AttributeError(name)
