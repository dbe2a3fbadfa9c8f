"""reprolint command line: ``python -m repro.analysis [options] [paths]``.

Exit codes: 0 — clean (modulo inline allows); 1 — at least one live
finding; 2 — usage error or a ``--diff`` ref that does not resolve.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

from repro.analysis import blocking, locks, pools, publish, segments
from repro.analysis.callgraph import CallGraph
from repro.analysis.core import Finding, Project

#: checker id -> module (each exposes ``check(project, callgraph)``)
CHECKERS = {
    locks.CHECKER: locks,
    blocking.CHECKER: blocking,
    segments.CHECKER: segments,
    pools.CHECKER: pools,
    publish.CHECKER: publish,
}


def run_checkers(project: Project, checkers=None) -> list[Finding]:
    """All findings: parse errors, bad suppressions, checker output —
    already filtered through inline allows, deduped and sorted."""
    selected = CHECKERS if checkers is None else {
        k: v for k, v in CHECKERS.items() if k in checkers
    }
    cg = CallGraph(project)
    findings: list[Finding] = list(project.errors)
    findings.extend(project.suppression_findings())
    for mod in selected.values():
        findings.extend(mod.check(project, cg))
    out: list[Finding] = []
    seen: set[tuple] = set()
    for f in findings:
        sf = project.by_rel.get(f.path)
        if sf is not None and sf.allows(f.checker, f.line):
            continue
        ident = (f.checker, f.path, f.line, f.message)
        if ident in seen:
            continue
        seen.add(ident)
        out.append(f)
    out.sort(key=lambda f: (f.path, f.line, f.checker, f.message))
    return out


# ----------------------------------------------------------------------
# --diff support


def resolve_ref(ref: str, cwd: Optional[Path] = None) -> Optional[str]:
    """Resolve *ref* to a commit sha, or None if it doesn't exist."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"],
            capture_output=True,
            text=True,
            cwd=cwd,
        )
    except OSError:
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def changed_files(ref: str, cwd: Optional[Path] = None) -> Optional[set[str]]:
    """Paths changed vs *ref* (repo-relative, POSIX), or None on bad ref."""
    sha = resolve_ref(ref, cwd)
    if sha is None:
        return None
    proc = subprocess.run(
        ["git", "diff", "--name-only", sha, "--"],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    if proc.returncode != 0:
        return None
    return {line.strip() for line in proc.stdout.splitlines() if line.strip()}


def _filter_diff(findings: list[Finding], changed: set[str]) -> list[Finding]:
    return [f for f in findings if f.path in changed]


# ----------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: static checks for this tree's concurrency "
        "and zero-copy invariants",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files/directories to analyse (default: src/repro)",
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument(
        "--out", type=Path, help="also write the JSON report to this file"
    )
    parser.add_argument(
        "--diff",
        metavar="REF",
        help="report only findings in files changed vs this git ref "
        "(the whole tree is still parsed, so the call graph stays sound)",
    )
    parser.add_argument(
        "--checker",
        action="append",
        choices=sorted(CHECKERS),
        help="run only this checker (repeatable)",
    )
    args = parser.parse_args(argv)

    paths = args.paths
    if not paths:
        default = Path("src/repro")
        paths = [default] if default.exists() else [Path(".")]

    project = Project.load(paths)
    findings = run_checkers(project, args.checker)

    changed: Optional[set[str]] = None
    if args.diff:
        changed = changed_files(args.diff)
        if changed is None:
            print(
                f"reprolint: --diff ref {args.diff!r} does not resolve to a "
                "commit",
                file=sys.stderr,
            )
            return 2
        findings = _filter_diff(findings, changed)

    report = {
        "version": 1,
        "paths": [str(p) for p in paths],
        "diff_ref": args.diff,
        "findings": [f.to_json() for f in findings],
    }
    if args.out:
        args.out.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for f in findings:
            print(f.render())
        print(
            f"reprolint: {len(findings)} finding(s), "
            f"{len(project.files)} file(s)"
        )
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
