"""no-block-in-poller: poller/input-handler threads must never block.

PR 6's two-poller deadlock proof rests on one rule: the procdev
progress poller and the niodev input handler only ever *try* — a full
outbound ring defers, it never waits.  (smdev has no such thread: it
delivers on the writer's thread.)  This checker makes the rule
structural:

1. find thread entry points — ``threading.Thread(target=..., name=...)``
   where the name contains ``poller`` or ``input-handler`` (the same
   thread-role names the watchdog sees in stall snapshots);
2. close over the call graph from those entries;
3. flag every reachable call to an unbounded blocking primitive:
   blocking ring ``push``, ``time.sleep``, untimed ``Condition.wait`` /
   ``Event.wait`` / ``join()``, untimed ``acquire()`` on a lock outside
   the classified hierarchy, blocking socket ops, and untimed queue
   ``get``.

Designed-blocking sites (the bounded doorbell in ``Backoff.wait``, the
bounded dial retry) carry inline
``# reprolint: allow[no-block-in-poller] -- why`` waivers; an allow on
a *call site* line prunes that edge without hiding new blocking paths.
The rendezvous data write is one such site: a poller-delivered RTR
forks it onto a ``rendez-write-thread`` unless the deliberate
``fork_rendezvous_writer=False`` ablation is set, and niodev's
``sendmsg`` carries the waiver.  An RTR delivered on a writing thread
(smdev, niodev's frames to self) is written inline, on no poller.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CallGraph, FunctionInfo, dotted_text
from repro.analysis.core import Finding, Project
from repro.analysis.locks import classify_lock, iter_calls, _local_lock_bindings, lock_classes

CHECKER = "no-block-in-poller"

_ROLES = ("poller", "input-handler")

#: fully-resolved project callees that block by contract
_BLOCKING_QNAMES = {
    "repro.shm.ring.SpscRing.push": "blocking ring push (use try_push / defer)",
}

_SOCKET_METHODS = frozenset(
    {"accept", "connect", "recv", "recv_into", "sendall", "sendmsg"}
)
_UNAMBIGUOUS_SOCKET = frozenset({"accept", "sendall", "sendmsg"})


def _const_str(node: ast.AST) -> str:
    """Concatenated constant parts of a string/f-string expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            v.value
            for v in node.values
            if isinstance(v, ast.Constant) and isinstance(v.value, str)
        )
    return ""


def _has_timeout(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(kw.arg in ("timeout", "block") for kw in call.keywords)


def find_entries(cg: CallGraph) -> list[tuple[str, str, str, int]]:
    """(entry qname, role, file, line) for every poller-role thread."""
    out: list[tuple[str, str, str, int]] = []
    for fn in cg.functions.values():
        for node in iter_calls(fn.node):
            text = dotted_text(node.func) or ""
            if text.split(".")[-1] != "Thread":
                continue
            target = None
            name = ""
            for kw in node.keywords:
                if kw.arg == "target":
                    target = kw.value
                elif kw.arg == "name":
                    name = _const_str(kw.value)
            role = next((r for r in _ROLES if r in name), None)
            if role is None or target is None:
                continue
            for qname in _resolve_target(cg, fn, target):
                out.append((qname, role, fn.sf.rel, node.lineno))
    return out


def _resolve_target(cg: CallGraph, fn: FunctionInfo, target: ast.AST) -> list[str]:
    if isinstance(target, ast.Attribute):
        recv_t = cg.receiver_type(fn, target.value)
        if recv_t and recv_t in cg.classes:
            return list(cg._dispatch(recv_t, target.attr))
        return []
    if isinstance(target, ast.Name):
        nested = f"{fn.qname}.{target.id}"
        if nested in cg.functions:
            return [nested]
        resolved = cg.resolve_name(fn.module, target.id)
        if resolved in cg.functions:
            return [resolved]
    return []


def direct_blocking_sites(
    cg: CallGraph, fn: FunctionInfo, classes: dict[str, str]
) -> list[tuple[int, str]]:
    """(line, description) of every blocking primitive *fn* calls itself."""
    out: list[tuple[int, str]] = []
    bindings = _local_lock_bindings(fn.node, classes)
    resolved_lines: dict[int, set[str]] = {}
    for site in fn.calls:
        resolved_lines.setdefault(site.line, set()).update(site.callees)
        for callee in site.callees:
            if callee in _BLOCKING_QNAMES:
                out.append((site.line, _BLOCKING_QNAMES[callee]))
    for node in iter_calls(fn.node):
        text = dotted_text(node.func) or ""
        method = text.split(".")[-1]
        if text == "time.sleep":
            arg = node.args[0] if node.args else None
            if not (isinstance(arg, ast.Constant) and arg.value == 0):
                out.append((node.lineno, "time.sleep"))
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        recv_text = dotted_text(node.func.value) or ""
        # calls resolved to project functions are covered by the
        # call-graph closure, not pattern-matched here
        if any(
            node.lineno in resolved_lines
            and c in resolved_lines[node.lineno]
            and c.rsplit(".", 1)[-1] == method
            for c in resolved_lines.get(node.lineno, ())
        ):
            continue
        if method in _SOCKET_METHODS and (
            method in _UNAMBIGUOUS_SOCKET or "sock" in recv_text
        ):
            out.append((node.lineno, f"blocking socket op .{method}()"))
        elif method == "wait" and not _has_timeout(node):
            out.append((node.lineno, "untimed .wait()"))
        elif method == "join" and not node.args and not node.keywords:
            out.append((node.lineno, "untimed .join()"))
        elif method == "get" and not _has_timeout(node):
            lowered = recv_text.lower()
            if any(h in lowered for h in ("queue", "inbox", "box", "_q")):
                out.append((node.lineno, "blocking queue get"))
        elif method == "acquire" and not _has_timeout(node):
            if classify_lock(node.func.value, classes, bindings) is None:
                out.append((node.lineno, "untimed acquire on unclassified lock"))
    return out


def _suppressed_edges(cg: CallGraph) -> set[tuple[str, int, str]]:
    out: set[tuple[str, int, str]] = set()
    for q, fn in cg.functions.items():
        for site in fn.calls:
            sup = fn.sf.suppressions.get(site.line)
            if sup is not None and sup.justified and sup.covers(CHECKER):
                for callee in site.callees:
                    out.add((q, site.line, callee))
    return out


def _render_path(
    cg: CallGraph, path: list[tuple[str, int, str]], entry: str
) -> str:
    if not path:
        return _short(entry)
    hops = [_short(path[0][0])]
    for caller, line, callee in path:
        hops.append(_short(callee))
    return " -> ".join(hops)


def _short(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qname


def check(project: Project, cg: CallGraph) -> list[Finding]:
    entries = find_entries(cg)
    if not entries:
        return []
    blocked = _suppressed_edges(cg)
    roots = [q for q, _, _, _ in entries]
    reachable = cg.callees_closure(roots, blocked_edges=blocked)
    findings: list[Finding] = []
    classes = {sf.rel: lock_classes(sf.tree) for sf in project.files}
    roles = {}
    for q, role, _, _ in entries:
        roles.setdefault(q, role)
    for q in sorted(reachable):
        fn = cg.functions[q]
        sites = direct_blocking_sites(cg, fn, classes[fn.sf.rel])
        if not sites:
            continue
        path = cg.shortest_path(roots, q, blocked_edges=blocked)
        entry = path[0][0] if path else q
        chain = _render_path(cg, path or [], entry)
        role = roles.get(entry, "poller")
        for line, desc in sites:
            if fn.sf.allows(CHECKER, line):
                continue
            findings.append(
                Finding(
                    checker=CHECKER,
                    path=fn.sf.rel,
                    line=line,
                    symbol=q,
                    message=(
                        f"{desc} is reachable from {role} thread entry "
                        f"{_short(entry)} (path: {chain}); poller-role "
                        "threads must only try, never wait"
                    ),
                )
            )
    return findings
