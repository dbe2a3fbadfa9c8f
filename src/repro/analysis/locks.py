"""lock-order: static verification of the lock-acquisition hierarchy.

Maps every ``with <lock>:`` / ``<lock>.acquire()`` site to a canonical
lock class from :mod:`repro.xdev.locknames` — the same vocabulary the
runtime watchdog's lock graph uses — and checks two things:

* **direct nesting**: entering a region that holds class A and then
  acquires class B requires ``rank(A) < rank(B)`` (or A == B for a
  self-nesting class);
* **transitive nesting**: calling a function while holding A is a
  violation if anything that function (transitively) acquires would
  break the same rule.

A module's ``attr = new_lock(CLASS, ...)`` assignments classify its
``attr`` sites.  Unclassifiable context managers (files, tracers, chaos
scopes) are ignored; other lock-ish attribute names fall back to
``internal``.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.callgraph import CallGraph, dotted_text
from repro.analysis.core import Finding, Project, enclosing_symbols
from repro.xdev import locknames

CHECKER = "lock-order"


def iter_calls(node: ast.AST):
    """All Call nodes under *node*, pruning nested defs and lambdas
    (their bodies run later, on whatever thread invokes them).  When
    *node* itself is a def, its own body is scanned — only defs nested
    *below* the root are pruned."""
    if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
        stack = list(ast.iter_child_nodes(node))
    else:
        stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(n, ast.Call):
            yield n
        stack.extend(ast.iter_child_nodes(n))

def factory_class(value: ast.AST) -> Optional[str]:
    """Lock class made by ``new_lock(CLASS, ...)``/``new_condition(...)``,
    or by a list comprehension of them; None for any other expression."""
    if isinstance(value, ast.ListComp):
        value = value.elt
    if not (isinstance(value, ast.Call) and value.args):
        return None
    if (dotted_text(value.func) or "").rsplit(".", 1)[-1] not in ("new_lock", "new_condition"):
        return None
    name = (dotted_text(value.args[0]) or "").rsplit(".", 1)[-1]
    cls = getattr(locknames, name, None)
    return cls if isinstance(cls, str) and cls in locknames.HIERARCHY else None


def lock_classes(tree: ast.Module) -> dict[str, str]:
    """Attribute name -> lock class of every ``x.attr = new_lock(CLASS,
    ...)`` in one module.  Per module, because a bare name such as
    ``lock`` is a matching shard in one module and a leaf elsewhere."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            cls = factory_class(node.value)
            for target in node.targets if cls else ():
                if isinstance(target, ast.Attribute):
                    out[target.attr] = cls
    return out


def classify_lock(
    node: ast.AST, classes: dict[str, str], bindings: Optional[dict[str, str]] = None
) -> Optional[str]:
    """Lock class of a context/acquire expression, or None if not a lock
    (*classes* is its module's :func:`lock_classes`)."""
    bindings = bindings or {}
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    if isinstance(node, ast.Subscript):
        return classify_lock(node.value, classes, bindings)
    if isinstance(node, ast.Attribute):
        attr = node.attr
        if attr in classes:
            return classes[attr]
        # leaf fallback: any lock-ish private attribute
        if "lock" in attr or attr in ("_cond", "_inner"):
            return locknames.INTERNAL
    return None


def _classify_with_item(
    item: ast.withitem, classes: dict[str, str], bindings: dict[str, str]
) -> list[str]:
    """Lock classes entered by one ``with`` item (0, 1 or 2 of them)."""
    ctx = item.context_expr
    if (
        isinstance(ctx, ast.Call)
        and isinstance(ctx.func, ast.Attribute)
        and ctx.func.attr == "_all_locked"
    ):
        return [locknames.RECV_SHARD, locknames.RECV_WILDCARD]
    c = classify_lock(ctx, classes, bindings)
    return [c] if c is not None else []


def _local_lock_bindings(fn_node: ast.AST, classes: dict[str, str]) -> dict[str, str]:
    """``lock = entry.write_lock``-style local names -> class."""
    out: dict[str, str] = {}
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                value = node.value
                c = factory_class(value)
                if c is None and isinstance(value, (ast.Attribute, ast.Subscript)):
                    c = classify_lock(value, classes, {})
                if c is not None:
                    out.setdefault(target.id, c)
    return out


def _direct_acquires(fn, classes: dict[str, str]) -> set[str]:
    """Every lock class *fn* acquires anywhere in its own body."""
    bindings = _local_lock_bindings(fn.node, classes)
    out: set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                out.update(_classify_with_item(item, classes, bindings))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            c = classify_lock(node.func.value, classes, bindings)
            if c is not None:
                out.add(c)
    return out


def _transitive_acquires(
    cg: CallGraph, classes: dict[str, dict[str, str]]
) -> dict[str, set[str]]:
    direct = {
        q: _direct_acquires(fn, classes[fn.sf.rel]) for q, fn in cg.functions.items()
    }
    # fixed point over call edges
    changed = True
    while changed:
        changed = False
        for q, fn in cg.functions.items():
            acc = direct[q]
            before = len(acc)
            for site in fn.calls:
                for callee in site.callees:
                    if callee in direct and callee != q:
                        acc |= direct[callee]
            if len(acc) != before:
                changed = True
    return direct


def _ok(held: str, new: str) -> bool:
    if held == new:
        return new in locknames.SELF_NESTING
    return locknames.HIERARCHY[held] < locknames.HIERARCHY[new]


class _FunctionChecker:
    """Simulates held-lock state over one function body in source order."""

    def __init__(self, cg, fn, trans, findings, symbols, classes) -> None:
        self.cg = cg
        self.fn = fn
        self.trans = trans
        self.findings = findings
        self.symbols = symbols
        self.classes = classes
        self.bindings = _local_lock_bindings(fn.node, classes)
        self.held: list[str] = []
        self.sites_by_node = {id(cs.node): cs for cs in fn.calls}

    # ------------------------------------------------------------------

    def _report(self, line: int, message: str) -> None:
        self.findings.append(
            Finding(
                checker=CHECKER,
                path=self.fn.sf.rel,
                line=line,
                symbol=self.symbols.get(line, self.fn.qname),
                message=message,
            )
        )

    def _push(self, new: str, line: int) -> None:
        for held in self.held:
            if not _ok(held, new):
                self._report(
                    line,
                    f"acquires '{new}' (rank {locknames.HIERARCHY[new]}) while "
                    f"holding '{held}' (rank {locknames.HIERARCHY[held]}); the "
                    "hierarchy requires strictly ascending ranks "
                    "(see repro.xdev.locknames)",
                )
        self.held.append(new)

    def _pop(self, cls: str) -> None:
        for i in range(len(self.held) - 1, -1, -1):
            if self.held[i] == cls:
                del self.held[i]
                return

    # ------------------------------------------------------------------

    def check(self) -> None:
        self._walk(self.fn.node.body)

    def _walk(self, stmts) -> None:
        for s in stmts:
            self._stmt(s)

    def _stmt(self, s: ast.stmt) -> None:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are checked as their own functions
        if isinstance(s, (ast.With, ast.AsyncWith)):
            entered: list[str] = []
            for item in s.items:
                classes = _classify_with_item(item, self.classes, self.bindings)
                if classes:
                    for c in classes:
                        self._push(c, s.lineno)
                        entered.append(c)
                else:
                    self._expr(item.context_expr)
            self._walk(s.body)
            for c in reversed(entered):
                self._pop(c)
            return
        if isinstance(s, ast.If):
            self._expr(s.test)
            # Branches must not leak acquisitions into each other: an
            # if/else that acquires the same lock both ways is not
            # self-nesting.  Simulate each on its own copy and continue
            # with the longer (more-held = conservative) result.
            entry = list(self.held)
            self.held = list(entry)
            self._walk(s.body)
            after_body = self.held
            self.held = list(entry)
            self._walk(s.orelse)
            after_orelse = self.held
            self.held = (
                after_body
                if len(after_body) >= len(after_orelse)
                else after_orelse
            )
            return
        if isinstance(s, (ast.For, ast.AsyncFor)):
            self._expr(s.iter)
            self._walk(s.body)
            self._walk(s.orelse)
            return
        if isinstance(s, ast.While):
            self._expr(s.test)
            self._walk(s.body)
            self._walk(s.orelse)
            return
        if isinstance(s, ast.Try):
            self._walk(s.body)
            for h in s.handlers:
                self._walk(h.body)
            self._walk(s.orelse)
            self._walk(s.finalbody)
            return
        # plain statement: scan its expressions for lock ops and calls
        self._expr(s)

    def _expr(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        for sub in iter_calls(node):
            self._call(sub)

    def _call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "acquire":
                c = classify_lock(node.func.value, self.classes, self.bindings)
                if c is not None:
                    self._push(c, node.lineno)
                return
            if node.func.attr == "release":
                c = classify_lock(node.func.value, self.classes, self.bindings)
                if c is not None:
                    self._pop(c)
                return
        if not self.held:
            return
        site = self.sites_by_node.get(id(node))
        if site is None:
            return
        for callee in site.callees:
            acquired = self.trans.get(callee, set())
            for c in sorted(acquired):
                for held in self.held:
                    if not _ok(held, c):
                        self._report(
                            node.lineno,
                            f"holds '{held}' (rank "
                            f"{locknames.HIERARCHY[held]}) across a call to "
                            f"{callee}, which may acquire '{c}' (rank "
                            f"{locknames.HIERARCHY[c]}); the hierarchy "
                            "requires strictly ascending ranks",
                        )


def check(project: Project, cg: CallGraph) -> list[Finding]:
    findings: list[Finding] = []
    classes = {sf.rel: lock_classes(sf.tree) for sf in project.files}
    trans = _transitive_acquires(cg, classes)
    symbols_cache: dict[str, dict[int, str]] = {}
    for fn in cg.functions.values():
        symbols = symbols_cache.get(fn.sf.rel)
        if symbols is None:
            symbols = symbols_cache[fn.sf.rel] = enclosing_symbols(fn.sf.tree)
        _FunctionChecker(cg, fn, trans, findings, symbols, classes[fn.sf.rel]).check()
    return findings
