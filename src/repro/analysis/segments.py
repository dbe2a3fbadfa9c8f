"""segment-escape: zero-copy views must not outlive their fence.

The zero-copy datapath hands out *live views* of memory it does not
own indefinitely:

* ``Buffer.segments()`` — views of the user's message memory, valid
  only until ``Transport.write`` returns, or until its delivery fence
  fires when the write carries one;
* ``begin_landing`` / ``rendezvous_landing`` — an in-place landing
  window, closed by ``finish_landing`` / ``release``.  These return a
  scatter *list* of views, so every element taken from the list
  (``v = views[i]``, ``for v in views``, ``a, b = views``) is a view
  under the same fence;
* ``SpscRing.poll()`` — a view of a shared-memory slot, invalid the
  moment ``consume()`` republishes it.

Storing such a view in an attribute or container detaches it from the
fence; touching it after the fence call reads memory someone else may
already be rewriting.  This checker tracks the view variables
intraprocedurally and flags both escapes:

* **store-escape** — a tainted variable assigned into an attribute or
  subscript, or passed to ``.append``/``.add``/``.put``;
* **use-after-fence** — any mention of the tainted variable lexically
  after the fence call that closes its window (``consume()`` on the
  same ring for ``poll`` views; ``finish_landing``/``.release()`` for
  landing views).

The implementation of the contract itself (:mod:`repro.shm.ring`,
:mod:`repro.buffer.buffer`) is exempt — it *is* the window.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import dotted_text
from repro.analysis.core import Finding, Project, enclosing_symbols

CHECKER = "segment-escape"

#: method calls whose result is a fenced view: method -> fence kind
_SOURCES = {
    "segments": "delivery",
    "begin_landing": "landing",
    "rendezvous_landing": "landing",
    "poll": "ring",
}

_CONTAINER_SINKS = frozenset({"append", "add", "put"})

#: modules that implement the window and legitimately hold the views
_EXEMPT_SUFFIXES = ("repro/shm/ring.py", "repro/buffer/buffer.py")


def _tainted_assigns(fn_node: ast.AST):
    """(var, kind, receiver text, line) for every view-producing assign."""
    for node in ast.walk(fn_node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        value = node.value
        # poll() returns (kind, view); accept tuple unpacking too
        names: list[str] = []
        if isinstance(target, ast.Name):
            names = [target.id]
        elif isinstance(target, ast.Tuple):
            names = [e.id for e in target.elts if isinstance(e, ast.Name)]
        if not names:
            continue
        call = value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            kind = _SOURCES.get(call.func.attr)
            if kind is None:
                continue
            recv = dotted_text(call.func.value) or ""
            if kind == "ring":
                # only ring-ish receivers poll frames
                if not any(h in recv.lower() for h in ("ring", "_in", "_out")):
                    continue
                # the view is the last element of the returned tuple
                names = names[-1:]
            for var in names:
                yield var, kind, recv, node.lineno


def _fence_lines(fn_node: ast.AST, var: str, kind: str, recv: str) -> list[int]:
    out = []
    for node in ast.walk(fn_node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        node_recv = dotted_text(node.func.value) or ""
        if kind == "ring" and attr == "consume" and node_recv == recv:
            out.append(node.lineno)
        elif kind == "landing":
            if attr == "finish_landing":
                out.append(node.lineno)
            elif attr == "release" and node_recv == var:
                out.append(node.lineno)
    return out


def _elements(fn_node: ast.AST, var: str, line: int):
    """(name, line) for every name bound to an element of the landing
    list *var* after *line*: ``x = var[i]``, ``a, b = var``,
    ``for x in var`` and ``for i, x in enumerate(var)``."""
    for node in ast.walk(fn_node):
        if getattr(node, "lineno", 0) <= line:
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value, target = node.value, node.targets[0]
            if isinstance(value, ast.Subscript) and _is_name(value.value, var):
                yield from _bound_names(target, node.lineno)
            elif _is_name(value, var) and isinstance(target, ast.Tuple):
                yield from _bound_names(target, node.lineno)
        elif isinstance(node, ast.For):
            it, target = node.iter, node.target
            if _is_name(it, var):
                yield from _bound_names(target, node.lineno)
            elif (
                isinstance(it, ast.Call)
                and dotted_text(it.func) == "enumerate"
                and it.args
                and _is_name(it.args[0], var)
                and isinstance(target, ast.Tuple)
            ):
                yield from _bound_names(target.elts[-1], node.lineno)


def _bound_names(target: ast.AST, line: int):
    if isinstance(target, ast.Name):
        yield target.id, line
    elif isinstance(target, ast.Tuple):
        for elt in target.elts:
            if isinstance(elt, ast.Name):
                yield elt.id, line


def _is_name(node: ast.AST, var: str) -> bool:
    return isinstance(node, ast.Name) and node.id == var


def check_function(fn_node, sf, symbols, findings: list[Finding]) -> None:
    for var, kind, recv, line in _tainted_assigns(fn_node):
        fences = _fence_lines(fn_node, var, kind, recv)
        views = [(var, line)]
        if kind == "landing":
            views += _elements(fn_node, var, line)
        for name, bound in views:
            _check_view(
                fn_node, sf, symbols, findings, name, kind, recv, bound, fences
            )


def _check_view(
    fn_node, sf, symbols, findings, var, kind, recv, line, fences
) -> None:
    """Flag store-escapes and post-fence uses of the view name *var*."""
    first_fence = min(fences) if fences else None
    for node in ast.walk(fn_node):
        # store-escape: attribute/subscript assignment of the view
        if isinstance(node, ast.Assign) and _mentions(node.value, var):
            if node.lineno <= line:
                continue
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    findings.append(
                        Finding(
                            checker=CHECKER,
                            path=sf.rel,
                            line=node.lineno,
                            symbol=symbols.get(node.lineno, ""),
                            message=(
                                f"'{var}' (a {kind}-fenced view from "
                                f"{recv or 'the buffer'}.{_src_name(kind)}) "
                                "is stored outside its delivery window; "
                                "copy it instead, or hold the backing "
                                "buffer and re-derive the view"
                            ),
                        )
                    )
        # container-escape: .append(view) / .add / .put
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CONTAINER_SINKS
            and node.lineno > line
            and any(_mentions(a, var) for a in node.args)
        ):
            findings.append(
                Finding(
                    checker=CHECKER,
                    path=sf.rel,
                    line=node.lineno,
                    symbol=symbols.get(node.lineno, ""),
                    message=(
                        f"'{var}' (a {kind}-fenced view) escapes into a "
                        f"container via .{node.func.attr}(); the fence "
                        "cannot protect it there"
                    ),
                )
            )
        # use-after-fence
        if (
            first_fence is not None
            and isinstance(node, ast.Name)
            and node.id == var
            and node.lineno > first_fence
        ):
            findings.append(
                Finding(
                    checker=CHECKER,
                    path=sf.rel,
                    line=node.lineno,
                    symbol=symbols.get(node.lineno, ""),
                    message=(
                        f"'{var}' used after its fence on line "
                        f"{first_fence} ({_fence_name(kind)}); the "
                        "memory may already be republished"
                    ),
                )
            )


def _mentions(node: ast.AST, var: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == var for sub in ast.walk(node)
    )


def _src_name(kind: str) -> str:
    return {"delivery": "segments()", "landing": "begin_landing()", "ring": "poll()"}[
        kind
    ]


def _fence_name(kind: str) -> str:
    return {
        "delivery": "delivery fence",
        "landing": "finish_landing/release",
        "ring": "consume()",
    }[kind]


def check(project: Project, cg=None) -> list[Finding]:
    findings: list[Finding] = []
    for sf in project.files:
        if sf.rel.endswith(_EXEMPT_SUFFIXES):
            continue
        symbols = enclosing_symbols(sf.tree)
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check_function(node, sf, symbols, findings)
    return findings
