"""pool-balance: every pool/arena acquire must be exception-safe.

The pools (:class:`repro.buffer.pool.BufferPool` / ``RawPool``) and the
shared-memory :class:`repro.shm.arena.SegmentArena` only warn about
leaks at shutdown — long after the error path that dropped the buffer.
This checker makes the discipline lexical.  For every

    v = <pool>.acquire(...)

where ``<pool>`` is a pool-ish receiver (``pool``, ``_pool``,
``raw_pool``, ``arena``, ``_arena``, ``DEFAULT_POOL``), it requires:

* **liveness** — ``v`` must be mentioned again at all (released, stored
  somewhere that outlives the function, returned, or captured by a
  closure); an acquire whose result is never used is a definite leak;
* **exception-edge coverage** — if the *same function* retains release
  responsibility (it contains a ``release(v)`` / ``v.free()`` /
  ``v.release()`` anywhere, including inside handlers or closures),
  then the acquire must be protected: either the acquire sits inside a
  ``try`` whose handler/``finally`` releases ``v``, or such a ``try``
  is the statement immediately after it.  Anything that can raise
  between the acquire and the protected region leaks the buffer.

Functions that *transfer* ownership (store the buffer into an object,
hand it to a finisher closure, return it) are trusted — exception
safety of the transfer itself is the callee's contract.  That keeps
the checker quiet on the deliberate ownership handoffs (receive
finishers, unexpected-message storage) while catching the
gather-before-protect pattern this audit actually found.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.callgraph import dotted_text
from repro.analysis.core import Finding, Project, enclosing_symbols

CHECKER = "pool-balance"

_POOLISH = frozenset({"pool", "_pool", "raw_pool", "arena", "_arena"})


def _is_pool_acquire(call: ast.Call) -> bool:
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "acquire"):
        return False
    recv = dotted_text(call.func.value) or ""
    last = recv.split(".")[-1]
    return last in _POOLISH or "POOL" in last


def _releases_var(node: ast.AST, var: str) -> bool:
    """Does *node* contain a release/free of *var* (closures included)?"""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        if isinstance(sub.func, ast.Attribute):
            if sub.func.attr in ("release", "free"):
                if (
                    isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == var
                ):
                    return True
                if any(
                    isinstance(a, ast.Name) and a.id == var for a in sub.args
                ):
                    return True
    return False


class _Block:
    """A statement list plus the path of blocks above it."""

    def __init__(self, stmts: list[ast.stmt], parent: Optional["_Block"]) -> None:
        self.stmts = stmts
        self.parent = parent


def _iter_blocks(fn_node: ast.AST):
    """Yield (block, stmt, index) for every statement, with parentage."""

    def walk(stmts: list[ast.stmt], parent: Optional[_Block]):
        block = _Block(stmts, parent)
        for i, s in enumerate(stmts):
            yield block, s, i
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for attr in ("body", "orelse", "finalbody"):
                child = getattr(s, attr, None)
                if child:
                    yield from walk(child, block)
            for h in getattr(s, "handlers", []):
                yield from walk(h.body, block)

    yield from walk(fn_node.body, None)


def _protecting_tries(fn_node: ast.AST, var: str) -> list[ast.Try]:
    """Try statements whose handler or finally releases *var*."""
    out = []
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Try):
            guarded = list(node.finalbody)
            for h in node.handlers:
                guarded.extend(h.body)
            if any(_releases_var(s, var) for s in guarded):
                out.append(node)
    return out


def _stmt_contains(outer: ast.stmt, inner: ast.stmt) -> bool:
    return any(sub is inner for sub in ast.walk(outer))


def check_function(fn_node, sf, symbols, findings: list[Finding]) -> None:
    acquires: list[tuple[ast.stmt, str, str]] = []  # (stmt, var, pool text)
    for block, stmt, i in _iter_blocks(fn_node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Call):
                if _is_pool_acquire(stmt.value):
                    recv = dotted_text(stmt.value.func.value) or "pool"
                    acquires.append((stmt, target.id, recv))

    for acq_stmt, var, pool in acquires:
        later = [
            n
            for n in ast.walk(fn_node)
            if isinstance(n, ast.Name)
            and n.id == var
            and n.lineno > acq_stmt.lineno
        ]
        sym = symbols.get(acq_stmt.lineno, "")
        if not later:
            findings.append(
                Finding(
                    checker=CHECKER,
                    path=sf.rel,
                    line=acq_stmt.lineno,
                    symbol=sym,
                    message=(
                        f"'{var}' acquired from {pool} is never released, "
                        "stored, returned, or transferred — a definite leak"
                    ),
                )
            )
            continue
        has_release = any(
            _releases_var(s, var)
            for s in ast.walk(fn_node)
            if isinstance(s, ast.stmt) and s is not acq_stmt
        )
        if not has_release:
            continue  # ownership transferred; callee's contract
        tries = _protecting_tries(fn_node, var)
        protected = False
        gap_end = None
        for block, stmt, i in _iter_blocks(fn_node):
            if stmt is not acq_stmt:
                continue
            # (a) acquire already inside a protecting try's body?
            for t in tries:
                if any(_stmt_contains(s, acq_stmt) or s is acq_stmt for s in t.body):
                    protected = True
            if protected:
                break
            # (b) the next sibling statement is a protecting try?
            rest = block.stmts[i + 1:]
            if rest and isinstance(rest[0], ast.Try) and rest[0] in tries:
                protected = True
                break
            # otherwise: find where protection (or the release) begins
            for s in rest:
                if s in tries or _releases_var(s, var):
                    gap_end = s.lineno
                    break
            break
        if not protected:
            where = (
                f"; lines {acq_stmt.lineno + 1}..{gap_end - 1} can raise and "
                "leak it"
                if gap_end is not None and gap_end > acq_stmt.lineno + 1
                else ""
            )
            findings.append(
                Finding(
                    checker=CHECKER,
                    path=sf.rel,
                    line=acq_stmt.lineno,
                    symbol=sym,
                    message=(
                        f"'{var}' acquired from {pool} is released in this "
                        "function but the acquire is not covered by a "
                        f"try/except-or-finally that releases it{where}"
                    ),
                )
            )


def check(project: Project, cg=None) -> list[Finding]:
    findings: list[Finding] = []
    for sf in project.files:
        symbols = enclosing_symbols(sf.tree)
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check_function(node, sf, symbols, findings)
    return findings
