"""Core model for reprolint: source files, findings, suppressions.

A :class:`Project` is the parsed set of files under analysis.  Checkers
consume it and emit :class:`Finding` objects; the CLI filters those
through inline ``# reprolint: allow[...]`` directives before deciding
the exit code.

Inline suppression syntax::

    # reprolint: allow[checker-id] -- justification
    # reprolint: allow[checker-a,checker-b] -- justification

A directive suppresses matching findings on its own line, on the
statement it trails, or — when placed on (or immediately above) a
``def`` line — anywhere in that function.  The justification text is
mandatory: a directive without ``-- why`` is itself reported as a
``bad-suppression`` finding, so every waiver in the tree documents its
reasoning.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

_ALLOW_RE = re.compile(
    r"#\s*reprolint:\s*allow\[(?P<ids>[^\]]*)\]\s*(?:--\s*(?P<why>.*))?$"
)


@dataclass(frozen=True)
class Finding:
    """One invariant violation at a specific site."""

    checker: str
    path: str  # as given on the command line (normalised, POSIX separators)
    line: int
    symbol: str  # dotted name of the enclosing function/class ('' at module scope)
    message: str
    severity: str = "error"

    def to_json(self) -> dict:
        return {
            "checker": self.checker,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}: {self.checker}:{sym} {self.message}"


@dataclass
class Suppression:
    """A parsed inline allow directive."""

    line: int
    checkers: frozenset[str]  # checker ids; "*" allows everything
    justified: bool
    text: str

    def covers(self, checker: str) -> bool:
        return "*" in self.checkers or checker in self.checkers


@dataclass
class SourceFile:
    """One parsed source file plus its suppression map."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    #: lines covered by a def-level directive -> that directive's line
    _def_cover: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def allows(self, checker: str, line: int) -> bool:
        """True if *checker* findings at *line* are suppressed inline.

        An unjustified directive never suppresses — it is reported as
        ``bad-suppression`` and the underlying finding stays live, so
        silencing the checker always costs a written reason.
        """
        sup = self.suppressions.get(line)
        if sup is not None and sup.justified and sup.covers(checker):
            return True
        cover = self._def_cover.get(line)
        if cover is not None:
            sup = self.suppressions.get(cover)
            if sup is not None and sup.justified and sup.covers(checker):
                return True
        return False


def _parse_suppressions(source: str) -> dict[int, Suppression]:
    out: dict[int, Suppression] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _ALLOW_RE.search(text)
        if not m:
            continue
        ids = frozenset(
            part.strip() for part in m.group("ids").split(",") if part.strip()
        )
        why = (m.group("why") or "").strip()
        out[lineno] = Suppression(
            line=lineno, checkers=ids or frozenset({"*"}), justified=bool(why), text=text.strip()
        )
    return out


def _map_def_coverage(sf: SourceFile) -> None:
    """Extend def-line directives to the whole function body.

    A directive on the ``def`` line (or the line just above it, where
    decorators/comments usually live) covers every line of that
    function, so a designed-blocking helper can be waived once.
    """
    for node in ast.walk(sf.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        directive = None
        for cand in (node.lineno, node.lineno - 1):
            if cand in sf.suppressions:
                directive = cand
                break
        if directive is None:
            continue
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
        for line in range(node.lineno, end + 1):
            sf._def_cover.setdefault(line, directive)


def load_file(path: Path, rel: Optional[str] = None) -> SourceFile:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    sf = SourceFile(
        path=path,
        rel=rel if rel is not None else path.as_posix(),
        source=source,
        tree=tree,
        suppressions=_parse_suppressions(source),
    )
    _map_def_coverage(sf)
    return sf


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for p in paths:
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if "__pycache__" in f.parts:
                    continue
                r = f.resolve()
                if r not in seen:
                    seen.add(r)
                    yield f
        elif p.suffix == ".py":
            r = p.resolve()
            if r not in seen:
                seen.add(r)
                yield p


class Project:
    """The parsed file set all checkers run against."""

    def __init__(self, files: list[SourceFile]) -> None:
        self.files = files
        self.by_rel = {sf.rel: sf for sf in files}
        self.errors: list[Finding] = []

    @classmethod
    def load(cls, paths: Iterable[Path]) -> "Project":
        files: list[SourceFile] = []
        errors: list[Finding] = []
        for f in iter_python_files(paths):
            rel = _relativize(f)
            try:
                files.append(load_file(f, rel))
            except SyntaxError as exc:
                errors.append(
                    Finding(
                        checker="parse-error",
                        path=rel,
                        line=exc.lineno or 1,
                        symbol="",
                        message=f"cannot parse: {exc.msg}",
                    )
                )
        project = cls(files)
        project.errors = errors
        return project

    # ------------------------------------------------------------------

    def module_name(self, sf: SourceFile) -> str:
        """Dotted module name, anchored at the ``repro`` package root.

        Files outside a ``repro`` package root (fixtures, scripts) get
        their stem as a flat module name — good enough for a call
        graph that only needs distinct keys.
        """
        parts = Path(sf.rel).with_suffix("").parts
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        else:
            parts = (parts[-1],)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts) or Path(sf.rel).stem

    def suppression_findings(self) -> list[Finding]:
        """Unjustified directives are findings themselves."""
        out = []
        for sf in self.files:
            for sup in sf.suppressions.values():
                if not sup.justified:
                    out.append(
                        Finding(
                            checker="bad-suppression",
                            path=sf.rel,
                            line=sup.line,
                            symbol="",
                            message=(
                                "allow directive without a justification "
                                "(write `# reprolint: allow[id] -- why`)"
                            ),
                        )
                    )
        return out


def _relativize(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def enclosing_symbols(tree: ast.Module) -> dict[int, str]:
    """Map every line to the dotted name of its innermost def/class."""
    out: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                end = getattr(child, "end_lineno", child.lineno) or child.lineno
                for line in range(child.lineno, end + 1):
                    out[line] = name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, "")
    return out
