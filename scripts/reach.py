"""Statements of ``src/busemann`` that no golden run and no benchmark op runs.

    PYTHONPATH=src python scripts/reach.py

In one process, under ``sys.settrace``, it runs every run of
``scripts/golden_csv.py`` at seed 7 (into a temporary directory) and one
pass of every op of every workload in ``perfbench/workloads.py`` at seed 7
through ``busemann.cli.main``.  The workloads file is only read, for the op
configs.  It then prints, per function of ``src/busemann`` (methods and
nested functions by qualified name), the first lines of the statements that
nothing ran, as ``convexity.py:circumcenter: 291, 322-324``, with
``(never called)`` when the function's first statement never ran, and
last a count of the unrun statements.  A statement counts as run when any
line of its own span (its header for ``if``, ``for``, ``with`` and the like,
the whole statement otherwise) raised a line event; a docstring and
``global``/``nonlocal`` declarations are no statements.  Tracing makes the
runs several times slower than untraced.

Option branches that only tests reach count as unreached too: the scan
does not read ``tests/``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "busemann"
SEED = 7


def statements(path: Path) -> dict:
    """{qualified function name: [(first line, last line), ...]}: the span
    of each statement of each function in the source file ``path``, in
    source order.  The statements of a nested function or class belong to
    that function (a nested class's methods are named Outer.<locals>.Class.f
    as Python names them); the ``def`` line belongs to the enclosing one."""
    out = {}

    def visit(body, qualname, owner):
        for i, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qualname}{stmt.name}"
                if owner is not None:
                    out[owner].append((stmt.lineno, stmt.lineno))
                out[name] = []
                visit(stmt.body, f"{name}.<locals>.", name)
                continue
            if isinstance(stmt, ast.ClassDef):
                if owner is not None:
                    out[owner].append((stmt.lineno, stmt.lineno))
                visit(stmt.body, f"{qualname}{stmt.name}.", None)
                continue
            if owner is None or isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue
            docstring = i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str)
            if docstring:
                continue
            blocks = [getattr(stmt, f) for f in ("body", "handlers", "orelse", "finalbody") if getattr(stmt, f, None)]
            if blocks:  # a compound statement (or an except clause): its header, then its blocks
                first_child = min(block[0].lineno for block in blocks)
                out[owner].append((stmt.lineno, max(stmt.lineno, first_child - 1)))
                for block in blocks:
                    visit(block, qualname, owner)
            else:
                out[owner].append((stmt.lineno, stmt.end_lineno))

    visit(ast.parse(path.read_text()).body, "", None)
    return out


def unrun(path: Path, ran: set) -> dict:
    """{qualified function name: [first line of each unrun statement]} for
    the functions of ``path`` with any, given the set of line numbers of
    ``path`` that raised a line event."""
    out = {}
    for name, spans in statements(path).items():
        lines = [first for first, last in spans if not any(n in ran for n in range(first, last + 1))]
        if lines:
            out[name] = lines
    return out


class LineTracer:
    """Records the line events of every code object whose file lies under
    ``root``: ``lines[path]`` is the set of line numbers that ran."""

    def __init__(self, root: Path):
        self.root = str(Path(root).resolve())
        self.lines = {}
        self._local = {}  # filename -> its local trace function, or None

    def _for(self, filename):
        if filename not in self._local:
            local, path = None, str(Path(filename).resolve())
            if not filename.startswith("<") and path.startswith(self.root):  # not "<frozen ...>"
                seen = self.lines.setdefault(path, set())

                def local(frame, event, arg):
                    if event == "line":
                        seen.add(frame.f_lineno)
                    return local

            self._local[filename] = local
        return self._local[filename]

    def _global(self, frame, event, arg):
        return self._for(frame.f_code.co_filename)

    @contextlib.contextmanager
    def running(self):
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)


def run_everything(work: Path) -> None:
    """The golden runs and one pass of every benchmark op, outputs in ``work``."""
    from busemann.cli import main as busemann_main

    sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]
    import golden_csv
    import workloads

    golden_csv.run_all(work / "golden", SEED)
    for name, build in workloads.WORKLOADS.items():
        ops = build(SEED).ops
        workloads.materialize(ops, work / "bench" / name)
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = busemann_main(op.argv)
            if code != 0:
                raise SystemExit(f"{name}/{op.name} exited {code}")


def main() -> int:
    tracer = LineTracer(PACKAGE)
    with tempfile.TemporaryDirectory() as tmp, tracer.running():
        run_everything(Path(tmp))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        first = {name: spans[0][0] for name, spans in statements(path).items() if spans}
        for name, lines in unrun(path, tracer.lines.get(str(path.resolve()), set())).items():
            total += len(lines)
            print(f"{path.name}:{name}: {_ranges(lines)}{' (never called)' if lines[0] == first[name] else ''}")
    print(f"{total} statements in src/busemann ran in no golden run and no benchmark op")
    return 0


def _ranges(lines: list) -> str:
    """Sorted line numbers as "3, 5-7"."""
    parts, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            parts.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(parts)


if __name__ == "__main__":
    sys.exit(main())
