"""Census of the statements in src/hystlab that no tier-1 test executes.

    python tests/line_census.py

Sets a line tracer, for this thread and for threads started later, that
records each line run in a file under src/hystlab, then imports hystlab
from this checkout's src/ and runs the tier-1 suite in this process
through pytest.main. Prints ``file:line: source`` for each statement that
no test ran, then a summary line. A statement is one that ``ast`` lists,
docstrings left out. A simple statement counts as run when any of its
lines ran; a compound one (def, class, if, for, with, try and so on) when
a line of its header ran or its first body statement did. The traced run
takes a few times as long as tier-1 alone. Exits 1 if pytest fails. Pytest
does not collect this file.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hystlab"
PREFIX = str(PACKAGE) + os.sep
sys.path.insert(0, str(ROOT / "src"))

ran: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in ran:
        if not name.startswith(PREFIX):
            return None
        ran[name] = set()
    return _local


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unrun(path: Path, lines: set[int]) -> list[int]:
    """First lines of the statements of ``path`` that no line of ``lines`` shows ran."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {id(n.body[0]) for n in ast.walk(tree)
                  if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef)) and _is_docstring(n.body[0])}
    missed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list):  # compound: its header, or its first statement
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            shows = set(range(first, body[0].lineno))
            shows.update([n.lineno for n in body if id(n) not in docstrings][:1])
        else:
            shows = set(range(node.lineno, node.end_lineno + 1))
        if not shows & lines:
            missed.add(node.lineno)
    return sorted(missed)


def main() -> int:
    import pytest

    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in unrun(path, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements never run in {len(list(PACKAGE.glob('*.py')))} files")
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main())
