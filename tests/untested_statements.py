"""List the statements of ``src/entrybounds`` that the Tier-1 suite never runs.

Run from the repository root as ``python tests/untested_statements.py``;
any further arguments go to pytest (``--continue-on-collection-errors`` is
always passed).  The suite runs in this process under ``sys.settrace``,
with a line tracer on the frames of ``src/entrybounds`` only (the package
starts no threads), so code run in a subprocess (the CLI's ``__main__``
guard) is not seen.  Every executable statement that never ran is
printed as ``file:line: text``.
Definitions, imports and docstrings are not statements here; a compound
statement counts by its header, and a multi-line statement as run when
any of its lines ran.

The exit status is pytest's when the suite fails.  Otherwise it is 1
when any statement never ran other than the body of ``cli.py``'s
``__main__`` guard (matched by its text, not its line number), and 0
when none did.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entrybounds"

# The one statement the suite cannot run in this process, as (file, text):
# the body of the CLI's ``__main__`` guard.
_EXPECTED = {("src/entrybounds/cli.py", "sys.exit(main())")}

# Nodes that are not statements here; a try's header emits no line event.
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
            ast.Import, ast.ImportFrom, ast.Try)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, the lines it owns) of every executable statement of
    ``path``: a compound statement owns its header, up to its first child."""
    out = []
    for parent in ast.walk(ast.parse(path.read_text(), str(path))):
        for node in _blocks(parent):
            if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) \
                    or _is_docstring(node, parent):
                continue
            children = [c.lineno for c in _blocks(node)]
            end = min(children) - 1 if children else node.end_lineno
            out.append((node.lineno, range(node.lineno, max(end, node.lineno) + 1)))
    return sorted(out)


def _blocks(node: ast.AST) -> list:
    """The nodes of the blocks directly inside ``node``: statements, and a
    try's except clauses."""
    return [c for f in ("body", "orelse", "finalbody", "handlers")
            if isinstance(getattr(node, f, None), list) for c in getattr(node, f)]


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # before the tracer, so that only the suite runs under it

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = seen.get(str(path), set())
        lines = path.read_text().splitlines()
        for first, own in statements(path):
            if not ran.intersection(own):
                missed.append((path.relative_to(ROOT).as_posix(), first, lines[first - 1].strip()))
    print("\n".join(f"{name}:{first}: {text}" for name, first, text in missed))
    unexpected = [m for m in missed if (m[0], m[2]) not in _EXPECTED]
    print(f"statements never run: {len(missed)}, unexpected: {len(unexpected)}")
    return int(status) or int(bool(unexpected))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
