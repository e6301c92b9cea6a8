"""Print the total and executable lines of each module of ``src/uvartest``
and of the package.  Executable lines are those that are not blank, not a
comment and not inside a module, class or function docstring.

Usage: ``python tools/src_lines.py``
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "uvartest"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple[int, int]:
    """(total, executable) lines of one Python file."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = [line.strip() for line in text.splitlines()]
    executable = sum(
        1
        for number, line in enumerate(lines, 1)
        if line and not line.startswith("#") and number not in docstrings
    )
    return len(lines), executable


if __name__ == "__main__":
    total = executable = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path)
        total, executable = total + lines, executable + code
        print(f"{path.name:<14}{lines:>7}{code:>7}")
    print(f"{'total':<14}{total:>7}{executable:>7}")
