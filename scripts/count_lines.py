"""Count the lines of the package's source, each line in exactly one class.

    python3 scripts/count_lines.py [PATH ...]

Each line of a Python file is one of:

- docstring: any line of a module, class or function docstring, the blank
  lines inside it included;
- comment: a line holding only a `#` comment;
- blank: an empty or whitespace-only line outside every docstring;
- code: every other line.

A line inside any other string literal is classed by its text. The four
counts sum to the file's line count. With no PATH it counts every
`.py` file under `src/sphererec/`; a PATH may be a file or a directory. It
prints one row per file and a total row, and gates nothing.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sphererec"
CLASSES = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    """1-based numbers of every line a module, class or function docstring spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> dict[str, int]:
    """The number of lines of `source` in each class of CLASSES."""
    docstrings = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def python_files(paths: list[Path]) -> list[Path]:
    return sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    files = python_files([Path(a).resolve() for a in args] or [PACKAGE])
    names = [str(f.relative_to(ROOT)) if f.is_relative_to(ROOT) else str(f) for f in files]
    width = max(len(name) for name in names + ["total"])
    total = dict.fromkeys(("lines",) + CLASSES, 0)
    print(f"{'file':<{width}} " + " ".join(f"{name:>9}" for name in total))
    for name, path in zip(names, files):
        source = path.read_text(encoding="utf-8")
        row = {"lines": len(source.splitlines()), **count_source(source)}
        for key, value in row.items():
            total[key] += value
        print(f"{name:<{width}} " + " ".join(f"{value:>9,}" for value in row.values()))
    print(f"{'total':<{width}} " + " ".join(f"{value:>9,}" for value in total.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
