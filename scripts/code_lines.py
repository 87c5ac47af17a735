#!/usr/bin/env python3
"""Count the code lines of the library, module by module, and its public names.

A code line is a non-blank line that is neither a comment nor part of a
docstring (of a module, class or function), as read from the ``ast``.
The last line is the size of ``__all__`` in the package's ``__init__.py``,
read from its ``ast`` without importing it.

    python scripts/code_lines.py [SRC_DIR]
"""

import ast
import sys
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src" / "padic"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(
        1 for n, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and n not in skip
    )


def public_names(path: Path) -> int:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return len(ast.literal_eval(node.value))
    raise SystemExit(f"no __all__ in {path}")


def main() -> int:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_SRC
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16}{count:>5}")
    print(f"total {total}")
    print(f"__all__ {public_names(src / '__init__.py')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
