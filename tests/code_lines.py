"""Code lines per module of a package, and in total.

A code line is a source line within the first and last line of some AST
node, less the lines of the docstrings (of the module, its classes and its
functions).  So a blank or comment line inside a function or a bracket
counts, one between top-level statements does not, and a statement split
over several lines counts each of them.  Run it as a script; pytest does
not collect it:

    python tests/code_lines.py [package-dir]    # default: src/ifsim
"""

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    covered, docstrings = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
        if getattr(node, "end_lineno", None) is not None:
            covered.update(range(node.lineno, node.end_lineno + 1))
    return len(covered - docstrings)


def main(package: Path) -> None:
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1] / "src" / "ifsim")
