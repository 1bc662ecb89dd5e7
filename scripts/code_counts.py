#!/usr/bin/env python3
"""Print the size figures of the blochsteer package that ROADMAP.md quotes.

- lines: physical lines of every module;
- branches: ast ``If`` and ``IfExp`` nodes (comprehension filters and
  ``while`` loops are not counted);
- settable values: defaulted parameters (positional and keyword-only, of
  functions and lambdas), fields of ``@dataclass`` classes, and module
  constants (module-level names in upper case, a leading underscore allowed).

Usage: python scripts/code_counts.py [PACKAGE_DIR]   (default: src/blochsteer)
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blochsteer"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _module_constants(tree: ast.Module) -> int:
    names = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            names += [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.append(stmt.target.id)
    return sum(name.lstrip("_").isupper() for name in names)


def counts(package: Path) -> tuple[int, int, int]:
    """(lines, branches, settable values) over the modules of ``package``."""
    lines = branches = settable = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines += len(source.splitlines())
        tree = ast.parse(source)
        settable += _module_constants(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.IfExp)):
                branches += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                settable += len(node.args.defaults)
                settable += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                settable += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return lines, branches, settable


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    lines, branches, settable = counts(package)
    print(f"lines {lines:,}")
    print(f"branches (If/IfExp) {branches:,}")
    print(f"settable values {settable:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
