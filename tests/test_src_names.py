"""Every name defined in src/ is used by the program or exported by the package."""

import ast
import re
from pathlib import Path

import wgqed

PACKAGE = Path(wgqed.__file__).parent
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def defined_names(stmt: ast.stmt) -> set[str]:
    """Top-level functions, classes and UPPER_CASE constants a statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.match(t.id)}


def used_names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_name_only_tests_use():
    exported = {alias.name
                for stmt in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = defined_names(stmt)
            for name in names:
                defined[name] = path.name
            used |= used_names(stmt) - names  # a definition does not use itself
    dead = sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in used and name not in exported)
    assert not dead, f"defined in src/ but neither used there nor exported: {dead}"
