"""Every name defined in src/ is used by the program or exported by the package, every export is
used by the program, the benchmark or the acceptance tests, every parameter default in src/ is
overridden by some call, and every dataclass field default in src/ is relied on by some
constructor call."""

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


def exported_names() -> set[str]:
    """The names that wgqed/__init__.py imports."""
    return {alias.name for stmt in ast.parse((PACKAGE / "__init__.py").read_text()).body
            if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}


def test_no_name_only_tests_use():
    exported = exported_names()
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


def test_every_export_is_run_by_the_program_the_benchmark_or_a_criterion():
    repo = Path(__file__).parent.parent
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += [*(repo / "perfbench").glob("*.py"), repo / "tests" / "test_acceptance.py"]
    used = set().union(*(used_names(ast.parse(p.read_text())) for p in readers))
    unused = sorted(exported_names() - used)
    assert not unused, f"exported by wgqed but used only by tests outside the criteria: {unused}"


def defaulted_params(tree: ast.Module):
    """(function, parameter, position in a call or None) per parameter with a default.

    A method's self or cls is bound by the attribute call and takes no position.
    """
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, param in enumerate(positional[first:], first):
            yield fn.name, param.arg, i - (id(fn) in methods)
        for param, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, param.arg, None


def sets(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether a call may pass param: by keyword, **kwargs, position or *args."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args))


def calls() -> list[tuple[str | None, ast.Call]]:
    """(callee name, call) for every call in src/ and tests/."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    return [(getattr(n.func, "id", None) or getattr(n.func, "attr", None), n)
            for path in sources for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Call)]


def test_every_default_is_overridden_somewhere():
    every_call = calls()
    unset = sorted(f"{path.name}:{name}({param})" for path in sorted(PACKAGE.glob("*.py"))
                   for name, param, position in defaulted_params(ast.parse(path.read_text()))
                   if not any(callee == name and sets(call, param, position)
                              for callee, call in every_call))
    assert not unset, f"parameters with a default that no call in src/ or tests/ sets: {unset}"


def dataclass_defaults(tree: ast.Module):
    """(class, field, position in a constructor call) per dataclass field with a default."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield cls.name, f.target.id, i


def test_every_dataclass_default_is_relied_on_somewhere():
    every_call = calls()
    unused = sorted(f"{path.name}:{name}.{field}" for path in sorted(PACKAGE.glob("*.py"))
                    for name, field, position in dataclass_defaults(ast.parse(path.read_text()))
                    if all(callee != name or sets(call, field, position)
                           for callee, call in every_call))
    assert not unused, f"dataclass defaults that no call in src/ or tests/ relies on: {unused}"
