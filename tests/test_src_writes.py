"""No file in src/ truncates a path it opens: --out is written over in place and cut at the
end of the new output, so a truncating open must not come back unnoticed."""

import ast
import re
from pathlib import Path

import pytest

import wgqed

PACKAGE = Path(wgqed.__file__).parent
WRITE_MODE = re.compile(r"[bt+]*w[bt+]*")


def truncating_uses(tree: ast.AST) -> list[str]:
    """Each open(...) or .open(...) with a "w" mode, pathlib write_text/write_bytes and
    use of O_TRUNC in tree, as "line: source"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            modes = node.args + [k.value for k in node.keywords if k.arg == "mode"]
            if callee in ("write_text", "write_bytes") or callee == "open" and any(
                    isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and WRITE_MODE.fullmatch(m.value) for m in modes):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif "O_TRUNC" in (getattr(node, key, None) for key in ("id", "attr", "name")):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_file_in_src_truncates_a_path():
    found = [f"{path.name}:{use}" for path in sorted(PACKAGE.glob("*.py"))
             for use in truncating_uses(ast.parse(path.read_text()))]
    assert not found, f"truncating opens in src/: {found}"


@pytest.mark.parametrize("source", [
    'open(path, "w")', 'open(path, "wb")', 'open(path, "w", newline="")',
    'io.open(path, mode="w+")', 'Path(path).open("wt")', 'Path(path).write_text(text)',
    'path.write_bytes(data)', 'os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)',
    'os.open(path, O_TRUNC)', 'from os import O_TRUNC',
])
def test_guard_sees_a_truncating_open(source):
    assert truncating_uses(ast.parse(source))


@pytest.mark.parametrize("source", [
    'open(path)', 'open(path, "rb")', 'open(path, "a")', 'open(path, "x")',
    'os.fdopen(fd, "w", newline="")', 'os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)',
    'print("w")', 'fh.write("w")',
])
def test_guard_passes_an_open_that_keeps_the_file(source):
    assert not truncating_uses(ast.parse(source))
