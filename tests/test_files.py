"""`hmpsearch.files` is the one module that reads input files."""

import ast
import pathlib

import hmpsearch

PACKAGE = pathlib.Path(hmpsearch.__file__).parent


def read_mode_opens(source: str) -> list[int]:
    """Lines of the bare `open(...)` calls in `source` whose mode reads."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else None
        mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), mode)
        # the default mode is "r"; a mode that is not a literal counts as reading
        text = "r" if mode is None else mode.value if isinstance(mode, ast.Constant) else "r"
        if "+" in text or not set(text) & set("wax"):
            lines.append(node.lineno)
    return lines


def test_only_files_module_opens_files_for_reading():
    found = {
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "files.py"
        for line in read_mode_opens(path.read_text(encoding="utf-8"))
    }
    assert not found, f"read files through hmpsearch.files, not open(): {sorted(found)}"
