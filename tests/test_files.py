"""`hmpsearch.files` is the one module that reads input files, writes
output files or makes directories."""

import ast
import os
import pathlib

import pytest

import hmpsearch
from hmpsearch import DecodeError, HmpError, load_descriptor, load_dictionary, load_index
from hmpsearch.files import read_text, write_file

PACKAGE = pathlib.Path(hmpsearch.__file__).parent


def open_modes(source: str) -> list[tuple[int, str]]:
    """Line and mode of each bare `open(...)` call in `source`; the default
    mode is "r", and a mode that is not a literal counts as "r"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else None
        mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), mode)
        text = "r" if mode is None else mode.value if isinstance(mode, ast.Constant) else "r"
        found.append((node.lineno, text))
    return found


def read_mode_opens(source: str) -> list[int]:
    """Lines of the bare `open(...)` calls in `source` whose mode reads."""
    return [line for line, text in open_modes(source) if "+" in text or not set(text) & set("wax")]


def write_calls(source: str) -> list[int]:
    """Lines of the bare `open(...)` calls in `source` whose mode writes,
    appends or creates, and of every `makedirs` or `mkdir` call."""
    lines = [line for line, text in open_modes(source) if set(text) & set("wax+")]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("makedirs", "mkdir"):
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


def test_only_files_module_writes_files_or_makes_directories():
    found = {
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "files.py"
        for line in write_calls(path.read_text(encoding="utf-8"))
    }
    assert not found, f"write files through hmpsearch.files: {sorted(found)}"


def decode_errors_made(source: str) -> list[int]:
    """Lines of the `DecodeError(...)` calls in `source`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "DecodeError"
    ]


def struct_errors_caught(source: str) -> list[int]:
    """Lines of the `except` clauses in `source` that name `struct.error`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for sub in ast.walk(node.type)
        if isinstance(sub, ast.Attribute) and (getattr(sub.value, "id", None), sub.attr) == ("struct", "error")
    ]


def test_only_files_module_reports_unparsable_files():
    """A format parses inside `read_container` or `read_config`, which name
    the file; the netpbm and Pillow decoders of images.py read no container,
    so they may raise DecodeError themselves."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "files.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = struct_errors_caught(source)
        if path.name != "images.py":
            lines += decode_errors_made(source)
        found |= {f"{path.name}:{line}" for line in lines}
    assert not found, f"parse inside hmpsearch.files.read_container: {sorted(found)}"


def test_read_text_drops_one_leading_byte_order_mark_and_nothing_else(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\xef\xbb\xbfb\r\n")
    assert read_text(path, "text file") == "\ufeffa\ufeffb\n"


def test_write_file_makes_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    write_file(path, "test file", b"ab", b"", b"cd")
    assert path.read_bytes() == b"abcd"


@pytest.mark.parametrize(
    "name", ["folder", "file/out.bin", "nul\0byte"], ids=["directory", "under-a-file", "nul"]
)
def test_unwritable_path_raises_hmp_error_naming_it(tmp_path, name):
    (tmp_path / "folder").mkdir()
    (tmp_path / "file").write_bytes(b"")
    path = os.path.join(tmp_path, name)
    with pytest.raises(HmpError, match="cannot write test file") as info:
        write_file(path, "test file", b"x")
    assert path in str(info.value)


@pytest.mark.parametrize(
    "load, named",
    [(load_index, "an index file"), (load_dictionary, "a codebook file"), (load_descriptor, "a descriptor file")],
)
def test_wrong_magic_names_the_kind_of_file_with_its_article(tmp_path, load, named):
    path = tmp_path / "wrong.bin"
    path.write_bytes(b"HMPX\x01")
    with pytest.raises(DecodeError) as info:
        load(path)
    assert str(info.value) == f"{path} is not {named} (bad magic or truncated header)"
