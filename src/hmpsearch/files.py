"""Every read of an input file and every write of an output file.

One policy holds for all of them: a file that cannot be opened, read,
decoded or written raises an `HmpError` whose message names the path, never
an `OSError`, `UnicodeDecodeError`, `struct.error` or `configparser` error.
A write makes the file's directory first. The codebook, descriptor and
index formats share one container: a 4-byte magic, a version byte, then a
body that each format lays out itself. A format parses its body inside
`with read_container(...) as body:` and a config is read inside
`with read_config(...) as parser:`. The block's `struct.error` or
`ValueError` becomes one `DecodeError` naming the path, and a config's
`ValueError` or `ConfigError` one `ConfigError`, so no reader handles a
bad file itself. The manifest and the ground truth share one record:
`<id><TAB><rest>` per line.
"""

from __future__ import annotations

import configparser
import logging
import os
import re
import struct
from contextlib import contextmanager

from .errors import ConfigError, DecodeError, HmpError, InvalidInputError

log = logging.getLogger("hmpsearch")


def read_bytes(path, what: str) -> bytes:
    """All bytes of the file; `what` names the kind of file in errors."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DecodeError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def read_container(path, what: str, magic: bytes, version: int):
    """Yield the body of a file that starts with `magic` and the `version`
    byte; a `struct.error` or `ValueError` that parsing it raises in the
    `with` block is a DecodeError naming the file."""
    raw = read_bytes(path, what)
    if len(raw) < 5 or raw[:4] != magic:
        article = "an" if what[0] in "aeiou" else "a"
        raise DecodeError(f"{path} is not {article} {what} (bad magic or truncated header)")
    if raw[4] != version:
        raise DecodeError(f"{path}: unsupported {what} version {raw[4]}")
    body = raw[5:]
    del raw  # hold one copy of the file while the block parses it
    try:
        yield body
    except (struct.error, ValueError) as exc:  # ValueError covers bad UTF-8 and InvalidInputError
        raise DecodeError(f"{path}: truncated or corrupt {what}: {exc}") from exc


def write_file(path, what: str, *parts: bytes) -> None:
    """Write the parts in order, making the directory first; `what` names the file in errors."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise HmpError(f"cannot write {what} {path}: {exc}") from exc


def write_container(path, what: str, magic: bytes, version: int, *parts: bytes) -> None:
    """Write `magic`, the `version` byte, then each part in order."""
    write_file(path, what, magic + bytes([version]), *parts)


def read_text(path, what: str, error: type[Exception] = DecodeError) -> str:
    """The file as UTF-8 text, one leading byte-order mark dropped and
    newlines normalized; a failure raises `error`."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or a NUL in the path
        raise error(f"cannot read {what} {path}: {exc}") from exc


def tab_records(path, what: str) -> list[tuple[str, str, str]]:
    """`(where, id, rest)` of each nonblank `<id><TAB><rest>` line, fields
    stripped and `where` being `path:line`. A line without a tab, with an
    empty field, with an id seen before or with an id holding a comma, which
    separates the ground truth's relevant ids, raises InvalidInputError."""
    records: list[tuple[str, str, str]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_text(path, what).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        if "\t" not in line:
            raise InvalidInputError(f"{where}: expected '<id><TAB>...', got {line!r}")
        ident, rest = (part.strip() for part in line.split("\t", 1))
        if not ident or not rest:
            raise InvalidInputError(f"{where}: empty id or empty field after the tab")
        if "," in ident:
            raise InvalidInputError(f"{where}: id {ident!r} holds a comma, which separates relevant ids")
        if ident in seen:
            raise InvalidInputError(f"{where}: duplicate id {ident!r}")
        seen.add(ident)
        records.append((where, ident, rest))
    return records


@contextmanager
def read_config(path, what: str, readers: dict[str, set[str]]):
    """Yield the parsed INI file, taking `%` in values literally; a
    `ConfigError` or `ValueError` (a bad number, say) raised in the `with`
    block is a ConfigError naming the file.

    `readers` maps a pattern, matched whole, of the names of the sections
    that some setting reads to the keys read in them. Every other section
    and key, and a [DEFAULT] key that no section reads, is ignored with one
    warning naming it and the file.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path, what, ConfigError), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: malformed {what}: {exc}") from exc
    defaults = parser.defaults()
    for key in defaults:
        if not any(key in keys for keys in readers.values()):
            log.warning("%s: ignoring [DEFAULT] key %r, which no setting reads", path, key)
    for name in parser.sections():
        keys = next((keys for pattern, keys in readers.items() if re.fullmatch(pattern, name)), None)
        if keys is None:
            log.warning("%s: ignoring section [%s], which no setting reads", path, name)
            continue
        for key in parser[name]:
            if key not in keys and key not in defaults:
                log.warning("%s: ignoring [%s] key %r, which no setting reads", path, name, key)
    try:
        yield parser
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_int(section: str, key: str, text: str) -> int:
    """`text`, read from `[section] key`, as an integer; a ConfigError
    naming the section and key if it is not one."""
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: {text!r} is not an integer") from None
