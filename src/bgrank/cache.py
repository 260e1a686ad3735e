"""Counting tables and their on-disk cache.

A ``StatTable`` is one table ``bgrank table`` serves: its cache kind,
selector params and values, or the same table as ``n,value`` text, which
this module alone renders, verifies (``_rows_ok``) and parses.
``get_table`` stamps the request's kind and params on the values its
builder returns, so no builder can file a table under another kind.

One CSV file per table: a magic line, a JSON meta line (kind, n_max, params,
tool_version), a SHA-256 line over the data block, then the data block: the
``n,value`` rows with big integers as base-10 strings, byte for byte the CSV
that ``bgrank table`` prints.  Writes are atomic (rename-on-write).

The loader reads the file as bytes and serves it only if three checks pass:
it starts with exactly the magic and meta lines the request would write, its
data block matches the checksum, and the block is n_max + 1 rows ``n,value``
in canonical base 10.  A hit then hands out the verified block itself, and
the table parses its values from it only when they are read (JSON output,
library callers, ``validate``); a CSV hit prints the block unchanged.
Anything else -- a missing or unreadable file, another request, tool version
or file format, a corrupt byte, a malformed row -- returns None with a
reason code so the caller recomputes.  Corrupt or stale data is never served.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ._meta import TOOL_VERSION
from .reporting import json_text

MAGIC = "# stattable-cache v2"
_META = "# meta "
_SHA = "# sha256 "


class CacheWriteError(OSError):
    pass


class StatTable:
    """A counting table: its cache kind, selector params and values at n = 0..n_max.

    ``csv`` is the same table as text: the line ``n,value``, then one line
    ``n,<value>`` per row, in base 10.  It is both the data block of a cache
    file and what ``bgrank table`` prints.  A table is made from its values
    or, by the loader, from verified text; the other form is derived on
    first access and kept, so a cache hit that is only printed never parses
    an int.
    """

    def __init__(
        self, kind: str, params: dict[str, int], values: list[int] | None = None, *, csv: str | None = None
    ):
        if (values is None) == (csv is None):
            raise TypeError("a StatTable takes either its values or its csv text")
        if values is not None and any(v < 0 for v in values):
            raise ValueError("tables hold counts; negative value found")
        self.kind = kind
        self.params = params
        self._values = values
        self._csv = csv

    @property
    def values(self) -> list[int]:
        if self._values is None:
            # fields: "n", "value", then n and value of each row, then "" after the last newline
            self._values = list(map(int, self._csv.replace("\n", ",").split(",")[3::2]))
        return self._values

    @property
    def csv(self) -> str:
        if self._csv is None:
            self._csv = "n,value\n" + "".join([f"{n},{v}\n" for n, v in enumerate(self._values)])
        return self._csv

    @property
    def n_max(self) -> int:
        if self._values is None:
            return self._csv.count("\n") - 2
        return len(self._values) - 1

    def __eq__(self, other):
        if not isinstance(other, StatTable):
            return NotImplemented
        return (self.kind, self.params, self.values) == (other.kind, other.params, other.values)


@dataclass(frozen=True)
class CacheEntry:
    """Identity of one cached table as recorded in its file header."""

    path: Path
    kind: str
    params: dict
    n_max: int
    checksum: str
    tool_version: str


def _header(kind: str, params: dict, n_max: int) -> str:
    """The magic and meta lines save_table writes for this request."""
    meta = {"kind": kind, "n_max": n_max, "params": params, "tool_version": TOOL_VERSION}
    return f"{MAGIC}\n{_META}{json_text(meta)}\n"


def inspect_cache_file(path) -> CacheEntry | None:
    """Header-only view of a cache file; None unless the first three lines
    have their prefixes and the meta object has the fields and types
    save_table writes (a bool is never a count)."""
    path = Path(path)
    try:
        with path.open(encoding="ascii") as fh:
            magic, meta_line, sha_line = (fh.readline().rstrip("\n") for _ in range(3))
    except (OSError, UnicodeDecodeError):
        return None
    if magic != MAGIC or not meta_line.startswith(_META) or not sha_line.startswith(_SHA):
        return None
    try:
        meta = json.loads(meta_line[len(_META) :])
    except (ValueError, RecursionError):  # RecursionError: nesting too deep
        return None
    if not isinstance(meta, dict) or not isinstance(meta.get("params"), dict):
        return None
    strings = [meta.get("kind"), meta.get("tool_version")]
    ints = [meta.get("n_max"), *meta["params"].values()]
    if not all(type(v) is str for v in strings) or not all(type(v) is int for v in ints):
        return None
    checksum = sha_line[len(_SHA) :]
    return CacheEntry(path, meta["kind"], meta["params"], meta["n_max"], checksum, meta["tool_version"])


def cache_filename(kind: str, params: dict, n_max: int) -> str:
    bits = [kind] + [f"{k}{params[k]}" for k in sorted(params)] + [f"N{n_max}"]
    return "_".join(bits) + ".csv"


def save_table(directory, table: StatTable) -> Path:
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CacheWriteError(f"cannot create cache dir {directory}: {exc}") from exc
    data = table.csv.encode("ascii")
    checksum = hashlib.sha256(data).hexdigest()
    content = f"{_header(table.kind, table.params, table.n_max)}{_SHA}{checksum}\n".encode("ascii") + data
    path = directory / cache_filename(table.kind, table.params, table.n_max)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise CacheWriteError(f"cannot write cache file {path}: {exc}") from exc
    return path


_DIGITS = b"0123456789"
# each comma starts a value: this finds an empty one or one with a leading zero
_BAD_VALUE = re.compile(rb",(?:\n|0[0-9])")


def _rows_ok(data: bytes, n_max: int) -> bool:
    """Whether ``data`` is a data block save_table writes: the line
    ``n,value``, then for n = 0..n_max the line ``n,<value>``, both fields in
    canonical base 10 (one or more digits, no sign, space, underscore or
    leading zero), and nothing after the last newline.  Everything ``int()``
    would accept but a verbatim print would show differently is rejected."""
    rows = n_max + 1
    header = b"n,value\n"
    if not data.startswith(header) or data.translate(None, _DIGITS) != header + b",\n" * rows:
        return False
    # every row is now <digits>,<digits>: after "n" and "value" the fields
    # alternate n and value, and end with "" after the last newline
    n_column = b"\n".join(data.replace(b"\n", b",").split(b",")[2::2])
    return _BAD_VALUE.search(data) is None and n_column == b"%d\n" * rows % tuple(range(rows))


def _verified(path: Path, kind: str, params: dict, n_max: int) -> StatTable | str:
    """The table in ``path`` if the file is what save_table writes for this
    request; otherwise the reason code why not."""
    try:
        content = path.read_bytes()
    except FileNotFoundError:
        return "missing"
    except OSError:
        return "unreadable"
    header = _header(kind, params, n_max).encode("ascii")
    if not content.startswith(header):
        return "header"
    start = len(header) + len(_SHA) + 65  # past the sha line: 64 hex digits and "\n"
    data = content[start:]
    if content[len(header) : start] != f"{_SHA}{hashlib.sha256(data).hexdigest()}\n".encode("ascii"):
        return "checksum"
    if not _rows_ok(data, n_max):
        return "rows"
    return StatTable(kind, dict(params), csv=data.decode("ascii"))


def load_table(
    directory, kind: str, params: dict, n_max: int, *, reject: Callable[[Path, str], None] | None = None
) -> StatTable | None:
    """Read a cached table back; None when missing, stale or corrupt.

    A served table carries the verified data block as its ``csv`` and parses
    its values only when they are read.  ``reject``, when given, is called
    with the file's path and the reason for a None: ``missing``,
    ``unreadable``, ``header`` (the magic and meta lines are not the ones
    this request writes), ``checksum`` or ``rows`` (the data block is not
    n_max + 1 canonical rows).
    """
    path = Path(directory) / cache_filename(kind, params, n_max)
    found = _verified(path, kind, params, n_max)
    if isinstance(found, StatTable):
        return found
    if reject is not None:
        reject(path, found)
    return None


def _report_miss(path: Path, reason: str) -> None:
    print(f"[cache] miss {path}: {reason}", file=sys.stderr)


def get_table(
    kind: str,
    params: dict,
    n_max: int,
    build: Callable[[], list[int]],
    directory=None,
) -> StatTable:
    """Serve from cache when it verifies; otherwise build the values, wrap
    them as this request's table and write it.

    A miss or reject prints one stderr line naming the file and the reason;
    a hit prints nothing.  A rebuilt table keeps as its ``csv`` the block
    save_table rendered for the file, so it is rendered once.
    """
    if directory is not None:
        cached = load_table(directory, kind, params, n_max, reject=_report_miss)
        if cached is not None:
            return cached
    table = StatTable(kind, dict(params), build())
    if directory is not None:
        save_table(directory, table)
    return table
