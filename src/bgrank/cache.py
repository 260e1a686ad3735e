"""Counting tables and their on-disk cache.

A ``StatTable`` is one table ``bgrank table`` serves: its cache kind,
selector params and ``n,value`` text, which this module alone renders,
verifies (``_rows_ok``) and parses into values on first read.
``get_table`` stamps the request's kind and params on the values its
builder returns, so no builder can file a table under another kind.

One CSV file per table: a magic line, a JSON meta line (kind, n_max, params,
tool_version), a SHA-256 line over the data block, then the data block: the
``n,value`` rows with big integers as base-10 strings, byte for byte the CSV
that ``bgrank table`` prints.  Writes are atomic (rename-on-write).

The loader reads the file as bytes and serves it only if three checks pass:
it starts with exactly the magic and meta lines the request would write, its
data block matches the checksum, and the block is n_max + 1 rows ``n,value``
in canonical base 10.  A hit then hands out the verified block itself as
the table's text, and the table parses its values from it only when they are
read (JSON output, library callers, ``validate``); a CSV hit prints the block
unchanged.  ``inspect_cache_file`` reads the request from a file's own meta
line and puts the file through the same check.
Anything else -- a missing or unreadable file, another request, tool version
or file format, a corrupt byte, a malformed row -- returns None with a
reason code so the caller recomputes.  Corrupt or stale data is never served.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import Callable

from . import __version__
from .reporting import json_text

MAGIC = "# stattable-cache v2"
_META = "# meta "
_SHA = "# sha256 "


class CacheWriteError(OSError):
    pass


class StatTable:
    """A counting table: its cache kind, selector params and its values at
    n = 0..n_max as ``csv`` text: the line ``n,value``, then one line
    ``n,<value>`` per row, in base 10.  The text is both the data block of a
    cache file and what ``bgrank table`` prints.  A table made from values
    renders the text at once and keeps the values; one the loader makes from
    verified text parses its values on first read, so a cache hit that is
    only printed never parses an int.  ``n_max`` is set when the table is
    made (from the values, or the request the loader verified the text
    against), so reading it never rescans the text.
    """

    def __init__(self, kind: str, params: dict[str, int], values: list[int]):
        if any(v < 0 for v in values):
            raise ValueError("tables hold counts; negative value found")
        self.kind = kind
        self.params = params
        self.csv = "n,value\n" + "".join([f"{n},{v}\n" for n, v in enumerate(values)])
        self.values = values
        self.n_max = len(values) - 1

    @classmethod
    def _from_csv(cls, kind: str, params: dict[str, int], csv: str, n_max: int) -> StatTable:
        """The table whose text the loader has verified (``_rows_ok``) as
        rows 0..n_max."""
        table = cls.__new__(cls)
        table.kind, table.params, table.csv, table.n_max = kind, params, csv, n_max
        return table

    @functools.cached_property
    def values(self) -> list[int]:
        # fields: "n", "value", then n and value of each row, then "" after the last newline
        return list(map(int, self.csv.replace("\n", ",").split(",")[3::2]))


def _header(kind: str, params: dict, n_max: int) -> str:
    """The magic and meta lines save_table writes for this request."""
    meta = {"kind": kind, "n_max": n_max, "params": params, "tool_version": __version__}
    return f"{MAGIC}\n{_META}{json_text(meta)}\n"


def inspect_cache_file(path) -> StatTable | None:
    """The table a cache file holds, read back through load_table's check;
    None unless its meta line names a kind, params and n_max of the types
    save_table writes (a bool is never a count) and the file verifies as
    what save_table writes for them."""
    path = Path(path)
    try:
        with path.open("rb") as fh:
            fh.readline()
            # a wrong prefix fails to parse here or fails the header check below
            meta = json.loads(fh.readline()[len(_META) :])
    except (OSError, ValueError, RecursionError):  # RecursionError: nesting too deep
        return None
    if not isinstance(meta, dict) or not isinstance(meta.get("params"), dict):
        return None
    counts = [meta.get("n_max"), *meta["params"].values()]
    if type(meta.get("kind")) is not str or not all(type(v) is int for v in counts):
        return None
    found = _verified(path, meta["kind"], meta["params"], meta["n_max"])
    return found if isinstance(found, StatTable) else None


def cache_filename(kind: str, params: dict, n_max: int) -> str:
    bits = [kind] + [f"{k}{params[k]}" for k in sorted(params)] + [f"N{n_max}"]
    return "_".join(bits) + ".csv"


def _make_dir(directory) -> Path:
    """``directory`` as a Path, created with its parents if missing."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CacheWriteError(f"cannot create cache dir {directory}: {exc}") from exc
    return directory


def save_table(directory, table: StatTable) -> Path:
    directory = _make_dir(directory)
    data = table.csv.encode("ascii")
    checksum = hashlib.sha256(data).hexdigest()
    head = f"{_header(table.kind, table.params, table.n_max)}{_SHA}{checksum}\n".encode("ascii")
    path = directory / cache_filename(table.kind, table.params, table.n_max)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            # two writes: joining head and data would copy the data block,
            # the largest buffer a cold `table` run holds
            fh.write(head)
            fh.write(data)
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
    # a row takes at least 4 bytes, so an n_max read from a file header never
    # sizes the expected block past the file itself, and a table has a row 0
    if n_max < 0 or 4 * rows > len(data) or not data.startswith(header):
        return False
    if data.translate(None, _DIGITS) != header + b",\n" * rows:
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
    return StatTable._from_csv(kind, dict(params), data.decode("ascii"), n_max)


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
    directory,
) -> StatTable:
    """Serve from cache when it verifies; otherwise build the values, wrap
    them as this request's table and write it.

    A ``directory`` of None means no cache.  A miss or reject prints one
    stderr line naming the file and the reason; a hit prints nothing.  A
    rebuilt table's text is rendered once, when the table is made, and
    save_table writes that text.  A cache directory that cannot be created
    raises before the build, not after it.
    """
    if directory is not None:
        cached = load_table(directory, kind, params, n_max, reject=_report_miss)
        if cached is not None:
            return cached
        _make_dir(directory)
    table = StatTable(kind, dict(params), build())
    if directory is not None:
        save_table(directory, table)
    return table
