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
in canonical base 10.  A hit holds the file's bytes once and makes three
passes over them: SHA-256 through a memoryview of the block, the digit
skeleton of the whole file, and one regex scan that yields the n column
(``_rows_ok``); then it decodes the block from the same view as the table's
text, and the table parses its values from it only when they are read (JSON
output, library callers, ``validate``); a CSV hit prints the block
unchanged.  ``inspect_cache_file`` reads the request from a file's own meta
line and puts the same bytes through the same check.
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
    what save_table writes for them.  The file is read once: the meta line
    is parsed from the bytes the check then verifies."""
    content = _read(Path(path))
    if isinstance(content, str):
        return None
    start = content.find(b"\n") + 1
    try:
        # a wrong prefix or a missing newline fails to parse here or fails
        # the header check below
        meta = json.loads(content[start + len(_META) : content.find(b"\n", start)])
    except (ValueError, RecursionError):  # RecursionError: nesting too deep
        return None
    if not isinstance(meta, dict) or not isinstance(meta.get("params"), dict):
        return None
    counts = [meta.get("n_max"), *meta["params"].values()]
    if type(meta.get("kind")) is not str or not all(type(v) is int for v in counts):
        return None
    found = _verified(content, meta["kind"], meta["params"], meta["n_max"])
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
# the n of each row whose value is canonical: one or more digits, and no
# leading zero; a row with an empty or padded value yields nothing
_N_OF_CANONICAL_ROW = re.compile(rb"\n([0-9]+),(?!\n|0[0-9])")


def _n_column(rows: int) -> bytes:
    """``b"%d\\n" * rows % tuple(range(rows))`` for rows >= 1, the n column
    of a block, built a digit width at a time instead of a row at a time."""
    column, tails, low, width = [b"0\n"], b"\n", 1, 1
    while low < rows:
        # n = low..hi - 1 has ``width`` digits: a leading digit d, then one of
        # the tails, every (width - 1)-digit string zero-padded in order;
        # one replace puts d in front of all of them
        hi = min(rows, 10 * low)
        blocks = [b"%d" % d + tails[:-1].replace(b"\n", b"\n%d" % d) + b"\n" for d in range((hi - 1) // low + 1)]
        column.append(b"".join(blocks[1:])[: (width + 1) * (hi - low)])
        tails, low, width = b"".join(blocks), 10 * low, width + 1
    return b"".join(column)


def _rows_ok(content: bytes, start: int, n_max: int) -> bool:
    """Whether the data block ``content[start:]`` is one save_table writes:
    the line ``n,value``, then for n = 0..n_max the line ``n,<value>``, both
    fields in canonical base 10 (one or more digits, no sign, space,
    underscore or leading zero), and nothing after the last newline.
    Everything ``int()`` would accept but a verbatim print would show
    differently is rejected.  ``content[:start]`` is the verified head.

    Two passes over the file, and no copy of the block.  First the digit
    skeleton (``translate`` deletes every digit) must be the head's, then
    ``n,value`` and one ``,\\n`` per row: so each row is two runs of digits,
    either maybe empty, split by one comma.  The skeleton cannot see digits
    after the last newline; the final-newline test refuses them.  Then one
    ``findall`` yields a row's n only when its value is canonical, and that
    column must be exactly 0..n_max: an empty or padded field or a
    misplaced row leaves it short or out of order."""
    rows = n_max + 1
    # a row takes at least 4 bytes, so an n_max read from a file header never
    # sizes the expected block past the file itself, and a table has a row 0
    if n_max < 0 or 4 * rows > len(content) - start:
        return False
    # the skeleton below cannot see digits after the last newline
    if not content.startswith(b"n,value\n", start) or not content.endswith(b"\n"):
        return False
    skeleton = content[:start].translate(None, _DIGITS) + b"n,value\n" + b",\n" * rows
    if content.translate(None, _DIGITS) != skeleton:
        return False
    found = _N_OF_CANONICAL_ROW.findall(content, start)
    found.append(b"")
    return b"\n".join(found) == _n_column(rows)


def _read(path: Path) -> bytes | str:
    """The bytes of ``path``, or the reason code why they cannot be read."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return "missing"
    except OSError:
        return "unreadable"


def _verified(content: bytes, kind: str, params: dict, n_max: int) -> StatTable | str:
    """The table in ``content`` if it is the file save_table writes for this
    request; otherwise the reason code why not.  The data block is never
    copied: the checksum reads it through a memoryview and the served text
    is decoded from the same view."""
    header = _header(kind, params, n_max).encode("ascii")
    if not content.startswith(header):
        return "header"
    start = len(header) + len(_SHA) + 65  # past the sha line: 64 hex digits and "\n"
    data = memoryview(content)[start:]
    if content[len(header) : start] != f"{_SHA}{hashlib.sha256(data).hexdigest()}\n".encode("ascii"):
        return "checksum"
    if not _rows_ok(content, start, n_max):
        return "rows"
    return StatTable._from_csv(kind, dict(params), str(data, "ascii"), n_max)


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
    found = _read(path)
    if isinstance(found, bytes):
        found = _verified(found, kind, params, n_max)
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
