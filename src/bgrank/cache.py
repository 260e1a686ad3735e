"""On-disk cache for StatTable values.

One CSV file per table: a magic line, a JSON meta line (kind, n_max, params,
tool_version), a SHA-256 line over the data block, then ``n,value`` rows
with big integers as base-10 strings.  Writes are atomic (rename-on-write).
The loader renders the magic and meta lines the request would have written
and serves the file only if it starts with exactly those bytes and the data
block matches its checksum; anything else -- another request, another tool
version or file format, a corrupt byte -- returns None so the caller
recomputes.  Corrupt or stale data is never served.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ._meta import TOOL_VERSION
from .reporting import json_text
from .series import StatTable

MAGIC = "# stattable-cache v2"
_META = "# meta "
_SHA = "# sha256 "


class CacheWriteError(OSError):
    pass


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


def _data_block(values) -> str:
    lines = ["n,value"]
    lines.extend(f"{n},{v}" for n, v in enumerate(values))
    return "\n".join(lines) + "\n"


def save_table(directory, table: StatTable) -> Path:
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CacheWriteError(f"cannot create cache dir {directory}: {exc}") from exc
    data = _data_block(table.values)
    checksum = hashlib.sha256(data.encode("ascii")).hexdigest()
    content = f"{_header(table.kind, table.params, table.n_max)}{_SHA}{checksum}\n{data}"
    path = directory / cache_filename(table.kind, table.params, table.n_max)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="ascii", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise CacheWriteError(f"cannot write cache file {path}: {exc}") from exc
    return path


def load_table(directory, kind: str, params: dict, n_max: int) -> StatTable | None:
    """Read a cached table back; None when missing, stale or corrupt."""
    path = Path(directory) / cache_filename(kind, params, n_max)
    try:
        content = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError):
        return None
    header = _header(kind, params, n_max)
    data = content[len(header) + len(_SHA) + 65 :]  # past the sha line: 64 hex digits and "\n"
    checksum = hashlib.sha256(data.encode("ascii")).hexdigest()
    if not content.startswith(f"{header}{_SHA}{checksum}\n"):
        return None
    rows = data.strip("\n").split("\n")
    if not rows or rows[0] != "n,value":
        return None
    values = []
    try:
        for i, row in enumerate(rows[1:]):
            n_str, v_str = row.split(",")
            if int(n_str) != i:
                return None
            values.append(int(v_str))
    except ValueError:
        return None
    if len(values) != n_max + 1:
        return None
    return StatTable(kind, dict(params), values)


def get_table(
    kind: str,
    params: dict,
    n_max: int,
    builder: Callable[[], StatTable],
    directory=None,
) -> StatTable:
    """Serve from cache when it verifies; otherwise rebuild and rewrite."""
    if directory is None:
        return builder()
    cached = load_table(directory, kind, params, n_max)
    if cached is not None:
        return cached
    table = builder()
    save_table(directory, table)
    return table
