"""On-disk cache for StatTable values.

One CSV file per table: a magic line, a JSON meta line (kind, params, n_max,
route, tool_version), a SHA-256 line over the data block, then ``n,value``
rows with big integers as base-10 strings.  Writes are atomic
(rename-on-write); a checksum or metadata mismatch, a meta line with a
missing or wrongly typed field, or a file written by another tool version
makes the loader return None so the caller recomputes -- corrupt or stale
data is never served.
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

MAGIC = "# stattable-cache v1"
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


def _parse_header(magic: str, meta_line: str, sha_line: str) -> tuple[dict, str] | None:
    """(meta, checksum) from the first three lines of a cache file; None
    unless every line has its prefix and the meta object has the fields and
    types save_table writes (a bool is never a count)."""
    if magic != MAGIC or not meta_line.startswith(_META) or not sha_line.startswith(_SHA):
        return None
    try:
        meta = json.loads(meta_line[len(_META) :])
    except (ValueError, RecursionError):  # RecursionError: nesting too deep
        return None
    if not isinstance(meta, dict) or not isinstance(meta.get("params"), dict):
        return None
    strings = [meta.get(k) for k in ("kind", "route", "tool_version")]
    ints = [meta.get("n_max"), *meta["params"].values()]
    if not all(type(v) is str for v in strings) or not all(type(v) is int for v in ints):
        return None
    return meta, sha_line[len(_SHA) :]


def inspect_cache_file(path) -> CacheEntry | None:
    """Header-only view of a cache file; None if the header is unreadable."""
    path = Path(path)
    try:
        with path.open(encoding="ascii") as fh:
            header = _parse_header(*(fh.readline().rstrip("\n") for _ in range(3)))
    except (OSError, UnicodeDecodeError):
        return None
    if header is None:
        return None
    meta, checksum = header
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
    meta = {
        "kind": table.kind,
        "n_max": table.n_max,
        "params": table.params,
        "route": table.route,
        "tool_version": TOOL_VERSION,
    }
    content = (
        MAGIC
        + "\n"
        + _META
        + json_text(meta)
        + "\n"
        + _SHA
        + hashlib.sha256(data.encode("ascii")).hexdigest()
        + "\n"
        + data
    )
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
    lines = content.split("\n", 3)
    if len(lines) < 4:
        return None
    header = _parse_header(*lines[:3])
    if header is None:
        return None
    meta, checksum = header
    if meta["kind"] != kind or meta["n_max"] != n_max or meta["params"] != dict(params):
        return None
    if meta["tool_version"] != TOOL_VERSION:
        return None
    data = lines[3]
    if hashlib.sha256(data.encode("ascii")).hexdigest() != checksum:
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
    return StatTable(kind, dict(params), values, n_max, route=meta["route"])


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
