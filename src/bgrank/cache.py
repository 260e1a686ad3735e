"""On-disk cache for StatTable values.

One CSV file per table: a magic line, a JSON meta line (kind, params, n_max,
route, tool_version), a SHA-256 line over the data block, then ``n,value``
rows with big integers as base-10 strings.  Writes are atomic
(rename-on-write); a checksum or metadata mismatch, including a file written
by another tool version, makes the loader return None so the caller
recomputes -- corrupt or stale data is never served.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ._meta import TOOL_VERSION
from .reporting import json_text
from .series import StatTable

MAGIC = "# stattable-cache v1"


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


def inspect_cache_file(path) -> CacheEntry | None:
    """Header-only view of a cache file; None if the header is unreadable."""
    path = Path(path)
    try:
        with path.open(encoding="ascii") as fh:
            magic = fh.readline().rstrip("\n")
            meta_line = fh.readline().rstrip("\n")
            sha_line = fh.readline().rstrip("\n")
    except (OSError, UnicodeDecodeError):
        return None
    if magic != MAGIC or not meta_line.startswith("# meta ") or not sha_line.startswith("# sha256 "):
        return None
    import json as _json

    try:
        meta = _json.loads(meta_line[len("# meta ") :])
    except ValueError:
        return None
    return CacheEntry(
        path=path,
        kind=meta.get("kind", ""),
        params=dict(meta.get("params", {})),
        n_max=int(meta.get("n_max", -1)),
        checksum=sha_line[len("# sha256 ") :],
        tool_version=str(meta.get("tool_version", "")),
    )


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
        + "\n# meta "
        + json_text(meta)
        + "\n# sha256 "
        + hashlib.sha256(data.encode("ascii")).hexdigest()
        + "\n"
        + data
    )
    path = directory / cache_filename(table.kind, table.params, table.n_max)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="ascii", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except OSError as exc:
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
    if len(lines) < 4 or lines[0] != MAGIC:
        return None
    if not lines[1].startswith("# meta ") or not lines[2].startswith("# sha256 "):
        return None
    import json as _json

    try:
        meta = _json.loads(lines[1][len("# meta ") :])
    except ValueError:
        return None
    if meta.get("kind") != kind or meta.get("n_max") != n_max:
        return None
    if meta.get("tool_version") != TOOL_VERSION:
        return None
    if {k: v for k, v in meta.get("params", {}).items()} != dict(params):
        return None
    data = lines[3]
    if hashlib.sha256(data.encode("ascii")).hexdigest() != lines[2][len("# sha256 ") :]:
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
    return StatTable(kind, dict(params), values, n_max, route=meta.get("route", ""))


def cache_roundtrip(table: StatTable, directory) -> StatTable:
    """Write then read back; raises if the read does not verify."""
    save_table(directory, table)
    loaded = load_table(directory, table.kind, table.params, table.n_max)
    if loaded is None:
        raise CacheWriteError("table failed to verify immediately after writing")
    return loaded


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
