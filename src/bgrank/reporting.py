"""Deterministic serialization for experiment outputs.

Floats are rendered with 17 significant digits in lowercase e-notation, big
integers as plain base-10 strings, JSON keys sorted; identical inputs give
byte-identical text.  Each JSON value renders to its own string, which its
container joins, so no list of fragments spans the document.  A RunReport
holds only what it serializes, and may build its rows anew on each render;
wall time and other console state belong to the CLI.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from types import GeneratorType
from typing import Callable, Iterable


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float in report: {x!r}")
    return f"{x:.16e}"


def _fragment(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(_member(key, obj[key]) for key in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple, GeneratorType)):
        return "[" + ",".join(map(_fragment, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def _member(key, value) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON keys must be strings, got {key!r}")
    return encode_basestring_ascii(key) + ":" + _fragment(value)


# the recursion goes through _fragment, so a tracer that wraps json_text
# records one span per document, not one per value
def json_text(obj) -> str:
    return _fragment(obj)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _fits(columns, row):
    if not isinstance(row, tuple) or len(row) != len(columns):
        raise ValueError(f"a report row must be a tuple of {len(columns)} values")
    return row


def csv_text(columns, rows) -> str:
    """A header line of ``columns``, then one line per row tuple.  ``rows`` may
    instead be that text already rendered, which is returned unchanged once
    its header line is checked."""
    header = ",".join(columns)
    if isinstance(rows, str):
        if not rows.startswith(header + "\n"):
            raise ValueError(f"rendered rows do not start with the header line {header!r}")
        return rows
    lines = [header]
    for row in rows:
        lines.append(",".join(_cell(v) for v in _fits(columns, row)))
    lines.append("")  # the final newline, without copying the joined text again
    return "\n".join(lines)


class RunReport:
    """One executed experiment's results: echoed command, parameters, result
    rows and named pass/fail checks.  A row is the tuple of its values in
    ``columns`` order; any other row is a ValueError when rendered.

    ``rows`` may be a function returning the rows.  It is called on every
    read and its result is not kept, so it may return a one-pass iterator and
    each render still sees every row.  ``csv``, when given, is the CSV text of
    those rows already rendered, and ``to_csv_text`` returns it: a report
    printed as CSV never builds its rows.
    """

    def __init__(
        self,
        command: str,
        params: dict,
        columns: tuple[str, ...],
        rows: Iterable[tuple] | Callable[[], Iterable[tuple]] | None = None,
        csv: str | None = None,
    ):
        self.command = command
        self.params = params
        self.columns = columns
        self._rows = [] if rows is None else rows
        self.csv = csv
        self.checks: list[dict] = []

    @property
    def rows(self) -> Iterable[tuple]:
        return self._rows() if callable(self._rows) else self._rows

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def add_check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def to_csv_text(self) -> str:
        return csv_text(self.columns, self.rows if self.csv is None else self.csv)

    def to_json_text(self) -> str:
        doc = {
            "command": self.command,
            "params": self.params,
            "columns": list(self.columns),
            "rows": (dict(zip(self.columns, _fits(self.columns, row))) for row in self.rows),
            "checks": self.checks,
        }
        return json_text(doc) + "\n"
