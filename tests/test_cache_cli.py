"""Cache integrity, deterministic serialization, and the CLI surface."""

import argparse
import ast
import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import pwd
import re
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgrank import asymptotics, cache, cli, partitions, series, turan
from bgrank import __version__ as TOOL_VERSION
from bgrank.cache import (
    CacheWriteError,
    StatTable,
    cache_filename,
    get_table,
    inspect_cache_file,
    load_table,
    save_table,
)
from bgrank.cli import main
from bgrank.reporting import RunReport, csv_text, format_float, json_text
from bgrank.series import p2_values, p_values, pbar_abn_table, pbar_values


def p_table(n_max):
    return StatTable("p", {}, p_values(n_max))


def same_table(got, want):
    return (got.kind, got.params, got.csv) == (want.kind, want.params, want.csv)


# ---------------------------------------------------------------------------
# serialization


def test_format_float():
    assert format_float(1.0) == "1.0000000000000000e+00"
    assert format_float(-0.25) == "-2.5000000000000000e-01"
    assert format_float(12345.678) == "1.2345678000000000e+04"
    with pytest.raises(ValueError):
        format_float(float("nan"))


def test_json_text_deterministic_and_parseable():
    doc = {"b": [1, 2.5, "x,y"], "a": {"z": True, "y": None}, "n": 10**40}
    text = json_text(doc)
    assert text == json_text(dict(reversed(list(doc.items()))))
    parsed = json.loads(text)
    assert parsed["n"] == 10**40
    assert parsed["b"][1] == 2.5
    assert text.index('"a"') < text.index('"b"')
    with pytest.raises(TypeError):
        json_text({"x": object()})


def test_csv_text_quoting():
    text = csv_text(("a", "b"), [(1, 'has,"comma')])
    assert text == 'a,b\n1,"has,""comma"\n'
    # rows already rendered pass through unchanged, under the right header only
    assert csv_text(("a", "b"), text) is text
    with pytest.raises(ValueError):
        csv_text(("a", "c"), text)


@pytest.mark.parametrize("json_first", [False, True])
def test_row_function_serves_both_renders(json_first):
    # report renders every job as CSV and then JSON: a row function that
    # returns a one-pass generator must be called afresh for each
    rep = RunReport("x", {}, ("a", "b"), rows=lambda: ((a, a * a) for a in range(5)))
    if json_first:
        json_out, csv_out = rep.to_json_text(), rep.to_csv_text()
    else:
        csv_out, json_out = rep.to_csv_text(), rep.to_json_text()
    assert csv_out == "a,b\n" + "".join(f"{a},{a * a}\n" for a in range(5))
    assert json.loads(json_out)["rows"] == [{"a": a, "b": a * a} for a in range(5)]


def test_json_render_holds_no_fragment_list():
    # each value renders to its own string; a list of every fragment of the
    # document would peak near 6.6 times the text
    rows = [(a, 10**30 + a, 1.0 + a / 7, a / 3e5) for a in range(10**4)]
    rep = RunReport("x", {}, ("a", "count", "ratio", "abs_dev"), rows=rows)
    tracemalloc.start()
    try:
        text = rep.to_json_text()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_run_report_passed():
    rep = RunReport(command="x", params={}, columns=("v",))
    rep.add_check("one", True)
    assert rep.passed
    rep.add_check("two", False, "boom")
    assert not rep.passed


# ---------------------------------------------------------------------------
# cache


def test_cache_roundtrip(tmp_path):
    table = p_table(100)
    save_table(tmp_path, table)
    back = load_table(tmp_path, "p", {}, 100)
    assert back.values == table.values
    assert back.kind == "p" and back.n_max == 100
    assert back.csv == table.csv


def test_cache_filename_stable():
    assert cache_filename("pbar_jab", {"j": 0, "b": 5, "a": 1}, 30) == "pbar_jab_a1_b5_j0_N30.csv"


@pytest.mark.parametrize(
    "kind, params, values, digest",
    [
        ("p", {}, lambda: p_values(30), "2db26c862524466c5766ac3ff3c4460f0b23b02140c824f64a52acbdd6cf68b9"),
        ("p2", {}, lambda: p2_values(30), "bb077111c94a0a289aeb7e38f03dc10b642c3c8408b78c0a0fef001b5f2f878f"),
        (
            "pbar_j",
            {"j": -1},
            lambda: pbar_values(-1, 30),
            "1c5d067be6d4d66d85d00a867544071e6dc02849928cf21ed323945975bba537",
        ),
        (
            "pbar_jab",
            {"j": 0, "a": 1, "b": 5},
            lambda: pbar_abn_table(0, 1, 5, 30),
            "fed1979bf1e8dfb7821dfa5b4f4ebc09b3893a74299ef0a8c60875b1204e3c2b",
        ),
    ],
    ids=["p", "p2", "pbar", "pbar-ab"],
)
def test_cache_file_bytes_are_pinned(tmp_path, kind, params, values, digest):
    # any drift in the file format silently rebuilds every user's cache, so
    # a change to these bytes must come with a new MAGIC and new digests
    path = save_table(tmp_path, StatTable(kind, params, values()))
    assert path.name == cache_filename(kind, params, 30)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_cache_detects_corruption(tmp_path):
    table = p_table(30)
    path = save_table(tmp_path, table)
    original = path.read_bytes()
    variants = []
    for i in range(len(original)):
        for byte in (original[i] ^ 0x01, 0xFF):
            variants.append(original[:i] + bytes([byte]) + original[i + 1 :])
    # the previous file format
    variants.append(b"# stattable-cache v1\n" + original.split(b"\n", 1)[1])
    for raw in variants:
        path.write_bytes(raw)
        assert load_table(tmp_path, "p", {}, 30) is None, raw
        # get_table recomputes and repairs the file
        assert same_table(get_table("p", {}, 30, lambda: p_values(30), tmp_path), table)
        assert path.read_bytes() == original


def test_cache_misses(tmp_path):
    assert load_table(tmp_path, "p", {}, 10) is None
    table = StatTable("pbar_j", {"j": 2}, [0] * 11)
    save_table(tmp_path, table)
    assert load_table(tmp_path, "pbar_j", {"j": 2}, 11) is None  # different n_max
    assert load_table(tmp_path, "pbar_j", {"j": 3}, 10) is None  # different params
    assert same_table(load_table(tmp_path, "pbar_j", {"j": 2}, 10), table)


def test_cache_rejects_other_tool_version(tmp_path):
    path = save_table(tmp_path, p_table(30))
    magic, meta, rest = path.read_text(encoding="ascii").split("\n", 2)
    stamp = f'"tool_version":"{TOOL_VERSION}"'
    assert stamp in meta
    meta = meta.replace(stamp, '"tool_version":"0.0.1"')
    path.write_text("\n".join([magic, meta, rest]), encoding="ascii")
    assert load_table(tmp_path, "p", {}, 30) is None


def _meta(**changes):
    """The meta object save_table writes for p_table(10), with fields changed
    (None drops the field)."""
    meta = {"kind": "p", "n_max": 10, "params": {}, "tool_version": TOOL_VERSION}
    meta.update(changes)
    return {k: v for k, v in meta.items() if v is not None}


@pytest.mark.parametrize(
    "n_max, meta_line",
    [
        (10, "[1]"),
        (10, json.dumps(_meta(params=[]))),
        (10, json.dumps(_meta(params=5))),
        (10, json.dumps(_meta(params={"j": "0"}))),
        (10, json.dumps(_meta(n_max=10.0))),
        (1, json.dumps(_meta(n_max=True))),
        (10, json.dumps(_meta(kind=None))),
        (10, json.dumps(_meta(tool_version=None))),
        (10, "[" * 100000 + "]" * 100000),
    ],
    ids=[
        "list",
        "params-list",
        "params-int",
        "params-str-value",
        "n_max-float",
        "n_max-bool",
        "kind-missing",
        "tool_version-missing",
        "nested-too-deep",
    ],
)
def test_cache_rejects_malformed_meta(tmp_path, n_max, meta_line):
    table = p_table(n_max)
    path = save_table(tmp_path, table)
    magic, _, rest = path.read_text(encoding="ascii").split("\n", 2)
    path.write_text(f"{magic}\n# meta {meta_line}\n{rest}", encoding="ascii")
    assert load_table(tmp_path, "p", {}, n_max) is None
    assert inspect_cache_file(path) is None
    # get_table recomputes and repairs the file
    rebuilt = get_table("p", {}, n_max, lambda: p_values(n_max), tmp_path)
    assert rebuilt.values == table.values
    assert load_table(tmp_path, "p", {}, n_max) is not None
    assert inspect_cache_file(path) is not None


def test_cache_inspect(tmp_path):
    table = StatTable("pbar_jab", {"j": 0, "a": 1, "b": 5}, pbar_abn_table(0, 1, 5, 20))
    path = save_table(tmp_path, table)
    entry = inspect_cache_file(path)
    assert entry is not None
    assert entry.kind == "pbar_jab"
    assert entry.params == {"j": 0, "a": 1, "b": 5}
    assert entry.n_max == 20
    assert same_table(entry, table) and entry.values == table.values
    assert inspect_cache_file(tmp_path / "missing.csv") is None


def test_cache_header_n_max_past_the_file_is_refused(tmp_path):
    # the meta line is outside input: an n_max far past the data block, under
    # a checksum that matches, is a rejected file and never a huge allocation
    huge = 10**30
    raw = save_table(tmp_path, p_table(10)).read_bytes().replace(b'"n_max":10', b'"n_max":%d' % huge)
    path = tmp_path / cache_filename("p", {}, huge)
    path.write_bytes(raw)
    assert inspect_cache_file(path) is None
    reasons = []
    assert load_table(tmp_path, "p", {}, huge, reject=lambda path, why: reasons.append(why)) is None
    assert reasons == ["rows"]


def test_save_table_removes_temp_file_on_failure(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("bgrank.cache.os.replace", fail)
    with pytest.raises(CacheWriteError):
        save_table(tmp_path, p_table(20))
    assert list(tmp_path.iterdir()) == []


def test_save_table_copies_the_data_block_once(tmp_path):
    table = p_table(5000)
    size = len(table.csv)
    tracemalloc.start()
    try:
        save_table(tmp_path, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the encoded block itself, and no second copy of it
    assert size <= peak < 1.5 * size


def test_load_table_holds_the_file_about_once(tmp_path):
    # the file's bytes and the decoded text; the row check copies no block
    table = p_table(5000)
    size = len(table.csv)
    save_table(tmp_path, table)
    tracemalloc.start()
    try:
        back = load_table(tmp_path, "p", {}, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.csv == table.csv
    assert peak < 4 * size


def test_expected_n_column_is_every_n_formatted():
    # every width from one row up, each side of each power of ten, and each
    # table cap's row count
    sizes = [
        *range(1, 1201),
        *(10**k + e for k in range(1, 7) for e in (-1, 0, 1)),
        *(entry[-1] + 1 for entry in cli._STATS.values()),
    ]
    for rows in sizes:
        assert cache._n_column(rows) == b"%d\n" * rows % tuple(range(rows)), rows


def test_cache_concurrent_readers(tmp_path):
    table = p_table(200)
    save_table(tmp_path, table)
    results = []

    def reader():
        results.append(load_table(tmp_path, "p", {}, 200))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r is not None and r.values == table.values for r in results)


def test_cache_reject_reasons(tmp_path, capsys):
    reasons = []

    def load():
        return load_table(tmp_path, "p", {}, 30, reject=lambda path, why: reasons.append((path.name, why)))

    assert load() is None
    path = save_table(tmp_path, p_table(30))
    original = path.read_bytes()
    assert same_table(load(), p_table(30))
    path.write_bytes(original.replace(b"v2", b"v1", 1))
    assert load() is None
    path.write_bytes(original[:-2] + b"8\n")  # p(30) = 5604 -> 5608
    assert load() is None
    assert same_table(get_table("p", {}, 30, lambda: p_values(30), tmp_path), p_table(30))
    assert capsys.readouterr().err == f"[cache] miss {path}: checksum\n"
    assert same_table(get_table("p", {}, 30, lambda: p_values(30), tmp_path), p_table(30))
    assert capsys.readouterr().err == ""
    path.unlink()
    path.mkdir()
    assert load() is None
    assert reasons == [(path.name, why) for why in ("missing", "header", "checksum", "unreadable")]


def _forge(directory, kind, params, n_max):
    """The file save_table would write for this request if its builder
    returned ones at n = 0..n_max, whether or not the request is valid."""
    data = "n,value\n" + "".join(f"{n},1\n" for n in range(n_max + 1))
    digest = hashlib.sha256(data.encode("ascii")).hexdigest()
    path = Path(directory) / cache_filename(kind, params, n_max)
    path.write_text(f"{cache._header(kind, params, n_max)}# sha256 {digest}\n{data}", encoding="ascii")
    return path


def test_cache_refuses_a_negative_n_max(tmp_path):
    # header and checksum are right, but a table has a row n = 0
    path = _forge(tmp_path, "p", {}, -5)
    assert path.read_bytes().endswith(b"\nn,value\n")
    reasons = []
    assert load_table(tmp_path, "p", {}, -5, reject=lambda _, why: reasons.append(why)) is None
    assert reasons == ["rows"]
    assert inspect_cache_file(path) is None


_P = ("--stat", "p")
_PBAR_AB = ("--stat", "pbar-ab", "--j", "0", "--a", "1", "--b", "5")


@pytest.mark.parametrize(
    "stat, old, new",
    [
        pytest.param(_P, "\n5,7\n", "\n5,07\n", id="leading-zero"),
        pytest.param(_P, "\n5,7\n", "\n5,+7\n", id="plus-sign"),
        pytest.param(_P, "\n10,42\n", "\n10,4_2\n", id="underscore"),
        pytest.param(_P, "\n5,7\n", "\n5, 7\n", id="space"),
        pytest.param(_P, "\n5,7\n", "\n5,-7\n", id="minus-sign"),
        pytest.param(_P, "\n5,7\n", "\n5,\n", id="empty-value"),
        pytest.param(_P, "\n5,7\n", "\n57\n", id="no-comma"),
        pytest.param(_P, "\n5,7\n", "\n5,7,7\n", id="two-commas"),
        pytest.param(_P, "\n5,7\n", "\n05,7\n", id="n-leading-zero"),
        pytest.param(_P, "\n5,7\n", "\n5,7\r\n", id="carriage-return"),
        pytest.param(_P, "\n5,7\n6,11\n", "\n6,11\n5,7\n", id="rows-swapped"),
        pytest.param(_P, "\n12,77\n", "\n", id="row-missing"),
        pytest.param(_P, "\n12,77\n", "\n12,77\n\n", id="blank-line-at-end"),
        # the digit skeleton cannot see these: the final-newline test, the
        # value lookahead or the n column must
        pytest.param(_P, "\n12,77\n", "\n12,77\n5", id="digits-after-last-newline"),
        pytest.param(_P, "n,value\n0,1\n", "n,value\n0,\n", id="empty-value-row-0"),
        pytest.param(_P, "n,value\n0,1\n", "n,value\n0,01\n", id="leading-zero-row-0"),
        pytest.param(_P, "\n12,77\n", "\n12,\n", id="empty-value-last-row"),
        pytest.param(_P, "\n12,77\n", "\n12,077\n", id="leading-zero-last-row"),
        pytest.param(_P, "\n9,30\n10,42\n", "\n10,42\n9,30\n", id="rows-9-10-swapped"),
        # a meta line with commas: the head is not part of the row scan
        pytest.param(_PBAR_AB, "\n12,13\n", "\n12,13\n5", id="pbar-ab-digits-after-last-newline"),
        pytest.param(_PBAR_AB, "n,value\n0,0\n", "n,value\n0,\n", id="pbar-ab-empty-value-row-0"),
        pytest.param(_PBAR_AB, "n,value\n0,0\n", "n,value\n0,00\n", id="pbar-ab-leading-zero-row-0"),
        pytest.param(_PBAR_AB, "\n12,13\n", "\n12,\n", id="pbar-ab-empty-value-last-row"),
        pytest.param(_PBAR_AB, "\n12,13\n", "\n12,013\n", id="pbar-ab-leading-zero-last-row"),
        pytest.param(_PBAR_AB, "\n9,0\n10,7\n", "\n10,7\n9,0\n", id="pbar-ab-rows-9-10-swapped"),
    ],
)
def test_cache_rejects_forged_rows(tmp_path, capsys, stat, old, new):
    # header and SHA-256 line are right, one row is not: int() would read
    # most of these back, but printing the block verbatim would show them
    argv = ["--cache-dir", str(tmp_path), "table", *stat, "--n-max", "12"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    (path,) = tmp_path.iterdir()
    original = path.read_bytes()
    table = inspect_cache_file(path)
    magic, meta, _, data = original.decode("ascii").split("\n", 3)
    assert data == printed and data.count(old) == 1
    data = data.replace(old, new)
    digest = hashlib.sha256(data.encode("ascii")).hexdigest()
    path.write_bytes(f"{magic}\n{meta}\n# sha256 {digest}\n{data}".encode("ascii"))
    reasons = []
    assert load_table(tmp_path, table.kind, table.params, 12, reject=lambda path, why: reasons.append(why)) is None
    assert reasons == ["rows"]
    assert main(argv) == 0
    assert capsys.readouterr().out == printed
    assert path.read_bytes() == original


def test_cache_csv_hit_never_parses_ints(tmp_path, capsys, monkeypatch):
    argv = ["--cache-dir", str(tmp_path), "table", "--stat", "pbar", "--j", "0", "--n-max", "60"]
    assert main(argv) == 0
    miss = capsys.readouterr().out

    def no_parse(table):
        raise AssertionError("a CSV cache hit read the table's values")

    monkeypatch.setattr(StatTable, "values", property(no_parse))
    assert main(argv) == 0
    assert capsys.readouterr().out == miss


# ---------------------------------------------------------------------------
# CLI


def test_cli_table_pbar(capsys):
    code = main(["--no-cache", "table", "--stat", "pbar", "--j", "0", "--n-max", "12"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,value"
    assert lines[-1] == "12,65"


@pytest.mark.parametrize(
    "build, detail",
    [(lambda n: p_values(n)[:-1], "kind=p route=pentagonal-recurrence")],
    ids=["short"],
)
def test_cli_table_built_check_can_fail(monkeypatch, capsys, build, detail):
    monkeypatch.setattr("bgrank.cli.p_values", build)
    assert main(["--no-cache", "table", "--stat", "p", "--n-max", "8"]) == 1
    assert f"[table] FAIL table-built  {detail}\n" in capsys.readouterr().err


@pytest.mark.parametrize("stat, n_max, last", [("p2", 6, 65), ("p", 5, 7)])
def test_cli_table_json_format(stat, n_max, last, capsys):
    assert main(["--no-cache", "--format", "json", "table", "--stat", stat, "--n-max", str(n_max)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][-1] == {"n": n_max, "value": last}


def test_cli_equidist_exact_ones(capsys):
    code = main(["--no-cache", "equidist", "--j", "0", "--b", "5", "--n", "4"])
    assert code == 0
    got = capsys.readouterr().out.strip().split("\n")
    assert got[0] == "a,count,ratio,abs_dev"
    for line in got[1:]:
        a, count, ratio, dev = line.split(",")
        assert count == "1"
        assert float(ratio) == 1.0 and float(dev) == 0.0


def test_cli_joint_cap_is_argument_error():
    assert main(["--no-cache", "joint", "--j", "0", "--n-max", "70"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--stat", "pbar-ab", "--j", "0", "--a", "0", "--b", "5", "--n-max", "-1"],
        ["table", "--stat", "pbar", "--j", "0", "--n-max", "-3"],
        ["table", "--stat", "p2", "--n-max", "-1"],
    ],
)
def test_cli_negative_n_max_is_argument_error(argv, capsys):
    assert main(["--no-cache", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_max must be >= 0" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["jensen", "--d", "1", "--n", "-3"], "jensen needs --d >= 1 and --n >= 0"),
        (["equidist", "--j", "0", "--b", "5", "--n", "-3"], "n must be >= 0"),
        (["jensen", "--d", "-5", "--n", "1"], "jensen needs --d >= 1 and --n >= 0"),
        (["jensen", "--d", "-5", "--n", "1", "--renormalized"], "jensen needs --d >= 1 and --n >= 0"),
        (["asympt", "--n-list", "4", "--b", "0"], "b must be >= 1"),
        (["asympt", "--n-list", "4", "--b", "-1"], "b must be >= 1"),
        (["onset", "--max-degree", "25"], "onset needs 2 <= --max-degree <= 24 and --hi >= 0"),
        (["jensen", "--d", "2", "--n", "1", "--renormalized"], "second-order coefficient is not positive at n = 1"),
        (["turan", "--order", "2", "--range", "1:-5"], "empty range"),
        (["turan", "--order", "convexity", "--range", "0:-1"], "empty range"),
        (["turan", "--order", "2", "--range=-5:-3"], "order-2 scan needs indices [lo-1, hi+1] inside the sequence"),
        (["turan", "--order", "3", "--range=-9:-6"], "order-3 scan needs indices [lo, hi+3] inside the sequence"),
        (
            ["equidist", "--j", "0", "--b", "5", "--n", "11"],
            "no partition of --n 11 has BG-rank 0 (needs n >= 0 and n - 0 even)",
        ),
        (
            ["equidist", "--j", "3", "--b", "5", "--n", "14"],
            "no partition of --n 14 has BG-rank 3 (needs n >= 15 and n - 15 even)",
        ),
        (["asympt", "--n-list", "4,2"], "asympt --n-list must be strictly increasing"),
        (["asympt", "--n-list", "1000,1000,1000"], "asympt --n-list must be strictly increasing"),
        (["equidist", "--j", "0", "--b", "1000001", "--n", "4"], "equidist needs 2 <= --b <= 1000000"),
        (["equidist", "--j", "0", "--b", "1", "--n", "4"], "equidist needs 2 <= --b <= 1000000"),
        (["arcs", "--b", "1"], "arcs needs 2 <= --b <= 300"),
        (["arcs", "--b", "301"], "arcs needs 2 <= --b <= 300"),
        (["asympt", "--n-list", "2", "--b", "7"], "count is zero at n = 2; pick a larger n for b = 7"),
        (
            ["turan", "--order", "convexity", "--range", "2:1000000"],
            "turan reads alpha(m) up to m = 2000000, above the cap of 100000",
        ),
        (["onset", "--hi", "99996"], "onset reads alpha(m) up to m = 100001, above the cap of 100000"),
        (["jensen", "--d", "2", "--n", "99999"], "jensen reads alpha(m) up to m = 100001, above the cap of 100000"),
        (["table", "--stat", "p", "--n-max", "100001"], "table --stat p needs --n-max <= 100000"),
        (["table", "--stat", "p2", "--n-max", "100001"], "table --stat p2 needs --n-max <= 100000"),
        (["table", "--stat", "pbar", "--j", "0", "--n-max", "200001"], "table --stat pbar needs --n-max <= 200000"),
        (
            ["table", "--stat", "pbar-ab", "--j", "0", "--a", "0", "--b", "4000", "--n-max", "4001"],
            "table --stat pbar-ab needs --n-max <= 4000",
        ),
        (["equidist", "--j", "0", "--b", "5", "--n", "4002"], "equidist needs --n <= 4000"),
        (["asympt", "--n-list", "200002"], "asympt --b 1 needs --n-list entries <= 200000"),
        (["asympt", "--n-list", "1000,2000,4000,8000", "--b", "5"], "asympt --b 5 needs --n-list entries <= 4000"),
        (["jensen", "--d", "25", "--n", "1000"], "jensen needs --d <= 24 without --renormalized"),
    ],
)
def test_cli_out_of_range_flag_is_named(argv, message, capsys):
    assert main(["--no-cache", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "stat, selectors",
    [
        ("p", ["--j", "5"]),
        ("p", ["--a", "1"]),
        ("p2", ["--b", "5"]),
        ("pbar", ["--j", "0", "--b", "5"]),
        ("pbar", ["--j", "0", "--a", "1"]),
    ],
)
def test_cli_table_rejects_a_selector_the_stat_does_not_take(stat, selectors, capsys):
    argv = ["--no-cache", "table", "--stat", stat, *selectors, "--n-max", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --stat {stat} takes no {selectors[-2]}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "table --stat p --n-max -5",
        "table --stat p2 --n-max -1",
        "table --stat pbar --j 0 --n-max -3",
        "table --stat pbar-ab --j 0 --a 7 --b 5 --n-max 4",
        "table --stat pbar-ab --j 0 --a -1 --b 5 --n-max 4",
        "table --stat pbar-ab --j 0 --a 0 --b 1 --n-max 4",
        "table --stat pbar-ab --j 0 --a 0 --b 1 --n-max -1",
        "table --stat pbar-ab --j 0 --a 0 --b 0 --n-max -1",
        "table --stat pbar-ab --j 0 --a 0 --b 5 --n-max -1",
    ],
)
def test_cli_table_refuses_a_request_before_the_cache(argv, tmp_path, capsys):
    # a file filed under a request the builder refuses is never served: the
    # request fails alike with and without it, with the builder's message
    args = cli.parse_args(argv.split())
    kind, takes, _, build, _ = cli._STATS[args.stat]
    with pytest.raises(ValueError) as refused:
        build(args)
    _forge(tmp_path, kind, {name: getattr(args, name) for name in takes}, args.n_max)
    runs = []
    for prefix in (["--no-cache"], ["--cache-dir", str(tmp_path)]):
        code = main([*prefix, *argv.split()])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1] == (2, "", f"error: {refused.value}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["turan", "--order", "2", "--range", "5"], "argument --range: range must look like LO:HI"),
        (["asympt", "--n-list", "1,x"], "argument --n-list: n-list must be comma-separated integers"),
    ],
)
def test_cli_unparsable_flag_value_exits_2(argv, message, capsys):
    # argparse reports a flag its type function refuses before any handler
    # runs, and main returns its exit code rather than raising it
    assert main(["--no-cache", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"bgrank {argv[0]}: error: {message}"


def test_cli_uncreatable_cache_dir_is_argument_error(tmp_path, monkeypatch, capsys):
    # the directory is refused before the table is built, not after
    def never(n_max):
        pytest.fail("the table was built for a cache dir that cannot be created")

    monkeypatch.setattr("bgrank.cli.p_values", never)
    blocker = tmp_path / "F"
    blocker.write_text("")
    cache_dir = blocker / "sub"
    assert main(["--cache-dir", str(cache_dir), "table", "--stat", "p", "--n-max", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    miss, error = captured.err.splitlines()
    assert miss == f"[cache] miss {cache_dir / 'p_N5.csv'}: unreadable"
    assert error.startswith(f"error: cannot create cache dir {cache_dir}: ")


def test_cli_jensen_renormalized_zero_shift_is_argument_error(capsys):
    assert main(["--no-cache", "jensen", "--d", "3", "--n", "0", "--renormalized"]) == 2
    assert "error: n must be >= 1" in capsys.readouterr().err


def test_cli_report_into_a_file_path_is_argument_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["--no-cache", "report", "--out", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_unrenderable_row_is_argument_error(monkeypatch, capsys, fmt):
    monkeypatch.setattr(
        "bgrank.cli.cmd_arcs", lambda args: RunReport("arcs", {}, ("x",), [(float("nan"),)])
    )
    assert main(["--no-cache", "--format", fmt, "arcs", "--b", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite float in report: nan\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "row",
    [(1,), (1, 2, 3), {"x": 1, "y": 2}],
    ids=["too-few", "too-many", "dict"],
)
def test_cli_row_that_does_not_fit_the_columns_is_argument_error(monkeypatch, capsys, fmt, row):
    monkeypatch.setattr("bgrank.cli.cmd_arcs", lambda args: RunReport("arcs", {}, ("x", "y"), [(0, 0), row]))
    assert main(["--no-cache", "--format", fmt, "arcs", "--b", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_missing_param_is_argument_error():
    assert main(["--no-cache", "table", "--stat", "pbar", "--n-max", "4"]) == 2


def test_cli_unknown_flag_exits_2(capsys):
    assert main(["--no-cache", "table", "--stat", "p", "--n-max", "4", "--bogus"]) == 2
    assert "usage" in capsys.readouterr().err


def test_cli_version_and_help_return_0(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"{TOOL_VERSION}\n"
    assert main(["table", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: bgrank table")


def test_cli_builds_one_parser_per_process(monkeypatch, tmp_path, capsys):
    # main and report's jobs parse through one parser, built on first use
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert main(["--no-cache", "table", "--stat", "p", "--n-max", "4"]) == 0
    assert built
    built.clear()
    assert main(["--no-cache", "table", "--stat", "p2", "--n-max", "4"]) == 0
    assert built == []

    parsed = []
    parse_args = cli.parse_args

    def counting_parse(argv=None):
        parsed.append(argv)
        return parse_args(argv)

    jobs = (("p", "table --stat p --n-max 8"), ("joint", "joint --j 0 --n-max 6"))
    monkeypatch.setattr(cli, "parse_args", counting_parse)
    monkeypatch.setattr(cli, "_REPORT_JOBS", jobs)
    assert main(["--no-cache", "report", "--out", str(tmp_path)]) == 0
    assert built == []
    assert parsed[1:] == [argv.split() for _, argv in jobs]
    assert (tmp_path / "joint.csv").read_text().startswith("n,m,count\n")


def test_cli_calls_share_no_parsed_state(capsys):
    # no flag of one call carries over to the next, and a call that fails in
    # argparse leaves the shared parser usable
    assert main(["--no-cache", "table", "--stat", "pbar", "--j", "0", "--n-max", "6"]) == 0
    assert main(["--no-cache", "table", "--stat", "p", "--n-max", "6"]) == 0
    assert main(["--no-cache", "table", "--stat", "p"]) == 2
    capsys.readouterr()
    assert main(["--no-cache", "--format", "json", "table", "--stat", "p", "--n-max", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"a": None, "b": None, "j": None, "n_max": 6, "stat": "p"}


def test_cli_handlers_are_looked_up_at_call_time(monkeypatch, capsys):
    # perfbench's tracer rebinds cmd_* after the parser may already exist
    assert main(["--no-cache", "table", "--stat", "p", "--n-max", "4"]) == 0
    seen = []

    def patched(args):
        seen.append(args.stat)
        return RunReport(command="table", params={}, columns=("n",), rows=[(0,)])

    monkeypatch.setattr(cli, "cmd_table", patched)
    assert main(["--no-cache", "table", "--stat", "p2", "--n-max", "4"]) == 0
    assert seen == ["p2"], "main ran the cmd_table bound when the parser was built, not bgrank.cli.cmd_table"


def test_cli_wall_time_covers_rendering(monkeypatch, capsys):
    render = RunReport.to_csv_text

    def slow_render(self):
        time.sleep(0.2)
        return render(self)

    monkeypatch.setattr(RunReport, "to_csv_text", slow_render)
    assert main(["--no-cache", "table", "--stat", "p", "--n-max", "4"]) == 0
    wall = float(re.search(r"\[table\] wall time ([0-9.]+)s", capsys.readouterr().err).group(1))
    assert wall >= 0.2


def test_cli_turan_failure_sets_exit_code(capsys):
    # range includes the genuine failure at m = 5
    assert main(["--no-cache", "turan", "--order", "2", "--range", "2:10"]) == 1
    assert main(["--no-cache", "turan", "--order", "2", "--range", "6:60"]) == 0


def test_cli_jensen(capsys):
    assert main(["--no-cache", "jensen", "--d", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,coefficient\n0,5\n1,20\n2,20")


def test_cli_arcs(capsys):
    assert main(["--no-cache", "arcs", "--b", "3"]) == 0


def test_cli_onset(capsys):
    assert main(["--no-cache", "onset", "--max-degree", "3", "--hi", "60"]) == 0
    d3_failures = ", ".join(map(str, [*range(18), 19, 21, 23]))
    assert capsys.readouterr().out.split("\n") == [
        "d,onset,failures_below",
        '2,5,"[0, 4]"',
        f'3,24,"[{d3_failures}]"',
        "",
    ]
    # d = 5 and 6 first stabilize at m = 121 and 202
    assert main(["--no-cache", "onset", "--max-degree", "6", "--hi", "100"]) == 1
    assert "no stable onset by m = 100: [5, 6]" in capsys.readouterr().err
    assert main(["--no-cache", "onset", "--max-degree", "1"]) == 2
    assert main(["--no-cache", "onset", "--hi", "-1"]) == 2


@pytest.mark.parametrize(
    "argv, top",
    [
        ("turan --order convexity --range 2:50000", 100000),
        ("turan --order 2 --range 1:99999", 100000),
        ("onset --max-degree 24 --hi 99976", 100000),
        ("jensen --d 3 --n 99997", 100000),
        ("turan --order convexity --range 2:50001", None),
        ("onset --max-degree 24 --hi 99977", None),
    ],
)
def test_cli_alpha_cap_is_checked_before_the_build(argv, top, monkeypatch, capsys):
    # the table is asked for up to the cap and never beyond it
    asked = []

    def builder(m):
        asked.append(m)
        raise ValueError("stub builder")

    monkeypatch.setattr("bgrank.cli.p2_values", builder)
    assert main(["--no-cache", *argv.split()]) == 2
    err = capsys.readouterr().err
    assert asked == ([] if top is None else [top])
    assert ("stub builder" in err) == (top is not None)


@pytest.mark.parametrize(
    "argv, builder, top",
    [
        ("equidist --j 0 --b 5 --n 4000", "pbar_eta", 4000),
        ("equidist --j 0 --b 5 --n 4001", "pbar_eta", None),
        ("asympt --n-list 2,200000", "pbar_values", 200000),
        ("asympt --n-list 2,200002", "pbar_values", None),
        ("asympt --n-list 4000 --b 2", "pbar_abn_table", 4000),
        ("asympt --n-list 4002 --b 2", "pbar_abn_table", None),
        ("jensen --d 24 --n 1000", "p2_values", 1024),
        ("jensen --d 25 --n 1000", "p2_values", None),
        ("jensen --d 25 --n 1000 --renormalized", "p2_values", 1025),
    ],
)
def test_cli_size_caps_are_checked_before_the_build(argv, builder, top, monkeypatch, capsys):
    # equidist's and asympt's sizes reach their table's builder up to its
    # _STATS cap and never beyond it; jensen's exact path reaches alpha up to
    # degree ONSET_MAX_DEGREE, and the renormalized path past it
    asked = []

    def stub(*args):
        asked.append(args[-1])
        raise ValueError("stub builder")

    monkeypatch.setattr(f"bgrank.cli.{builder}", stub)
    assert main(["--no-cache", *argv.split()]) == 2
    err = capsys.readouterr().err
    assert asked == ([] if top is None else [top])
    assert ("stub builder" in err) == (top is not None)


@pytest.mark.parametrize(
    "argv, builder, top",
    [
        ("--stat p --n-max 100000", "p_values", 100000),
        ("--stat p --n-max 100001", "p_values", None),
        ("--stat p2 --n-max 100000", "p2_values", 100000),
        ("--stat p2 --n-max 100001", "p2_values", None),
        ("--stat pbar --j 0 --n-max 200000", "pbar_values", 200000),
        ("--stat pbar --j -1 --n-max 200001", "pbar_values", None),
        ("--stat pbar-ab --j 0 --a 0 --b 4000 --n-max 4000", "pbar_abn_table", 4000),
        ("--stat pbar-ab --j 0 --a 1 --b 5 --n-max 4001", "pbar_abn_table", None),
    ],
)
def test_cli_table_cap_is_checked_before_the_cache_and_the_build(argv, builder, top, tmp_path, monkeypatch, capsys):
    # a request at the cap reaches the cache and the builder, one above it neither
    asked = []

    def stub(*args):
        asked.append(args[-1])
        raise ValueError("stub builder")

    monkeypatch.setattr(f"bgrank.cli.{builder}", stub)
    assert main(["--cache-dir", str(tmp_path), "table", *argv.split()]) == 2
    err = capsys.readouterr().err
    assert asked == ([] if top is None else [top])
    assert ("[cache] miss" in err) == ("stub builder" in err) == (top is not None)


def _onset_rows_oracle(seq, max_d, hi):
    """onset's rows with one Sturm chain for every shift below an onset."""
    rows = []
    for d in range(2, max_d + 1):
        m0 = turan.hyperbolicity_onset(seq, d, hi)
        below = None if m0 is None else [m for m in range(m0) if not turan.is_hyperbolic(turan.jensen_poly(seq, d, m))]
        rows.append({"d": d, "onset": m0, "failures_below": below})
    return rows


def _onset_json_rows(max_d, hi):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(["--no-cache", "--format", "json", "onset", "--max-degree", str(max_d), "--hi", str(hi)])
    return json.loads(out.getvalue())["rows"]


@pytest.mark.parametrize("max_d, hi", [(6, 300), (24, 500)])
def test_cli_onset_failures_below_match_the_sturm_only_rows(max_d, hi):
    assert _onset_json_rows(max_d, hi) == _onset_rows_oracle(p2_values(hi + max_d), max_d, hi)


@given(st.lists(st.integers(1, 60), min_size=16, max_size=16))
@settings(max_examples=200, deadline=None)
def test_cli_onset_rows_match_the_sturm_only_rows_on_any_positive_sequence(seq):
    # the inheritance must hold for any sequence: on p2 an unsound one, a
    # failure at (d - 1, m - 1) taken as one at (d, m), gives the same rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("bgrank.cli.p2_values", lambda m: seq[: m + 1])
        rows = _onset_json_rows(5, 10)
    assert rows == _onset_rows_oracle(seq, 5, 10)


@pytest.mark.parametrize(
    "selectors",
    [
        ["--stat", "p"],
        ["--stat", "p2"],
        ["--stat", "pbar", "--j", "0"],
        ["--stat", "pbar-ab", "--j", "0", "--a", "1", "--b", "5"],
    ],
    ids=["p", "p2", "pbar", "pbar-ab"],
)
def test_cli_uses_cache_dir(tmp_path, capsys, selectors):
    # the kind cli._STATS looks up must be the kind the builder files under,
    # or every run misses and silently rewrites the file
    for fmt in ("csv", "json"):
        cache_dir = tmp_path / fmt
        argv = ["--cache-dir", str(cache_dir), "--format", fmt, "table", *selectors, "--n-max", "40"]
        assert main(argv) == 0
        miss = capsys.readouterr()
        (path,) = cache_dir.iterdir()
        assert [line for line in miss.err.splitlines() if line.startswith("[cache]")] == [
            f"[cache] miss {path}: missing"
        ]
        before = path.stat()
        assert main(argv) == 0
        hit = capsys.readouterr()
        assert hit.out == miss.out
        assert "[cache]" not in hit.err
        after = path.stat()
        # a hit leaves the file alone: a rewrite renames a new inode into place
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@pytest.mark.parametrize(
    "flags, env, want",
    [
        (["--no-cache", "--cache-dir", "flag"], {"BGRANK_CACHE_DIR": "env", "XDG_CACHE_HOME": "xdg"}, None),
        (["--cache-dir", "flag"], {"BGRANK_CACHE_DIR": "env", "XDG_CACHE_HOME": "xdg"}, "flag"),
        ([], {"BGRANK_CACHE_DIR": "env", "XDG_CACHE_HOME": "xdg"}, "env"),
        ([], {"XDG_CACHE_HOME": "xdg"}, "xdg/bgrank"),
        ([], {"BGRANK_CACHE_DIR": "", "XDG_CACHE_HOME": ""}, "home/.cache/bgrank"),
        ([], {}, "home/.cache/bgrank"),
    ],
)
def test_cli_cache_dir_precedence(flags, env, want, tmp_path, monkeypatch):
    # --no-cache, then --cache-dir, then $BGRANK_CACHE_DIR, then
    # $XDG_CACHE_HOME/bgrank, then ~/.cache/bgrank; an empty variable is unset
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for name in ("BGRANK_CACHE_DIR", "XDG_CACHE_HOME"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, str(tmp_path / value) if value else "")
    args = cli.parse_args([str(tmp_path / f) if f == "flag" else f for f in flags] + ["validate"])
    assert cli._resolve_cache_dir(args) == (None if want is None else tmp_path / want)


def test_cli_default_cache_dir_is_under_home(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOME", str(tmp_path))
    for name in ("BGRANK_CACHE_DIR", "XDG_CACHE_HOME"):
        monkeypatch.delenv(name, raising=False)
    assert main(["table", "--stat", "p", "--n-max", "5"]) == 0
    path = tmp_path / ".cache" / "bgrank" / "p_N5.csv"
    assert f"[cache] miss {path}: missing" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]


def test_cli_without_a_home_directory_exits_2(monkeypatch, capsys):
    # with no cache setting the cache lives under ~, which a process with no
    # HOME and no passwd entry for its uid does not have: an environment error
    monkeypatch.delenv("HOME", raising=False)
    for name in ("BGRANK_CACHE_DIR", "XDG_CACHE_HOME"):
        monkeypatch.delenv(name, raising=False)

    def no_entry(uid):
        raise KeyError(f"getpwuid(): uid not found: {uid}")

    monkeypatch.setattr(pwd, "getpwuid", no_entry)
    assert main(["table", "--stat", "p", "--n-max", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no home directory for the cache: pass --cache-dir or --no-cache, "
        "or set $BGRANK_CACHE_DIR or $XDG_CACHE_HOME\n"
    )
    assert main(["--no-cache", "table", "--stat", "p", "--n-max", "5"]) == 0
    assert capsys.readouterr().out.endswith("\n5,7\n")


def test_cli_validate(capsys):
    assert main(["--no-cache", "validate"]) == 0


def _load_unverified(directory, kind, params, n_max, **_):
    """A loader that serves the data block after the magic, meta and sha
    lines without checking it."""
    text = (Path(directory) / cache_filename(kind, params, n_max)).read_text(encoding="ascii")
    return StatTable._from_csv(kind, params, text.split("\n", 3)[3], n_max)


# For each validate check, in suite order: the one input it reads, broken.
# The breaks call the originals in their home modules, which stay unpatched.
_VALIDATE_BREAKS = {
    "littlewood-round-trip": ("bgrank.cli.littlewood_compose", lambda core, quots, t: core),
    "core-size-vs-rank": ("bgrank.cli.bg_core_size", lambda j: partitions.bg_core_size(j) + 1),
    "census-totals": (
        "bgrank.cli.rank_census",
        lambda n: partitions.rank_census(n) + Counter({(0, 0): 1}),
    ),
    "table-anchors": ("bgrank.cli.p2_values", lambda n: [v + 1 for v in series.p2_values(n)]),
    "global-partition-of-p": ("bgrank.cli.ranks_with_support", lambda n: series.ranks_with_support(n)[1:]),
    "triple-oracle": (
        "bgrank.cli.pbar_abn_values",
        lambda j, b, n: [[v + 1 for v in row] for row in series.pbar_abn_values(j, b, n)],
    ),
    "series-inverse-pair-counts": (
        "bgrank.cli.series_invert",
        lambda a: [v + 1 for v in series.series_invert(a)],
    ),
    "dilog-identity": ("bgrank.cli.dilog_identity_residual", lambda z: 1.0),
    "wright-calibration": (
        "bgrank.cli.wright_coefficient",
        lambda A, B: 2 * asymptotics.wright_coefficient(A, B),
    ),
    "hermite-recurrence": (
        "bgrank.cli.hermite",
        lambda d: [*turan.hermite(d)[:-1], turan.hermite(d)[-1] + 1],
    ),
    # a scan from m = 6 misses the failures at m = 1 and m = 5
    "pair-count-log-concavity": (
        "bgrank.cli.turan_report",
        lambda seq, order, rng: turan.turan_report(seq, order, (6, rng[1])),
    ),
    "cache-integrity": ("bgrank.cache.load_table", _load_unverified),
}


@pytest.mark.parametrize("name", list(_VALIDATE_BREAKS))
def test_every_validate_check_can_fail(name, monkeypatch):
    checks = cli._validation_checks()
    assert list(_VALIDATE_BREAKS) == [check for check, _ in checks]
    monkeypatch.setattr(*_VALIDATE_BREAKS[name])
    ok, _ = dict(checks)[name]()
    assert ok is False


def test_cli_validate_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(*_VALIDATE_BREAKS["dilog-identity"])
    assert main(["--no-cache", "validate"]) == 1
    err = capsys.readouterr().err
    assert "[validate] FAIL dilog-identity  max inversion-identity residual 1.00e+00\n" in err


def _asymmetric_joint(j, n_max):
    return [{m + 1: c for m, c in row.items()} for row in series.joint_table(j, n_max)]


def _one_class_bumped(j, b, n):
    rows = series.pbar_abn_values(j, b, n)
    return [[v + 1 for v in rows[0]], *rows[1:]]


def _last_count_raised(j, n_max):
    # 5% more at the last n: R stays near 6^(-3/4), but its last gap grows
    values = series.pbar_values(j, n_max)
    values[-1] += values[-1] // 20
    return values


def _lopsided_classes(j, b, n):
    # half of class 1 moved to class 0: the classes still sum to the total
    rows = [list(row) for row in series.pbar_abn_values(j, b, n)]
    moved = rows[1][n] // 2
    rows[0][n] += moved
    rows[1][n] -= moved
    return rows


# For each check of a command other than validate and report that no other
# test breaks: an argv and the one input it reads, broken (None: the argv
# alone fails the check).  The breaks call the originals in their home
# modules, which stay unpatched.
_CHECK_BREAKS = {
    "rank-symmetry": ("joint --j 0 --n-max 6", ("bgrank.cli.joint_table", _asymmetric_joint)),
    "counts-sum-to-total": (
        "equidist --j 0 --b 5 --n 20",
        ("bgrank.cli.pbar_abn_values", _one_class_bumped),
    ),
    "one-candidate-within-10pct": ("asympt --n-list 2", None),
    "winner": ("asympt --n-list 2", None),
    "converging": ("asympt --n-list 100,200,400", ("bgrank.cli.pbar_values", _last_count_raised)),
    "max-deviation": ("equidist --j 0 --b 5 --n 20", ("bgrank.cli.pbar_abn_values", _lopsided_classes)),
    "hermite-distance": (
        "jensen --d 2 --n 300 --renormalized",
        (
            "bgrank.cli.renormalized_jensen",
            lambda seq, d, n, pair: [c + 1000 for c in turan.renormalized_jensen(seq, d, n, pair)],
        ),
    ),
    "angle-inequalities": ("arcs --b 5", ("bgrank.asymptotics.minus_root_angle_over_pi", lambda b, k: Fraction(0))),
}

# checks that pass whatever they read, each until the ROADMAP item that makes
# it real: that change must turn its xfail into a pass
_CHECKS_THAT_CANNOT_FAIL = {
    "max-deviation": "ROADMAP item 11: hard-coded True",
    "hermite-distance": "ROADMAP item 4: hard-coded True",
    "angle-inequalities": "ROADMAP item 10: 1 - 3 r^2 < 2 holds for every real r",
}

# checks whose failing case lives elsewhere in this file
_CHECKS_FAILED_ELSEWHERE = {
    "table-built": "test_cli_table_built_check_can_fail",
    "collapse-to-rank-count": "test_cli_joint_collapse_check_can_fail",
    "holds-on-range": "test_cli_turan_failure_sets_exit_code",
    "onset-found": "test_cli_onset",
    "hyperbolic": "_PINNED_OUTPUT: jensen --d 4 --n 50",
    "off-axis-smaller": "_PINNED_OUTPUT: arcs --b 26",
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_CHECKS_THAT_CANNOT_FAIL[name]),
        )
        if name in _CHECKS_THAT_CANNOT_FAIL
        else name
        for name in _CHECK_BREAKS
    ],
)
def test_every_cli_check_can_fail(name, monkeypatch, capsys):
    argv, patch = _CHECK_BREAKS[name]
    if patch is not None:
        monkeypatch.setattr(*patch)
    code = main(["--no-cache", *argv.split()])
    err = capsys.readouterr().err
    if code not in (0, 1):
        pytest.fail(f"the broken input did not reach the check: {err}")
    assert code == 1 and f"] FAIL {name}  " in err, err


def test_every_cli_check_has_a_failing_case(capsys):
    # every check the pinned commands print is broken by _CHECK_BREAKS or by
    # the test _CHECKS_FAILED_ELSEWHERE names
    printed = set()
    for argv, *_ in _PINNED_OUTPUT:
        main(["--no-cache", *argv.split()])
        printed.update(re.findall(r"^\[\w+\] (?:ok|FAIL) +(\S+)  ", capsys.readouterr().err, re.M))
    assert printed == set(_CHECK_BREAKS) | set(_CHECKS_FAILED_ELSEWHERE)
    assert set(_CHECKS_THAT_CANNOT_FAIL) <= set(_CHECK_BREAKS)
    for where in _CHECKS_FAILED_ELSEWHERE.values():
        assert where.startswith("_PINNED_OUTPUT: ") or inspect.isfunction(globals().get(where)), where
    pinned = {argv: code for argv, code, *_ in _PINNED_OUTPUT}
    assert pinned["jensen --d 4 --n 50"] == pinned["arcs --b 26"] == 1


def test_cli_report_failed_job_exits_1(monkeypatch, tmp_path, capsys):
    def failing_arcs(args):
        report = RunReport("arcs", {}, ("x",), [(0,)])
        report.add_check("off-axis-smaller", False)
        return report

    monkeypatch.setattr("bgrank.cli.cmd_arcs", failing_arcs)
    assert main(["--no-cache", "report", "--out", str(tmp_path)]) == 1
    index = (tmp_path / "index.json").read_text()
    assert '"passed":false' in index and json.loads(index)["passed"] is False
    err = capsys.readouterr().err
    assert "[report] FAIL arcs_b5  \n" in err and "[report] ok   validate  \n" in err


def test_cli_joint(capsys):
    assert main(["--no-cache", "joint", "--j", "0", "--n-max", "6"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,m,count"
    assert "4,-2,1" in lines and "4,2,1" in lines


def test_cli_joint_collapse_check_can_fail(monkeypatch, capsys):
    # the row sums are compared with one univariate table for every n at once
    monkeypatch.setattr("bgrank.cli.pbar_values", lambda j, n_max: [*series.pbar_values(j, n_max)[:-1], 0])
    assert main(["--no-cache", "joint", "--j", "0", "--n-max", "6"]) == 1
    assert "[joint] FAIL collapse-to-rank-count  row sums match the univariate table\n" in capsys.readouterr().err


def test_cli_asympt(capsys):
    assert main(["--no-cache", "asympt", "--n-list", "100,200,400"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "n,count,R,dist_direct,dist_printed"
    assert len(rows) == 4
    assert main(["--no-cache", "asympt", "--n-list", "101"]) == 2  # odd n rejected


def test_cli_jensen_renormalized(capsys):
    assert main(["--no-cache", "jensen", "--d", "2", "--n", "500", "--renormalized"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,coefficient,hermite\n")


@pytest.mark.parametrize("d", ["400", "1100"])
def test_cli_jensen_renormalized_overflow_is_argument_error(d, capsys):
    assert main(["--no-cache", "jensen", "--d", d, "--n", "10", "--renormalized"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: renormalized Jensen polynomial at d = {d}, n = 10 overflows float64" in captured.err


def test_report_bytes_match_benchmark_reference(tmp_path):
    # the digest perfbench/workloads.py::digest_dir takes of the report directory
    ref = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())["report"]
    assert main(["--no-cache", "report", "--out", str(tmp_path)]) == ref["exit"]
    h = hashlib.sha256()
    for f in sorted(tmp_path.iterdir()):
        h.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).hexdigest().encode() + b"\n")
    assert h.hexdigest() == ref["sha256"]


# argv, exit code, SHA-256 of stdout with --format csv and with --format json
_PINNED_OUTPUT = [
    (
        "table --stat p --n-max 60",
        0,
        "406c56c5fef323f3a46a3b50ad223c519f1e39a89c29d1b36ea541ea69fa35e9",
        "1ff624d8e1792ac17e15c44950da7a4e0937272b42cfaaa9282b844b2869713c",
    ),
    (
        "table --stat p2 --n-max 60",
        0,
        "475e11308bb3e7c50c4ab894099747918530c59ce5ea33c4246b59d9742d6a5a",
        "3dd216f4ed78e55ed7146873bad4caaa6145e563ba3d51675518f54abc83722c",
    ),
    (
        "table --stat pbar --j -1 --n-max 60",
        0,
        "53f3e66102f1ccff178d9b3383c39d1b993d7dc3bb09acdc7acd7f47fd25b98b",
        "819503f7020828cbb973acb61de3741711ecefaf4e95a4763006b11dfa719701",
    ),
    (
        "table --stat pbar-ab --j 1 --a 2 --b 7 --n-max 60",
        0,
        "b526c791fc004c165c052d77bdde9c9346348e63484308cb59f639cf8be80e74",
        "3e346cc39f3525afca17f8e83ee446a4577b85779b4de0e9161495eb89fa31b6",
    ),
    (
        "joint --j 1 --n-max 20",
        0,
        "9334d50d6901c7a354c57f5326e0bd4d69a5629079a8de94c2e1dbc884b6d043",
        "13d9ab71a3245c63640314283f92546e8fe64c78dd9b5c561276ac555ad1dcfe",
    ),
    (
        "equidist --j 0 --b 3 --n 200",
        0,
        "c15b8f8825b21b3ac3e0bf9a65d5e015bcb5a813b2c1473d7cf94aee9c6f3df3",
        "f77a86713895ac1f3a44b76443d51856ecdc982981f36fe4351f4ce567a2cfff",
    ),
    (
        "equidist --j 2 --b 7 --n 101",  # 101 - 6 is odd: no partition has BG-rank 2
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "asympt --n-list 100,200,400",
        0,
        "52e0cf55f575c694304db24f21b072282d7c4d152dc67e1bdedc37cdd57b9e7e",
        "1bc164a556c16369b0c67dd42171c8d3c5213a285006638abe246fe3c615c78e",
    ),
    (
        "asympt --n-list 100,200,400 --b 3",
        0,
        "3b81040de0d41f3d780b3358ed63735825eb83d5186338b2a4210b316fa9fda3",
        "bc6b6a3287ea9d22ab2042f55de14f2849a616c5383915ca96b3c235ba576aa5",
    ),
    (
        "jensen --d 4 --n 50",
        1,
        "6e85409c63ee7f86d856a50c8afcdf28df37e621b84af9a05b1b531a42bc6353",
        "3adf3935e152457f894c5a3c208e9c7bf31cad7d820f4b6a1681e67648707c81",
    ),
    (
        "jensen --d 2 --n 300 --renormalized",
        0,
        "da8e507613d741e91dd28cae33858385e3fae6da3fb0596baa44a03e7d685e44",
        "4b7ab4d694bf718fd640c2b95a9f861a8daf4e40b521a289b86b076c83d3aac1",
    ),
    (
        "turan --order 2 --range 1:40",
        1,
        "e308b9f8317ee309631d5a48f75874417425b486f2dfb0ce3d29fe768ba8e1f2",
        "8a169dd459ca8377a4a86e7e7704eefd830ed97bf0d3acd8d25d2a0e42159d1a",
    ),
    (
        "turan --order 3 --range 0:60",
        1,
        "a91051352e16474b8ea1d50d562142e731bed79c7fe05e927014bb887b54c9ae",
        "8761b238d2b74e717d9ca94fc43a9841a6e01de004985c360c768ec7d418d4ff",
    ),
    (
        "turan --order convexity --range 1:20",
        1,
        "571972be009eea1c1b57ba1704c1b2b5ff81dad40a682b25916c3fd7af6b4c62",
        "f05cd282d9c51ebe59604087889da60188f037c941f2438f59060bfbde6f068f",
    ),
    (
        "onset --max-degree 4 --hi 120",
        0,
        "19e983ebcd4ef193523635f383ecfbedbe2b6fba8d91260d3a507333e8201e41",
        "e32e66fd8b7224ab776219b4289e74ceed64ab5dfac97597e662a8b8058ef01a",
    ),
    (
        "arcs --b 3",
        0,
        "17e9a5540a47840ffd288c92f4a01ba97e63c2779d1d2b6348a47988170a7a36",
        "cc6727edb93a4f2bf432de04f3276cf39f51842c004f844b29f528d37674abb7",
    ),
    (
        "arcs --b 26",
        1,
        "ffdedfd5b848e83bbf1fa73ba92b8388805fd2f865015b61b5acd014721e28bc",
        "ca11140dab70b3d77129b8296ff9c4b669fd9ca0ee413bb25612c6648aaebdb5",
    ),
]


@pytest.mark.parametrize(
    "argv, code, csv_digest, json_digest", _PINNED_OUTPUT, ids=[row[0] for row in _PINNED_OUTPUT]
)
def test_cli_output_bytes_are_pinned(capsys, argv, code, csv_digest, json_digest):
    # exit code and SHA-256 of stdout for every subcommand in both formats;
    # re-pin only for an intended change to what a command prints
    for fmt, digest in (("csv", csv_digest), ("json", json_digest)):
        assert main(["--no-cache", "--format", fmt, *argv.split()]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, fmt


def test_only_report_takes_out(tmp_path, capsys):
    # every other command prints to stdout, its one output; argparse refuses
    # --out there before any handler runs
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    argvs = {argv.split()[0]: argv for argv, code, *_ in _PINNED_OUTPUT if code != 2}
    argvs["validate"] = "validate"
    assert set(argvs) == set(sub.choices) - {"report"}
    for command, argv in sorted(argvs.items()):
        target = tmp_path / command
        assert main(["--no-cache", *argv.split(), "--out", str(target)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err.startswith("usage: bgrank "), command
        assert captured.err.endswith(f"bgrank: error: unrecognized arguments: --out {target}\n"), command
    assert list(tmp_path.iterdir()) == []


def test_report_files_are_the_commands_stdout(tmp_path, capsys):
    # report and the commands render through one path: each job's two files
    # hold the bytes its argv prints in each format
    assert main(["--no-cache", "report", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""
    for name, argv in cli._REPORT_JOBS:
        for fmt in ("csv", "json"):
            assert main(["--no-cache", "--format", fmt, *argv.split()]) == 0, name
            printed = capsys.readouterr().out.encode("ascii")
            assert printed == (tmp_path / f"{name}.{fmt}").read_bytes(), (name, fmt)


def test_cli_subcommands_are_documented_and_pinned():
    # README's CLI synopsis lists every subcommand the parser defines, and
    # each but validate and report (pinned by the benchmark's report
    # reference) has an output digest above
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    synopsis = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in synopsis.splitlines() if line.startswith("bgrank ")]
    assert sorted(documented) == sorted(sub.choices)
    assert {argv.split()[0] for argv, *_ in _PINNED_OUTPUT} == set(sub.choices) - {"validate", "report"}


PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _workloads_value(name: str):
    """The module-level constant ``name`` of perfbench/workloads.py, read
    without importing it (its expression uses builtins only)."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    (value,) = [
        eval(compile(ast.Expression(node.value), "workloads.py", "eval"), {})
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    ]
    return value


def test_benchmark_span_names_resolve():
    # perfbench's tracer wraps the public functions each bgrank.<layer> defines;
    # a span naming anything else would record no call in a traced run
    names = {name for names in _workloads_value("EXPECTED_SPANS").values() for name in names}
    assert names
    for name in sorted(names):
        layer, fn = name.split(".")
        module = importlib.import_module(f"bgrank.{layer}")
        obj = getattr(module, fn, None)
        assert not fn.startswith("_") and inspect.isfunction(obj), name
        assert obj.__module__ == module.__name__, name


# argv shapes of one pass of each workload, at sizes small enough for tier-1:
# cache_warm serves a table from a primed cache, tables builds the five
# tables and the joint table of its pass into a fresh one
_TRACED_OPS = {
    "cache_warm": [["table", "--stat", "pbar", "--j", "0", "--n-max", "40"]],
    "tables": [
        ["table", "--stat", "p", "--n-max", "200"],
        ["table", "--stat", "p2", "--n-max", "20"],
        ["table", "--stat", "p2", "--n-max", "40"],
        ["table", "--stat", "pbar-ab", "--j", "1", "--a", "3", "--b", "5", "--n-max", "50"],
        ["table", "--stat", "pbar-ab", "--j", "1", "--a", "3", "--b", "5", "--n-max", "100"],
        ["joint", "--j", "1", "--n-max", "30"],
    ],
}


@pytest.mark.parametrize("workload", ["cache_warm", "tables"])
def test_traced_cache_hit_records_the_benchmark_spans(workload, tmp_path, capsys):
    # a traced run fails on any of its workload's spans that records no call,
    # so a table path that stops passing through one of them must fail here
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import bgrank.cli

    ops = [["--cache-dir", str(tmp_path), *argv] for argv in _TRACED_OPS[workload]]
    warm = workload == "cache_warm"
    if warm:
        for argv in ops:
            assert bgrank.cli.main(argv) == 0
        miss = capsys.readouterr().out
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in ops:
            assert bgrank.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    if warm:
        assert capsys.readouterr().out == miss
    trace = tracer.to_dict()
    assert [name for name in _workloads_value("EXPECTED_SPANS")[workload] if not trace["calls"].get(name)] == []
    lookups = sum(argv[2] == "table" for argv in ops)
    assert trace["counters"]["cache.lookups"] == lookups
    assert trace["counters"].get("cache.hits", 0) == (lookups if warm else 0)


def test_primed_cache_files_read_back_through_the_loader(tmp_path):
    # perfbench's cache_warm priming reads each file it wrote back with
    # inspect_cache_file and loads the kind, params and n_max it names; here
    # the nine tables of that workload, at small n
    warm = [list(args) for args in _workloads_value("WARM_TABLES")]
    assert len(warm) == 9
    for args in warm:
        args[args.index("--n-max") + 1] = "40"
        assert main(["--cache-dir", str(tmp_path), "table", *args]) == 0
    files = sorted(tmp_path.iterdir())
    assert len(files) == len(warm)
    for path in files:
        table = inspect_cache_file(path)
        assert table is not None and table.n_max == 40, path.name
        assert load_table(tmp_path, table.kind, table.params, table.n_max).csv == table.csv
        # one flipped byte inside the data block: the file no longer verifies
        raw = path.read_bytes()
        i = len(raw) - 3
        path.write_bytes(raw[:i] + bytes([raw[i] ^ 0x01]) + raw[i + 1 :])
        assert inspect_cache_file(path) is None, path.name


# Every subcommand but validate and report, in either output format, with
# integer flags drawn from one small range; arcs stops at b = 8 because its
# cost grows fast in b.
_INTS = st.integers(-3, 61)


def _flag(name, values=_INTS):
    return values.map(lambda v: [name, str(v)])


def _maybe(name):
    return st.one_of(st.just([]), _flag(name))


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name, *(word for part in ps for word in part)])


_FUZZED_ARGV = st.one_of(
    _command(
        "table",
        _flag("--stat", st.sampled_from(("p", "p2", "pbar", "pbar-ab"))),
        _maybe("--j"),
        _maybe("--a"),
        _maybe("--b"),
        _flag("--n-max"),
    ),
    _command("joint", _flag("--j"), _flag("--n-max")),
    _command("equidist", _flag("--j"), _flag("--b"), _flag("--n")),
    _command(
        "asympt",
        st.lists(_INTS, min_size=1, max_size=4).map(lambda ns: ["--n-list=" + ",".join(map(str, ns))]),
        _maybe("--b"),
    ),
    _command("jensen", _flag("--d"), _flag("--n"), st.sampled_from(([], ["--renormalized"]))),
    _command(
        "turan",
        _flag("--order", st.sampled_from(("2", "3", "convexity"))),
        st.tuples(_INTS, _INTS).map(lambda r: [f"--range={r[0]}:{r[1]}"]),
    ),
    _command("arcs", _flag("--b", st.integers(-3, 8))),
    _command("onset", _maybe("--max-degree"), _maybe("--hi")),
)


@given(argv=_FUZZED_ARGV, cached=st.booleans(), fmt=st.sampled_from(("csv", "json")))
@settings(max_examples=60, deadline=None)
def test_cli_exit_codes_fuzzed(argv, cached, fmt, tmp_path_factory):
    prefix = ["--cache-dir", str(tmp_path_factory.mktemp("cache"))] if cached else ["--no-cache"]
    prefix += ["--format", fmt]
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = main(prefix + argv)
    assert code in (0, 1, 2), text.getvalue()
