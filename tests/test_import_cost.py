"""A CLI process loads only what the commands it runs use."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

# numpy serves only lerch_phi_unit; dataclasses would pull in inspect, ast,
# dis and tokenize
UNUSED_AT_START = ("numpy", "dataclasses", "inspect")

_CHILD = f"""
import contextlib, io, json, sys
from bgrank.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["--no-cache", *argv])

codes = [
    run("table", "--stat", "p2", "--n-max", "50"),
    run("turan", "--order", "2", "--range", "6:60"),
    run("onset", "--max-degree", "3", "--hi", "60"),
    run("jensen", "--d", "3", "--n", "60"),
]
loaded = [name for name in {UNUSED_AT_START!r} if name in sys.modules]
codes.append(run("validate"))
print(json.dumps({{"codes": codes, "loaded": loaded, "numpy_after_validate": "numpy" in sys.modules}}))
"""


def test_table_and_scan_commands_load_no_numpy_or_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0, 0, 0]
    assert got["loaded"] == []
    # validate's dilog-identity check reaches lerch_phi_unit, which imports numpy
    assert got["numpy_after_validate"]
