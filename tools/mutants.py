"""Mutants of the exact-verdict code: each one must fail a named test.

    python tools/mutants.py

Run from anywhere inside a checkout; every mutant runs.  A mutant is a
file, an exact source snippet that occurs once in it, the snippet's
replacement and the tests that must then fail.  The script copies the
tracked files by ``git archive``, uncommitted edits included (the tree
``git stash create`` records, HEAD when it records none; an untracked file
is copied only once it is staged).  It applies one mutant at a time to the
copy, runs that mutant's tests there with pytest, and prints killed (a test
failed), survived (every test passed) or error (pytest could not run them,
or the snippet is not there exactly once).  It exits 1 unless every mutant
is killed.  Standard library only; it leaves the checkout untouched.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


TURAN = "src/bgrank/turan.py"
TURAN_TESTS = "tests/test_turan.py"

MUTANTS = (
    Mutant(
        "rolle-from-m-minus-1",
        TURAN,
        "        if m + 1 in inherited or not (",
        "        if m - 1 in inherited or not (",
        (f"{TURAN_TESTS}::test_onset_atlas_equals_the_sturm_only_rows_on_positive_sequences",),
    ),
    Mutant(
        "zero-polynomial-not-hyperbolic",
        TURAN,
        "    return not chain or _distinct_real_roots(chain)",
        "    return bool(chain) and _distinct_real_roots(chain)",
        (f"{TURAN_TESTS}::test_zero_polynomial_is_hyperbolic_without_a_chain",),
    ),
    Mutant(
        "turan-report-takes-non-integers",
        TURAN,
        "    seq = list(map(operator.index, seq[: reach(hi) + 1]))",
        "    seq = list(seq[: reach(hi) + 1])",
        (f"{TURAN_TESTS}::test_onset_of_non_integer_sequences_raises_type_error",),
    ),
    Mutant(
        "order3-right-side-plus-1",
        TURAN,
        "            rhs = (a1 * a2 - a0 * a3) ** 2\n",
        "            rhs = (a1 * a2 - a0 * a3) ** 2 + 1\n",
        (
            f"{TURAN_TESTS}::test_turan_geometric_sequence_is_all_equalities",
            f"{TURAN_TESTS}::test_degree2_and_degree3_failures_are_the_turan_failures",
        ),
    ),
    Mutant(
        "zero-lead-guard-dropped",
        TURAN,
        "    if not lead or a0 <= 0 or a1 <= 0 or a2 <= 0:",
        "    if a0 <= 0 or a1 <= 0 or a2 <= 0:",
        (f"{TURAN_TESTS}::test_zero_leading_coefficient_is_never_settled",),
    ),
    Mutant(
        "minus-infinity-sign-flipped",
        TURAN,
        "    p, want = None, 1 if (lead > 0) == (len(window) % 2 == 0) else -1",
        "    p, want = None, -1 if (lead > 0) == (len(window) % 2 == 0) else 1",
        (f"{TURAN_TESTS}::test_onset_builds_few_chains",),
    ),
)


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, check=True).stdout


def _run(mutant: Mutant, copy: Path) -> str:
    """killed, survived or error for one mutant applied to ``copy``, which
    is left as it was found."""
    path = copy / mutant.path
    source = path.read_text()
    if source.count(mutant.snippet) != 1:
        return "error"
    path.write_text(source.replace(mutant.snippet, mutant.replacement))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy,
            env=env,
            capture_output=True,
        )
    finally:
        path.write_text(source)
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    root = Path(_git(Path(__file__).parent, "rev-parse", "--show-toplevel").decode().strip())
    rev = _git(root, "stash", "create").decode().strip() or "HEAD"
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="bgrank-mutants-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(_git(root, "archive", "--format=tar", rev))) as tar:
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        for mutant in MUTANTS:
            started = time.perf_counter()
            outcome = _run(mutant, Path(tmp))
            outcomes.append(outcome)
            print(f"{outcome:8s} {mutant.name}  {time.perf_counter() - started:.1f}s", flush=True)
    return 0 if all(outcome == "killed" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
