"""Workload definitions shared by run.py, its child processes
and the reference recorder.

Every input comes from a fixed menu; the seed only picks among variants that
cost the same, so runs with different seeds measure the same work.  Each
operation has a key, and ``reference.json`` holds the exit code and SHA-256
digest that the operation under that key produced when it was recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Upper bound on one child process; far above any operation here.
CHILD_TIMEOUT_S = 170

# First-decile seconds of calibrate() on the host the benchmark was written
# on (Intel Xeon at 2.1 GHz, 2 vCPUs, 2 MiB L2) while it ran fast.  Times divided by the
# run's own calibrate() time and multiplied by this read as seconds on that
# host at that speed.
CALIBRATE_REF_S = 0.008

# -- report ---------------------------------------------------------------
# Flag orders and an unused --format value: report writes CSV and JSON
# either way, so every variant must produce the same files.
REPORT_VARIANTS = (
    ("--no-cache", "report"),
    ("--no-cache", "--format", "json", "report"),
    ("--format", "csv", "--no-cache", "report"),
)

# -- tables ---------------------------------------------------------------
P_N = 20000
P2_M = 2000  # built at M and 2M for the growth exponent
PBAR_N = 500  # built at N and 2N
JOINT_N = 60
TABLE_J = (0, -1, 1, 2)
TABLE_A = tuple(range(5))

# -- certify --------------------------------------------------------------
CERTIFY_M = 1010
ONSET_HI = 500
ONSET_DEGREES = (2, 3, 4, 5, 6)
TURAN_SCANS = (("2", (1, 500)), ("3", (1, 1000)), ("convexity", (2, 500)))
RENORM_OFFSETS = tuple(range(8))
RENORM_GRID = tuple(range(100, 1000, 100))

# -- cache_warm -----------------------------------------------------------
WARM_TABLES = (
    ("--stat", "p", "--n-max", "20000"),
    ("--stat", "p2", "--n-max", "8000"),
    ("--stat", "pbar", "--j", "0", "--n-max", "8000"),
    ("--stat", "pbar", "--j", "-1", "--n-max", "8000"),
) + tuple(("--stat", "pbar-ab", "--j", "0", "--a", str(a), "--b", "5", "--n-max", "1000") for a in range(5))
WARM_ROUNDS = 10

WORKLOADS = ("report", "tables", "certify", "cache_warm")

# Spans that must record at least one call in a traced run of the workload.
# A function reached through a name the tracer failed to rebind would read
# as zero calls here instead of as a fast layer.
EXPECTED_SPANS = {
    "report": (
        "cli.main",
        "cli.cmd_report",
        "cli.parse_args",
        "partitions.enumerate_partitions",
        "partitions.rank_census",
        "partitions.littlewood_decompose",
        "partitions.littlewood_compose",
        "series.p_values",
        "series.p2_values",
        "series.pbar_abn_values",
        "series.joint_table",
        "asymptotics.arc_dominance_check",
        "asymptotics.lerch_phi_unit",
        "asymptotics.h_congruence_numeric",
        "turan.turan_report",
        "turan.renormalized_jensen",
        "cache.load_table",
        "cache.save_table",
        "reporting.csv_text",
        "reporting.json_text",
    ),
    "tables": (
        "cli.main",
        "cli.cmd_table",
        "cli.cmd_joint",
        "cli.parse_args",
        "series.p_values",
        "series.p2_values",
        "series.pbar_abn_table",
        "series.joint_table",
        "cache.load_table",
        "cache.save_table",
        "reporting.csv_text",
    ),
    "certify": (
        "turan.hyperbolicity_onset",
        "turan.is_hyperbolic",
        "turan.sturm_chain",
        "turan.turan_report",
        "turan.renormalized_jensen",
    ),
    "cache_warm": (
        "cli.main",
        "cli.cmd_table",
        "cli.parse_args",
        "cache.load_table",
        "reporting.csv_text",
    ),
}


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def digest_dir(path) -> str:
    """Digest of every file name and content in a directory, in name order."""
    h = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        h.update(f.name.encode() + b"\0" + sha256_file(f).encode() + b"\n")
    return h.hexdigest()


def child_env(tmp) -> dict:
    """Environment for every child: the checkout's sources, no user cache
    location, and temporary files inside the checkout."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("BGRANK_CACHE_DIR", "XDG_CACHE_HOME", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONHOME")
    }
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv, env, stdout, stderr):
    """Run one process to completion.

    Returns (exit code, peak RSS in KiB, CLOCK_MONOTONIC at spawn in ns);
    the last is comparable with ``time.monotonic_ns()`` read in the child.
    The process is killed if it outlives CHILD_TIMEOUT_S.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, spawn_ns


_CALIBRATE_BUFFER = bytes(range(256)) * (8 * 1024)  # 2 MiB: the L2 size of that host


def calibrate() -> float:
    """Seconds of a fixed pure-Python load with no bgrank code in it: big
    integers to decimal text and back, as bgrank's tables do, and copies of
    a buffer as large as the L2 cache.  Run between timed operations, it
    tracks the speed the host gives the benchmark at that moment."""
    start = clock()
    text = [str(3**k) for k in range(1, 1200)]
    if sum(map(int, text)) <= 0:
        raise AssertionError("calibrate() lost its values")
    ",".join(text).encode()
    buf = bytearray(_CALIBRATE_BUFFER)
    buf[:] = _CALIBRATE_BUFFER[::-1]
    hashlib.sha256(buf).digest()
    return clock() - start


def run_passes(seconds: float, trace: bool, run_pass) -> None:
    """Call ``run_pass(traced)`` until ``seconds`` have passed, with at least
    two untraced passes.  With ``trace``, untraced and traced passes
    alternate and at least one is traced."""
    deadline = clock() + seconds
    done = {False: 0, True: 0}
    traced = False
    while True:
        run_pass(traced)
        done[traced] += 1
        if done[False] >= 2 and (done[True] or not trace) and clock() >= deadline:
            return
        traced = trace and not traced


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "bgrank.cli", *args]


# ---------------------------------------------------------------------------
# menus: seed -> operations


def report_args(seed: int, out_dir) -> list[str]:
    variant = random.Random(seed).choice(REPORT_VARIANTS)
    return [*variant, "--out", str(out_dir)]


def p2_key(m: int) -> str:
    return f"table p2 n{m}"


def pbar_ab_key(j: int, a: int, n: int) -> str:
    return f"table pbar-ab j{j} a{a} b5 n{n}"


def table_ops(j: int, a: int) -> list[tuple[str, list[str]]]:
    """(key, argv after --cache-dir) for one pass of the tables workload."""
    ops = [(f"table p n{P_N}", ["table", "--stat", "p", "--n-max", str(P_N)])]
    for m in (P2_M, 2 * P2_M):
        ops.append((p2_key(m), ["table", "--stat", "p2", "--n-max", str(m)]))
    for n in (PBAR_N, 2 * PBAR_N):
        args = ["table", "--stat", "pbar-ab", "--j", str(j), "--a", str(a), "--b", "5", "--n-max", str(n)]
        ops.append((pbar_ab_key(j, a, n), args))
    ops.append((f"joint j{j} n{JOINT_N}", ["joint", "--j", str(j), "--n-max", str(JOINT_N)]))
    return ops


def tables_choice(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    return rng.choice(TABLE_J), rng.choice(TABLE_A)


def certify_ops(seq, offset: int):
    """(key, thunk) pairs; each thunk returns (exit code, payload)."""
    from bgrank import turan

    def onset(d):
        return 0, turan.hyperbolicity_onset(seq, d, ONSET_HI)

    def scan(order, rng):
        rep = turan.turan_report(seq, order, rng)
        return (0 if rep.holds else 1), (rep.failures, rep.equalities)

    def renorm(d):
        grid = [m + offset for m in RENORM_GRID]
        return 0, [turan.renormalized_jensen(seq, d, m, turan.renorm_sequences_step2(m)) for m in grid]

    ops = [(f"onset d{d} m<={ONSET_HI}", lambda d=d: onset(d)) for d in ONSET_DEGREES]
    ops += [(f"turan {o} {lo}:{hi}", lambda o=o, r=(lo, hi): scan(o, r)) for o, (lo, hi) in TURAN_SCANS]
    ops += [(f"renorm d{d} offset{offset}", lambda d=d: renorm(d)) for d in ONSET_DEGREES]
    return ops


def warm_key(table_args) -> str:
    return "warm " + " ".join(table_args)


def payload_digest(payload) -> str:
    return sha256_bytes(repr(payload).encode())


def cli_main_captured(args) -> tuple[int, bytes]:
    """``bgrank.cli.main(args)`` in this process, with stdout kept in memory
    so that the host's disk writeback stays out of any timing; returns the
    exit code and the stdout bytes."""
    import bgrank.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = bgrank.cli.main(args)
    return code, out.getvalue().encode("ascii")
