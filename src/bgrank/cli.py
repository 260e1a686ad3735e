"""Command-line driver: tables, experiments, the validation suite, and a
deterministic multi-experiment report with an on-disk table cache.

Exit codes: 0 success, 1 a validation check failed, 2 argument/environment
error.  Every command but ``report`` prints its output to stdout, in the
``--format`` asked for; ``report --out DIR`` writes each experiment's CSV and
JSON files into DIR and prints none.  Serialized outputs are byte-deterministic
for a given argv and cache state; checks, cache events and wall times go to
stderr only.

The argument parser is built once per process; ``main`` and ``report``'s jobs
both read argv through ``parse_args``.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, cache, reporting
from .asymptotics import (
    HR_PARAMS,
    arc_dominance_check,
    dilog_identity_residual,
    wright_coefficient,
)
from .partitions import (
    bg_core_size,
    bg_rank,
    enumerate_partitions,
    littlewood_compose,
    littlewood_decompose,
    rank_census,
)
from .reporting import RunReport
from .series import (
    check_table_request,
    euler_factor_product,
    joint_table,
    p2_values,
    p_values,
    pbar_abn_table,
    pbar_abn_values,
    pbar_eta,
    pbar_values,
    ranks_with_support,
    series_invert,
)
from .turan import (
    TURAN_ORDERS,
    hermite,
    hermite_distance,
    is_hyperbolic,
    jensen_poly,
    onset_atlas,
    renorm_sequences_step2,
    renormalized_jensen,
    turan_report,
)

CACHE_ENV = "BGRANK_CACHE_DIR"

# a Sturm certificate's cost climbs steeply with the degree.  Onset over
# d = 2..24 at the default --hi 500 takes about 0.12 s on a Xeon core and
# builds 500 chains: d = 2 and 3 are settled by the Turan inequalities with
# no chain, at d = 4..8 sign alternation settles all but 57 of the 1377
# shifts scanned down from 500 to the first failure, and J^{d,500} is not
# hyperbolic for d >= 9, so those scans stop at their first chain.  Below the
# onsets, 702 of the 1162 shifts fail by Rolle from degree d - 1 and take no
# chain; of the other 460, the 28 at d = 2, 3 take none and the 432 at d >= 4,
# the 5 first failures among them, one apiece.  The scans down to the first
# failure over d = 2..55 take about 4.0 s.  The cap also bounds jensen --d
# without --renormalized, one chain of degree d: at n = 60000 that chain takes
# about 1.3 s at d = 24 and 8.7 s at d = 40 on a Xeon core
ONSET_MAX_DEGREE = 24

# h_congruence_numeric does O(b^2) work per sample point: the arc check takes
# about 0.16 s at b = 100 and 0.56 s at b = 300 on a Xeon core, 4.1 s at b = 1000
ARCS_MAX_B = 300

# equidist prints one row per class mod b: at --n 1000, b = 10**6 peaks at about
# 240 MiB (CSV) and 300 MiB (JSON) on an x86-64 Linux host, linear in b
EQUIDIST_MAX_B = 10**6

CANDIDATE_DIRECT = 6.0**-0.75
CANDIDATE_PRINTED = math.sqrt(2.0) * 6.0**-0.75


def _resolve_cache_dir(args) -> Path | None:
    if args.no_cache:
        return None
    if args.cache_dir:
        return Path(args.cache_dir)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    try:
        root = Path(base) if base else Path.home() / ".cache"
    except RuntimeError as exc:  # HOME is unset and the uid has no passwd entry
        raise ValueError(
            f"no home directory for the cache: pass --cache-dir or --no-cache, or set ${CACHE_ENV} or $XDG_CACHE_HOME"
        ) from exc
    return root / "bgrank"


# ---------------------------------------------------------------------------
# subcommands


# stat -> (cache kind, selectors it takes, route label, values builder, cap on
# --n-max); the lambdas look a rebound name up at call time.
# "p-self-convolution" and "roots-of-unity-orthogonality" name former routes
# (p2 is now a division by (q;q)_oo, the class tables crank sums); they are
# kept so that report files stay byte-identical.  table refuses an --n-max
# above the cap before the cache is read: p to 10**5 takes about 2.4 s and
# 28 MiB on a Xeon core, p2 to 10**5 3.8-4.9 s and 46 MiB (2*10**5 takes
# 19.6 s), pbar reads p2 to about n_max/2, and pbar-ab holds
# (min(b//2, nq) + 1)(nq + 1) residue entries, nq = n_max/2: 148 MiB and
# about 1 s at b = n_max = 4000.  jensen, turan and onset read alpha(m) = p2(m)
# from one table under p2's cap.  equidist and asympt refuse, before building
# anything, a size above the cap of the table they build: pbar's for asympt at
# b = 1, and otherwise the class tables' cap, named since three commands read it
CLASS_TABLE_MAX_N = 4000
_STATS = {
    "p": ("p", (), "pentagonal-recurrence", lambda args: p_values(args.n_max), 10**5),
    "p2": ("p2", (), "p-self-convolution", lambda args: p2_values(args.n_max), 10**5),
    "pbar": ("pbar_j", ("j",), "eta-quotient-shift", lambda args: pbar_values(args.j, args.n_max), 2 * 10**5),
    "pbar-ab": (
        "pbar_jab",
        ("j", "a", "b"),
        "roots-of-unity-orthogonality",
        lambda args: pbar_abn_table(args.j, args.a, args.b, args.n_max),
        CLASS_TABLE_MAX_N,
    ),
}


def _alpha_through(m: int, command: str) -> list[int]:
    """alpha(0..m) for ``command`` (just alpha(0) for m < 0), refused with a
    ValueError above p2's table cap before it is built."""
    if m > (cap := _STATS["p2"][-1]):
        raise ValueError(f"{command} reads alpha(m) up to m = {m}, above the cap of {cap}")
    return p2_values(max(0, m))


def cmd_table(args) -> RunReport:
    stat = args.stat
    kind, takes, route, build, cap = _STATS[stat]
    params = {"j": args.j, "a": args.a, "b": args.b}
    for name, value in params.items():
        if (value is None) == (name in takes):
            raise ValueError(f"--stat {stat} {'requires' if value is None else 'takes no'} --{name}")
    # before the cache is read: a cached file must not answer a request the
    # builder would refuse
    check_table_request(args.n_max, args.a, args.b)
    if args.n_max > cap:
        raise ValueError(f"table --stat {stat} needs --n-max <= {cap}")
    table = cache.get_table(
        kind, {name: params[name] for name in takes}, args.n_max, lambda: build(args), args.cache_dir
    )
    report = RunReport(
        command="table",
        params={"stat": stat, **params, "n_max": args.n_max},
        columns=("n", "value"),
        rows=lambda: enumerate(table.values),
        csv=table.csv,
    )
    report.add_check("table-built", table.n_max == args.n_max, f"kind={kind} route={route}")
    return report


def cmd_joint(args) -> RunReport:
    joint = joint_table(args.j, args.n_max)
    report = RunReport(
        command="joint",
        params={"j": args.j, "n_max": args.n_max},
        columns=("n", "m", "count"),
        rows=lambda: ((n, m, row[m]) for n, row in enumerate(joint) for m in sorted(row)),
    )
    symmetric = all(row.get(-m, 0) == c for row in joint for m, c in row.items())
    report.add_check("rank-symmetry", symmetric, "counts at m and -m agree")
    collapse_ok = [sum(row.values()) for row in joint] == pbar_values(args.j, args.n_max)
    report.add_check("collapse-to-rank-count", collapse_ok, "row sums match the univariate table")
    return report


def cmd_equidist(args) -> RunReport:
    j, b, n = args.j, args.b, args.n
    if n > CLASS_TABLE_MAX_N:
        raise ValueError(f"equidist needs --n <= {CLASS_TABLE_MAX_N}")
    total = pbar_eta(j, n)  # before the --b check, so a negative n is reported as n
    if not total:
        core = bg_core_size(j)
        raise ValueError(
            f"no partition of --n {n} has BG-rank {j} (needs n >= {core} and n - {core} even)"
        )
    if not 2 <= b <= EQUIDIST_MAX_B:
        raise ValueError(f"equidist needs 2 <= --b <= {EQUIDIST_MAX_B}")
    tables = pbar_abn_values(j, b, n)
    devs = [abs(b * t[n] - total) / total for t in tables]
    report = RunReport(
        command="equidist",
        params={"j": j, "b": b, "n": n},
        columns=("a", "count", "ratio", "abs_dev"),
        rows=lambda: ((a, t[n], b * t[n] / total, dev) for a, (t, dev) in enumerate(zip(tables, devs))),
    )
    report.add_check("counts-sum-to-total", sum(t[n] for t in tables) == total, f"total={total}")
    report.add_check("max-deviation", True, f"max |b*count/total - 1| = {max(devs):.3e}")
    return report


def cmd_asympt(args) -> RunReport:
    n_list = args.n_list
    b = args.b
    if b < 1:
        raise ValueError("b must be >= 1")
    if any(m >= n for m, n in zip(n_list, n_list[1:])):
        # the checks read the last R as the largest n, and its gaps in order
        raise ValueError("asympt --n-list must be strictly increasing")
    if any(n % 2 or n < 2 for n in n_list):
        raise ValueError("asympt n-list entries must be even and >= 2")
    if n_list[-1] > (cap := _STATS["pbar"][-1] if b == 1 else CLASS_TABLE_MAX_N):
        raise ValueError(f"asympt --b {b} needs --n-list entries <= {cap}")
    table = pbar_values(0, n_list[-1]) if b == 1 else pbar_abn_table(0, 0, b, n_list[-1])
    rows = []
    r_values = []
    for n in n_list:
        count = table[n]
        scaled = b * count
        if scaled == 0:
            raise ValueError(f"count is zero at n = {n}; pick a larger n for b = {b}")
        r = math.exp(math.log(scaled) + 1.25 * math.log(n) - math.pi * math.sqrt(2.0 * n / 3.0))
        r_values.append(r)
        rows.append((n, count, r, abs(r - CANDIDATE_DIRECT), abs(r - CANDIDATE_PRINTED)))
    report = RunReport(
        command="asympt",
        params={"n_list": list(n_list), "b": b},
        columns=("n", "count", "R", "dist_direct", "dist_printed"),
        rows=rows,
    )
    last = r_values[-1]
    near_direct = abs(last - CANDIDATE_DIRECT) <= 0.1 * CANDIDATE_DIRECT
    near_printed = abs(last - CANDIDATE_PRINTED) <= 0.1 * CANDIDATE_PRINTED
    report.add_check(
        "one-candidate-within-10pct",
        near_direct != near_printed,
        f"R({n_list[-1]}) = {last:.6f}; direct 6^(-3/4) = {CANDIDATE_DIRECT:.6f}, "
        f"printed sqrt(2)*6^(-3/4) = {CANDIDATE_PRINTED:.6f}",
    )
    winner = "direct" if near_direct else ("printed" if near_printed else "none")
    report.add_check("winner", winner != "none", f"winning constant: {winner}")
    if len(r_values) >= 3:
        gaps = [abs(r_values[i + 1] - r_values[i]) for i in range(len(r_values) - 1)]
        report.add_check(
            "converging",
            gaps[-1] < gaps[-2],
            f"|R gaps| tail: {gaps[-2]:.3e} -> {gaps[-1]:.3e}",
        )
    return report


def cmd_jensen(args) -> RunReport:
    d, n = args.d, args.n
    if d < 1 or n < 0:
        raise ValueError("jensen needs --d >= 1 and --n >= 0")
    if d > ONSET_MAX_DEGREE and not args.renormalized:
        raise ValueError(f"jensen needs --d <= {ONSET_MAX_DEGREE} without --renormalized")
    seq = _alpha_through(n + d, "jensen")
    if args.renormalized:
        coeffs = renormalized_jensen(seq, d, n, renorm_sequences_step2(n))
        columns = ("k", "coefficient", "hermite")
        rows = [(k, c, h) for k, (c, h) in enumerate(zip(coeffs, hermite(d)))]
        dist = hermite_distance(coeffs, d)
        check = ("hermite-distance", True, f"max coefficient distance = {dist:.6f}")
    else:
        coeffs = jensen_poly(seq, d, n)
        columns = ("k", "coefficient")
        rows = list(enumerate(coeffs))
        check = ("hyperbolic", is_hyperbolic(coeffs), "exact Sturm certificate")
    report = RunReport(
        command="jensen",
        params={"d": d, "n": n, "renormalized": args.renormalized},
        columns=columns,
        rows=rows,
    )
    report.add_check(*check)
    return report


def cmd_turan(args) -> RunReport:
    lo, hi = args.range
    order = args.order
    # read alpha up to the largest index the scan reads; turan_report names a
    # bad range itself
    _, reach, _ = TURAN_ORDERS[order]
    rep = turan_report(_alpha_through(reach(hi), "turan"), order, (lo, hi))
    rows = [(str(idx), "failure") for idx in rep.failures]
    rows += [(str(idx), "equality") for idx in rep.equalities]
    report = RunReport(
        command="turan",
        params={"order": order, "lo": lo, "hi": hi},
        columns=("index", "kind"),
        rows=rows,
    )
    report.add_check(
        "holds-on-range",
        rep.holds,
        f"failures={list(rep.failures)[:5]} equalities={list(rep.equalities)[:5]}",
    )
    return report


def cmd_onset(args) -> RunReport:
    max_d, hi = args.max_degree, args.hi
    if not 2 <= max_d <= ONSET_MAX_DEGREE or hi < 0:
        raise ValueError(f"onset needs 2 <= --max-degree <= {ONSET_MAX_DEGREE} and --hi >= 0")
    rows = onset_atlas(_alpha_through(hi + max_d, "onset"), max_d, hi)
    report = RunReport(
        command="onset",
        params={"max_degree": max_d, "hi": hi},
        columns=("d", "onset", "failures_below"),
        rows=rows,
    )
    missing = [d for d, m0, _ in rows if m0 is None]
    report.add_check("onset-found", not missing, f"degrees with no stable onset by m = {hi}: {missing}")
    return report


def cmd_arcs(args) -> RunReport:
    if not 2 <= args.b <= ARCS_MAX_B:
        raise ValueError(f"arcs needs 2 <= --b <= {ARCS_MAX_B}")
    arg_checks, samples = arc_dominance_check(args.b)
    rows = [("angle", c.k, -1, 0, 0.0, float(c.angle_over_pi), c.holds) for c in arg_checks]
    rows += [("sample", -1, s.a, s.slope, s.x, s.ratio, s.ok) for s in samples]
    report = RunReport(
        command="arcs",
        params={"b": args.b},
        columns=("kind", "k", "a", "slope", "x", "value", "ok"),
        rows=rows,
    )
    report.add_check("angle-inequalities", all(c.holds for c in arg_checks), "exact rational arithmetic")
    report.add_check("off-axis-smaller", all(s.ok for s in samples), "sampled |H| ratios < 1")
    return report


# ---------------------------------------------------------------------------
# validation suite


def _validation_checks():
    def roundtrip():
        for n in range(17):
            for p in enumerate_partitions(n):
                for t in (2, 3):
                    core, quots = littlewood_decompose(p, t)
                    if littlewood_compose(core, quots, t) != p:
                        return False, f"round trip failed at {p.parts}, t={t}"
                    if p.size != core.size + t * sum(q.size for q in quots):
                        return False, f"size law failed at {p.parts}, t={t}"
        return True, "all partitions up to 16, t in {2, 3}"

    def core_vs_rank():
        for n in range(17):
            for p in enumerate_partitions(n):
                j = bg_rank(p)
                core, _ = littlewood_decompose(p, 2)
                if core.size != bg_core_size(j):
                    return False, f"2-core size mismatch at {p.parts}"
        return True, "2-core size equals j(2j-1) up to n = 16"

    def census_total():
        pv = p_values(24)
        for n in range(0, 25):
            if sum(rank_census(n).values()) != pv[n]:
                return False, f"census total mismatch at n = {n}"
        return True, "rank census totals p(n) up to 24"

    def table_anchors():
        p2 = p2_values(10)
        ok = (
            p2[:7] == [1, 2, 5, 10, 20, 36, 65]
            and p2[10] == 481
            and pbar_eta(0, 4) == 5
            and pbar_eta(0, 12) == 65
            and pbar_eta(2, 8) == 2
            and pbar_eta(2, 6) == 1
        )
        return ok, "pair-count and rank-count anchors"

    def global_partition():
        pv = p_values(40)
        for n in range(41):
            if sum(pbar_eta(j, n) for j in ranks_with_support(n)) != pv[n]:
                return False, f"rank counts do not sum to p({n})"
        return True, "rank counts partition p(n) up to 40"

    def triple_oracle():
        for n in range(0, 17, 2):
            census = rank_census(n)
            for j in (0, 2, -2):
                if bg_core_size(j) > n:
                    continue
                row = joint_table(j, n)[n]
                for b in (2, 3, 5):
                    tables = pbar_abn_values(j, b, n)
                    for a in range(b):
                        enum = sum(
                            c for (jj, m), c in census.items() if jj == j and m % b == a
                        )
                        sieve = sum(c for m, c in row.items() if m % b == a)
                        if not enum == tables[a][n] == sieve:
                            return False, f"oracle mismatch at n={n} j={j} a={a} b={b}"
        # "character sum" names the former congruence route; the detail text
        # is kept byte-identical in the report
        return True, "enumeration = character sum = bivariate sieve, n <= 16"

    def series_roundtrip():
        inv = series_invert(euler_factor_product(24))
        p2 = p2_values(12)
        ok = all(inv[2 * m] == p2[m] for m in range(13)) and all(
            inv[2 * m + 1] == 0 for m in range(12)
        )
        return ok, "inverse of the squared even-step product matches pair counts"

    def dilog_checks():
        worst = 0.0
        for b in range(2, 9):
            for k in range(1, b):
                if math.gcd(k, b) == 1:
                    worst = max(worst, dilog_identity_residual(cmath.exp(2j * math.pi * k / b)))
        return worst <= 1e-10, f"max inversion-identity residual {worst:.2e}"

    def calibration():
        got = HR_PARAMS.alpha * wright_coefficient(HR_PARAMS.A, HR_PARAMS.B)
        want = 1.0 / (4.0 * math.sqrt(3.0))
        return abs(got - want) <= 1e-12, f"|alpha0*c00 - 1/(4 sqrt 3)| = {abs(got - want):.2e}"

    def hermite_recurrence():
        for d in range(1, 9):
            lhs = hermite(d + 1)
            rhs = [0] + hermite(d)
            for i, c in enumerate(hermite(d - 1)):
                rhs[i] -= 2 * d * c
            if lhs != rhs:
                return False, f"recurrence fails at d = {d}"
        return True, "three-term recurrence up to degree 9"

    def logconcavity():
        # the pair counts are NOT log-concave at m = 5 (36^2 = 1296 < 20*65);
        # the scan pins the full failure/equality pattern instead
        rep = turan_report(p2_values(102), "2", (1, 100))
        ok = rep.failures == (1, 5) and rep.equalities == (3,)
        return ok, f"failures={rep.failures} equalities={rep.equalities}"

    def cache_check():
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            table = cache.StatTable("p", {}, p_values(64))
            path = cache.save_table(tmp, table)
            back = cache.load_table(tmp, "p", {}, 64)
            if back is None or back.values != table.values:
                return False, "cache round trip changed values"
            raw = bytearray(path.read_bytes())
            raw[-2] ^= 0x01
            path.write_bytes(bytes(raw))
            if cache.load_table(tmp, "p", {}, 64) is not None:
                return False, "corrupted cache file was served"
        return True, "round trip ok; corruption detected"

    return [
        ("littlewood-round-trip", roundtrip),
        ("core-size-vs-rank", core_vs_rank),
        ("census-totals", census_total),
        ("table-anchors", table_anchors),
        ("global-partition-of-p", global_partition),
        ("triple-oracle", triple_oracle),
        ("series-inverse-pair-counts", series_roundtrip),
        ("dilog-identity", dilog_checks),
        ("wright-calibration", calibration),
        ("hermite-recurrence", hermite_recurrence),
        ("pair-count-log-concavity", logconcavity),
        ("cache-integrity", cache_check),
    ]


def cmd_validate(args) -> RunReport:
    rows = [(name, *fn()) for name, fn in _validation_checks()]
    report = RunReport(
        command="validate",
        params={},
        columns=("check", "passed", "detail"),
        rows=rows,
    )
    for name, ok, detail in rows:
        report.add_check(name, ok, detail)
    return report


# ---------------------------------------------------------------------------
# full report


_REPORT_JOBS = (
    ("table_p", "table --stat p --n-max 200"),
    ("table_p2", "table --stat p2 --n-max 200"),
    ("table_pbar_j0", "table --stat pbar --j 0 --n-max 200"),
    ("table_pbar_ab", "table --stat pbar-ab --j 0 --a 1 --b 5 --n-max 60"),
    ("joint_j0", "joint --j 0 --n-max 40"),
    ("equidist_b5", "equidist --j 0 --b 5 --n 1000"),
    ("asympt", "asympt --n-list 1000,2000,4000,8000"),
    ("jensen_d3", "jensen --d 3 --n 1000 --renormalized"),
    # the order-2 scan starts at the measured onset: m = 5 is a genuine failure
    ("turan_order2", "turan --order 2 --range 6:300"),
    ("turan_convexity", "turan --order convexity --range 2:80"),
    ("arcs_b5", "arcs --b 5"),
    ("validate", "validate"),
)


def cmd_report(args) -> RunReport:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(command="report", params={}, columns=())
    for name, argv in _REPORT_JOBS:
        job = parse_args(argv.split())
        job.cache_dir = args.cache_dir
        rep = _handler(job.command)(job)
        (out_dir / f"{name}.csv").write_text(rep.to_csv_text(), encoding="ascii")
        (out_dir / f"{name}.json").write_text(rep.to_json_text(), encoding="ascii")
        report.add_check(name, rep.passed)
    (out_dir / "index.json").write_text(
        reporting.json_text(
            {
                "experiments": [name for name, _ in _REPORT_JOBS],
                "passed": report.passed,
                "tool_version": __version__,
            }
        )
        + "\n",
        encoding="ascii",
    )
    return report


# ---------------------------------------------------------------------------
# wiring


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("range must look like LO:HI") from exc


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("n-list must be comma-separated integers") from exc


def _handler(command: str):
    """The cmd_* function subcommand ``command`` runs: each subcommand is
    named after its cmd_*, looked up here when it runs, so a rebound cmd_*
    (perfbench's tracer, a test's monkeypatch) is the one run, also through
    the one parser built before the rebinding."""
    return globals()[f"cmd_{command}"]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgrank",
        description="Exact and asymptotic partition-rank statistics.",
    )
    parser.add_argument("--cache-dir", default=None, help="table cache directory")
    parser.add_argument("--no-cache", action="store_true", help="disable the on-disk cache")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", help="exact counting tables")
    sp.add_argument("--stat", choices=tuple(_STATS), required=True)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--n-max", type=int, required=True)

    sp = sub.add_parser("joint", help="bivariate (rank, size) table")
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)

    sp = sub.add_parser("equidist", help="residue-class ratios b*count/total")
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("asympt", help="empirical leading-constant fit")
    sp.add_argument("--n-list", type=_parse_n_list, required=True)
    sp.add_argument("--b", type=int, default=1)

    sp = sub.add_parser("jensen", help="Jensen polynomial of the pair-count sequence")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--renormalized", action="store_true")

    sp = sub.add_parser("turan", help="inequality scans over the pair-count sequence")
    sp.add_argument("--order", choices=tuple(TURAN_ORDERS), required=True)
    sp.add_argument("--range", type=_parse_range, required=True)

    sp = sub.add_parser("onset", help="per-degree onset of Jensen hyperbolicity of the pair counts")
    sp.add_argument("--max-degree", type=int, default=5)
    sp.add_argument("--hi", type=int, default=500)

    sp = sub.add_parser("arcs", help="arc-dominance report")
    sp.add_argument("--b", type=int, required=True)

    sub.add_parser("validate", help="full invariant suite")

    sp = sub.add_parser("report", help="run every experiment at default scales")
    sp.add_argument("--out", required=True)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """``argv`` (default ``sys.argv[1:]``) read by the process's one parser."""
    return _parser().parse_args(argv)


def _emit(report: RunReport, args, started: float) -> None:
    if report.command != "report":  # report writes its own files
        sys.stdout.write(report.to_csv_text() if args.fmt == "csv" else report.to_json_text())
    # the wall time covers the handler and rendering and writing its text
    wall_s = time.perf_counter() - started
    for check in report.checks:
        status = "ok" if check["passed"] else "FAIL"
        print(f"[{report.command}] {status:4s} {check['name']}  {check['detail']}", file=sys.stderr)
    print(f"[{report.command}] wall time {wall_s:.3f}s", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage or --help/--version
        return exc.code
    started = time.perf_counter()
    try:
        args.cache_dir = _resolve_cache_dir(args)
        report: RunReport = _handler(args.command)(args)
        _emit(report, args, started)
    except (ValueError, OSError) as exc:  # OSError covers cache.CacheWriteError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
