"""bgrank benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload {report,tables,certify,cache_warm} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds ``src/bgrank``.  Each run
repeats passes of one workload for S seconds, checks every operation's exit
code and output digest against ``perfbench/reference.json``, and prints as
its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it stamps the environment.  Exit code 0 when every operation matched
its reference, 1 when one did not, 2 when the benchmark could not run.

Workloads (see perfbench/README.md for why each exists):

* report     -- ``bgrank --no-cache report`` in a fresh interpreter per pass
* tables     -- cold table builds, a fresh interpreter and an empty cache
                directory per operation's pass
* certify    -- one interpreter running exact Jensen/Sturm certificates
* cache_warm -- one interpreter serving tables from a primed cache
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import spans
import workloads as wl

# Taken half before and half after the workload's passes, so that the
# median spans the run rather than one moment of it.
SETUP_SAMPLES = 10
IMPORTTIME_SAMPLES = 5
CHILD = str(wl.HERE / "child.py")
# wall_s takes each operation at this quantile of its durations in a run,
# and calibrate() at the same quantile of its samples between operations.
# The host's speed flips between a fast and a slow state every ten to thirty
# seconds and drifts over minutes: a median follows whichever state filled
# more of the run, a low quantile reads the fast state, and dividing by
# calibrate() takes out the drift.  setup_s is the median of set-up samples,
# each divided by the calibrate() samples taken right after it.
WALL_QUANTILE = 10  # first decile
# calibrate() samples after each operation run in its own interpreter and
# after each set-up sample: those take 0.1 s to 3 s, one calibrate() 10 ms.
CALIBRATE_SAMPLES = 5


def low_quantile(values):
    return statistics.quantiles(values, n=WALL_QUANTILE, method="inclusive")[0]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, args, work: Path, reference: dict):
        self.args = args
        self.work = work
        self.reference = reference
        self.env = wl.child_env(work)
        self.outcomes: list[tuple[str, int, str]] = []
        self.passes: list[dict] = []
        self.problems: Counter[str] = Counter()
        self.setup_samples: list[float] = []  # set-up seconds over calibrate() seconds
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        d = self.work / f"{name}{self._dirs}"
        d.mkdir()
        return d

    def child(self, argv, name="child"):
        return wl.run_child(argv, self.env, self.work / f"{name}.out", self.work / f"{name}.err")

    def check_child(self, argv, name):
        result = self.child(argv, name)
        if result[0] != 0:
            err = (self.work / f"{name}.err").read_text(errors="replace")[-2000:]
            raise BenchError(f"{' '.join(argv[1:3])} exited {result[0]}\n{err}")
        return result

    # -- environment and set-up ------------------------------------------

    def probe(self) -> dict:
        self.check_child([sys.executable, CHILD, "probe"], "probe")
        info = json.loads((self.work / "probe.out").read_text())
        if not Path(info["bgrank_file"]).resolve().is_relative_to(wl.SRC.resolve()):
            raise BenchError(f"bgrank imported from {info['bgrank_file']}, not from {wl.SRC}")
        return info

    def sample_setup(self, count: int) -> None:
        """Seconds from spawning a fresh interpreter until ``import
        bgrank.cli`` returns in it, once per sample."""
        code = "import time, bgrank.cli; print(time.monotonic_ns())"
        for _ in range(count):
            _, _, spawn_ns = self.check_child([sys.executable, "-c", code], "setup")
            seconds = (int((self.work / "setup.out").read_text()) - spawn_ns) / 1e9
            self.setup_samples.append(seconds / median([wl.calibrate() for _ in range(CALIBRATE_SAMPLES)]))

    def import_times(self) -> dict:
        """``-X importtime``: cumulative seconds of the bgrank and numpy imports."""
        bg, np_ = [], []
        for _ in range(IMPORTTIME_SAMPLES):
            self.check_child([sys.executable, "-X", "importtime", "-c", "import bgrank.cli"], "importtime")
            total_bg = total_np = 0
            for line in (self.work / "importtime.err").read_text().splitlines():
                parts = line.split("|")
                if len(parts) != 3 or not parts[1].strip().isdigit():
                    continue
                name_field = parts[2][1:]
                name = name_field.strip()
                top = not name_field.startswith(" ")
                if top and (name == "bgrank" or name.startswith("bgrank.")):
                    total_bg += int(parts[1])
                if name == "numpy" and not total_np:
                    total_np = int(parts[1])
            bg.append(total_bg / 1e6)
            np_.append(total_np / 1e6)
        return {"import.bgrank_s": median(bg), "import.numpy_s": median(np_)}

    # -- passes ------------------------------------------------------------

    def cli_op(self, key, args, op_path: Path, traced):
        out, err, trace_json = (op_path.with_suffix(ext) for ext in (".out", ".err", ".json"))
        if traced:
            argv = [sys.executable, CHILD, "cli", str(trace_json), str(time.monotonic_ns()), *args]
        else:
            argv = wl.cli_argv(args)
        start = spans.clock()
        code, rss_kb, _ = wl.run_child(argv, self.env, out, err)
        seconds = spans.clock() - start
        return {
            "key": key,
            "code": code,
            "out": out,
            "rss_kb": rss_kb,
            "trace_json": trace_json,
            "s": seconds,
            "calibrate_s": [wl.calibrate() for _ in range(CALIBRATE_SAMPLES)],
        }

    def run_cli_pass(self, traced: bool) -> None:
        pass_dir = self.fresh_dir("pass")
        seed = self.args.seed
        if self.args.workload == "report":
            out_dir = pass_dir / "report"
            ops = [("report", wl.report_args(seed, out_dir))]
        else:
            cache_dir = pass_dir / "cache"
            cache_dir.mkdir()
            ops = [(k, ["--cache-dir", str(cache_dir), *a]) for k, a in wl.table_ops(*wl.tables_choice(seed))]
        start = spans.clock()
        done = [self.cli_op(key, args, pass_dir / f"op{i}", traced) for i, (key, args) in enumerate(ops)]
        wall = spans.clock() - start
        record = {
            "traced": traced,
            "wall": wall,
            "op_s": [(op["key"], op["s"]) for op in done],
            "calibrate_s": [c for op in done for c in op["calibrate_s"]],
            "rss_kb": max(op["rss_kb"] for op in done),
        }
        for op in done:
            if op["key"] == "report":
                digest = wl.digest_dir(out_dir) if out_dir.is_dir() else "missing"
            else:
                digest = wl.sha256_file(op["out"])
            self.outcomes.append((op["key"], op["code"], digest))
        if self.args.workload == "tables":
            n_files = len(list(cache_dir.iterdir()))
            self.outcomes.append(("tables cache files", 0, wl.payload_digest(n_files)))
        if traced:
            agg = spans.empty()
            interp = 0.0
            per_op = {}
            for op in done:
                if not op["trace_json"].exists():
                    continue  # the child failed before writing spans; the gate reports it
                doc = json.loads(op["trace_json"].read_text())
                spans.merge(agg, doc["trace"])
                interp += doc["start_s"] + doc["import_s"]
                per_op[op["key"]] = spans.layer_metrics(doc["trace"])
            record.update(trace=agg, interp_s=interp, per_op=per_op)
        self.passes.append(record)
        shutil.rmtree(pass_dir)

    def run_cli_workload(self) -> None:
        wl.run_passes(self.args.seconds, bool(self.args.trace), self.run_cli_pass)

    def run_inproc_workload(self) -> None:
        workload = self.args.workload
        before = {}
        if workload == "cache_warm":
            cache_dir = self.work / "cache"
            self.check_child([sys.executable, CHILD, "prime", str(cache_dir)], "prime")
            before = {f.name: _identity(f) for f in cache_dir.iterdir()}
        out_json = self.work / "inproc.json"
        argv = [
            sys.executable,
            CHILD,
            "inproc",
            workload,
            str(self.args.seed),
            str(self.args.seconds),
            str(self.args.trace),
            str(out_json),
            str(self.work),
        ]
        code, rss_kb, _ = self.child(argv, "inproc")
        if code != 0:
            err = (self.work / "inproc.err").read_text(errors="replace")[-2000:]
            raise BenchError(f"{workload} worker exited {code}\n{err}")
        doc = json.loads(out_json.read_text())
        self.outcomes.extend(tuple(o) for o in doc["ops"])
        for p in doc["passes"]:
            record = {
                "traced": p["traced"],
                "wall": p["wall"],
                "op_s": p["op_s"],
                "calibrate_s": p["calibrate_s"],
                "rss_kb": rss_kb,
            }
            if p["traced"]:
                record.update(trace=p["trace"], interp_s=0.0, per_op={})
            self.passes.append(record)
        if before:
            after = {f.name: _identity(f) for f in cache_dir.iterdir()}
            # a table that failed to load is rebuilt and rewritten
            self.outcomes.append(("warm cache untouched", 0, wl.payload_digest(before == after)))

    # -- results -----------------------------------------------------------

    def check_outcomes(self) -> int:
        failed = 0
        for key, code, digest in self.outcomes:
            want = self.reference.get(key)
            if want is None:
                self.problems[f"no reference for operation {key!r}"] += 1
                failed += 1
            elif (code, digest) != (want["exit"], want["sha256"]):
                self.problems[
                    f"{key!r}: exit {code} digest {digest[:12]}, want exit {want['exit']} digest {want['sha256'][:12]}"
                ] += 1
                failed += 1
        return failed

    def check_coverage(self) -> None:
        agg = spans.empty()
        for p in self.passes:
            if p["traced"]:
                spans.merge(agg, p["trace"])
        for name in wl.EXPECTED_SPANS[self.args.workload]:
            if not agg["calls"].get(name):
                self.problems[f"span {name} recorded no call"] += 1

    def end_to_end(self) -> dict:
        untraced = [p for p in self.passes if not p["traced"]]
        durations = defaultdict(list)
        for p in untraced:
            for key, seconds in p["op_s"]:
                durations[key].append(seconds)
        pass_s = sum(low_quantile(durations[key]) for key, _ in untraced[0]["op_s"])
        host_s = low_quantile([c for p in untraced for c in p["calibrate_s"]])
        print(
            f"[{self.args.workload}] first deciles: pass {pass_s:.4f} s, calibrate() {host_s * 1e3:.3f} ms",
            file=sys.stderr,
        )
        # both in seconds of the reference host
        return {
            # one pass, each operation at the low quantile of its durations
            "wall_s": pass_s * wl.CALIBRATE_REF_S / host_s,
            "setup_s": median(self.setup_samples) * wl.CALIBRATE_REF_S,
            "peak_rss_mb": median([p["rss_kb"] for p in untraced]) / 1024,
        }

    def per_layer(self, imports: dict) -> dict:
        untraced_wall = median([p["wall"] for p in self.passes if not p["traced"]])
        rows = []
        for p in (p for p in self.passes if p["traced"]):
            m = spans.layer_metrics(p["trace"])
            m["interp.start_s"] = p["interp_s"]
            m["trace.wall_s"] = p["wall"]
            layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
            m["trace.remainder_s"] = untraced_wall - p["interp_s"] - layer_sum
            m.update(self.growth(p["per_op"]))
            rows.append(m)
        metrics = {k: median([r[k] for r in rows]) for k in rows[0]}
        metrics.update(imports)
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        return metrics

    def growth(self, per_op: dict) -> dict:
        out = {"series.p2_values.growth_exp": 0.0, "series.pbar_abn_values.growth_exp": 0.0}
        if self.args.workload != "tables":
            return out
        j, a = wl.tables_choice(self.args.seed)
        pairs = (
            ("series.p2_values", wl.p2_key(wl.P2_M), wl.p2_key(2 * wl.P2_M)),
            ("series.pbar_abn_values", wl.pbar_ab_key(j, a, wl.PBAR_N), wl.pbar_ab_key(j, a, 2 * wl.PBAR_N)),
        )
        for metric, small, large in pairs:
            out[f"{metric}.growth_exp"] = spans.growth_exponent(
                per_op[small][f"{metric}.self_s"], per_op[large][f"{metric}.self_s"]
            )
        return out


def _identity(path: Path):
    st = path.stat()
    return [st.st_ino, st.st_size, st.st_mtime_ns]


def _revision() -> dict:
    rev = None
    if (wl.ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, timeout=30
            )
            rev = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    h = hashlib.sha256()
    for f in sorted((wl.SRC / "bgrank").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"git_revision": rev, "src_sha256": h.hexdigest()}


def _shares(metrics: dict) -> str:
    wall = metrics["trace.wall_s"] or 1.0
    parts = [f"interp {metrics['interp.start_s'] / wall:.1%}"]
    parts += [f"{layer} {metrics[layer + '.self_s'] / wall:.1%}" for layer in spans.LAYERS]
    return ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running child is killed and reaped, and the
    # run's directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and every child, so that calibrate() runs on
    # the CPU the timed work ran on: the host slows each CPU on its own.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (wl.SRC / "bgrank" / "cli.py").is_file():
        print(f"error: no bgrank sources under {wl.SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
        reference = json.loads(wl.REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tmp_root = wl.ROOT / ".bench_tmp"
    work = tmp_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args, work, reference)
    try:
        info = run.probe()
        if args.trace:
            imports = run.import_times()
        else:
            run.sample_setup(SETUP_SAMPLES // 2)
        if args.workload in ("report", "tables"):
            run.run_cli_workload()
        else:
            run.run_inproc_workload()
        failed = run.check_outcomes()
        if args.trace:
            run.check_coverage()
            metrics = run.per_layer(imports)
        else:
            run.sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            metrics = run.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 2
    for problem, times in run.problems.items():
        print(f"FAIL {problem} ({times}x)", file=sys.stderr)
    if args.trace:
        print(f"[{args.workload}] share of traced wall: {_shares(metrics)}", file=sys.stderr)
    env = {
        **_revision(),
        "python": info["python"],
        "numpy": info["numpy"],
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "seed": args.seed,
        "trace": bool(args.trace),
        "workload": args.workload,
        "passes": len(run.passes),
    }
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": len(run.outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
