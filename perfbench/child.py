"""Child-process side of the benchmark.  Run with PYTHONPATH=<checkout>/src.

    child.py probe
        import bgrank.cli and print the versions the result is stamped with
    child.py cli TRACE_JSON SPAWN_NS ARG...
        bgrank.cli.main(ARG...) with spans installed; the spans and the
        interpreter start and import times go to TRACE_JSON
    child.py prime CACHE_DIR
        build the cache_warm tables into CACHE_DIR and check each one loads
    child.py inproc WORKLOAD SEED SECONDS TRACE OUT_JSON WORKDIR
        run passes of an in-process workload (certify, cache_warm) for
        SECONDS, alternating untraced and traced passes when TRACE is 1
"""

import time

T0_NS = time.monotonic_ns()

import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def probe() -> int:
    import platform

    import numpy

    import bgrank.cli

    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "bgrank_file": bgrank.cli.__file__,
            }
        )
    )
    return 0


def traced_cli(trace_json: str, spawn_ns: int, args: list[str]) -> int:
    before_ns = time.monotonic_ns()
    import bgrank.cli

    import_ns = time.monotonic_ns()
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = bgrank.cli.main(args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    doc = {
        "start_s": (T0_NS - spawn_ns) / 1e9,
        "import_s": (import_ns - before_ns) / 1e9,
        "trace": tracer.to_dict(),
    }
    Path(trace_json).write_text(json.dumps(doc))
    return code


def prime(cache_dir: str) -> int:
    from bgrank import cache

    for table_args in wl.WARM_TABLES:
        code, _ = wl.cli_main_captured(["--cache-dir", cache_dir, "table", *table_args])
        if code != 0:
            print(f"priming {' '.join(table_args)} exited {code}", file=sys.stderr)
            return 1
    files = sorted(Path(cache_dir).iterdir())
    for f in files:
        entry = cache.inspect_cache_file(f)
        if entry is None or cache.load_table(cache_dir, entry.kind, entry.params, entry.n_max) is None:
            print(f"primed cache file {f.name} does not load", file=sys.stderr)
            return 1
    if len(files) != len(wl.WARM_TABLES):
        print(f"expected {len(wl.WARM_TABLES)} primed files, found {len(files)}", file=sys.stderr)
        return 1
    return 0


def _warm_ops(cache_dir: str, seed: int):
    rng = random.Random(seed)

    def op(table_args):
        return lambda: wl.cli_main_captured(["--cache-dir", cache_dir, "table", *table_args])

    keyed = [(wl.warm_key(t), op(t)) for t in wl.WARM_TABLES]

    def one_pass():
        ops = []
        for _ in range(wl.WARM_ROUNDS):
            rng.shuffle(keyed)
            ops.extend(keyed)
        return ops

    return one_pass


def _certify_ops(seed: int):
    from bgrank import series

    seq = series.p2_values(wl.CERTIFY_M)
    ops = wl.certify_ops(seq, random.Random(seed).choice(wl.RENORM_OFFSETS))
    return lambda: ops


def _digest(payload) -> str:
    if isinstance(payload, bytes):
        return wl.sha256_bytes(payload)
    return wl.payload_digest(payload)


def inproc(workload: str, seed: int, seconds: float, trace: bool, out_json: str, workdir: str) -> int:
    work = Path(workdir)
    if workload == "certify":
        make_pass = _certify_ops(seed)
    elif workload == "cache_warm":
        make_pass = _warm_ops(str(work / "cache"), seed)
    else:
        raise SystemExit(f"not an in-process workload: {workload}")
    passes = []
    results = []

    def run_pass(traced: bool) -> None:
        tracer = None
        if traced:
            tracer = spans.Tracer()
            tracer.install()
        op_s, calibrate_s = [], []
        try:
            for key, thunk in make_pass():
                start = spans.clock()
                try:
                    code, payload = thunk()
                except Exception as exc:  # an operation that raises is a failed op, not a crash
                    code, payload = 2, repr(exc)
                op_s.append((key, spans.clock() - start))
                results.append((key, code, _digest(payload)))
                calibrate_s.append(wl.calibrate())
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = sum(seconds for _, seconds in op_s)
        passes.append(
            {
                "traced": traced,
                "wall": wall,
                "op_s": op_s,
                "calibrate_s": calibrate_s,
                "trace": tracer.to_dict() if tracer else None,
            }
        )

    wl.run_passes(seconds, trace, run_pass)
    Path(out_json).write_text(json.dumps({"passes": passes, "ops": results}))
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        return probe()
    if mode == "cli":
        return traced_cli(rest[0], int(rest[1]), rest[2:])
    if mode == "prime":
        return prime(rest[0])
    if mode == "inproc":
        workload, seed, seconds, trace, out_json, workdir = rest
        return inproc(workload, int(seed), float(seconds), trace == "1", out_json, workdir)
    raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
