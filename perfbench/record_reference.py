"""Record perfbench/reference.json: the exit code and output digest of every
operation of every workload, for every variant a seed can pick.

    python3 perfbench/record_reference.py

Re-record only when a change alters bgrank's outputs on purpose, and say so
in the change; the benchmark counts any other difference as a failed
operation.  Recording checks the published facts the outputs must show
(known hyperbolicity onsets, the known-red order-2 scan) and refuses to
write a reference that contradicts them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl

# Facts the reference must agree with (README, "Known red acceptance claims").
KNOWN_ONSETS = {2: 5, 3: 24, 4: 61, 5: 121, 6: 202}
KNOWN_ORDER2 = (1, ((1, 5), (3,)))  # exit code, (failures, equalities) on [1, 500]


def record(reference: dict, key: str, code: int, digest: str) -> None:
    old = reference.get(key)
    if old is not None and old != {"exit": code, "sha256": digest}:
        raise SystemExit(f"operation {key!r} gave two different results: {old} and {digest}")
    reference[key] = {"exit": code, "sha256": digest}


def cli(env, work: Path, args) -> tuple[int, Path]:
    out = work / "op.out"
    code, _, _ = wl.run_child(wl.cli_argv(args), env, out, work / "op.err")
    return code, out


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    reference: dict = {}
    work = Path(tempfile.mkdtemp(prefix="record-", dir=wl.ROOT))
    env = wl.child_env(work)
    try:
        for variant in wl.REPORT_VARIANTS:
            out_dir = work / "report"
            code, _ = cli(env, work, [*variant, "--out", str(out_dir)])
            record(reference, "report", code, wl.digest_dir(out_dir))
            shutil.rmtree(out_dir)

        for j in wl.TABLE_J:
            for a in wl.TABLE_A:
                cache_dir = work / f"cache_j{j}_a{a}"
                cache_dir.mkdir()
                for key, args in wl.table_ops(j, a):
                    code, out = cli(env, work, ["--cache-dir", str(cache_dir), *args])
                    record(reference, key, code, wl.sha256_file(out))
                n_files = len(list(cache_dir.iterdir()))
                record(reference, "tables cache files", 0, wl.payload_digest(n_files))

        from bgrank import series

        seq = series.p2_values(wl.CERTIFY_M)
        for offset in wl.RENORM_OFFSETS:
            for key, thunk in wl.certify_ops(seq, offset):
                code, payload = thunk()
                if key.startswith("onset"):
                    d = int(key.split()[1][1:])
                    if (code, payload) != (0, KNOWN_ONSETS[d]):
                        raise SystemExit(f"{key}: got onset {payload}, known {KNOWN_ONSETS[d]}")
                if key == "turan 2 1:500" and (code, payload) != KNOWN_ORDER2:
                    raise SystemExit(f"{key}: got {(code, payload)}, known {KNOWN_ORDER2}")
                record(reference, key, code, wl.payload_digest(payload))

        cache_dir = work / "cache"
        code, _, _ = wl.run_child(
            [sys.executable, str(wl.HERE / "child.py"), "prime", str(cache_dir)], env, work / "p.out", work / "p.err"
        )
        if code != 0:
            raise SystemExit((work / "p.err").read_text())
        for table_args in wl.WARM_TABLES:
            code, out = wl.cli_main_captured(["--cache-dir", str(cache_dir), "table", *table_args])
            record(reference, wl.warm_key(table_args), code, wl.sha256_bytes(out))
        record(reference, "warm cache untouched", 0, wl.payload_digest(True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} operations in {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
