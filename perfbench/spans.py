"""Per-layer spans recorded from outside the bgrank package.

``Tracer.install()`` replaces every public function of each bgrank module by
a wrapper that records a span, and rebinds every other name in the bgrank
package that refers to the same function object -- the names that
``from .series import p2_values`` copies into ``bgrank.cli`` and the
re-exports in ``bgrank/__init__.py``.  ``uninstall()`` puts the originals
back.  Spans stay in memory as per-name aggregates (calls, total seconds,
self seconds) plus counters taken at the same boundaries; ``to_dict()``
hands them out once a run is over.

A span is named ``<layer>.<function>``, the layer being the module.  Its
self time is its duration minus the time covered by its child spans.  A
generator function gets one span per resumption, so its self time is the
time spent producing items and its call count is the number of generators
created.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("partitions", "series", "asymptotics", "turan", "cache", "reporting", "cli")

# The only clock the benchmark reads for durations.
clock = time.perf_counter


def _ints(obj):
    """Every integer held in a value the series layer returns."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, int):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _ints(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _ints(v)
    else:
        for attr in ("values", "coeffs"):
            inner = getattr(obj, attr, None)
            if isinstance(inner, (list, tuple)):
                yield from _ints(inner)
                return


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, seconds covered by children]
        self._depth: dict[str, int] = defaultdict(int)  # open spans per layer
        self._saved: list[tuple[dict, str, object]] = []
        self._originals: dict = {}

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str, layer: str) -> list:
        self._depth[layer] += 1
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = clock()
        return frame

    def _exit(self, frame: list, layer: str, count: bool = True) -> None:
        dur = clock() - frame[1]
        self._stack.pop()
        self._depth[layer] -= 1
        name = frame[0]
        if count:
            self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur

    def _after(self, layer: str, name: str, outer: bool, args, kwargs, result) -> None:
        """Counters measured at the span boundary, outside its timed interval."""
        if layer == "series" and outer:
            n = 0
            bits = 0
            for v in _ints(result):
                n += 1
                b = v.bit_length()
                if b > bits:
                    bits = b
            self.counters["series.coeffs_out"] += n
            self.counters["series.max_bits"] = max(self.counters["series.max_bits"], bits)
        elif layer == "reporting" and outer and isinstance(result, str):
            self.counters["reporting.bytes_out"] += len(result)
        elif name == "cache.load_table":
            bound = inspect.signature(self._originals[name]).bind(*args, **kwargs).arguments
            filename = self._originals["cache.cache_filename"](bound["kind"], bound["params"], bound["n_max"])
            path = os.path.join(bound["directory"], filename)
            self.counters["cache.lookups"] += 1
            if getattr(result, "values", None) is not None:
                self.counters["cache.hits"] += 1
                self.counters["cache.bytes_read"] += os.path.getsize(path)
            elif os.path.exists(path):
                self.counters["cache.rejects"] += 1
        elif name == "cache.save_table":
            self.counters["cache.bytes_written"] += os.path.getsize(result)
        elif name == "cli.build_parser":
            result.parse_args = self._wrap("cli", "parse_args", result.parse_args)

    def _wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = self._enter(name, layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame, layer, count=False)
                    self.counters[name + ".items"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._depth[layer] == 0
            frame = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, layer)
            self._after(layer, name, outer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import bgrank.cli  # noqa: F401  loads every layer

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"bgrank.{layer}"]
            for fname, obj in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                self._originals[f"{layer}.{fname}"] = obj
                wrapped[obj] = self._wrap(layer, fname, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "bgrank" and not modname.startswith("bgrank."):
                continue
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((ns, attr, obj))
                    ns[attr] = wrapped[obj]

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            ns[attr] = obj
        self._saved.clear()

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_s),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# aggregates and the per-layer metrics derived from them


def empty() -> dict:
    return {"calls": {}, "total": {}, "self": {}, "counters": {}}


def merge(into: dict, other: dict) -> dict:
    for part in ("calls", "total", "self"):
        for k, v in other[part].items():
            into[part][k] = into[part].get(k, 0) + v
    for k, v in other["counters"].items():
        if k == "series.max_bits":
            into["counters"][k] = max(into["counters"].get(k, 0), v)
        else:
            into["counters"][k] = into["counters"].get(k, 0) + v
    return into


def growth_exponent(small_s: float, large_s: float) -> float:
    """Exponent e in cost ~ size^e from one run at size x and one at 2x."""
    if small_s <= 0 or large_s <= 0:
        return 0.0
    return math.log(large_s / small_s, 2)


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics that one aggregate of spans determines."""
    s, t, c, k = agg["self"], agg["total"], agg["calls"], agg["counters"]

    def self_of(*names):
        return sum(s.get(n, 0.0) for n in names)

    m = {f"{layer}.self_s": sum(v for n, v in s.items() if n.startswith(layer + ".")) for layer in LAYERS}
    m.update(
        {
            "cli.parse_s": t.get("cli.build_parser", 0.0) + t.get("cli.parse_args", 0.0),
            "cli.ops": c.get("cli.main", 0),
            "partitions.enumerate_partitions.self_s": self_of("partitions.enumerate_partitions"),
            "partitions.rank_census.self_s": self_of("partitions.rank_census"),
            "partitions.littlewood.self_s": self_of(
                "partitions.littlewood_decompose", "partitions.littlewood_compose"
            ),
            "partitions.partitions_enumerated": k.get("partitions.enumerate_partitions.items", 0),
            "series.p_values.self_s": self_of("series.p_values"),
            "series.p2_values.self_s": self_of("series.p2_values"),
            # both public entries to the congruence-class table builder
            "series.pbar_abn_values.self_s": self_of("series.pbar_abn_values", "series.pbar_abn_table"),
            "series.joint_table.self_s": self_of("series.joint_table"),
            "series.coeffs_out": k.get("series.coeffs_out", 0),
            "series.max_bits": k.get("series.max_bits", 0),
            "asymptotics.arc_dominance_check.self_s": self_of("asymptotics.arc_dominance_check"),
            "asymptotics.lerch_phi_unit.self_s": self_of("asymptotics.lerch_phi_unit"),
            "asymptotics.h_congruence_numeric.calls": c.get("asymptotics.h_congruence_numeric", 0),
            "turan.is_hyperbolic.self_s": self_of("turan.is_hyperbolic"),
            "turan.is_hyperbolic.calls": c.get("turan.is_hyperbolic", 0),
            "turan.sturm_chain.self_s": self_of("turan.sturm_chain"),
            "turan.hyperbolicity_onset.self_s": self_of("turan.hyperbolicity_onset"),
            "turan.turan_report.self_s": self_of("turan.turan_report"),
            "turan.renormalized_jensen.self_s": self_of("turan.renormalized_jensen"),
            "cache.load_table.self_s": self_of("cache.load_table"),
            "cache.save_table.self_s": self_of("cache.save_table"),
            "cache.bytes_read": k.get("cache.bytes_read", 0),
            "cache.bytes_written": k.get("cache.bytes_written", 0),
            "cache.hit_ratio": k.get("cache.hits", 0) / k["cache.lookups"] if k.get("cache.lookups") else 0.0,
            "cache.rejects": k.get("cache.rejects", 0),
            "reporting.csv_text.self_s": self_of("reporting.csv_text"),
            "reporting.json_text.self_s": self_of("reporting.json_text"),
            "reporting.bytes_out": k.get("reporting.bytes_out", 0),
        }
    )
    return m
