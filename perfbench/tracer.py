"""Spans and counters around the package's public functions.

``install`` runs inside a benchmark child process, before the workload
starts.  It replaces each traced function with a wrapper wherever the
package can reach it: every ``kostka`` module attribute bound to it (the
defining module and every module that imported the name) and every
module-level dict holding it, such as the verifier's ``_MAPS`` table.
Each wrapped call records a span (name, start, end, parent) in flat
arrays; ``core.flatten`` runs hundreds of thousands of times per workload,
so it only counts calls.  ``Tracer.dump`` writes the spans and counters
when the workload ends, and ``layer_metrics`` turns them into per-layer
metrics in the parent process.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (module, function): functions that get a span per call.
SPANNED = [
    ("tableaux", "enumerate_immaculate"),
    ("tableaux", "enumerate_ssyt"),
    ("tunnelhooks", "delta_choices"),
    ("matrices", "nsym_Kinv"),
    ("matrices", "sym_K"),
    ("matrices", "sym_Kinv"),
    ("matrices", "mat_mul"),
    ("involutions", "enumerate_pairs"),
    ("involutions", "phi"),
    ("involutions", "chi"),
    ("involutions", "psi"),
    ("involutions", "theta"),
    ("involutions", "rho"),
    ("involutions", "validate_pair"),
    ("serialize", "parse_object"),
    ("serialize", "dumps"),
    ("cli", "main"),
]
COUNTED = [("core", "flatten")]
CACHED = {
    "tableaux.enumerate_immaculate",
    "tableaux.enumerate_ssyt",
    "tunnelhooks.delta_choices",
    "involutions.enumerate_pairs",
}

# Per-layer metric name -> unit.  Every traced run reports all of them.
LAYER_METRICS: dict[str, str] = {}
for _name in ("tableaux.enumerate_immaculate", "tableaux.enumerate_ssyt"):
    LAYER_METRICS.update({
        f"{_name}.calls": "count",
        f"{_name}.self_s": "s",
        f"{_name}.hit_ratio": "ratio",
        f"{_name}.cache_entries": "count",
    })
LAYER_METRICS.update({
    "tunnelhooks.delta_choices.calls": "count",
    "tunnelhooks.delta_choices.self_s": "s",
    "tunnelhooks.delta_choices.hit_ratio": "ratio",
    "matrices.nsym_Kinv.self_s": "s",
    "matrices.sym_K.self_s": "s",
    "matrices.sym_Kinv.self_s": "s",
    "matrices.mat_mul.calls": "count",
    "matrices.mat_mul.self_s": "s",
    "involutions.enumerate_pairs.calls": "count",
    "involutions.enumerate_pairs.self_s": "s",
    "involutions.enumerate_pairs.pairs_out": "count",
    "involutions.enumerate_pairs.hit_ratio": "ratio",
    "involutions.enumerate_pairs.cache_entries": "count",
})
for _name in ("phi", "chi", "psi", "theta"):
    LAYER_METRICS.update({
        f"involutions.{_name}.calls": "count",
        f"involutions.{_name}.self_s": "s",
    })
LAYER_METRICS.update({
    "involutions.rho.calls": "count",
    "involutions.rho.self_s": "s",
    "involutions.rho.steps": "count",
    "involutions.rho.longest_walk": "count",
    "involutions.rho.enumerate_pairs_share": "ratio",
    "involutions.validate_pair.self_s": "s",
    "involutions.fixed_ratio": "ratio",
    "core.flatten.calls": "count",
    "serialize.parse_object.self_s": "s",
    "serialize.dumps.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
})
del _name


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []

    def _spanned(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock, stack = time.perf_counter, self.stack
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_involutions_enumerate_pairs(self, result) -> None:
        self.extra["involutions.enumerate_pairs.pairs_out"] += len(result)

    def _after_involutions_rho(self, result) -> None:
        steps = len(result[1].maps)
        self.extra["involutions.rho.steps"] += steps
        if steps > self.extra["involutions.rho.longest_walk"]:
            self.extra["involutions.rho.longest_walk"] = steps

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Import the package and wrap every traced function everywhere."""
        import importlib

        targets = [(m, f, self._spanned) for m, f in SPANNED]
        targets += [(m, f, self._counted) for m, f in COUNTED]
        for module, func, make in targets:
            name = f"{module}.{func}"
            try:
                original = getattr(importlib.import_module(f"kostka.{module}"), func, None)
            except ModuleNotFoundError:
                original = None
            if not callable(original):
                self.absent.append(name)
                continue
            self.originals[name] = original
            _rebind(original, make(name, original))

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and the counters (JSON)."""
        with open(path + ".spans", "wb") as fh:
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)
        caches = {}
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is None:
                self.absent.append(f"{name} cache")
                continue
            hits, misses, _, size = info()
            caches[name] = {"hits": hits, "misses": misses, "entries": size}
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "spans": len(self.start),
                "counts": dict(self.counts),
                "extra": dict(self.extra),
                "caches": caches,
                "absent": self.absent,
            }, fh)


def _rebind(original, wrapper) -> None:
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "kostka" or mod_name.startswith("kostka.")):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = wrapper
                    elif isinstance(entry, tuple) and any(e is original for e in entry):
                        value[key] = tuple(wrapper if e is original else e for e in entry)


def read_trace(path: str) -> dict:
    """Self time per span name, plus the counters ``Tracer.dump`` wrote."""
    with open(path) as fh:
        info = json.load(fh)
    count = info["spans"]
    arrays = [array("i"), array("d"), array("d"), array("i")]
    with open(path + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    name_id, start, end, parent = arrays
    names = info["names"]
    covered = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            covered[parent[i]] += end[i] - start[i]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i in range(count):
        name = names[name_id[i]]
        self_s[name] += end[i] - start[i] - covered[i]
        calls[name] += 1
    # How much of rho's time goes to enumerate_pairs (its step cap's E set).
    rho_id = names.index("involutions.rho") if "involutions.rho" in names else -1
    ep_id = (
        names.index("involutions.enumerate_pairs")
        if "involutions.enumerate_pairs" in names else -1
    )
    rho_total = in_rho = 0.0
    for i in range(count):
        if name_id[i] == rho_id:
            rho_total += end[i] - start[i]
        elif name_id[i] == ep_id:
            p = parent[i]
            while p >= 0 and name_id[p] != rho_id:
                p = parent[p]
            if p >= 0:
                in_rho += end[i] - start[i]
    info["self_s"] = dict(self_s)
    info["calls"] = {**dict(calls), **info["counts"]}
    info["rho_s"] = rho_total
    info["rho_in_enumerate_pairs_s"] = in_rho
    return info


def layer_metrics(traces: list[dict], pairs: int, fixed: int) -> dict[str, float]:
    """Per-layer metrics summed over the traced processes of one iteration.

    A function missing from the package reads 0 and is listed as absent by
    the caller; so is the cache of a function that is no longer cached.
    """
    out = {name: 0.0 for name in LAYER_METRICS}
    hits: dict[str, int] = defaultdict(int)
    lookups: dict[str, int] = defaultdict(int)
    rho_s = in_rho = 0.0
    for trace in traces:
        for name, seconds in trace["self_s"].items():
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + seconds
        for name, calls in trace["calls"].items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
        for name, value in trace["extra"].items():
            if name.endswith(".longest_walk"):
                out[name] = max(out[name], value)
            else:
                out[name] += value
        for name, cache in trace["caches"].items():
            hits[name] += cache["hits"]
            lookups[name] += cache["hits"] + cache["misses"]
            if f"{name}.cache_entries" in out:
                out[f"{name}.cache_entries"] += cache["entries"]
        rho_s += trace["rho_s"]
        in_rho += trace["rho_in_enumerate_pairs_s"]
    for name, total in lookups.items():
        out[f"{name}.hit_ratio"] = hits[name] / total if total else 0.0
    out["involutions.rho.enumerate_pairs_share"] = in_rho / rho_s if rho_s else 0.0
    out["involutions.fixed_ratio"] = fixed / pairs if pairs else 0.0
    return {name: out[name] for name in LAYER_METRICS}
