"""Spans and counters around the public entry points of each sqftori layer.

Nothing inside the package is edited: `Tracer.install` replaces each
traced function with a wrapper in every namespace that holds it (the
defining module, every module that did ``from .x import name``, and the
CLI's suite dictionaries), and `Tracer.restore` puts the originals back.
Each span records its name, start, end and parent index; spans stay in
memory until `Tracer.dump` writes them out.

The layers are the eight modules of ``src/sqftori``.  `layer_metrics`
turns a list of spans plus `lru_cache` counter deltas into the per-layer
metric names listed in BENCHMARK.json.  Times are self times (a span's
duration minus the part of it that its child spans cover) except the
per-suite ``suites.<suite>.s``, which is inclusive.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

LAYERS = ("cli", "report", "suites", "sqfree", "tori", "series", "exact", "ffpoly")

SUITES = (
    "factorization",
    "squarefree_count",
    "linear_factor",
    "quad_excess",
    "mu_sum",
    "discriminant",
    "tori_count",
    "tori_type",
    "eigenvector",
    "subtori_excess",
    "mod2_bias",
    "euler",
    "cayley",
)

SERIES_OPS = {"exp": "exp", "log": "log", "div": "__truediv__", "mul": "__mul__", "pow": "pow"}
RF_OPS = ("__add__", "__sub__", "__mul__", "__truediv__")
RENDERERS = ("reports_to_json", "reports_to_csv", "reports_to_table")

#: lru_cache counters reported per layer: metric prefix -> (module, names or None for all)
CACHE_GROUPS = {
    "sqfree.cache": ("sqfree", None),
    "tori.cache": ("tori", None),
    "exact.gl_order.cache": ("exact", ("gl_order",)),
    "suites.oracle_cache": ("suites", ("_oracle_stats",)),
}


def _public_functions(module) -> dict:
    """Public functions (plain or lru-cached) defined in `module` itself."""
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if (inspect.isfunction(value) or hasattr(value, "cache_info")) and getattr(
            value, "__module__", None
        ) == module.__name__:
            out[name] = value
    return out


def lru_functions(module, names=None) -> dict:
    """The lru_cache-wrapped functions defined in `module`, by name."""
    out = {}
    for name, value in vars(module).items():
        if names is not None and name not in names:
            continue
        if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
            out[name] = value
    return out


def cache_snapshot(pkg) -> dict[str, tuple[int, int]]:
    """(hits, misses) summed over each cache group; take before/after deltas."""
    out = {}
    for prefix, (mod_name, names) in CACHE_GROUPS.items():
        hits = misses = 0
        for fn in lru_functions(getattr(pkg, mod_name), names).values():
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        out[prefix] = (hits, misses)
    return out


def cache_delta(before: dict, after: dict) -> dict[str, int]:
    out = {}
    for prefix in CACHE_GROUPS:
        out[f"{prefix}.hits"] = after[prefix][0] - before[prefix][0]
        out[f"{prefix}.misses"] = after[prefix][1] - before[prefix][1]
    return out


class Tracer:
    """In-memory span recorder that patches wrappers into a loaded package."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        #: per-span-name numbers attached by result hooks (bytes rendered, polys visited, ...)
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper of `fn` that records one span per call."""
        nid = self._name_id(name)
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def spans(self, first: int = 0) -> list[tuple[str, float, float, int]]:
        """(name, start, end, parent) of the spans recorded since index `first`;
        parents are re-indexed from there, and -1 marks a top-level span."""
        return [
            (self.names[n], s, e, p - first if p >= first else -1)
            for n, s, e, p in zip(
                self.span_name[first:],
                self.span_start[first:],
                self.span_end[first:],
                self.span_parent[first:],
            )
        ]

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON columns (name table plus one array per field)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                    "parent": self.span_parent.tolist(),
                },
                handle,
            )

    # -- patching --------------------------------------------------------

    def _replace_everywhere(self, pkg, original, wrapper) -> None:
        """Point every module-level or dict reference to `original` at `wrapper`."""
        for mod_name in ("__init__",) + LAYERS:
            module = pkg if mod_name == "__init__" else getattr(pkg, mod_name)
            namespaces = [vars(module)]
            namespaces += [
                v for k, v in vars(module).items() if type(v) is dict and not k.startswith("__")
            ]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        self._patches.append((ns, key, original, False))

    def _replace_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original))
        self._patches.append((cls, attr, original, True))

    def install(self, pkg) -> None:
        """Wrap the public entry points of every layer of the loaded package `pkg`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = []  # (original, wrapper): wrap everything before patching anything

        def plan(name, fn, on_result=None):
            wrappers.append((fn, self.wrap(name, fn, on_result)))

        plan("cli.main", pkg.cli.main)
        plan("report.make_report", pkg.report.make_report)
        for fn_name in RENDERERS:
            plan(
                "report.render",
                getattr(pkg.report, fn_name),
                lambda text, a, k: self.add("report.output_bytes", len(text.encode("utf-8"))),
            )
        for suite in SUITES:
            plan(
                f"suites.{suite}",
                getattr(pkg.suites, f"{suite}_reports"),
                lambda reports, a, k: self.add("suites.reports", len(reports)),
            )
        suite_fns = {f"{s}_reports" for s in SUITES}
        for fn_name, fn in _public_functions(pkg.suites).items():
            if fn_name not in suite_fns:
                plan("suites.other", fn)
        for layer in ("sqfree", "tori"):
            for fn in _public_functions(getattr(pkg, layer)).values():
                plan(f"{layer}.fn", fn)
        plan("exact.poly_gcd", pkg.exact.poly_gcd)

        def count_polys(stats, args, kwargs):
            self.add("ffpoly.polys_visited", stats.total_monic)
            if stats.disc_residue is not None:
                self.add("ffpoly.disc_polys_visited", stats.disc_residue + stats.disc_nonresidue)

        plan("ffpoly.enumerate_stats", pkg.ffpoly.enumerate_stats, count_polys)

        for original, wrapper in wrappers:
            self._replace_everywhere(pkg, original, wrapper)
        for op, attr in SERIES_OPS.items():
            self._replace_method(pkg.series.TruncatedSeries, attr, f"series.{op}")
        for attr in RF_OPS:
            self._replace_method(pkg.exact.RationalFunction, attr, "exact.rf_arith")

    def restore(self) -> None:
        for target, key, original, is_attr in reversed(self._patches):
            if is_attr:
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches.clear()


# ---------------------------------------------------------------------------
# from spans to metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of the intervals its children cover.

    `spans` is a list of (name, start, end, parent_index) in start order,
    as `Tracer.spans` returns them.
    """
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)  # latest child end seen per parent
    for _, start, end, parent in spans:
        if parent < 0:
            continue
        lo = max(start, reach[parent])
        if end > lo:
            covered[parent] += end - lo
        reach[parent] = max(reach[parent], end)
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]


def layer_metrics(spans, counts: dict, caches: dict) -> dict[str, float]:
    """Per-layer metric values from one traced section.

    `counts` holds the tracer's result-hook numbers and `caches` the
    lru_cache deltas from `cache_delta`.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    longest: dict[str, float] = {}
    for (name, start, end, _), s in zip(spans, selfs):
        self_s[name] = self_s.get(name, 0.0) + s
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        longest[name] = max(longest.get(name, 0.0), end - start)

    def group_self(prefix):
        return sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)

    def group_calls(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    m: dict[str, float] = {}
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    m["report.render.s"] = self_s.get("report.render", 0.0)
    m["report.output_bytes"] = counts.get("report.output_bytes", 0)
    m["report.make_report.calls"] = calls.get("report.make_report", 0)
    for suite in SUITES:
        m[f"suites.{suite}.s"] = incl_s.get(f"suites.{suite}", 0.0)
    m["suites.self_s"] = group_self("suites.")
    m["suites.reports"] = counts.get("suites.reports", 0)
    for layer in ("sqfree", "tori"):
        m[f"{layer}.self_s"] = group_self(f"{layer}.")
        m[f"{layer}.calls"] = group_calls(f"{layer}.")
    for op in SERIES_OPS:
        m[f"series.{op}.s"] = self_s.get(f"series.{op}", 0.0)
        m[f"series.{op}.calls"] = calls.get(f"series.{op}", 0)
    for op in ("poly_gcd", "rf_arith"):
        m[f"exact.{op}.s"] = self_s.get(f"exact.{op}", 0.0)
        m[f"exact.{op}.calls"] = calls.get(f"exact.{op}", 0)
    enum_s = self_s.get("ffpoly.enumerate_stats", 0.0)
    visited = counts.get("ffpoly.polys_visited", 0)
    m["ffpoly.enumerate_stats.s"] = enum_s
    m["ffpoly.enumerate_stats.calls"] = calls.get("ffpoly.enumerate_stats", 0)
    m["ffpoly.enumerate_stats.max_s"] = longest.get("ffpoly.enumerate_stats", 0.0)
    m["ffpoly.polys_visited"] = visited
    m["ffpoly.polys_per_s"] = visited / enum_s if enum_s > 0 else 0.0
    m["ffpoly.disc_polys_visited"] = counts.get("ffpoly.disc_polys_visited", 0)
    m.update(caches)
    return m
