"""Span tracer for schubcalc, installed from outside the package.

Every public function (the names in ``schubcalc.__all__`` plus
``schubcalc.cli.main``) is wrapped in every ``schubcalc.*`` module
namespace that binds it, found by identity: ``from schubcalc.chow import
multiply`` copies the name into ``search``, and calls through that copy
must be traced too.  A span records its function, its parent span, the
benchmark item it belongs to, its start and its duration; self time is
the duration minus the time covered by child spans.  Spans stay in flat
arrays in memory and are written out once, when the run ends.

Memos are found by introspection (anything with ``cache_info``), never
by private name, so they survive renames in the package.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter


def package_modules() -> list:
    """Loaded ``schubcalc`` modules, sorted by name."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "schubcalc" or name.startswith("schubcalc."))
    ]


def layer_of(obj) -> str:
    """Short module name of a function: ``schubcalc.chow`` -> ``chow``."""
    return obj.__module__.rpartition(".")[2]


def public_functions() -> dict:
    """``{"layer.name": function}`` for every public function of the package."""
    import schubcalc
    import schubcalc.cli

    out = {}
    for name in schubcalc.__all__:
        obj = getattr(schubcalc, name)
        if isinstance(obj, type) or not callable(obj):
            continue
        out[f"{layer_of(obj)}.{obj.__name__}"] = obj
    out["cli.main"] = schubcalc.cli.main
    return out


def find_memos() -> dict:
    """``{"layer.memo.name": cached_function}`` for every memo the package defines."""
    memos = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and (
                getattr(obj, "__module__", None) == mod.__name__
            ):
                memos[f"{layer_of(obj)}.memo.{attr}"] = obj
    return memos


class MemoStats:
    """Hit/miss totals of the package memos over one pass.

    ``clear`` folds the current counts into the totals before emptying
    the memos, so a pass that clears between items (the in-process CLI
    replay, which mimics one fresh process per command) still reports
    every lookup it made.
    """

    def __init__(self, memos: dict) -> None:
        self.memos = memos
        self.totals = {name: [0, 0, 0] for name in memos}

    def absorb(self) -> None:
        for name, memo in self.memos.items():
            info = memo.cache_info()
            t = self.totals[name]
            t[0] += info.hits
            t[1] += info.misses
            t[2] = max(t[2], info.currsize)

    def clear(self) -> None:
        self.absorb()
        clear_memos(self.memos)

    def metrics(self) -> dict:
        out = {}
        for name, (hits, misses, currsize) in self.totals.items():
            lookups = hits + misses
            out[f"{name}.hits"] = hits
            out[f"{name}.misses"] = misses
            out[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{name}.currsize"] = currsize
        return out


def clear_memos(memos: dict) -> None:
    for memo in memos.values():
        memo.cache_clear()


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self, functions: dict) -> None:
        self.names = list(functions)
        self.functions = functions
        self._search_ids = {i for i, q in enumerate(self.names) if q.startswith("search.")}
        self._bindings: list = []
        self.reset()

    def reset(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.items: list[str] = []
        self.current_item = -1
        self.partitions_built = 0
        self.lr_nonzero = 0
        self.pairs_scanned = 0
        self.scan_time = 0.0
        self.t0 = perf_counter()

    def mark(self, label: str) -> None:
        """Attribute the spans that follow to the benchmark item ``label``."""
        self.current_item = len(self.items)
        self.items.append(label)

    def install(self) -> None:
        modules = package_modules()
        for fid, (qual, fn) in enumerate(self.functions.items()):
            wrapper = self._wrap(fid, qual, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, fn)
        self._bindings.clear()

    def _wrap(self, fid: int, qual: str, fn):
        tracer = self
        layer = qual.partition(".")[0]
        counts_built = qual == "core.box_partitions" and hasattr(fn, "cache_info")
        counts_nonzero = qual == "chow.lr_coefficient"
        counts_scan = layer == "search"
        search_ids = self._search_ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            sid = len(tracer.fn)
            parent = stack[-1] if stack else -1
            tracer.fn.append(fid)
            tracer.parent.append(parent)
            tracer.item.append(tracer.current_item)
            tracer.dur.append(0.0)
            tracer.child.append(0.0)
            stack.append(sid)
            misses = fn.cache_info().misses if counts_built else 0
            start = perf_counter()
            tracer.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                tracer.dur[sid] = dur
                if parent >= 0:
                    tracer.child[parent] += dur
            if counts_built and fn.cache_info().misses > misses:
                tracer.partitions_built += len(result)
            elif counts_nonzero and result:
                tracer.lr_nonzero += 1
            elif counts_scan and (parent < 0 or tracer.fn[parent] not in search_ids):
                scanned = getattr(result, "hypothesis_count", None)
                if scanned is None:
                    scanned = getattr(result, "scanned_pair_count", None)
                if scanned is not None:
                    tracer.pairs_scanned += scanned
                    tracer.scan_time += dur
            return result

        return traced

    def layer_metrics(self) -> dict:
        """Calls and self time per public function, plus the derived counters."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for fid, dur, child in zip(self.fn, self.dur, self.child):
            calls[fid] += 1
            self_s[fid] += dur - child
        out = {}
        for fid, qual in enumerate(self.names):
            out[f"{qual}.calls"] = calls[fid]
            out[f"{qual}.self_s"] = self_s[fid]
        lr_calls = out.get("chow.lr_coefficient.calls", 0)
        out["core.box_partitions.partitions_built"] = self.partitions_built
        out["chow.lr_coefficient.nonzero_ratio"] = self.lr_nonzero / lr_calls if lr_calls else 0.0
        out["search.pairs_scanned"] = self.pairs_scanned
        out["search.pairs_per_s"] = self.pairs_scanned / self.scan_time if self.scan_time else 0.0
        return out

    def write(self, path) -> None:
        """Write the recorded spans as gzip-compressed tab-separated values."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\titem\tname\tstart_s\tdur_s\tself_s\n")
            names, items, t0 = self.names, self.items, self.t0
            for sid in range(len(self.fn)):
                it = self.item[sid]
                f.write(
                    f"{sid}\t{self.parent[sid]}\t{items[it] if it >= 0 else ''}\t"
                    f"{names[self.fn[sid]]}\t{self.start[sid] - t0:.9f}\t"
                    f"{self.dur[sid]:.9f}\t{self.dur[sid] - self.child[sid]:.9f}\n"
                )
