"""Spans recorded around the package's public functions, from outside.

A traced pass replaces each function a per-layer metric names with a wrapper
that records one span per call: name, start, end, parent span and op id.
The replacement is made in every ``cyclic_wonderful`` module that bound the
function (``solve_columns`` is bound in ``linalg``, ``fan`` and
``normal_complex``), so every caller goes through it.  Spans stay in flat
arrays in memory and are written out once, when the pass ends.

A layer's self time is its span's duration minus the part of that interval
that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# stat -> which results count as the useful outcome the ratio reports
RATIO_TESTS = {
    "hit_ratio": lambda result: result is not None,  # Cone.coefficients found the point
    "pivot_ratio": bool,  # SparseEliminator.add raised the rank
    "outside_ratio": lambda result: not result,  # in_convex_hull: the point is extreme
}
NO_FLAG = -1


class SpanStore:
    """Flat arrays of spans; index k holds span k."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.flag = array("b")
        self.stack: list[int] = []
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.flag.append(NO_FLAG)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, func, name: str, ratio_test=None):
        """``func`` with a span per call; a generator is drained inside it."""
        name_id = self.name_id(name)
        drain = inspect.isgeneratorfunction(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = func(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                self.close(idx)
            if ratio_test is not None:
                self.flag[idx] = 1 if ratio_test(result) else 0
            return result

        return traced

    def dump(self, path) -> None:
        """One tab-separated line per span: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart\tend\n")
            fh.writelines(
                f"{k}\t{self.parent[k]}\t{self.op[k]}\t{self.names[self.name[k]]}"
                f"\t{self.start[k]!r}\t{self.end[k]!r}\n"
                for k in range(len(self.start))
            )


def install(store: SpanStore, layer_names, package: str = "cyclic_wonderful") -> None:
    """Wrap every function named by a ``<module>.<qualname>.<stat>`` metric."""
    stats: dict[str, set[str]] = {}
    for metric in layer_names:
        target, stat = metric.rsplit(".", 1)
        stats.setdefault(target, set()).add(stat)
    for target in stats:
        importlib.import_module(f"{package}.{target.split('.', 1)[0]}")
    modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
    for target, wanted in stats.items():
        module_name, qualname = target.split(".", 1)
        module = sys.modules[f"{package}.{module_name}"]
        tests = [RATIO_TESTS[s] for s in wanted if s in RATIO_TESTS]
        ratio_test = tests[0] if tests else None
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            orig = owner.__dict__[attr]
            if isinstance(orig, functools.cached_property):
                prop = functools.cached_property(store.wrap(orig.func, target, ratio_test))
                prop.__set_name__(owner, attr)
                setattr(owner, attr, prop)
            else:
                setattr(owner, attr, store.wrap(orig, target, ratio_test))
            continue
        orig = getattr(module, attr)
        traced = store.wrap(orig, target, ratio_test)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for k, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[k], end[k]))
    return [
        (end[k] - start[k]) - covered_length(start[k], end[k], children.get(k, ()))
        for k in range(len(start))
    ]


def summarize(store: SpanStore, roots: set[str], timed_root: str) -> tuple[dict[str, dict], float]:
    """Per-name calls, total time, self time and flagged results of the spans
    inside a top-level span named in ``roots`` (spans outside them, such as
    those of the output checks, are left out), plus the summed self time of
    the spans inside top-level spans named ``timed_root``."""
    selfs = self_times(store.start, store.end, store.parent)
    root_of = array("i", [-1]) * len(store.start)
    per_name: dict[str, dict] = {}
    timed_self = 0.0
    for k in range(len(store.start)):
        p = store.parent[k]
        if p >= 0:
            root_of[k] = root_of[p]
        elif store.names[store.name[k]] in roots:
            root_of[k] = k
        if root_of[k] < 0:
            continue
        if store.names[store.name[root_of[k]]] == timed_root:
            timed_self += selfs[k]
        row = per_name.setdefault(
            store.names[store.name[k]], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "flagged": 0}
        )
        row["calls"] += 1
        row["total_s"] += store.end[k] - store.start[k]
        row["self_s"] += selfs[k]
        row["flagged"] += store.flag[k] == 1
    return per_name, timed_self
