"""Spans around the public functions of infgon, for the traced run.

``Tracer.install()`` wraps every public function of the layer modules by
replacing the module attributes that hold it, in this process only; no
file changes.  While ``enabled``, each call records one span (name,
start, end, parent span, operation id) in flat arrays kept in memory;
``write()`` stores them when the run ends.  Self time and per-operation
call counts are derived from the spans.

Coordinate helpers that cost well under a microsecond (listed in
``UNWRAPPED``) are left alone: they would make up most of the spans and
most of the overhead, and their time stays in their caller's self time.
"""
from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("quiver", "arcs", "graded", "configurations", "approximations", "diagram", "cli")

UNWRAPPED = frozenset(
    {
        "quiver.shift_object",
        "quiver.wedge_contains",
        "quiver.h_region_contains",
        "arcs.object_to_arc",
        "arcs.arc_to_object",
        "arcs.translate_arc",
        "arcs.arc_sort_key",
        "arcs.parse_arc",
        "arcs.format_arc",
    }
)


def _truncation(args, kwargs):
    return f"n{args[2] if len(args) > 2 else kwargs['truncation']}"


def _window(args, kwargs):
    window = args[1] if len(args) > 1 else kwargs.get("window", (-16, 16))
    return f"w{(window[1] - window[0]) // 2}"


# Calls of these functions are told apart by an argument: the truncation
# of a tower, the half-width of a classification window.
TAGS = {
    "graded.build_hom_tower": _truncation,
    "graded.build_inverse_hom_tower": _truncation,
    "graded.prufer_prufer_tower": _truncation,
    "configurations.classify": _window,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.enabled = False

    def __len__(self) -> int:
        return len(self.name)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        tag = TAGS.get(name)
        nid = self._id(name)
        ids = self._id
        names, start, end, parent, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack,
        )

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(ids(f"{name}.{tag(args, kwargs)}") if tag else nid)
            parent.append(stack[-1])
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer."""
        modules = [importlib.import_module("infgon." + layer) for layer in LAYERS]
        everywhere = [m for n, m in sys.modules.items() if n == "infgon" or n.startswith("infgon.")]
        for layer, module in zip(LAYERS, modules):
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                if name in UNWRAPPED:
                    continue
                wrapped = self.wrap(name, fn)
                for other in everywhere:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)

    def write(self, path: str) -> None:
        """Spans as gzip: one JSON header line (names, count, layout),
        then the five arrays back to back in native byte order."""
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": ["name:i", "start:d", "end:d", "parent:i", "op:i"],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                fh.write(arr.tobytes())


class Summary:
    """Per-name durations, self times and per-operation counts of the
    spans whose operation ids fall in a range."""

    def __init__(self, tracer: Tracer, first_op: int, last_op: int) -> None:
        names, start, end, parent, op = (
            tracer.name, tracer.start, tracer.end, tracer.parent, tracer.op,
        )
        lo = next((i for i in range(len(op)) if op[i] >= first_op), len(op))
        hi = next((i for i in range(len(op) - 1, -1, -1) if op[i] <= last_op), -1) + 1
        child = {}
        for i in range(lo, hi):
            p = parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + end[i] - start[i]
        self.durations: dict[str, list] = {}
        self.self_time: dict[str, float] = {}
        for i in range(lo, hi):
            name = tracer.names[names[i]]
            d = end[i] - start[i]
            self.durations.setdefault(name, []).append(d)
            self.self_time[name] = self.self_time.get(name, 0.0) + d - child.get(i, 0.0)
        self.ops = max(1, last_op - first_op + 1)

    def mean(self, name: str, scale: float) -> float:
        d = self.durations.get(name)
        return sum(d) / len(d) * scale if d else 0.0

    def median(self, name: str, scale: float) -> float:
        d = self.durations.get(name)
        return statistics.median(d) * scale if d else 0.0

    def per_op(self, prefix: str) -> float:
        return sum(len(d) for n, d in self.durations.items() if n.startswith(prefix)) / self.ops

    def self_per_op(self, prefix: str, scale: float) -> float:
        return sum(t for n, t in self.self_time.items() if n.startswith(prefix)) / self.ops * scale
