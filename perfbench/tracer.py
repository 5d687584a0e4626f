"""In-process tracing of meshsum's layers by wrapping their functions.

``Tracer.install`` replaces every public function of the eight layer
modules with a timing wrapper at every place the function is bound: its
own module and every module that imported the name directly (``report``
binds ``predict_layers``, ``cli`` binds ``growth_report`` and so on).
``uninstall`` puts the originals back.

A wrapped call becomes a span (name, start, end, parent, thread, thread
CPU time, process high-water RSS at its end) kept in memory.  Span stacks
are per thread; a task submitted to a ``ThreadPoolExecutor`` inherits the
submitting thread's open span as its parent, so verify's pool workers and
``growth_report``'s prediction thread hang under the right span.  After a
function has made ``SPAN_LIMIT`` spans in a thread, and for any call made
inside such an aggregated call, only a count and total time are kept.

Self time of a span is its duration minus the union of its child spans'
intervals (children in any thread, so parallel children are not counted
twice) minus the time of its aggregated direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import resource
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("exact", "mesh", "growth", "summation", "render", "report", "verify", "cli")
SPAN_LIMIT = 1000


class _Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "cpu", "rss", "agg_child")

    def __init__(self, span_id, name, parent, thread, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = start
        self.cpu = 0.0
        self.rss = 0
        self.agg_child = 0.0


class _AggFrame:
    __slots__ = ("agg_child",)

    def __init__(self):
        self.agg_child = 0.0


class _Stats:
    """Per-thread, per-function tallies; merged when the run ends."""

    __slots__ = ("calls", "spans", "total_s", "agg_self_s", "work", "disks")

    def __init__(self):
        self.calls = 0
        self.spans = 0
        self.total_s = 0.0
        self.agg_self_s = 0.0
        self.work: dict[str, int] = {}
        self.disks: set = set()


def _count_work(name, stats, args, result):
    """Work counts measured where the work happens."""
    work = stats.work
    if name == "exact.int_to_json":
        work["digits"] = work.get("digits", 0) + len(result)
    elif name in ("report.canonical_json", "render.emit_svg"):
        # both are ASCII, so characters are bytes; encoding would copy
        work["bytes"] = work.get("bytes", 0) + len(result)
    elif name == "growth.predict_layers":
        work["layers"] = work.get("layers", 0) + len(result)
    elif name == "mesh.expand":
        built = result.graph.vertex_count - args[0].graph.vertex_count
        work["vertices"] = work.get("vertices", 0) + built
    elif name == "mesh.count_explicit":
        # (r, layer, vertex count) names a disk of one seed kind: the two
        # canonical seeds never share a vertex count at the same layer.
        # ids are reused after a disk is freed, so id() would not do.
        disk = args[0]
        stats.disks.add((disk.ambient_degree, disk.layer_index, disk.graph.vertex_count))


class Tracer:
    """Wrap meshsum's public functions; collect spans and per-function stats."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._threads: list[tuple[list, dict]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state -------------------------------------------------
    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.spans, tls.stats
        except AttributeError:
            tls.stack, tls.spans, tls.stats = [], [], {}
            tls.inherited = None
            with self._lock:
                self._threads.append((tls.spans, tls.stats))
            return tls.stack, tls.spans, tls.stats

    def current_span(self):
        """Id of the innermost open span in this thread, or its inherited parent."""
        stack, _, _ = self._state()
        for frame in reversed(stack):
            if isinstance(frame, _Span):
                return frame.id
        return self._tls.inherited

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        cpu_clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, all_stats = tracer._state()
            stats = all_stats.get(name)
            if stats is None:
                stats = all_stats[name] = _Stats()
            top = stack[-1] if stack else None
            if isinstance(top, _AggFrame) or stats.spans >= SPAN_LIMIT:
                frame = _AggFrame()
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    stats.calls += 1
                    stats.total_s += duration
                    stats.agg_self_s += duration - frame.agg_child
                    if top is not None:
                        top.agg_child += duration
                _count_work(name, stats, args, result)
                return result

            parent = top.id if top is not None else tracer._tls.inherited
            span = _Span(next(tracer._ids), name, parent, threading.get_ident(), clock())
            stack.append(span)
            cpu_start = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                span.cpu = cpu_clock() - cpu_start
                span.rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                stack.pop()
                spans.append(span)
                stats.calls += 1
                stats.spans += 1
                stats.total_s += span.end - span.start
            _count_work(name, stats, args, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"meshsum.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "meshsum" and not mod_name.startswith("meshsum."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

        tracer = self
        original_submit = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current_span()

            def run(*a, **k):
                tracer._state()
                saved, tracer._tls.inherited = tracer._tls.inherited, parent
                try:
                    return fn(*a, **k)
                finally:
                    tracer._tls.inherited = saved

            return original_submit(pool, run, *args, **kwargs)

        self._patch(ThreadPoolExecutor, "submit", submit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------
    def spans(self) -> list[_Span]:
        with self._lock:
            return sorted((s for spans, _ in self._threads for s in spans), key=lambda s: s.id)

    def summary(self) -> dict[str, dict]:
        """Per-function calls, total/self/wait seconds and work counts."""
        merged: dict[str, dict] = {}
        disks: dict[str, set] = {}
        with self._lock:
            threads = list(self._threads)
        for _, stats in threads:
            for name, st in stats.items():
                entry = merged.setdefault(
                    name, {"calls": 0, "spans": 0, "total_s": 0.0, "self_s": 0.0, "wait_s": 0.0}
                )
                entry["calls"] += st.calls
                entry["spans"] += st.spans
                entry["total_s"] += st.total_s
                entry["self_s"] += st.agg_self_s
                for key, value in st.work.items():
                    entry[key] = entry.get(key, 0) + value
                disks.setdefault(name, set()).update(st.disks)

        spans = self.spans()
        children: dict[int, list[_Span]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        for span in spans:
            duration = span.end - span.start
            covered = _union_length(
                (max(c.start, span.start), min(c.end, span.end)) for c in children.get(span.id, ())
            )
            entry = merged[span.name]
            entry["self_s"] += max(0.0, duration - covered - span.agg_child)
            entry["wait_s"] += max(0.0, duration - span.cpu)
        for name, keys in disks.items():
            if keys:
                merged[name]["disks"] = len(keys)
        return merged

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines; returns how many were written."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "thread": s.thread,
                            "start": s.start,
                            "end": s.end,
                            "thread_cpu_s": s.cpu,
                            "maxrss_kb": s.rss,
                        }
                    )
                    + "\n"
                )
        return len(spans)


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def per_layer_value(metric: str, summary: dict[str, dict]) -> float:
    """Value of a ``<layer>.<function>.<stat>`` metric from a summary.

    A function the run never called reads 0.  ``vertices_per_s`` is
    vertices built over self time; ``per_disk`` is calls over distinct
    disks.
    """
    layer, function, stat = metric.split(".")
    entry = summary.get(f"{layer}.{function}")
    if entry is None:
        return 0
    if stat == "vertices_per_s":
        return entry.get("vertices", 0) / entry["self_s"] if entry["self_s"] > 0 else 0.0
    if stat == "per_disk":
        return entry["calls"] / entry["disks"] if entry.get("disks") else 0.0
    return entry.get(stat, 0)
