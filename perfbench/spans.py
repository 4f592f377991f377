"""Span tracing of the simulator's layers, installed from outside.

Each layer is one ``repro`` package.  :class:`Tracer` replaces the
functions a layer exposes with wrappers that record a span per call:
public functions and methods, constructors, and the generator methods
the simulation kernel drives as processes (whatever their name).  A
wrapped generator is replaced by a forwarding generator that opens one
span per resume and passes every ``send``, ``throw`` and ``close`` on
unchanged, so the kernel sees the same yields in the same order and the
simulated results do not move.

A layer's self time is its spans' durations minus the time their child
spans cover.  Spans are kept in memory (compact arrays) and written out
with :meth:`Tracer.write` when the run ends.  :meth:`Tracer.remove`
puts every original function back.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time

#: Measured layers: ``repro`` packages, in reporting order.
LAYERS = (
    "sim",
    "terminal",
    "server",
    "sched",
    "storage",
    "prefetch",
    "bufferpool",
    "cpu",
    "netsim",
    "layout",
    "media",
    "core",
    "cluster",
    "workload",
    "sharing",
    "proxy",
    "experiments",
)


def _wanted(name: str, fn) -> bool:
    return (
        not name.startswith("_")
        or name == "__init__"
        or inspect.isgeneratorfunction(fn)
    )


class Tracer:
    """Records spans at every layer boundary while installed."""

    def __init__(self) -> None:
        self.layer_ids = {layer: index for index, layer in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        #: Per function (``"layer:Qual.name"``): calls, generator resumes
        #: and inclusive seconds.
        self.functions: list[str] = []
        self.calls: list[int] = []
        self.resumes: list[int] = []
        self.inclusive_s: list[float] = []
        #: Spans in closing order: id (opening order), parent id (-1 at
        #: the top), layer, function, start and end seconds.
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_layer = array.array("b")
        self.span_function = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._opened = 0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        #: Buffer-pool scan accounting (see :meth:`_count_scans`).
        self.victims_found = 0
        self.pages_scanned = 0
        self._scanning = 0
        #: Host seconds the tracer was installed (see ``__enter__``).
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _open(self) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._opened, parent, 0.0, time.perf_counter()]
        self._opened += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, layer: int, function: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, child_s, start = frame
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.inclusive_s[function] += duration
        if self._stack:
            self._stack[-1][2] += duration
        self.span_id.append(span_id)
        self.span_parent.append(parent)
        self.span_layer.append(layer)
        self.span_function.append(function)
        self.span_start.append(start)
        self.span_end.append(end)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _register(self, key: str) -> int:
        self.functions.append(key)
        self.calls.append(0)
        self.resumes.append(0)
        self.inclusive_s.append(0.0)
        return len(self.functions) - 1

    def _wrap(self, layer_name: str, fn):
        layer = self.layer_ids[layer_name]
        function = self._register(f"{layer_name}:{fn.__qualname__}")
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            drive = self._drive

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[function] += 1
                generator = drive(fn(*args, **kwargs), layer, function)
                # Processes are named after their generator by default.
                generator.__name__ = fn.__name__
                generator.__qualname__ = fn.__qualname__
                return generator

            return traced_generator
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[function] += 1
            frame = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame, layer, function)

        return traced

    def _drive(self, generator, layer: int, function: int):
        """Forward every resume to *generator*, one span each."""
        resumes = self.resumes
        value = None
        error = None
        while True:
            resumes[function] += 1
            frame = self._open()
            try:
                if error is None:
                    target = generator.send(value)
                else:
                    target = generator.throw(error)
            except StopIteration as stop:
                self._close(frame, layer, function)
                return stop.value
            except BaseException:
                self._close(frame, layer, function)
                raise
            self._close(frame, layer, function)
            error = None
            try:
                value = yield target
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # thrown in: forward it
                error, value = exc, None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> "Tracer":
        """Wrap every layer's entry points in the loaded ``repro``
        modules, including the references other modules imported."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name.startswith("repro.") and module is not None
        ]
        holders = modules + [
            module for name, module in list(sys.modules.items())
            if name == "workloads"
        ]
        for module in modules:
            layer = module.__name__.split(".")[1]
            if layer not in self.layer_ids:
                continue
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and _wanted(attr, fn):
                            self._patch(obj, attr, self._wrap(layer, fn))
                elif inspect.isfunction(obj) and _wanted(name, obj):
                    traced = self._wrap(layer, obj)
                    for holder in holders:
                        for alias, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, alias, traced)
        self._count_scans()
        return self

    def _count_scans(self) -> None:
        """Count the pages each victim search inspects and the victims
        it finds: ``Page.evictable`` reads made inside ``victim()``."""
        from repro.bufferpool import policies
        from repro.bufferpool.page import Page

        tracer = self
        evictable = Page.evictable.fget

        def counted_evictable(page):
            if tracer._scanning:
                tracer.pages_scanned += 1
            return evictable(page)

        self._patch(Page, "evictable", property(counted_evictable))
        for cls in (policies.GlobalLru, policies.LovePrefetch):
            victim = cls.victim

            def counted_victim(*args, _victim=victim, **kwargs):
                tracer._scanning += 1
                try:
                    page = _victim(*args, **kwargs)
                finally:
                    tracer._scanning -= 1
                if page is not None:
                    tracer.victims_found += 1
                return page

            self._patch(cls, "victim", counted_victim)

    def __enter__(self) -> "Tracer":
        self.wall_s -= time.perf_counter()
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()
        self.wall_s += time.perf_counter()

    def remove(self) -> None:
        """Put every original function back (in reverse order)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def count(self, layer: str, *qualnames: str, resumes: bool = False) -> int:
        """Calls (or resumes) of the named functions of *layer*."""
        source = self.resumes if resumes else self.calls
        keys = {f"{layer}:{name}" for name in qualnames}
        return sum(n for key, n in zip(self.functions, source) if key in keys)

    def count_named(self, layer: str, method: str) -> int:
        """Calls of every *layer* function whose own name is *method*."""
        prefix = f"{layer}:"
        return sum(
            n
            for key, n in zip(self.functions, self.calls)
            if key.startswith(prefix) and key.rsplit(".", 1)[-1] == method
        )

    def inclusive(self, layer: str, qualname: str) -> float:
        key = f"{layer}:{qualname}"
        return sum(s for k, s in zip(self.functions, self.inclusive_s) if k == key)

    def layer_self_s(self) -> dict[str, float]:
        return dict(zip(LAYERS, self.self_s))

    def write(self, path: str) -> None:
        """Write the spans: a one-line JSON header naming the layers,
        the functions and the column arrays, then each column's raw
        bytes in header order (readable with ``array.frombytes``)."""
        columns = [
            ("id", self.span_id),
            ("parent", self.span_parent),
            ("layer", self.span_layer),
            ("function", self.span_function),
            ("start_s", self.span_start),
            ("end_s", self.span_end),
        ]
        header = {
            "layers": LAYERS,
            "functions": self.functions,
            "spans": len(self.span_id),
            "columns": [
                [name, column.typecode, column.itemsize] for name, column in columns
            ],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _, column in columns:
                column.tofile(out)
